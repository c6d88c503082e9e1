"""O(slice) directory op path: the scoped per-op invariant check,
index-routed full serves, and release of killed cache managers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airline import Flight, FlightDatabase, build_airline_system
from repro.core import messages as M
from repro.core.sharding import ShardedFleccSystem
from repro.core.system import run_all_scripts
from repro.errors import ProtocolError
from repro.net.sim_transport import SimTransport
from repro.sim import SimKernel
from repro.testing import (
    Agent,
    Store,
    extract_cells,
    extract_from_object,
    extract_from_view,
    merge_into_object,
    merge_into_view,
)

from tests.core.harness import ProtocolFixture, props_for


def _registered(views, store_cells=None, mode="weak"):
    """A fixture whose views are registered but idle (all flags off)."""
    fx = ProtocolFixture(store_cells=store_cells or {"a": 1, "b": 2, "z": 9})
    cms = [fx.add_agent(vid, cells, mode=mode)[0] for vid, cells in views.items()]

    def start(cm):
        yield cm.start()

    fx.run_scripts(*(start(cm) for cm in cms))
    return fx, fx.system.directory


def _raises(check) -> bool:
    try:
        check()
    except ProtocolError:
        return True
    return False


# -- scoped invariant check: teeth ----------------------------------------


def test_exclusive_but_inactive_view_raises():
    _, dm = _registered({"v1": ["a"]})
    dm.views["v1"].exclusive = True
    with pytest.raises(ProtocolError, match="exclusive but not active"):
        dm._check_view_invariants("v1")


def test_active_view_next_to_exclusive_owner_raises():
    _, dm = _registered({"v1": ["a"], "v2": ["a"], "v3": ["z"]})
    dm.views["v1"].active = True
    dm.views["v1"].exclusive = True
    dm.views["v2"].active = True
    dm.views["v3"].active = True
    # Checked from the served (non-exclusive) side of the pair.
    with pytest.raises(ProtocolError, match="v1 owns exclusively"):
        dm._check_view_invariants("v2")
    dm._check_view_invariants("v3")  # no conflict with the owner


def test_exclusive_owner_next_to_active_view_raises():
    _, dm = _registered({"v1": ["a"], "v2": ["a", "b"]})
    dm.views["v2"].active = True
    dm.views["v1"].active = True
    dm.views["v1"].exclusive = True
    with pytest.raises(ProtocolError, match="conflicting v2 is active"):
        dm._check_view_invariants("v1")


def test_scoped_check_passes_on_a_live_protocol_run():
    fx, dm = _registered({"v1": ["a"], "v2": ["a"]}, mode="strong")
    cm1, cm2 = fx.system.cache_managers["v1"], fx.system.cache_managers["v2"]

    def own(cm):
        yield cm.start_use_image()
        cm.end_use_image()
        yield cm.push_image()

    fx.run_scripts(own(cm1))
    fx.run_scripts(own(cm2))
    assert dm.exclusive_views() == ["v2"]
    for vid in dm.registered_views():
        dm._check_view_invariants(vid)
    dm.check_invariants()


# -- scoped invariant check: equivalence with the full check ---------------

_CELLS = ["a", "b", "c", "d"]
_views = st.lists(
    st.tuples(
        st.sets(st.sampled_from(_CELLS), min_size=1),  # slice
        st.booleans(),  # active
        st.booleans(),  # exclusive
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_views)
def test_full_check_raises_iff_some_view_check_raises(views):
    fx, dm = _registered(
        {f"v{i}": sorted(cells) for i, (cells, _, _) in enumerate(views)},
        store_cells={c: 0 for c in _CELLS},
    )
    for i, (_, active, exclusive) in enumerate(views):
        dm.views[f"v{i}"].active = active
        dm.views[f"v{i}"].exclusive = exclusive
    per_view = any(
        _raises(lambda v=vid: dm._check_view_invariants(v))
        for vid in dm.registered_views()
    )
    assert _raises(dm.check_invariants) == per_view


# -- full serves through the slice index ------------------------------------


def _count_full_extracts(dm):
    calls = []
    full = dm.extract_from_object

    def counting(component, props):
        calls.append(1)
        return full(component, props)

    dm.extract_from_object = counting
    return calls


def _full_pull(cm):
    reply = yield cm._request(M.PULL_REQ, {"since": cm._since, "full": True})
    return reply.payload["image"]


def test_full_serve_materializes_indexed_keys_only():
    fx = ProtocolFixture(store_cells={"a": 1, "b": 2, "z": 9})
    cm, agent = fx.add_agent("v", ["a", "b"])

    def setup():
        yield cm.start()
        yield cm.init_image()

    fx.run_scripts(setup())
    dm = fx.system.directory
    assert agent.local == {"a": 1, "b": 2}
    calls = _count_full_extracts(dm)
    partial0 = dm.counters["partial_extracts"]
    full0 = dm.counters["full_serves"]
    [served] = fx.run_scripts(_full_pull(cm))
    assert served.complete
    image = served.image
    assert dm.counters["full_serves"] == full0 + 1
    assert dm.counters["partial_extracts"] == partial0 + 1
    assert calls == []  # no whole-store scan
    expected = extract_from_object(fx.store, props_for(["a", "b"]))
    assert image.cells == expected.cells
    for key in expected.keys():
        assert image.versions.get(key) == dm.master_versions.get(key)


def test_filtering_hook_degrades_full_serve_to_full_extract():
    def filtering(store, props, keys):
        return extract_cells(store, props, [k for k in keys if k != "b"])

    fx = ProtocolFixture(store_cells={"a": 1, "b": 2, "z": 9}, extract_cells=filtering)
    cm, agent = fx.add_agent("v", ["a", "b"])

    def start():
        yield cm.start()

    fx.run_scripts(start())
    dm = fx.system.directory
    assert "v" in dm._slice_index  # REGISTER built it
    calls = _count_full_extracts(dm)
    [served] = fx.run_scripts(_full_pull(cm))
    assert served.image.cells == {"a": 1, "b": 2}  # nothing silently dropped
    assert len(calls) == 1
    assert "v" not in dm._slice_index  # the short entry was dropped


# -- killed cache managers leave the system's registry ----------------------


def test_killed_cm_frees_its_slot_and_id_can_be_reused():
    fx = ProtocolFixture(store_cells={"a": 1})
    cm, _ = fx.add_agent("v", ["a"])

    def setup(c):
        yield c.start()
        yield c.init_image()

    def kill():
        yield cm.kill_image()

    fx.run_scripts(setup(cm))
    fx.run_scripts(kill())
    assert "v" not in fx.system.cache_managers
    assert cm.registry is None
    cm2, agent2 = fx.add_agent("v", ["a"])
    fx.run_scripts(setup(cm2))
    assert fx.system.cache_managers == {"v": cm2}
    assert agent2.local == {"a": 1}


def test_crashed_cm_keeps_its_slot_for_recovery():
    fx = ProtocolFixture(store_cells={"a": 1})
    cm, _ = fx.add_agent("v", ["a"])

    def setup():
        yield cm.start()

    fx.run_scripts(setup())
    cm.crash()
    assert fx.system.cache_managers["v"] is cm


def test_sharded_system_releases_killed_cm():
    transport = SimTransport(SimKernel(), default_latency=1.0)
    system = ShardedFleccSystem(
        transport, Store({"k0": 0, "k1": 1}), extract_from_object,
        merge_into_object, n_shards=2, extract_cells=extract_cells,
    )
    cm = system.add_view("v", Agent(), props_for(["k0", "k1"]),
                         extract_from_view, merge_into_view)

    def life():
        yield cm.start()
        yield cm.init_image()
        yield cm.kill_image()

    run_all_scripts(transport, [life()])
    assert system.cache_managers == {}
    system.add_view("v", Agent(), props_for(["k0"]),
                    extract_from_view, merge_into_view)


def test_airline_system_shares_the_registry():
    db = FlightDatabase([Flight("FL0001", "NYC", "SFO", 10, 10, 1.0)])
    airline = build_airline_system(db)
    assert airline.cache_managers is airline.system.cache_managers
    _, cm = airline.add_travel_agent("ta-1", ["FL0001"])
    assert airline.cache_managers == {"ta-1": cm}

    def life():
        yield cm.start()
        yield cm.init_image()
        yield cm.kill_image()

    run_all_scripts(airline.transport, [life()])
    assert airline.cache_managers == {}
    airline.add_travel_agent("ta-1", ["FL0001"])
