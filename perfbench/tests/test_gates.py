"""Every correctness gate passes on a clean outcome and fires on a tampered one."""

import copy

from perfbench import gates
from repro.core.system import FleccSystem, run_all_scripts
from repro.testing import (
    Agent, Store, extract_from_object, extract_from_view, merge_into_object,
    merge_into_view, props_for,
)

INITIAL = {
    "FL00000": {"seats_available": 100, "capacity": 120},
    "FL00001": {"seats_available": 50, "capacity": 50},
}


def _sold(state, made):
    return gates.seats_sold_equal_made(INITIAL, state, made)


def test_sold_equals_made():
    final = copy.deepcopy(INITIAL)
    final["FL00000"]["seats_available"] -= 3
    final["FL00001"]["seats_available"] -= 2
    assert _sold(final, 5) == []
    assert _sold(final, 6)                      # a reservation never reached the primary
    final["FL00001"]["seats_available"] += 1    # a lost update resurrected a seat
    assert _sold(final, 5)


def test_seats_within_capacity():
    assert gates.seats_within_capacity(INITIAL) == []
    over = copy.deepcopy(INITIAL)
    over["FL00001"]["seats_available"] = 51
    assert gates.seats_within_capacity(over)
    under = copy.deepcopy(INITIAL)
    under["FL00000"]["seats_available"] = -1
    assert gates.seats_within_capacity(under)


def test_views_equal_primary():
    views = {"w000": {"FL00000": dict(INITIAL["FL00000"])},
             "w001": copy.deepcopy(INITIAL)}
    assert gates.views_equal_primary(views, INITIAL) == []
    views["w001"]["FL00001"]["seats_available"] = 49
    assert gates.views_equal_primary(views, INITIAL)


def test_states_equal():
    assert gates.states_equal(INITIAL, copy.deepcopy(INITIAL)) == []
    changed = copy.deepcopy(INITIAL)
    changed["FL00000"]["seats_available"] = 99
    assert gates.states_equal(INITIAL, changed)
    missing = copy.deepcopy(INITIAL)
    del missing["FL00001"]
    assert gates.states_equal(INITIAL, missing)


def test_problem_lists_are_capped():
    bad = {f"FL{i:05d}": {"seats_available": -1, "capacity": 1} for i in range(20)}
    problems = gates.seats_within_capacity(bad)
    assert len(problems) == 6 and problems[-1].startswith("...")


def test_invariants_gate_on_a_real_directory():
    system = FleccSystem("sim", Store({"a": 1}), extract_from_object, merge_into_object)
    cms = [system.add_view(v, Agent(), props_for(["a"]), extract_from_view,
                           merge_into_view, mode="strong") for v in ("v1", "v2")]

    def script(cm):
        yield cm.start()
        yield cm.init_image()

    run_all_scripts(system.transport, [script(cm) for cm in cms])
    dm = system.directory
    assert gates.invariants_hold(dm.check_invariants) == []
    # Tamper: mark both conflicting views active while one owns exclusively.
    dm.views["v1"].active = True
    dm.views["v2"].active = True
    dm.views["v1"].exclusive = True
    assert gates.invariants_hold(dm.check_invariants)


def test_run_gates_summary():
    ok = gates.run_gates({"a": [], "b": []})
    assert ok["passed"] and ok["results"] == {"a": "ok", "b": "ok"}
    bad = gates.run_gates({"a": [], "b": ["broken"]})
    assert not bad["passed"] and bad["results"]["b"] == ["broken"]
