"""Seeded inputs for the three benchmark workloads.

Everything the system under test receives comes from here: the flight
database, every agent's served slice, which agents take ownership at
set-up, and each client's operation sequence.  The same ``(workload,
seed)`` always yields identical inputs; nothing here touches the
library, so the inputs can be generated and compared without building
a system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_CITIES = ("NYC", "BOS", "SFO", "LAX", "ORD", "SEA", "MIA", "DEN", "AUS", "IAD")

#: Operations pre-generated per client.  A client that exhausts its
#: sequence starts it again from the top, so run length never depends
#: on this constant.
OPS_PER_CLIENT = 2000


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload (everything except the seed)."""

    name: str
    why: str
    mode: str                 # "strong" | "weak"
    n_flights: int
    clients: int
    n_shards: int = 1
    durable: bool = False
    validity: str = ""        # validity trigger source ("" = none)
    op_kinds: Tuple[str, ...] = ()
    params: Dict[str, int] = field(default_factory=dict)


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="strong_contended",
            why=(
                "write-heavy, directory-bound: ownership moves on ~3 ops in 4 "
                "and 500 standing owners make the per-grant invariant check "
                "grow with the fleet; slices are tiny"
            ),
            mode="strong",
            n_flights=2500,
            clients=64,
            op_kinds=("reserve",),
            params={"groups": 500, "agents_per_group": 4, "block": 5},
        ),
        WorkloadSpec(
            name="weak_browse",
            why=(
                "read-heavy: delta serves, 100-cell view merges and a "
                "validity trigger on every pull, FETCH fan-outs; no "
                "exclusive owners, so directory-invariant work stays small"
            ),
            mode="weak",
            n_flights=4000,
            clients=32,
            validity="browse_count % 20 == 19",
            op_kinds=("browse", "book"),
            params={"agents": 400, "window": 100, "book_percent": 10},
        ),
        WorkloadSpec(
            name="churn_durable",
            why=(
                "membership-heavy: join/leave sessions on a 2-shard WAL plane; "
                "the only workload through sharding and durability"
            ),
            mode="strong",
            n_flights=4000,
            clients=16,
            n_shards=2,
            durable=True,
            op_kinds=("join", "reserve", "leave"),
            params={"standing": 1000, "block": 4, "window": 20,
                    "reserves_per_session": 3},
        ),
    )
}


@dataclass(frozen=True)
class FlightRow:
    """One flight of the generated database (plain data, no library type)."""

    number: str
    origin: str
    destination: str
    capacity: int
    seats_available: int
    price: float


@dataclass(frozen=True)
class AgentSlice:
    """One standing agent: its id, served flights, and set-up ownership."""

    agent_id: str
    flights: Tuple[str, ...]
    owner_at_setup: bool = False


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the system."""

    workload: str
    seed: int
    flights: Tuple[FlightRow, ...]
    agents: Tuple[AgentSlice, ...]
    # Per client: a tuple of ops.  An op is a tuple whose first field
    # is its kind:
    #   ("reserve", agent_id, flight)
    #   ("browse", agent_id, flight) / ("book", agent_id, flight)
    #   ("session", (flight, ...window), (flight, ...reserves))
    client_ops: Tuple[Tuple[tuple, ...], ...]


def flight_number(i: int) -> str:
    return f"FL{i:05d}"


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def _flights(workload: str, seed: int, n: int) -> Tuple[FlightRow, ...]:
    rng = _rng(workload, seed, "flights")
    rows = []
    for i in range(n):
        origin, dest = rng.sample(_CITIES, 2)
        # Capacity is far above what any run can sell, so no operation
        # fails for want of seats.
        capacity = rng.randint(2000, 3000)
        rows.append(FlightRow(
            number=flight_number(i), origin=origin, destination=dest,
            capacity=capacity,
            seats_available=capacity - rng.randint(0, 100),
            price=round(rng.uniform(50.0, 500.0), 2),
        ))
    return tuple(rows)


def _strong_contended(spec: WorkloadSpec, seed: int) -> Inputs:
    p = spec.params
    groups, per_group, block = p["groups"], p["agents_per_group"], p["block"]
    rng = _rng(spec.name, seed, "slices")
    agents: List[AgentSlice] = []
    members: List[List[str]] = []
    for g in range(groups):
        flights = tuple(flight_number(g * block + j) for j in range(block))
        owner = rng.randrange(per_group)
        ids = [f"g{g:03d}a{k}" for k in range(per_group)]
        members.append(ids)
        agents.extend(
            AgentSlice(aid, flights, owner_at_setup=(k == owner))
            for k, aid in enumerate(ids)
        )
    ops = []
    for c in range(spec.clients):
        crng = _rng(spec.name, seed, f"client{c}")
        stripe = list(range(c, groups, spec.clients))
        seq = []
        for _ in range(OPS_PER_CLIENT):
            g = crng.choice(stripe)
            seq.append(("reserve", crng.choice(members[g]),
                        flight_number(g * block + crng.randrange(block))))
        ops.append(tuple(seq))
    return Inputs(spec.name, seed, _flights(spec.name, seed, spec.n_flights),
                  tuple(agents), tuple(ops))


def _weak_browse(spec: WorkloadSpec, seed: int) -> Inputs:
    p = spec.params
    n_agents, window = p["agents"], p["window"]
    rng = _rng(spec.name, seed, "slices")
    windows = []
    for a in range(n_agents):
        lo = rng.randrange(spec.n_flights - window + 1)
        windows.append(tuple(flight_number(lo + j) for j in range(window)))
    agents = tuple(AgentSlice(f"w{a:03d}", windows[a]) for a in range(n_agents))
    ops = []
    for c in range(spec.clients):
        crng = _rng(spec.name, seed, f"client{c}")
        stripe = list(range(c, n_agents, spec.clients))
        seq = []
        for _ in range(OPS_PER_CLIENT):
            a = crng.choice(stripe)
            kind = "book" if crng.randrange(100) < p["book_percent"] else "browse"
            seq.append((kind, agents[a].agent_id, crng.choice(windows[a])))
        ops.append(tuple(seq))
    return Inputs(spec.name, seed, _flights(spec.name, seed, spec.n_flights),
                  agents, tuple(ops))


def _churn_durable(spec: WorkloadSpec, seed: int) -> Inputs:
    p = spec.params
    block, window = p["block"], p["window"]
    agents = tuple(
        AgentSlice(
            f"st{i:04d}",
            tuple(flight_number(i * block + j) for j in range(block)),
            owner_at_setup=True,
        )
        for i in range(p["standing"])
    )
    ops = []
    for c in range(spec.clients):
        crng = _rng(spec.name, seed, f"client{c}")
        seq = []
        # Each session is five user operations; a fifth as many
        # sessions keeps every client's sequence the same op length.
        for _ in range(OPS_PER_CLIENT // 5):
            lo = crng.randrange(spec.n_flights - window + 1)
            slice_ = tuple(flight_number(lo + j) for j in range(window))
            picks = tuple(crng.choice(slice_)
                          for _ in range(p["reserves_per_session"]))
            seq.append(("session", slice_, picks))
        ops.append(tuple(seq))
    return Inputs(spec.name, seed, _flights(spec.name, seed, spec.n_flights),
                  agents, tuple(ops))


_BUILDERS = {
    "strong_contended": _strong_contended,
    "weak_browse": _weak_browse,
    "churn_durable": _churn_durable,
}


def make_inputs(workload: str, seed: int, spec: Optional[WorkloadSpec] = None) -> Inputs:
    """The inputs of ``workload`` for ``seed`` (deterministic).

    ``spec`` replaces the workload's shape (tests run scaled-down fleets).
    """
    if workload not in SPECS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(SPECS)}"
        )
    return _BUILDERS[workload](spec or SPECS[workload], seed)
