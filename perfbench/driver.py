"""Builds the airline system, sets it up, and drives closed-loop clients.

One :class:`Bench` is one deployed system: a ``FlightDatabase`` primary
and ``TravelAgent`` views wired by ``build_airline_system`` over the
``"aio"`` socket transport with the ``"binary"`` codec.  Only
deployment settings are chosen here (transport, codec, shard count,
WAL directory); every other constructor option keeps its library
default, so a later change to a default is measured, not bypassed.

Clients are event-driven: each operation is a chain of ``Completion``
callbacks, which run on the transport's loop thread.  The main thread
only starts clients, sleeps through the measured phase and reads
counters.  No client thread exists.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.apps.airline.app_spec import AirlineSystem, build_airline_system
from repro.apps.airline.flights import Flight, FlightDatabase
from repro.core.durability import DurabilitySpec
from repro.core.triggers import TriggerSet
from repro.net.transport import Completion

from perfbench.inputs import Inputs, WorkloadSpec

TRANSPORT = "aio"
CODEC = "binary"

#: A failure while setting up or draining is fatal after this long.
PHASE_TIMEOUT_S = 90.0

#: Directory counters whose increments are failures.
DM_FAULT_COUNTERS = ("round_faults", "serve_faults", "round_timeouts", "send_errors")

Step = Callable[[], Any]


def run_chain(steps: Sequence[Step], on_done: Callable[[Optional[BaseException]], None]) -> None:
    """Run ``steps`` in order; a step returning a Completion is awaited.

    ``on_done(None)`` after the last step, ``on_done(exc)`` on the first
    failure (a step raising, or an awaited completion failing).
    """
    it = iter(steps)

    def advance(comp: Any = None) -> None:
        try:
            if comp is not None:
                comp.value  # raises the completion's failure
            for step in it:
                nxt = step()
                if isinstance(nxt, Completion):
                    nxt.then(advance)
                    return
        except Exception as exc:  # noqa: BLE001 - counted by the caller
            on_done(exc)
            return
        on_done(None)

    advance()


def run_bounded(
    tasks: Sequence[Callable[[Callable[[Optional[BaseException]], None]], None]],
    width: int,
    timeout: float = PHASE_TIMEOUT_S,
) -> None:
    """Run async ``tasks`` with at most ``width`` in flight; raise on failure."""
    lock = threading.Lock()
    finished = threading.Event()
    state = {"next": 0, "left": len(tasks)}
    errors: List[BaseException] = []
    if not tasks:
        return

    def start_next() -> None:
        with lock:
            i = state["next"]
            if i >= len(tasks):
                return
            state["next"] = i + 1
        tasks[i](done)

    def done(exc: Optional[BaseException]) -> None:
        with lock:
            if exc is not None:
                errors.append(exc)
            state["left"] -= 1
            last = state["left"] == 0
        if last:
            finished.set()
        else:
            start_next()

    for _ in range(min(width, len(tasks))):
        start_next()
    if not finished.wait(timeout):
        raise RuntimeError(f"set-up phase unfinished after {timeout:.0f}s")
    if errors:
        raise RuntimeError(f"{len(errors)} set-up tasks failed: {errors[0]!r}")


def build_database(inputs: Inputs) -> FlightDatabase:
    return FlightDatabase(Flight(**asdict(row)) for row in inputs.flights)


def database_state(db: FlightDatabase) -> Dict[str, dict]:
    return {n: f.to_cell() for n, f in db.flights.items()}


class Bench:
    """One deployed airline system plus its standing fleet."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs, wal_root: Optional[str]) -> None:
        self.spec = spec
        self.inputs = inputs
        self.durability = DurabilitySpec(root=wal_root) if spec.durable else None
        self.airline: AirlineSystem = build_airline_system(
            build_database(inputs),
            transport=TRANSPORT,
            codec=CODEC,
            n_shards=spec.n_shards,
            durability=self.durability,
        )
        self.transport = self.airline.transport
        system = self.airline.system
        plane = getattr(system, "plane", None)
        self.directories = list(plane.shards) if plane is not None else [system.directory]
        self.router = plane.router if plane is not None else None
        #: Reservations made by agents that have left (sessions).
        self.departed_reservations = 0
        #: Called with (cache_manager, agent) for every agent created.
        self.on_new_agent: Optional[Callable[[Any, Any], None]] = None
        self._closed = False

    # -- fleet -----------------------------------------------------------
    def add_agent(self, agent_id: str, flights: Sequence[str]):
        triggers = TriggerSet(validity=self.spec.validity) if self.spec.validity else None
        agent, cm = self.airline.add_travel_agent(
            agent_id, flights, mode=self.spec.mode, triggers=triggers,
        )
        if self.on_new_agent is not None:
            self.on_new_agent(cm, agent)
        return agent, cm

    def setup(self) -> None:
        """Register and init the standing fleet, then take set-up ownerships.

        At most ``clients`` views are in flight at once, so the default
        send queue is never refused during the registration burst.
        """
        width = self.spec.clients
        owners = []
        inits = []
        for sl in self.inputs.agents:
            _agent, cm = self.add_agent(sl.agent_id, sl.flights)
            inits.append(lambda done, cm=cm: run_chain([cm.start, cm.init_image], done))
            if sl.owner_at_setup:
                owners.append(cm)
        run_bounded(inits, width)
        run_bounded(
            [lambda done, cm=cm: run_chain([cm.start_use_image, cm.end_use_image], done)
             for cm in owners],
            width,
        )

    # -- accounting --------------------------------------------------------
    def dm_counter(self, name: str) -> int:
        return sum(dm.counters.get(name, 0) for dm in self.directories)

    def fault_count(self) -> int:
        """Every failure the stack records outside client completions."""
        stats = self.transport.stats
        return (
            len(self.transport.handler_errors)
            + stats.backpressure_stalls
            + sum(self.dm_counter(c) for c in DM_FAULT_COUNTERS)
        )

    def reservations_made(self) -> int:
        live = sum(a.reservations_made for a in self.airline.agents.values())
        return live + self.departed_reservations

    def check_invariants(self) -> None:
        for dm in self.directories:
            dm.check_invariants()

    def negotiated_codec(self) -> Optional[str]:
        return self.transport.negotiated_codec("", "")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.airline.system.close()
        self.transport.close()


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------

class ClientPool:
    """``clients`` closed-loop clients issuing the seeded op sequences.

    A client issues its next operation only when the previous one has
    completed.  Each finished operation is recorded as ``(kind, start,
    end)`` in perf-counter seconds; a failed one ends that client.
    """

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.stopping = False
        self.records: List[Tuple[str, float, float]] = []
        self.failures: List[Tuple[str, str]] = []
        self.clients: List[_Client] = []
        self._lock = threading.Lock()
        self._left = 0
        self._all_done = threading.Event()
        self._session_seq = 0

    def start(self) -> None:
        ops = self.bench.inputs.client_ops
        self._left = len(ops)
        self.clients = [_Client(self, c, seq) for c, seq in enumerate(ops)]
        for client in self.clients:
            client.next_op()

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.clients)

    @property
    def start_use_calls(self) -> int:
        return sum(c.start_use_calls for c in self.clients)

    def stop_and_wait(self, timeout: float = PHASE_TIMEOUT_S) -> None:
        self.stopping = True
        if not self._all_done.wait(timeout):
            raise RuntimeError(f"clients did not quiesce within {timeout:.0f}s")

    def _client_finished(self) -> None:
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self._all_done.set()

    def next_session_id(self, client: int) -> str:
        with self._lock:
            self._session_seq += 1
            return f"s{client:02d}-{self._session_seq:06d}"


class _Client:
    def __init__(self, pool: ClientPool, index: int, seq: Sequence[tuple]) -> None:
        self.pool = pool
        self.bench = pool.bench
        self.index = index
        self.seq = seq
        self.pos = 0
        self.pending: Deque[Tuple[str, List[Step]]] = deque()
        # Per-client counts: a client's ops never overlap, so its
        # counters have one writer at a time.
        self.attempted = 0
        self.start_use_calls = 0

    # -- op plans ----------------------------------------------------------
    def _reserve_steps(self, cm, agent, flight: str) -> List[Step]:
        return [self._start_use(cm), lambda: agent.confirm_tickets(1, flight),
                cm.end_use_image, cm.push_image]

    def _start_use(self, cm) -> Step:
        def step():
            self.start_use_calls += 1
            return cm.start_use_image()
        return step

    def _expand(self, op: tuple) -> None:
        kind = op[0]
        airline = self.bench.airline
        if kind == "session":
            _, window, picks = op
            holder: Dict[str, Any] = {}

            def join():
                agent, cm = self.bench.add_agent(
                    self.pool.next_session_id(self.index), window)
                holder["agent"], holder["cm"] = agent, cm
                return cm.start()

            self.pending.append(("join", [join, lambda: holder["cm"].init_image()]))
            for flight in picks:
                self.pending.append(("reserve", [
                    lambda: self._start_use(holder["cm"])(),
                    lambda f=flight: holder["agent"].confirm_tickets(1, f),
                    lambda: holder["cm"].end_use_image(),
                    lambda: holder["cm"].push_image(),
                ]))

            def leave():
                return holder["cm"].kill_image()

            def forget():
                agent = holder["agent"]
                self.bench.departed_reservations += agent.reservations_made
                airline.agents.pop(agent.agent_id, None)

            self.pending.append(("leave", [leave, forget]))
            return
        _, agent_id, flight = op
        agent = airline.agents[agent_id]
        cm = airline.cache_managers[agent_id]
        if kind == "reserve":
            self.pending.append((kind, self._reserve_steps(cm, agent, flight)))
        elif kind == "browse":
            self.pending.append((kind, [cm.pull_image, lambda: agent.browse(flight)]))
        elif kind == "book":
            def reserve_if_seats():
                if agent.seats_available(flight) >= 1:
                    agent.confirm_tickets(1, flight)
            self.pending.append((kind, [cm.pull_image, self._start_use(cm),
                                        reserve_if_seats, cm.end_use_image,
                                        cm.push_image]))
        else:
            raise ValueError(f"unknown op kind {kind!r}")

    # -- loop --------------------------------------------------------------
    def next_op(self) -> None:
        pool = self.pool
        if not self.pending:
            if pool.stopping:
                pool._client_finished()
                return
            self._expand(self.seq[self.pos % len(self.seq)])
            self.pos += 1
        kind, steps = self.pending.popleft()
        self.attempted += 1
        t0 = time.perf_counter()

        def done(exc: Optional[BaseException]) -> None:
            if exc is not None:
                pool.failures.append((kind, repr(exc)))
                pool._client_finished()
                return
            pool.records.append((kind, t0, time.perf_counter()))
            self.next_op()

        run_chain(steps, done)
