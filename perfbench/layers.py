"""Traced runs: per-layer spans from instance-level wrappers.

The tracer times calls into each layer's public functions by replacing
them *on the instances* the benchmark built (the transport, its codec,
each directory shard, the router, the WAL, each cache manager and its
trigger).  Nothing in the library is edited; uninstalling restores the
original attributes, so untraced and traced phases alternate within one
run and the tracing overhead is measured on the same system.

Spans nest by call stack on each thread: a span's self time is its
duration minus the time of the wrapped calls made inside it.  Layer
totals and counts are kept for every span; the first ``SPAN_CAP`` spans
are also kept verbatim and written out when the run ends.

A handler span cannot be linked to the client operation that caused it
without an op id in the message header, which the protocol does not
carry; per-op figures are therefore layer totals divided by the
operations completed in the traced phases.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept verbatim for the trace file.
SPAN_CAP = 50_000

#: Loop-lag probe period, in transport time units (milliseconds on aio).
PROBE_PERIOD = 5.0

_MISSING = object()


class Tracer:
    """Installs/uninstalls layer wrappers and accumulates span totals."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # Extra per-layer counts (cells extracted, trigger fires, WAL bytes).
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[str, float, float, int]] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Any, Any], None]] = None,
        before: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Replace ``obj.attr`` with a timed wrapper (on the instance).

        ``before()`` runs ahead of the call and its value is handed to
        ``after(result, value)`` once the call returns.
        """
        orig = getattr(obj, attr)
        own = vars(obj).get(attr, _MISSING)
        totals = self.totals[name]
        spans = self.spans
        stack_of = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            ctx = before() if before is not None else None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((name, t0, t1, len(stack)))
            if after is not None:
                after(result, ctx)
            return result

        setattr(obj, attr, wrapper)
        self._patches.append((obj, attr, own))

    def uninstall(self) -> None:
        for obj, attr, own in reversed(self._patches):
            if own is _MISSING:
                try:
                    delattr(obj, attr)
                except AttributeError:
                    pass
            else:
                setattr(obj, attr, own)
        self._patches.clear()

    # -- layer instrumentation -------------------------------------------
    def install(self, bench: Any, cms: List[Any]) -> None:
        """Wrap every layer of ``bench`` plus the given cache managers."""
        transport = bench.transport
        self.wrap(transport, "_dispatch", "aio_transport.dispatch")
        self.wrap(transport, "send", "aio_transport.send")
        self.wrap(transport.codec, "encode", "binary_codec.encode")
        self.wrap(transport.codec, "decode", "binary_codec.decode")
        for dm in bench.directories:
            self._install_directory(dm)
        if bench.router is not None:
            self.wrap(bench.router, "send", "sharding.send")
            self.wrap(bench.router, "_incoming", "sharding.incoming")
        for cm in cms:
            self.install_cm(cm)

    def _count_cells(self, key: str) -> Callable[[Any, Any], None]:
        def after(image: Any, _ctx: Any) -> None:
            self.counts[key] += len(image)
        return after

    def _install_directory(self, dm: Any) -> None:
        self.wrap(dm, "_dispatch", "directory.dispatch")
        self.wrap(dm, "check_invariants", "directory.check_invariants")
        self.wrap(dm.policy, "conflict_set", "conflicts.conflict_set")
        self.wrap(dm, "extract_from_object", "airline.extract_full",
                  after=self._count_cells("extract_full_cells"))
        if dm.extract_cells is not None:
            self.wrap(dm, "extract_cells", "airline.extract_cells",
                      after=self._count_cells("extract_cells_cells"))
        self.wrap(dm, "merge_into_object", "airline.merge_object")
        dur = dm.durability
        if dur is None:
            return

        def position() -> int:
            return dur._writer._f.tell()

        def appended(_result: Any, before: int) -> None:
            self.counts["wal_bytes"] += dur._writer._f.tell() - before

        def rotated(_result: Any, _ctx: Any) -> None:
            # A snapshot rotates the WAL onto a fresh segment writer.
            self.wrap(dur._writer, "sync", "wal.sync")

        self.wrap(dur, "append", "wal.append", before=position, after=appended)
        self.wrap(dur, "snapshot", "wal.snapshot", after=rotated)
        self.wrap(dur._writer, "sync", "wal.sync")

    def install_cm(self, cm: Any, _agent: Any = None) -> None:
        self.wrap(cm.endpoint, "handler", "cache_manager.handle")
        self.wrap(cm, "merge_into_view", "cache_manager.merge_into_view")
        self.wrap(cm, "extract_from_view", "cache_manager.extract_from_view")
        validity = cm.triggers.validity
        if validity is not None:
            def fired(result: bool, _ctx: Any) -> None:
                self.counts["trigger_fires"] += bool(result)
            self.wrap(validity, "evaluate", "triggers.evaluate", after=fired)

    # -- output ------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": int(c), "total_ms": t * 1e3, "self_ms": s * 1e3}
            for name, (c, t, s) in sorted(self.totals.items())
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, t0, t1, depth in self.spans:
                f.write(json.dumps({"layer": name, "start": t0, "end": t1,
                                    "depth": depth}) + "\n")


class LoopLagProbe:
    """A benchmark-owned ``transport.schedule`` timer measuring its lateness."""

    def __init__(self, transport: Any) -> None:
        self.transport = transport
        self.lags_ms: List[float] = []
        self.recording = False
        self._stopped = False
        self._due = 0.0
        self._handle = None

    def start(self) -> None:
        self._arm()

    def _arm(self) -> None:
        if self._stopped:
            return
        self._due = time.perf_counter() + PROBE_PERIOD / self.transport.time_scale
        self._handle = self.transport.schedule(PROBE_PERIOD, self._fire)

    def _fire(self) -> None:
        if self.recording:
            self.lags_ms.append((time.perf_counter() - self._due) * 1e3)
        self._arm()

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


def loop_cpu_seconds(transport: Any) -> float:
    """CPU time consumed so far by the transport's event-loop thread."""
    thread = transport._loop_thread
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
