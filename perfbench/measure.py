"""One benchmark run: set up, drive, measure, check, report.

Untraced runs (``trace=False``) produce the end-to-end metrics.  Traced
runs produce the per-layer metrics: each round's measured time is split
into an untraced and a traced half on one system, so the tracing
overhead is the ratio of the two halves' throughput.  The correctness
gates run after the last round, untimed.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.net.transport import transport_name

from perfbench import gates
from perfbench.calibration import (
    REFERENCE_KERNEL_US, SpeedProbe, scaled_records, sleep_reference,
)
from perfbench.driver import Bench, ClientPool, database_state, run_bounded, run_chain
from perfbench.inputs import SPECS, Inputs, WorkloadSpec, make_inputs
from perfbench.layers import LoopLagProbe, Tracer, loop_cpu_seconds

#: Rounds per run.  Each round sets up a fresh system (timed; ``setup_s``
#: is the median over rounds) and measures it for a third of the run's
#: seconds.  Spreading the measured time over the whole run, instead of
#: one block, averages over the host's slower and faster spells.
ROUNDS = 3

#: Seconds of load before measuring, so lazy set-up and caches settle.
#: This and the measured windows are reference-CPU seconds (calibration).
WARMUP_S = 1.5

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _latency_summary(records: List[Tuple[str, float, float]], kinds) -> Dict[str, Any]:
    """Per op kind: sample count, p50 and p99 of ``(kind, ms, _)`` records."""
    out: Dict[str, Any] = {}
    for kind in kinds:
        lat = sorted(ms for k, ms, _ in records if k == kind)
        out[kind] = {
            "samples": len(lat),
            "p50_ms": percentile(lat, 0.50),
            "p99_ms": percentile(lat, 0.99),
            "p99_resolved": len(lat) * 0.01 >= TAIL_SAMPLES,
        }
    return out


class _Snapshot:
    """Counters at one instant of the measured phase."""

    def __init__(self, bench: Bench, pool: ClientPool) -> None:
        stats = bench.transport.stats
        self.t = time.perf_counter()
        self.msgs = stats.total
        self.bytes = stats.bytes_sent
        self.encodes = stats.encodes
        self.flushes_coalesced = stats.flushes_coalesced
        self.stalls = stats.backpressure_stalls
        self.queue_hwm = stats.send_queue_hwm
        self.dm = {k: bench.dm_counter(k) for k in (
            "rounds", "invalidates_sent", "fetches_sent", "full_serves",
            "delta_serves")}
        self.candidates = sum(dm.policy.index_candidates for dm in bench.directories)
        self.router = dict(bench.router.counters) if bench.router is not None else {}
        self.wal = {}
        for dm in bench.directories:
            if dm.durability is not None:
                for k, v in dm.durability.counters.items():
                    self.wal[k] = self.wal.get(k, 0) + v
        cms = bench.airline.system.cache_managers.values()
        self.cm_acquires = sum(cm.counters["acquires"] for cm in cms)
        self.cm_fallbacks = sum(cm.counters["delta_fallbacks"] for cm in cms)
        self.start_use_calls = pool.start_use_calls
        self.loop_cpu = loop_cpu_seconds(bench.transport)


def _completed_in(records, t0: float, t1: float):
    return [r for r in records if t0 <= r[2] < t1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gates(bench: Bench, inputs: Inputs) -> Dict[str, List[str]]:
    """Run the workload's correctness gates (after quiesce, untimed)."""
    name = bench.spec.name
    airline = bench.airline
    initial = {r.number: {"seats_available": r.seats_available, "capacity": r.capacity}
               for r in inputs.flights}
    results: Dict[str, List[str]] = {}
    if name == "strong_contended":
        results["invariants"] = gates.invariants_hold(bench.check_invariants)
        _each(bench, [airline.cache_managers[aid] for aid in airline.agents], "kill_image")
        results["sold_equals_made"] = gates.seats_sold_equal_made(
            initial, database_state(airline.database), bench.reservations_made())
    elif name == "weak_browse":
        _each(bench, airline.cache_managers.values(), "pull_image")
        primary = database_state(airline.database)
        views = {aid: {n: f.to_cell() for n, f in agent.local.items()}
                 for aid, agent in airline.agents.items()}
        results["views_equal_primary"] = gates.views_equal_primary(views, primary)
        results["seats_within_capacity"] = gates.seats_within_capacity(primary)
    elif name == "churn_durable":
        live = database_state(airline.database)
        results["sold_equals_made"] = gates.seats_sold_equal_made(
            initial, live, bench.reservations_made())
        bench.close()  # clean shutdown: the WAL tail is synced
        rebuilt = Bench(bench.spec, inputs, str(bench.durability.root))
        try:
            results["wal_rebuild_equals_live"] = gates.states_equal(
                live, database_state(rebuilt.airline.database))
        finally:
            rebuilt.close()
    return results


def _each(bench: Bench, cms, verb: str) -> None:
    """Call ``cm.<verb>()`` on every cache manager, ``clients`` at a time."""
    run_bounded([lambda done, cm=cm: run_chain([getattr(cm, verb)], done) for cm in cms],
                bench.spec.clients)


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Optional[Path] = None, work_root: Optional[Path] = None,
        spec: Optional[WorkloadSpec] = None) -> Dict[str, Any]:
    """Run one workload; returns the full report (``result`` is the contract line).

    ``spec`` replaces the workload's shape (tests run scaled-down fleets).
    """
    spec = spec or SPECS[workload]
    inputs = make_inputs(workload, seed, spec)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        return _run(spec, inputs, seconds, trace, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class _Round:
    """One set-up plus its measured phase, on a system of its own."""

    def __init__(self) -> None:
        self.setup_span = (0.0, 0.0)  # perf-counter interval of the set-up
        self.pool: Optional[ClientPool] = None
        self.speed: Optional[SpeedProbe] = None
        # (traced, start snapshot, end snapshot) per measured window
        self.windows: List[Tuple[bool, _Snapshot, _Snapshot]] = []
        self.faults = 0
        self.lags_ms: List[float] = []
        self.peak_rss_mb = 0.0
        self.gates: Dict[str, List[str]] = {}
        self.transport = ""
        self.codec: Optional[str] = None

    def measured(self, traced: bool = False) -> List[Tuple[str, float, float]]:
        return [rec for t, a, b in self.windows if t == traced
                for rec in _completed_in(self.pool.records, a.t, b.t)]


def _one_round(spec, inputs: Inputs, work: Path, index: int, seconds: float,
               tracer: Optional[Tracer], last: bool) -> _Round:
    rnd = _Round()
    wal_root = str(work / f"wal-{index}") if spec.durable else None
    t0 = time.perf_counter()
    bench = Bench(spec, inputs, wal_root)
    try:
        rnd.speed = speed = SpeedProbe(bench.transport)
        speed.start()
        bench.setup()
        rnd.setup_span = (t0, time.perf_counter())
        rnd.pool = pool = ClientPool(bench)
        lag = None
        if tracer is not None:
            lag = LoopLagProbe(bench.transport)
            lag.start()
        faults0 = bench.fault_count()
        pool.start()
        sleep_reference(speed, WARMUP_S)
        halves = (False, True) if tracer is not None else (False,)
        for traced in halves:
            if traced:
                _install(tracer, bench)
                lag.recording = True
            a = _Snapshot(bench, pool)
            sleep_reference(speed, seconds / len(halves))
            b = _Snapshot(bench, pool)
            if traced:
                lag.recording = False
                bench.on_new_agent = None
                tracer.uninstall()
            rnd.windows.append((traced, a, b))
        pool.stop_and_wait()
        speed.stop()
        # Peak memory of the measured system, before any gate builds more.
        rnd.peak_rss_mb = _peak_rss_mb()
        if lag is not None:
            lag.stop()
            rnd.lags_ms = lag.lags_ms
        rnd.faults = bench.fault_count() - faults0
        rnd.transport = transport_name(bench.transport)
        rnd.codec = bench.negotiated_codec()
        if last:
            rnd.gates = _gates(bench, inputs)
    finally:
        bench.close()
    return rnd


def _install(tracer: Tracer, bench: Bench) -> None:
    cms = [cm for cm in bench.airline.system.cache_managers.values() if not cm._closed]
    bench.on_new_agent = tracer.install_cm
    tracer.install(bench, cms)


def _run(spec, inputs: Inputs, seconds: float, trace: bool, work: Path,
         out_dir: Optional[Path]) -> Dict[str, Any]:
    tracer = Tracer() if trace else None
    rounds = []
    for i in range(ROUNDS):
        rounds.append(_one_round(spec, inputs, work, i, seconds / ROUNDS, tracer,
                                 last=(i == ROUNDS - 1)))
        gc.collect()
    attempted = sum(r.pool.attempted for r in rounds)
    client_failures = [f for r in rounds for f in r.pool.failures]
    faults = sum(r.faults for r in rounds)
    failed = len(client_failures) + faults
    gate_block = gates.run_gates(rounds[-1].gates)
    report: Dict[str, Any] = {
        "transport": rounds[-1].transport,
        "negotiated_codec": rounds[-1].codec,
        "gates": gate_block,
        "failures": {
            "client_completions": len(client_failures),
            "stack_faults": faults,
            "first": client_failures[:3],
        },
        "error_rate": failed / attempted if attempted else 0.0,
    }
    if trace:
        metrics, layer_report = _layer_metrics(rounds, tracer)
        report["layers"] = layer_report
        if out_dir is not None:
            tracer.write_spans(out_dir / f"{spec.name}-seed{inputs.seed}-spans.jsonl")
    else:
        metrics = _end_to_end(spec, rounds, report)
    result = {
        "correct": bool(gate_block["passed"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "report": report}


def _end_to_end(spec, rounds: List[_Round], report: Dict[str, Any]):
    """End-to-end metrics; timings in reference-CPU time (see calibration).

    ``op_p99_ms`` is the mean of the rounds' own p99s: pooled, the tail
    would come mostly from whichever round met the host's slowest spell.
    """
    scaled: List[Tuple[str, float, float]] = []
    raw: List[float] = []
    round_p99 = []
    elapsed = msgs = wire = 0.0
    for r in rounds:
        recs = r.measured()
        fallback = statistics.median(r.speed.kernel_us)
        mine = scaled_records(r.speed, recs, fallback)
        scaled += mine
        round_p99.append(percentile(sorted(ms for _, ms, _ in mine), 0.99))
        raw += [(t1 - t0) * 1e3 for _, t0, t1 in recs]
        for _, a, b in r.windows:
            elapsed += b.t - a.t
            msgs += b.msgs - a.msgs
            wire += b.bytes - a.bytes
    n = len(scaled)
    raw.sort()
    setup_wall = [b - a for a, b in (r.setup_span for r in rounds)]
    setup_ref = [w * r.speed.scale(*r.setup_span) for w, r in zip(setup_wall, rounds)]
    report["measured_ops"] = n
    report["by_kind"] = _latency_summary(scaled, spec.op_kinds)
    report["op_p99_ms_by_round"] = round_p99
    report["setup_s_by_round"] = setup_ref
    report["wall_clock"] = {
        "setup_s": statistics.median(setup_wall),
        "setup_s_by_round": setup_wall,
        "ops_per_s": n / elapsed,
        "op_p50_ms": percentile(raw, 0.50),
        "op_p99_ms": percentile(raw, 0.99),
        "kernel_us_median": statistics.median(
            us for r in rounds for us in r.speed.kernel_us),
        "reference_kernel_us": REFERENCE_KERNEL_US,
    }
    return {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_s": (sum(1.0 / s for _, _, s in scaled) / elapsed, "1/s"),
        "op_p50_ms": (percentile(sorted(ms for _, ms, _ in scaled), 0.50), "ms"),
        "op_p99_ms": (statistics.fmean(round_p99), "ms"),
        "msgs_per_op": (msgs / n, "count"),
        "wire_bytes_per_op": (wire / n, "bytes"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
    }


def _layer_metrics(rounds: List[_Round], tracer: Tracer):
    traced = [(a, b) for r in rounds for t, a, b in r.windows if t]
    untraced = [(a, b) for r in rounds for t, a, b in r.windows if not t]

    def secs(pairs):
        return sum(b.t - a.t for a, b in pairs)

    def delta(get):
        return sum(get(b) - get(a) for a, b in traced)

    ops = sum(len(r.measured(traced=True)) for r in rounds)
    traced_rate = ops / secs(traced)
    untraced_rate = sum(len(r.measured()) for r in rounds) / secs(untraced)
    per_op = 1.0 / ops if ops else 0.0
    ms = 1e3 * per_op
    loop_cpu = delta(lambda s: s.loop_cpu)
    t = tracer
    full_serves = delta(lambda s: s.dm["full_serves"])
    delta_serves = delta(lambda s: s.dm["delta_serves"])
    cs_calls = t.calls("conflicts.conflict_set")
    evals = t.calls("triggers.evaluate")
    frames = delta(lambda s: s.encodes)
    start_uses = delta(lambda s: s.start_use_calls)
    snapshots = t.calls("wal.snapshot")
    lags = sorted(lag for r in rounds for lag in r.lags_ms)

    def wal(k):
        return delta(lambda s: s.wal.get(k, 0))

    def router(k):
        return delta(lambda s: s.router.get(k, 0))

    m = {
        "directory.self_ms_per_op": (t.self_s("directory.dispatch") * ms, "ms"),
        "directory.check_invariants_ms_per_op": (t.total_s("directory.check_invariants") * ms, "ms"),
        "directory.check_invariants_loop_share": (
            t.total_s("directory.check_invariants") / loop_cpu if loop_cpu else 0.0, "ratio"),
        "directory.rounds_per_op": (delta(lambda s: s.dm["rounds"]) * per_op, "count"),
        "directory.invalidates_per_op": (delta(lambda s: s.dm["invalidates_sent"]) * per_op, "count"),
        "directory.fetches_per_op": (delta(lambda s: s.dm["fetches_sent"]) * per_op, "count"),
        "directory.full_serves_per_op": (full_serves * per_op, "count"),
        "directory.delta_serves_per_op": (delta_serves * per_op, "count"),
        "conflicts.conflict_set_calls_per_op": (cs_calls * per_op, "count"),
        "conflicts.conflict_set_ms_per_op": (t.total_s("conflicts.conflict_set") * ms, "ms"),
        "conflicts.candidates_per_query": (
            delta(lambda s: s.candidates) / cs_calls if cs_calls else 0.0, "count"),
        "extract.full_calls_per_op": (t.calls("airline.extract_full") * per_op, "count"),
        "extract.full_ms_per_op": (t.total_s("airline.extract_full") * ms, "ms"),
        "extract.cells_calls_per_op": (t.calls("airline.extract_cells") * per_op, "count"),
        "extract.cells_ms_per_op": (t.total_s("airline.extract_cells") * ms, "ms"),
        "extract.cells_per_serve": (
            (t.counts["extract_full_cells"] + t.counts["extract_cells_cells"])
            / (full_serves + delta_serves) if full_serves + delta_serves else 0.0, "count"),
        "merge_object.ms_per_op": (t.total_s("airline.merge_object") * ms, "ms"),
        "cache_manager.self_ms_per_op": (t.self_s("cache_manager.handle") * ms, "ms"),
        "cache_manager.merge_into_view_ms_per_op": (
            t.total_s("cache_manager.merge_into_view") * ms, "ms"),
        "cache_manager.extract_from_view_ms_per_op": (
            t.total_s("cache_manager.extract_from_view") * ms, "ms"),
        "cache_manager.wire_acquire_ratio": (
            delta(lambda s: s.cm_acquires) / start_uses if start_uses else 0.0, "ratio"),
        "cache_manager.delta_fallbacks": (delta(lambda s: s.cm_fallbacks), "count"),
        "triggers.evals_per_op": (evals * per_op, "count"),
        "triggers.eval_us": (t.total_s("triggers.evaluate") * 1e6 / evals if evals else 0.0, "us"),
        "triggers.fire_ratio": (t.counts["trigger_fires"] / evals if evals else 0.0, "ratio"),
        "codec.encode_ms_per_op": (t.total_s("binary_codec.encode") * ms, "ms"),
        "codec.decode_ms_per_op": (t.total_s("binary_codec.decode") * ms, "ms"),
        "codec.frames_per_op": (frames * per_op, "count"),
        "codec.bytes_per_frame": (delta(lambda s: s.bytes) / frames if frames else 0.0, "bytes"),
        "net.send_ms_per_op": (t.total_s("aio_transport.send") * ms, "ms"),
        "net.dispatch_self_ms_per_op": (t.self_s("aio_transport.dispatch") * ms, "ms"),
        "net.flushes_coalesced_ratio": (
            delta(lambda s: s.flushes_coalesced) / frames if frames else 0.0, "ratio"),
        "net.send_queue_hwm": (max(b.queue_hwm for _, b in traced), "count"),
        "net.backpressure_stalls": (delta(lambda s: s.stalls), "count"),
        "net.loop_busy_ratio": (loop_cpu / secs(traced), "ratio"),
        "net.loop_lag_p99_ms": (percentile(lags, 0.99) if lags else 0.0, "ms"),
        "router.send_ms_per_op": (t.total_s("sharding.send") * ms, "ms"),
        "router.fanouts_per_op": (router("router_fanouts") * per_op, "count"),
        "router.cross_shard_rounds_per_op": (router("cross_shard_rounds") * per_op, "count"),
        "router.acquire_retries": (router("acquire_retries"), "count"),
        "router.invalidates_held": (router("invalidates_held"), "count"),
        "wal.appends_per_op": (wal("wal_appends") * per_op, "count"),
        "wal.append_ms_per_op": (t.total_s("wal.append") * ms, "ms"),
        "wal.syncs_per_op": (wal("wal_syncs") * per_op, "count"),
        "wal.sync_ms_per_op": (t.total_s("wal.sync") * ms, "ms"),
        "wal.snapshots": (snapshots, "count"),
        "wal.snapshot_ms": (t.total_s("wal.snapshot") * 1e3 / snapshots if snapshots else 0.0, "ms"),
        "wal.bytes_per_op": (t.counts["wal_bytes"] * per_op, "bytes"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ratio": (untraced_rate / traced_rate if traced_rate else 0.0, "ratio"),
    }
    layer_report = {
        "traced_ops": ops,
        "traced_seconds": secs(traced),
        "loop_cpu_s": loop_cpu,
        "loop_lag_samples": len(lags),
        "spans_kept": len(t.spans),
        "spans": t.layer_table(),
        "op_attribution": (
            "per-op figures are layer totals over operations completed in the "
            "traced phases; linking a handler span to the client op that caused "
            "it needs an op id in the message header, which the protocol lacks"
        ),
    }
    return m, layer_report
