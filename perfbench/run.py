"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload strong_contended --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  The full report (provenance, per-kind latencies, gate
results, failure accounting, and for ``--trace 1`` the per-layer span
table) is printed as one JSON line and written under
``perfbench/out/``; the last line of standard output is the result
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
WORK_DIR = ROOT / ".perfbench_work"


def _git(*args: str):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(argv, spec, seed: int, seconds: float, transport: str,
               codec_negotiated) -> dict:
    sha = _git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        status = _git("status", "--porcelain")
        dirty = bool(status) if status is not None else None
    return {
        "argv": [sys.executable, *argv],
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "transport": transport,
        "codec_negotiated": codec_negotiated,
        "seed": seed,
        "seconds": seconds,
        "workload": spec.name,
        "why": spec.why,
        "workload_params": {
            "mode": spec.mode, "n_flights": spec.n_flights, "clients": spec.clients,
            "n_shards": spec.n_shards, "durable": spec.durable,
            "validity_trigger": spec.validity or None, "op_kinds": list(spec.op_kinds),
            **spec.params,
        },
    }


def main(argv=None) -> int:
    argv = list(sys.argv if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import SPECS
    from perfbench import measure
    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(SPECS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      out_dir=OUT_DIR, work_root=WORK_DIR)
    report = out["report"]
    report["provenance"] = provenance(
        argv, spec, args.seed, args.seconds,
        report.pop("transport"), report.pop("negotiated_codec"))
    report["result"] = out["result"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps(report, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
