"""Compare two sets of benchmark runs against ``BENCHMARK.json`` bounds.

    python3 perfbench/compare.py --base runs/a --new runs/b

Each set is one or more run reports (the ``*-trace0.json`` files
``run.py`` writes) or directories holding them.  For every (workload,
end-to-end metric) pair it prints each set's median and quartiles and a
verdict:

- ``agree``: the new median is within the metric's bound of the base;
- ``better`` / ``worse``: it moved by more than the bound;
- ``unresolved``: either set's quartile spread, as a share of its
  median, exceeds the bound, so the sets cannot be told apart.

Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

Runs = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values


def load_runs(paths: Iterable[Path]) -> Runs:
    runs: Runs = {}
    files: List[Path] = []
    for p in paths:
        files.extend(sorted(p.glob("*-trace0.json")) if p.is_dir() else [p])
    for f in files:
        report = json.loads(f.read_text())
        workload = report["provenance"]["workload"]
        for name, m in report["result"]["metrics"].items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return runs


def summarize(values: List[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base: List[float], new: List[float], bound: float, better: str) -> str:
    bm, bq1, bq3 = summarize(base)
    nm, nq1, nq3 = summarize(new)
    if (bq3 - bq1) / abs(bm) > bound or (nq3 - nq1) / abs(nm) > bound:
        return "unresolved"
    change = (nm - bm) / abs(bm)
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "agree"


def compare(base: Runs, new: Runs, spec: dict) -> List[dict]:
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                rows.append({"workload": workload, "metric": name, "verdict": "missing"})
                continue
            rows.append({
                "workload": workload, "metric": name, "bound": metric["bound"],
                "base": summarize(a), "new": summarize(b), "runs": (len(a), len(b)),
                "verdict": verdict(a, b, metric["bound"], metric["better"]),
            })
    return rows


def _fmt(s: Tuple[float, float, float]) -> str:
    return f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    rows = compare(load_runs(args.base), load_runs(args.new), spec)
    print(f"{'workload':18s} {'metric':18s} {'base median [q1, q3]':30s} "
          f"{'new median [q1, q3]':30s} {'bound':>5s}  verdict")
    for r in rows:
        if r["verdict"] == "missing":
            print(f"{r['workload']:18s} {r['metric']:18s} {'-':30s} {'-':30s} {'':5s}  missing")
            continue
        print(f"{r['workload']:18s} {r['metric']:18s} {_fmt(r['base']):30s} "
              f"{_fmt(r['new']):30s} {r['bound']:5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
