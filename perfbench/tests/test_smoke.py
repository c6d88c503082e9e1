"""Scaled-down runs of every workload through the whole benchmark path."""

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.inputs import SPECS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

SMALL = {
    "strong_contended": dict(n_flights=100, clients=4,
                             params={"groups": 20, "agents_per_group": 4, "block": 5}),
    "weak_browse": dict(n_flights=300, clients=4,
                        params={"agents": 20, "window": 30, "book_percent": 10}),
    "churn_durable": dict(n_flights=200, clients=4,
                          params={"standing": 50, "block": 4, "window": 20,
                                  "reserves_per_session": 3}),
}


def _small(workload):
    return dataclasses.replace(SPECS[workload], **SMALL[workload])


@pytest.mark.parametrize("workload", sorted(SPECS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_reports_every_metric(workload, trace, tmp_path):
    out = measure.run(workload, 3, 0.6, trace, out_dir=tmp_path,
                      work_root=tmp_path, spec=_small(workload))
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["report"]["gates"]
    assert result["failed"] == 0 and result["attempted"] > 0
    block = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[block]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = out["report"]
    assert report["negotiated_codec"] == "binary"
    assert report["transport"] == "aio"
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        unsharded = workload != "churn_durable"
        for name, value in m.items():
            if name.startswith(("router.", "wal.")) and unsharded:
                assert value == 0, name
        assert m["net.loop_busy_ratio"] > 0
        assert list(tmp_path.glob("*-spans.jsonl"))
    else:
        for metric in BENCHMARK["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0
