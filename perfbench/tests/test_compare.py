"""The run comparison: agree / worse / better / unresolved."""

import json

from perfbench import compare

SPEC = {
    "workloads": [{"name": "w", "why": "x"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [100.0, 100.5, 99.8, 101.0], 0.1, "higher") == "agree"
    assert compare.verdict(base, [80.0, 81.0, 79.0, 80.5], 0.1, "higher") == "worse"
    assert compare.verdict(base, [80.0, 81.0, 79.0, 80.5], 0.1, "lower") == "better"
    assert compare.verdict(base, [50.0, 150.0, 70.0, 130.0], 0.1, "higher") == "unresolved"


def _write_runs(tmp_path, name, values):
    d = tmp_path / name
    d.mkdir()
    for i, (ops, lat) in enumerate(values):
        report = {"provenance": {"workload": "w"},
                  "result": {"metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                         "lat_ms": {"value": lat, "unit": "ms"}}}}
        (d / f"w-seed{i}-trace0.json").write_text(json.dumps(report))
    return d


def test_compare_sets_and_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text(json.dumps(SPEC))
    a = _write_runs(tmp_path, "a", [(100, 10), (101, 10.1), (99, 9.9), (100, 10)])
    b = _write_runs(tmp_path, "b", [(100, 13), (100.5, 13.1), (99.5, 12.9), (100, 13)])
    rows = compare.compare(compare.load_runs([a]), compare.load_runs([b]), SPEC)
    assert {r["metric"]: r["verdict"] for r in rows} == {"ops_per_s": "agree", "lat_ms": "worse"}
    assert compare.main(["--base", str(a), "--new", str(b), "--spec", str(spec_path)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(["--base", str(a), "--new", str(a), "--spec", str(spec_path)]) == 0
