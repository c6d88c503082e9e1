"""One seed always generates the same inputs; another seed does not."""

import json
from pathlib import Path

import pytest

from perfbench.inputs import SPECS, make_inputs

WORKLOADS = sorted(SPECS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = make_inputs(workload, 7), make_inputs(workload, 7)
    assert a.flights == b.flights
    assert a.agents == b.agents
    assert a.client_ops == b.client_ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    a, b = make_inputs(workload, 7), make_inputs(workload, 8)
    assert a.flights != b.flights
    assert a.client_ops != b.client_ops
    if workload == "weak_browse":  # the only workload with seeded slices
        assert a.agents != b.agents


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_match_workload_shape(workload):
    spec = SPECS[workload]
    inputs = make_inputs(workload, 1)
    numbers = {f.number for f in inputs.flights}
    assert len(numbers) == spec.n_flights
    assert len(inputs.client_ops) == spec.clients
    for sl in inputs.agents:
        assert set(sl.flights) <= numbers
    for f in inputs.flights:
        assert 0 <= f.seats_available <= f.capacity
    kinds = {op[0] for seq in inputs.client_ops for op in seq}
    expected = {"session"} if workload == "churn_durable" else set(spec.op_kinds)
    assert kinds == expected


def test_strong_contended_one_owner_per_group():
    inputs = make_inputs("strong_contended", 3)
    owners = {}
    for sl in inputs.agents:
        if sl.owner_at_setup:
            assert sl.flights not in owners
            owners[sl.flights] = sl.agent_id
    assert len(owners) == SPECS["strong_contended"].params["groups"]


def test_benchmark_json_names_the_workloads():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SPECS)
    assert [w["why"] for w in spec["workloads"]] == [s.why for s in SPECS.values()]
