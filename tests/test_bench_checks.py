"""The benchmark's own output checks (bench/workloads.py) against the product.

Each workload's check reads the program's outputs back through the package:
`SubGraph` fields and truthiness, `read_subgraph`/`write_subgraph` byte round
trips, `edge_raw_features`, `collect_features`, and predictions compared with
the dense-unitary oracle. A change to those interfaces or to a prediction then
fails the benchmark's operations as `CheckFailed`. These tests run the set-up
and one operation of every workload, untraced, so such a change fails here.

A traced bench run (bench/spans.py) adds checks that need no timing: each
counter hook must fit the function it wraps, every traced operation must make
the same calls and counts, and each command must run in its `cli.<command>`
span. Those run here too. No timing is asserted.
"""

import contextlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# Edges per operation at workload seed 7, as bench/README.md gives them:
# 853 stepped training edges, 9,106 doublets, 4,752 edges scored twice.
SEED_7_EDGES = {"train_small": 853, "preprocess_dense": 9106, "infer_shots": 2 * 4752}


# The commands each workload's timed operation runs.
COMMANDS = {"train_small": {"train"}, "preprocess_dense": {"preprocess"}, "infer_shots": {"eval", "predict"}}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.mark.parametrize("name", sorted(SEED_7_EDGES))
def test_operation_passes_its_output_checks(workloads, tmp_path, name):
    assert sorted(workloads.WORKLOADS) == sorted(SEED_7_EDGES)
    workload = workloads.WORKLOADS[name](str(tmp_path), 7, contextlib.nullcontext)
    workload.setup()
    result = workload.op(str(tmp_path / "op0"))  # raises CheckFailed on a wrong output
    assert result["edges"] == SEED_7_EDGES[name]
    assert result["hits"] == workload.hits > 0
    assert isinstance(result["guards"], dict)


@pytest.mark.parametrize("name", sorted(SEED_7_EDGES))
def test_traced_operations_repeat_calls_and_counts(workloads, spans, tmp_path, name):
    """As a traced bench child runs them: a traced set-up whose output checks
    run untraced, then two traced operations, one phase each."""
    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[name](str(tmp_path), 7, tracer.paused)
    with tracer.installed():
        workload.setup()
    tracer.take_phase()
    phases = []
    for i in range(2):
        with tracer.installed():
            workload.op(str(tmp_path / f"op{i}"))
        phases.append(tracer.take_phase())
    first, second = phases
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert {n for n in first["calls"] if n.startswith("cli.")} == {f"cli.{c}" for c in COMMANDS[name]}
