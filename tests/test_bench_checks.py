"""The benchmark's own output checks (bench/workloads.py) against the product.

Each workload's check reads the program's outputs back through the package:
`SubGraph` fields and truthiness, `read_subgraph`/`write_subgraph` byte round
trips, `edge_raw_features`, `collect_features`, and predictions compared with
the dense-unitary oracle. A change to those interfaces or to a prediction then
fails the benchmark's operations as `CheckFailed`. These tests run the set-up
and one operation of every workload, untraced, so such a change fails here.
No timing is asserted.
"""

import contextlib
import importlib.util
import pathlib

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# Edges per operation at workload seed 7, as bench/README.md gives them:
# 853 stepped training edges, 9,106 doublets, 4,752 edges scored twice.
SEED_7_EDGES = {"train_small": 853, "preprocess_dense": 9106, "infer_shots": 2 * 4752}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SEED_7_EDGES))
def test_operation_passes_its_output_checks(workloads, tmp_path, name):
    assert sorted(workloads.WORKLOADS) == sorted(SEED_7_EDGES)
    workload = workloads.WORKLOADS[name](str(tmp_path), 7, contextlib.nullcontext)
    workload.setup()
    result = workload.op(str(tmp_path / "op0"))  # raises CheckFailed on a wrong output
    assert result["edges"] == SEED_7_EDGES[name]
    assert result["hits"] == workload.hits > 0
    assert isinstance(result["guards"], dict)
