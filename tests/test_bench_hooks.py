"""The benchmark's span tracer (bench/spans.py) against the product code.

The traced benchmark wraps qseed functions by name and reads counters from
their arguments and return values. A change to a traced signature breaks
those hooks, and the traced benchmark then fails its operations. These tests
run train, eval and predict in-process under the tracer and check that every
hook runs and that its counters equal counts made from the subgraphs. gen
and preprocess run under the tracer too, and their counters equal the
numbers the two commands print.
"""

import glob
import importlib.util
import math
import pathlib
import re

import pytest

from qseed import hitgraph, training, ttn
from qseed.cli import main, read_config_file

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def subgraphs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_hooks")
    # seed 4: the test split has 24 edges, with 20 features outside the
    # training range
    assert main(["gen", "--out", str(root / "events"), "--events", "2", "--tracks", "12",
                 "--noise", "20", "--seed", "4"]) == 0
    assert main(["preprocess", "--in", str(root / "events"), "--out", str(root / "subgraphs")]) == 0
    return root / "subgraphs"


def read_subgraphs(path):
    return [hitgraph.read_subgraph(p) for p in sorted(glob.glob(str(path / "evt*_s*")))]


def clamped(subgraphs, model_path):
    """Features outside the model scaler's range, over every edge."""
    _, scaler, _ = ttn.load_model(str(model_path))
    count = 0
    for row in (training.edge_raw_features(g, e) for g in subgraphs for e in g.edges):
        for x, lo, hi in zip(row, scaler.mins, scaler.maxs):
            angle = ttn.TWO_PI * (x - lo) / (hi - lo)
            count += not 0.0 <= angle <= ttn.TWO_PI
    return count


def traced(spans, argv):
    tracer = spans.Tracer()
    with tracer.installed():
        assert main([str(a) for a in argv]) == 0
    return tracer.take_phase()


def test_hooks_count_train_eval_predict(spans, subgraphs_dir, tmp_path):
    graphs = read_subgraphs(subgraphs_dir)
    assert sum(len(g.edges) for g in graphs) > 0

    train_out = tmp_path / "train"
    phase = traced(spans, ["train", "--data", subgraphs_dir, "--out", train_out, "--epochs", "1", "--seed", "1"])
    manifest = read_config_file(str(train_out / "train_manifest.txt"))
    train_set, test_set = training.split_dataset(
        graphs, float(manifest["split_ratio"]), int(manifest["split_seed"])
    )
    model = train_out / "model.txt"
    assert phase["calls"]["cli.train"] == 1
    assert phase["calls"]["training.subgraph_step"] == sum(1 for g in train_set if g.edges)
    counts = phase["counts"]
    assert counts["training.edges_stepped"] == sum(len(g.edges) for g in train_set)
    assert counts["training.edges_evaluated"] == sum(len(g.edges) for g in test_set) > 0
    assert counts["ttn.clamped_features"] == clamped(train_set, model) + clamped(test_set, model) > 0

    data = ["--data", subgraphs_dir, "--model", model]
    phase = traced(spans, ["eval", *data, "--out", tmp_path / "eval", "--shots", "50"])
    assert phase["calls"]["cli.eval"] == 1
    assert phase["counts"]["training.edges_evaluated"] == sum(len(g.edges) for g in graphs)
    assert phase["counts"]["ttn.clamped_features"] == clamped(graphs, model)

    phase = traced(spans, ["predict", *data, "--out", tmp_path / "predict"])
    assert phase["calls"]["cli.predict"] == 1
    assert phase["counts"]["ttn.clamped_features"] == clamped(graphs, model)
    assert all(math.isfinite(s) for s in phase["s"].values())


def test_scoring_runs_no_per_edge_simulator(spans, subgraphs_dir, tmp_path):
    """train, eval and predict score through forward_batch: the gate-list
    simulator and the scalar per-edge calls are off their path."""
    out = tmp_path / "train"
    for argv in (
        ["train", "--data", subgraphs_dir, "--out", out, "--epochs", "1"],
        ["eval", "--data", subgraphs_dir, "--model", out / "model.txt", "--out", tmp_path / "e", "--shots", "5"],
    ):
        calls = traced(spans, argv)["calls"]
        off_path = [n for n in calls if n.startswith(("statevector.", "ttn.ttn_forward", "ttn.ttn_gradient"))]
        assert off_path == []


PREPROCESS_LINE = re.compile(
    r"^event \d+: \d+ hits kept, (\d+) doublets .*?, (\d+) cross-sector dropped, "
    r"(\d+) zero-dr skipped, (\d+) missing-truth$",
    re.M,
)


def test_hooks_count_gen_preprocess(spans, tmp_path, capsys):
    events = tmp_path / "events"
    capsys.readouterr()
    phase = traced(spans, ["gen", "--out", events, "--events", "2", "--tracks", "8", "--noise", "10", "--seed", "5"])
    printed_hits = [int(h) for h in re.findall(r"^event \d+: (\d+) hits", capsys.readouterr().out, re.M)]
    assert phase["calls"]["cli.gen"] == 1 and len(printed_hits) == 2
    assert phase["counts"]["synthgen.hits"] == sum(printed_hits) > 0

    # Give event 1 hits without truth rows and a layer-1 hit at the radius of a
    # layer-0 hit, so that every preprocess counter has something to count.
    truth = events / "event000000001-truth.csv"
    truth_rows = truth.read_text().splitlines(keepends=True)
    truth.write_text("".join(truth_rows[:1] + truth_rows[6:]))  # the first track's first five hits
    hits = events / "event000000001-hits.csv"
    rows = [line.split(",") for line in hits.read_text().splitlines()]
    inner = next(r for r in rows[1:] if r[4:] == ["8", "2"])
    outer = next(r for r in rows[1:] if r[4:] == ["8", "4"])
    outer[1:3] = inner[1:3]
    hits.write_text("".join(",".join(r) + "\n" for r in rows))
    phase = traced(spans, ["preprocess", "--in", events, "--out", tmp_path / "subgraphs"])
    lines = PREPROCESS_LINE.findall(capsys.readouterr().out)
    assert phase["calls"]["cli.preprocess"] == 1 and len(lines) == 2
    doublets, dropped, zero_dr, missing = (sum(int(line[i]) for line in lines) for i in range(4))
    counts = phase["counts"]
    assert counts["hitgraph.doublets"] == doublets > 0
    assert counts["hitgraph.cross_sector_dropped"] == dropped > 0
    assert counts["hitgraph.zero_dr_skipped"] == zero_dr > 0
    assert counts["hitgraph.missing_truth"] == missing > 0
    assert counts["hitgraph.pairs_considered"] > 0
