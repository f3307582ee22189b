"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import glob
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qseed import hitgraph as hg
from qseed import synthgen, training, ttn
from qseed.cli import main as cli_main
from qseed.errors import ParseError
from qseed.statevector import apply_ry, new_zero_state, prob_one, sample_shots

from conftest import (
    doublet_geometry,
    hit_coords,
    make_separable_subgraphs,
    passes_cuts,
    random_subgraph,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        mins = rng.uniform(-100, 100, 6)
        scaler = ttn.FeatureScaler(mins, mins + rng.uniform(0.5, 200, 6))
        raw = rng.uniform(scaler.mins, scaler.maxs)
        params = ttn.TTNParams(rng.uniform(0, 2 * math.pi, 11))
        angles = scaler.transform(raw)
        grad = ttn.gradient_batch(angles, params)[0]
        for k in range(11):
            plus, minus = params.copy(), params.copy()
            plus.thetas[k] += h
            minus.thetas[k] -= h
            fd = (
                ttn.forward_batch(angles, plus.thetas)[0, 0]
                - ttn.forward_batch(angles, minus.thetas)[0, 0]
            ) / (2 * h)
            worst = max(worst, abs(grad[k] - fd))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-5 and elapsed < 30,
        f"(max |shift - fd| = {worst:.2e}, {elapsed:.1f} s)",
    )


# The loop of criterion 2, run in a child process on one BLAS thread: the
# oracle's dense 64x64 products on BLAS's default threads slow down many times
# beside other CPU-bound work. It prints worst_amp, worst_norm and elapsed.
CRITERION_2_LOOP = """
import json, time
import numpy as np
from qseed.statevector import apply_circuit, dense_unitary_oracle, new_zero_state
from conftest import random_circuit

rng = np.random.default_rng(102)
t0 = time.perf_counter()
worst_amp = 0.0
worst_norm = 0.0
for _ in range(100):
    gates = random_circuit(rng, 6, int(rng.integers(5, 80)))
    state = apply_circuit(new_zero_state(6), gates)
    u = dense_unitary_oracle(gates, 6)
    worst_amp = max(worst_amp, float(np.max(np.abs(u[:, 0] - state.amplitudes))))
    worst_norm = max(worst_norm, abs(state.norm_sq() - 1.0))
elapsed = time.perf_counter() - t0
print(json.dumps([worst_amp, worst_norm, elapsed]))
"""


def test_criterion_2_simulator_oracle_equivalence():
    here = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(here), "src"), here, os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(p for p in path if p),
    }
    child = subprocess.run([sys.executable, "-c", CRITERION_2_LOOP], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    worst_amp, worst_norm, elapsed = json.loads(child.stdout)
    report(
        2,
        worst_amp < 1e-10 and worst_norm < 1e-10 and elapsed < 30,
        f"(max amp diff {worst_amp:.2e}, max norm dev {worst_norm:.2e}, {elapsed:.1f} s)",
    )


def test_criterion_3_rotation_formula_fidelity():
    flipped = apply_ry(new_zero_state(1), 0, math.pi)
    err_flip = max(abs(flipped.amplitudes[0]), abs(flipped.amplitudes[1] - 1.0))
    half = apply_ry(new_zero_state(1), 0, math.pi / 2)
    err_half = abs(prob_one(half, 0) - 0.5)
    report(3, err_flip < 1e-12 and err_half < 1e-12, f"(errors {err_flip:.1e}, {err_half:.1e})")


def test_criterion_4_shot_statistics():
    state = apply_ry(new_zero_state(1), 0, math.pi / 2)
    estimates = [sample_shots(state, 0, 1000, k) for k in range(200)]
    std = float(np.std(estimates))
    expected = math.sqrt(0.25 / 1000)
    ok = 0.5 * expected <= std <= 3.0 * expected
    report(4, ok, f"(std {std:.4f} vs binomial {expected:.4f})")


def test_product_shot_statistics():
    """Criterion 4's statistics hold on the product's shot path: one draw
    over a whole edge set gives each edge an unbiased binomial estimate with
    the binomial spread, independent of its neighbour in edge order."""
    rng = np.random.default_rng(71)
    subgraphs = [random_subgraph(rng) for _ in range(300)]
    scaler = ttn.fit_scaler(training.collect_features(subgraphs))
    params = ttn.TTNParams(rng.uniform(0, 2 * math.pi, 11))
    p = training.edge_predictions(subgraphs, params, scaler)
    inner = (p > 0.05) & (p < 0.95)
    assert np.count_nonzero(inner) >= 2000
    bound = 4 / math.sqrt(np.count_nonzero(inner))
    for seed in range(3):
        est = training.edge_predictions(subgraphs, params, scaler, 1000, seed)
        assert np.array_equal(est * 1000, np.round(est * 1000))
        z = (est[inner] - p[inner]) / np.sqrt(p[inner] * (1 - p[inner]) / 1000)
        assert abs(z.mean()) < bound
        assert abs(z.var() - 1) < 0.1
        assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < bound


def test_criterion_5_counting_claims(tmp_path):
    events = tmp_path / "events"
    subs = tmp_path / "subgraphs"
    n_events = 3
    assert cli_main(["gen", "--out", str(events), "--events", str(n_events), "--tracks", "10", "--seed", "5"]) == 0
    assert cli_main(["preprocess", "--in", str(events), "--out", str(subs)]) == 0
    per_event = len(glob.glob(str(subs / "evt1_s*")))
    total = len(glob.glob(str(subs / "evt*_s*")))

    pool = [hg.SubGraph(i, (0, 0), [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], [(0, 1, i % 2)]) for i in range(1600)]
    train_set, test_set = training.split_dataset(pool, 0.9, 3)
    scaler = ttn.fit_scaler(training.collect_features(train_set))
    cfg = training.TrainConfig(epochs=2, learning_rate=0.0, seed=1)
    _, history = training.train(train_set, test_set, cfg, ttn.init_params(0), scaler)

    ok = (
        per_event == 16
        and total == 16 * n_events
        and len(train_set) == 1440
        and len(test_set) == 160
        and len(history.updates) == 2880
    )
    report(
        5,
        ok,
        f"(16/event: {per_event}, {total} for {n_events} events, split {len(train_set)}/{len(test_set)}, "
        f"{len(history.updates)} updates)",
    )


def test_criterion_6_cut_engine(tmp_path):
    t0 = time.perf_counter()
    cuts = hg.SelectionCuts(pt_min=0.1, dphi_slope_max=0.5, z0_max=1e5, eta_range=(-6, 6))
    n_expected = 0
    n_found = 0
    violations = 0
    for event_seed in range(10):
        data = synthgen.gen_event(synthgen.GeneratorConfig(n_tracks=50, noise_hits=0, seed=event_seed))
        paths = synthgen.event_paths(str(tmp_path), event_seed + 1)
        synthgen.write_event(data, *paths)
        hits = hg.select_barrel_hits(hg.load_event(*paths))
        pairs, _ = hg.build_doublets(hits, cuts)
        labels, _ = hg.label_edges(pairs, hits, cuts)
        coords = hit_coords(hits)
        violations += sum(
            not passes_cuts(doublet_geometry(coords[src], coords[dst]), cuts)
            for src, dst in pairs.tolist()
        )

        per_particle = {}
        for pid, k, hit_id in zip(hits.particle_id.tolist(), hits.layer_index.tolist(), hits.hit_id.tolist()):
            per_particle.setdefault(pid, {})[k] = hit_id
        expected = set()
        for layers in per_particle.values():
            for k in layers:
                if k + 1 in layers:
                    expected.add((layers[k], layers[k + 1]))
        got = {tuple(p) for p in hits.hit_id[pairs[labels]].tolist()}
        n_expected += len(expected)
        n_found += len(expected & got)
    elapsed = time.perf_counter() - t0
    recall = n_found / n_expected
    report(
        6,
        recall >= 0.99 and violations == 0 and elapsed < 60,
        f"(recall {recall:.4f} over {n_expected} truth doublets, {violations} cut violations, {elapsed:.1f} s)",
    )


def test_criterion_7_end_to_end_learning():
    t0 = time.perf_counter()
    subgraphs = make_separable_subgraphs(n_subgraphs=60, edges_per=9, seed=5)
    n_edges = sum(len(g.edges) for g in subgraphs)
    assert len(subgraphs) >= 16 and n_edges >= 500
    train_set, test_set = training.split_dataset(subgraphs, 0.9, 11)
    scaler = ttn.fit_scaler(training.collect_features(train_set))
    cfg = training.TrainConfig(epochs=2, learning_rate=0.1, threshold=0.5, seed=3)
    loss_only = training.TrainConfig(learning_rate=0.0)  # subgraph_step(...)[1] is the loss

    n_true = sum(label for g in test_set for *_, label in g.edges)
    n_total = sum(len(g.edges) for g in test_set)
    baseline = max(n_true, n_total - n_true) / n_total

    passed_seed = None
    details = []
    for init_seed in range(5):
        params = ttn.init_params(init_seed)
        initial_loss = float(
            np.mean([training.subgraph_step(g, params, scaler, loss_only)[1] for g in train_set])
        )
        _, history = training.train(train_set, test_set, cfg, params, scaler)
        final_loss = history.epochs[-1].train_loss
        accuracy = history.epochs[-1].metrics.accuracy
        details.append(f"seed {init_seed}: loss {initial_loss:.3f}->{final_loss:.3f} acc {accuracy:.3f}")
        if final_loss <= 0.8 * initial_loss and accuracy >= baseline + 0.05:
            passed_seed = init_seed
            break
    elapsed = time.perf_counter() - t0
    report(
        7,
        passed_seed is not None and elapsed < 600,
        f"(baseline {baseline:.3f}; {'; '.join(details)}; {elapsed:.1f} s)",
    )


def test_criterion_8_manifest_determinism(tmp_path):
    events = tmp_path / "events"
    subs = tmp_path / "subgraphs"
    assert cli_main(["gen", "--out", str(events), "--events", "2", "--tracks", "10", "--noise", "5", "--seed", "3"]) == 0
    assert cli_main([
        "preprocess", "--in", str(events), "--out", str(subs),
        "--pt-min", "0.1", "--dphi-max", "0.5", "--z0-max", "100000",
    ]) == 0
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli_main([
        "train", "--data", str(subs), "--out", str(out1),
        "--epochs", "1", "--lr", "0.05", "--seed", "13",
    ]) == 0
    assert cli_main([
        "train", "--data", str(subs), "--out", str(out2),
        "--config", str(out1 / "train_manifest.txt"),
    ]) == 0
    same_updates = (out1 / "updates.csv").read_bytes() == (out2 / "updates.csv").read_bytes()
    same_model = (out1 / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()
    report(8, same_updates and same_model, "(updates.csv and model.txt byte-identical)")


def test_criterion_9_round_trip(tmp_path):
    rng = np.random.default_rng(109)
    ok = True
    for i in range(1000):
        g = random_subgraph(rng)
        path = hg.write_subgraph(g, str(tmp_path / f"g{i}"))
        if hg.read_subgraph(path) != g:
            ok = False
            break

    g = hg.SubGraph(1, (0, 0), [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], [(0, 1, 1)])
    path = hg.write_subgraph(g, str(tmp_path / "bad"))
    with open(os.path.join(path, "edges.csv"), "a", encoding="utf-8") as fh:
        fh.write("0,notanint,1\n")
    try:
        hg.read_subgraph(path)
        errored = False
        message = "no error raised"
    except ParseError as exc:
        message = str(exc)
        errored = ":3:" in message
    report(9, ok and errored, f"(1000 graphs round-tripped; malformed -> {message!r})")
