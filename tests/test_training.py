import math

import numpy as np
import pytest

from qseed.errors import DataError, NumericError, UsageError
from qseed.hitgraph import SubGraph, subgraph_dirname
from qseed import training, ttn
from qseed.training import (
    Metrics,
    TrainConfig,
    class_weights,
    evaluate_metrics,
    split_dataset,
    subgraph_step,
    train,
    weighted_bce,
)

from conftest import (
    make_separable_subgraphs,
    random_subgraph,
    reference_predictions,
    reference_step,
    reference_train,
)

# subgraph_step(g, params, scaler, LOSS_ONLY)[1] is the mean loss at params.
LOSS_ONLY = TrainConfig(learning_rate=0.0)


def small_dataset(seed=5, n_subgraphs=12, edges_per=6):
    subs = make_separable_subgraphs(n_subgraphs, edges_per, seed)
    scaler = ttn.fit_scaler(training.collect_features(subs))
    return subs, scaler


class TestSplit:
    def test_1600_splits_1440_160(self):
        subs = [SubGraph(i, (0, 0), [], []) for i in range(1600)]
        tr, te = split_dataset(subs, 0.9, 3)
        assert len(tr) == 1440
        assert len(te) == 160

    def test_ten_splits_nine_one(self):
        subs = [SubGraph(i, (0, 0), [], []) for i in range(10)]
        tr, te = split_dataset(subs, 0.9, 3)
        assert (len(tr), len(te)) == (9, 1)

    def test_deterministic_and_exhaustive(self):
        subs = [SubGraph(i, (0, 0), [], []) for i in range(37)]
        a = split_dataset(subs, 0.7, 8)
        b = split_dataset(subs, 0.7, 8)
        assert [g.event_id for g in a[0]] == [g.event_id for g in b[0]]
        ids = sorted(g.event_id for g in a[0] + a[1])
        assert ids == list(range(37))

    def test_too_few(self):
        with pytest.raises(DataError):
            split_dataset([SubGraph(0, (0, 0), [], [])], 0.9, 1)


class TestWeightedBce:
    def test_half_pred_true_label(self):
        assert weighted_bce(0.5, 1, 1.0, 1.0) == pytest.approx(math.log(2))

    def test_saturated_correct_is_tiny(self):
        assert weighted_bce(1.0, 1, 3.0, 1.0) == pytest.approx(3.0e-7, rel=1e-2)

    def test_weighted_wrong_prediction(self):
        assert weighted_bce(0.9, 0, 1.0, 2.0) == pytest.approx(-2.0 * math.log(0.1))

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            loss = weighted_bce(
                float(rng.uniform(0, 1)),
                int(rng.integers(2)),
                float(rng.uniform(0.1, 5)),
                float(rng.uniform(0.1, 5)),
            )
            assert loss >= 0.0

    def test_base_rate_predictor_balances_classes(self):
        # with w = E/(2*E_class), predicting any constant p gives equal total
        # loss from both classes
        g = SubGraph(0, (0, 0), [(1.0, 0, 0)] * 10, [(0, 0, 1)] * 3 + [(0, 0, 0)] * 7)
        w_true, w_fake = class_weights(g)
        p = 0.3
        true_total = 3 * weighted_bce(p, 1, w_true, w_fake)
        fake_total = 7 * weighted_bce(1 - p, 0, w_true, w_fake)
        assert true_total == pytest.approx(fake_total)


class TestClassWeights:
    def test_balanced_formula(self):
        g = SubGraph(0, (0, 0), [], [(0, 0, 1)] * 2 + [(0, 0, 0)] * 6)
        w_true, w_fake = class_weights(g)
        assert w_true == pytest.approx(8 / 4)
        assert w_fake == pytest.approx(8 / 12)

    def test_one_class_fallback(self):
        g = SubGraph(0, (0, 0), [], [(0, 0, 1)] * 4)
        w_true, w_fake = class_weights(g)
        assert w_true == pytest.approx(0.5)
        assert w_fake == 1.0


class TestSubgraphStep:
    def test_descends_on_single_true_edge(self):
        subs, scaler = small_dataset()
        g = SubGraph(0, (0, 0), [(1.0, 0, 0), (2.5, 0, 0)], [(0, 1, 1)])
        cfg = TrainConfig(learning_rate=0.1)
        params = ttn.init_params(3)
        angles = scaler.transform(training.edge_raw_features(g, g.edges[0]))
        before = ttn.forward_batch(angles, params.thetas)[0, 0]
        new_params, loss = subgraph_step(g, params, scaler, cfg)
        after = ttn.forward_batch(angles, new_params.thetas)[0, 0]
        assert loss >= 0.0
        assert after > before  # moves toward the true label

    def test_gradient_matches_finite_difference_of_mean_loss(self):
        rng = np.random.default_rng(9)
        h = 1e-4
        cfg = TrainConfig(learning_rate=1.0)
        for trial in range(50):
            subs, scaler = small_dataset(seed=trial, n_subgraphs=2, edges_per=4)
            g = subs[0]
            params = ttn.TTNParams(rng.uniform(0, 2 * math.pi, 11))
            new_params, _ = subgraph_step(g, params, scaler, cfg)
            analytic = (params.thetas - new_params.thetas) / cfg.learning_rate
            for k in range(11):
                plus = params.copy()
                plus.thetas[k] += h
                minus = params.copy()
                minus.thetas[k] -= h
                fd = (
                    subgraph_step(g, plus, scaler, LOSS_ONLY)[1]
                    - subgraph_step(g, minus, scaler, LOSS_ONLY)[1]
                ) / (2 * h)
                assert abs(analytic[k] - fd) < 1e-5

    def test_empty_subgraph_rejected(self):
        subs, scaler = small_dataset()
        with pytest.raises(DataError):
            subgraph_step(SubGraph(0, (0, 0), [], []), ttn.init_params(0), scaler, TrainConfig())

    def test_nan_prediction_is_numeric_error_naming_the_subgraph(self, monkeypatch):
        # a NaN prediction makes its loss gradient NaN, and so the new angles
        subs, scaler = small_dataset()
        monkeypatch.setattr(training, "forward_batch", lambda angles, thetas: np.full((1, len(angles)), np.nan))
        with pytest.raises(NumericError, match=f"^subgraph {subgraph_dirname(subs[0])}: .*non-finite parameters"):
            subgraph_step(subs[0], ttn.init_params(0), scaler, TrainConfig())


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"threshold": 1.0}, "threshold must be in (0, 1)"),
        ({"threshold": math.nan}, "threshold must be in (0, 1)"),
        ({"split_ratio": 0.0}, "split_ratio must be in (0, 1)"),
        ({"learning_rate": -1.0}, "learning_rate must be finite and non-negative"),
    ],
)
def test_invalid_train_config_is_usage_error(kwargs, message):
    with pytest.raises(UsageError) as exc:
        TrainConfig(**kwargs)
    assert str(exc.value) == message
    assert exc.value.exit_code == 1 and isinstance(exc.value, ValueError)


class TestTrain:
    def test_update_count(self):
        subs, scaler = small_dataset(n_subgraphs=10, edges_per=3)
        tr, te = split_dataset(subs, 0.9, 1)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, seed=2)
        _, history = train(tr, te, cfg, ttn.init_params(1), scaler)
        assert len(history.updates) == 2 * len(tr)
        assert len(history.epochs) == 2
        assert all(rec.loss >= 0.0 for rec in history.updates)

    def test_zero_learning_rate_is_noop(self):
        subs, scaler = small_dataset(n_subgraphs=6)
        cfg = TrainConfig(epochs=2, learning_rate=0.0, seed=4)
        initial = ttn.init_params(5)
        final, _ = train(subs[:5], subs[5:], cfg, initial, scaler)
        assert np.array_equal(final.thetas, initial.thetas)

    def test_deterministic(self):
        subs, scaler = small_dataset(n_subgraphs=8)
        cfg = TrainConfig(epochs=2, learning_rate=0.1, seed=6)
        runs = [train(subs[:7], subs[7:], cfg, ttn.init_params(2), scaler) for _ in range(2)]
        assert np.array_equal(runs[0][0].thetas, runs[1][0].thetas)
        assert [(r.update, r.subgraph, r.loss) for r in runs[0][1].updates] == [
            (r.update, r.subgraph, r.loss) for r in runs[1][1].updates
        ]

    def test_loss_decreases_on_separable_toy(self):
        subs = make_separable_subgraphs(30, 6, seed=14)
        scaler = ttn.fit_scaler(training.collect_features(subs))
        tr, te = split_dataset(subs, 0.9, 0)
        cfg = TrainConfig(epochs=2, learning_rate=0.1, seed=0)
        params = ttn.init_params(0)
        initial = np.mean([subgraph_step(g, params, scaler, LOSS_ONLY)[1] for g in tr])
        _, history = train(tr, te, cfg, params, scaler)
        assert history.epochs[-1].train_loss < 0.8 * initial


class TestEvaluateMetrics:
    def test_all_correct(self):
        subs = make_separable_subgraphs(4, 5, seed=20)
        scaler = ttn.fit_scaler(training.collect_features(subs))
        # oracle predictor replaced by perfectly trained toy is overkill here;
        # construct counts directly instead
        m = Metrics(tp=5, fp=0, tn=7, fn=0)
        assert m.purity == 1.0 and m.efficiency == 1.0 and m.accuracy == 1.0

    def test_all_fake_predictions(self):
        m = Metrics(tp=0, fp=0, tn=4, fn=3)
        assert m.efficiency == 0.0
        assert m.purity is None

    def test_hand_built_confusion(self):
        m = Metrics(tp=1, fp=1, tn=1, fn=1)
        assert m.purity == 0.5 and m.efficiency == 0.5 and m.accuracy == 0.5
        assert m.total == 4

    def test_counts_sum_to_total_edges(self):
        subs, scaler = small_dataset(n_subgraphs=5)
        m = evaluate_metrics(subs, ttn.init_params(7), scaler)
        assert m.total == sum(len(g.edges) for g in subs)

    def test_zero_edges_rejected(self):
        # the zero counts; `eval` rejects them (tests/test_cli.py)
        subs, scaler = small_dataset()
        m = evaluate_metrics([SubGraph(0, (0, 0), [], [])], ttn.init_params(0), scaler)
        assert m == Metrics(0, 0, 0, 0)
        assert m.purity is None and m.efficiency is None and m.accuracy is None

    def test_shot_mode_reproducible(self):
        subs, scaler = small_dataset(n_subgraphs=3)
        params = ttn.init_params(11)
        a = evaluate_metrics(subs, params, scaler, n_shots=200, shot_seed=5)
        b = evaluate_metrics(subs, params, scaler, n_shots=200, shot_seed=5)
        assert (a.tp, a.fp, a.tn, a.fn) == (b.tp, b.fp, b.tn, b.fn)


def test_history_serialization(tmp_path):
    subs, scaler = small_dataset(n_subgraphs=6, edges_per=3)
    cfg = TrainConfig(epochs=1, learning_rate=0.05, seed=1)
    _, history = train(subs[:5], subs[5:], cfg, ttn.init_params(3), scaler)
    updates = tmp_path / "updates.csv"
    epochs = tmp_path / "epochs.csv"
    training.write_history(history, str(updates), str(epochs))
    lines = updates.read_text().splitlines()
    assert lines[0] == "update,subgraph,loss"
    assert len(lines) == 1 + len(history.updates)
    epoch_lines = epochs.read_text().splitlines()
    assert epoch_lines[0] == "epoch,train_loss,purity,efficiency,accuracy"
    assert len(epoch_lines) == 2


# --- the batched scoring path against the per-edge gate-list reference -------


def mixed_dataset(seed, n_subgraphs=10):
    """Random subgraphs (some without edges) and a scaler fitted on the first
    half, so features of the rest fall outside its range and are clamped."""
    rng = np.random.default_rng(seed)
    subs = [random_subgraph(rng) for _ in range(n_subgraphs)]
    subs = [SubGraph(i, g.sector, g.nodes, g.edges) for i, g in enumerate(subs)]
    fit_on = [g for g in subs[: n_subgraphs // 2] if g.edges] or [g for g in subs if g.edges][:1]
    return subs, ttn.fit_scaler(training.collect_features(fit_on))


class TestBatchedScoring:
    def test_subgraph_step_equals_reference(self):
        cfg = TrainConfig(learning_rate=0.3)
        rng = np.random.default_rng(40)
        subs, scaler = mixed_dataset(41, n_subgraphs=8)
        for g in subs:
            if not g.edges:
                continue
            params = ttn.TTNParams(rng.uniform(0, 2 * math.pi, 11))
            got_params, got_loss = subgraph_step(g, params, scaler, cfg)
            want_params, want_loss = reference_step(g, params, scaler, cfg)
            assert got_params.thetas.tolist() == want_params.thetas.tolist()
            assert got_loss == want_loss
            assert subgraph_step(g, params, scaler, LOSS_ONLY)[1] == want_loss

    def test_all_predictions_clamped_take_no_gradient_row(self, monkeypatch):
        # zero angles and zero features give P = 0 exactly: every edge sits in
        # the BCE clamp, so its loss gradient is zero
        g = SubGraph(0, (0, 0), [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], [(0, 1, 1), (1, 0, 0), (0, 1, 0)])
        scaler = ttn.FeatureScaler(np.array([1.0, 0, 0, 2.0, 0, 0]), np.array([2.0, 1, 1, 3.0, 1, 1]))
        params = ttn.TTNParams(np.zeros(11))
        rows = []
        batch = training.gradient_batch
        monkeypatch.setattr(training, "gradient_batch", lambda a, p: rows.append(len(a)) or batch(a, p))
        cfg = TrainConfig(learning_rate=1.0)
        new_params, loss = subgraph_step(g, params, scaler, cfg)
        assert rows == [0]
        assert np.array_equal(new_params.thetas, params.thetas)
        want_params, want_loss = reference_step(g, params, scaler, cfg)
        assert loss == want_loss and np.array_equal(want_params.thetas, params.thetas)

    @pytest.mark.parametrize("seed", [42, 43])
    def test_train_equals_reference(self, seed):
        subs, scaler = mixed_dataset(seed)
        tr, te = split_dataset(subs, 0.7, seed)
        cfg = TrainConfig(epochs=2, learning_rate=0.2, seed=seed)
        initial = ttn.init_params(seed)
        params, history = train(tr, te, cfg, initial, scaler)
        want_params, want_updates, want_epochs = reference_train(tr, te, cfg, initial, scaler)
        assert params.thetas.tolist() == want_params.thetas.tolist()
        assert [(r.update, r.subgraph, r.loss) for r in history.updates] == want_updates
        got_epochs = [
            (r.epoch, r.train_loss, (r.metrics.tp, r.metrics.fp, r.metrics.tn, r.metrics.fn))
            for r in history.epochs
        ]
        assert got_epochs == want_epochs

    @pytest.mark.parametrize("shots", [(0, 0), (50, 7)], ids=["analytic", "shots"])
    def test_edge_predictions_equal_reference(self, shots):
        subs, scaler = mixed_dataset(44, n_subgraphs=12)
        params = ttn.init_params(44)
        got = training.edge_predictions(subs, params, scaler, *shots)
        assert got.dtype == np.float64 and got.shape == (sum(len(g.edges) for g in subs),)
        assert got.tolist() == reference_predictions(subs, params, scaler, *shots)

    def test_clamp_count_counts_each_scored_edge_once(self):
        subs, scaler = mixed_dataset(45, n_subgraphs=12)
        per_edge = ttn.FeatureScaler(scaler.mins, scaler.maxs)
        for g in subs:
            for e in g.edges:
                per_edge.transform(training.edge_raw_features(g, e))
        assert per_edge.clamp_count > 0
        training.edge_predictions(subs, ttn.init_params(1), scaler)
        assert scaler.clamp_count == per_edge.clamp_count

    @pytest.mark.parametrize("shots", [(0, 0), (20, 9)], ids=["analytic", "shots"])
    def test_edge_predictions_score_whole_set_in_one_forward(self, monkeypatch, shots):
        subs, scaler = mixed_dataset(46, n_subgraphs=60)
        n_edges = sum(len(g.edges) for g in subs)
        assert n_edges > ttn.BATCH_ROWS and any(not g.edges for g in subs)
        rows = []
        forward = training.forward_batch
        monkeypatch.setattr(training, "forward_batch", lambda a, t: rows.append(len(a)) or forward(a, t))
        params = ttn.init_params(46)
        got = training.edge_predictions(subs, params, scaler, *shots)
        assert rows == [n_edges]
        assert got.tolist() == reference_predictions(subs, params, scaler, *shots)

    def test_clamp_count_after_evaluate_metrics_is_per_edge_count(self):
        subs, scaler = mixed_dataset(47, n_subgraphs=60)
        per_edge = ttn.FeatureScaler(scaler.mins, scaler.maxs)
        for g in subs:
            for e in g.edges:
                per_edge.transform(training.edge_raw_features(g, e))
        evaluate_metrics(subs, ttn.init_params(2), scaler)
        assert scaler.clamp_count == per_edge.clamp_count > 0
