import math

import numpy as np
import pytest

from qseed.errors import DataError, ParseError
from qseed.statevector import (
    StateVector,
    apply_circuit,
    apply_cnot,
    apply_ry,
    dense_unitary_oracle,
    new_zero_state,
    prob_one,
    shot_estimate,
)
from qseed import ttn
from qseed.ttn import (
    FeatureScaler,
    TTNParams,
    circuit_gates,
    encoding_gates,
    fit_scaler,
    forward_batch,
    gradient_batch,
    init_params,
    load_model,
    save_model,
)

from conftest import encode_features, reference_forward, reference_gradient, reference_prob

UNIT_SCALER = FeatureScaler(np.zeros(6), np.ones(6))


def random_scaler(rng):
    mins = rng.uniform(-100, 100, 6)
    return FeatureScaler(mins, mins + rng.uniform(0.5, 200, 6))


class TestFitScaler:
    def test_min_max_bounds(self):
        rows = np.zeros((3, 6))
        rows[:, 0] = [32.0, 72.0, 116.0]
        rows[:, 1:] = np.random.default_rng(0).uniform(0, 1, (3, 5))
        scaler = fit_scaler(rows)
        assert scaler.mins[0] == 32.0
        assert scaler.maxs[0] == 116.0

    def test_single_edge_degenerate(self):
        row = np.arange(6, dtype=float).reshape(1, 6)
        scaler = fit_scaler(row)
        assert np.allclose(scaler.mins, row[0] - 0.5)
        assert np.allclose(scaler.maxs, row[0] + 0.5)

    def test_phi_span(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-math.pi, math.pi, (5000, 6))
        scaler = fit_scaler(rows)
        # oracle: direct scan
        assert np.allclose(scaler.mins, rows.min(axis=0))
        assert np.allclose(scaler.maxs, rows.max(axis=0))
        assert scaler.mins[1] == pytest.approx(-math.pi, abs=0.01)
        assert scaler.maxs[1] == pytest.approx(math.pi, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_scaler(np.empty((0, 6)))


class TestEncodeFeatures:
    def test_minima_give_zero_state(self):
        state = encode_features(np.zeros(6), UNIT_SCALER)
        expected = np.zeros(64)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_maxima_give_global_phase_zero_state(self):
        state = encode_features(np.ones(6), UNIT_SCALER)
        # Ry(2pi) = -I per qubit; (-1)^6 = +1 overall
        assert abs(state.amplitudes[0] - 1.0) < 1e-12
        assert prob_one(state, 3) < 1e-12

    def test_midpoint_puts_qubit_in_one(self):
        raw = np.zeros(6)
        raw[2] = 0.5
        state = encode_features(raw, UNIT_SCALER)
        assert abs(prob_one(state, 2) - 1.0) < 1e-12

    def test_clamping_counted(self):
        scaler = FeatureScaler(np.zeros(6), np.ones(6))
        scaler.transform([2.0, -1.0, 0.5, 0.5, 0.5, 0.5])
        assert scaler.clamp_count == 2

    def test_inverse_rotations_restore(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scaler = random_scaler(rng)
            raw = rng.uniform(scaler.mins, scaler.maxs)
            angles = scaler.transform(raw)
            state = encode_features(raw, scaler)
            for q in range(6):
                apply_ry(state, q, -angles[q])
            assert abs(state.amplitudes[0] - 1.0) < 1e-12


class TestForward:
    def test_all_zero_params_and_features(self):
        params = TTNParams(np.zeros(11))
        assert forward_batch(UNIT_SCALER.transform(np.zeros(6)), params.thetas)[0, 0] == 0.0

    def test_final_rotation_pi_gives_one(self):
        thetas = np.zeros(11)
        thetas[10] = math.pi
        assert forward_batch(UNIT_SCALER.transform(np.zeros(6)), thetas)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            scaler = random_scaler(rng)
            raw = rng.uniform(scaler.mins, scaler.maxs)
            params = TTNParams(rng.uniform(0, 2 * math.pi, 11))
            p = forward_batch(scaler.transform(raw), params.thetas)[0, 0]
            gates = encoding_gates(scaler.transform(raw)) + circuit_gates(params)
            u = dense_unitary_oracle(gates, 6)
            psi = u[:, 0]
            ref = sum(abs(psi[i]) ** 2 for i in range(64) if i & (1 << 3))
            assert abs(p - ref) < 1e-10

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scaler = random_scaler(rng)
            raw = rng.uniform(scaler.mins - 50, scaler.maxs + 50)
            params = TTNParams(rng.uniform(-10, 10, 11))
            p = forward_batch(scaler.transform(raw), params.thetas)[0, 0]
            assert 0.0 <= p <= 1.0

    def test_shot_mode_is_rational_and_converges(self):
        rng = np.random.default_rng(6)
        scaler = random_scaler(rng)
        raw = rng.uniform(scaler.mins, scaler.maxs)
        params = TTNParams(rng.uniform(0, 2 * math.pi, 11))
        exact = forward_batch(scaler.transform(raw), params.thetas)[0, 0]
        n_shots = 1000
        bound = 5.0 * math.sqrt(max(exact * (1 - exact), 1e-12) / n_shots)
        n_ok = 0
        trials = 1000
        for seed in range(trials):
            est = shot_estimate(exact, n_shots, seed)
            assert est * n_shots == pytest.approx(round(est * n_shots))
            n_ok += abs(est - exact) <= bound
        assert n_ok >= 0.99 * trials


class TestGradient:
    def test_zero_point_gradient_is_zero(self):
        grad = gradient_batch(UNIT_SCALER.transform(np.zeros(6)), TTNParams(np.zeros(11)))[0]
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_single_parameter_analytic(self):
        # only the final rotation active: p = sin^2(theta/2),
        # dp/dtheta = sin(theta)/2 -> 0.5 at theta = pi/2
        thetas = np.zeros(11)
        thetas[10] = math.pi / 2
        grad = gradient_batch(UNIT_SCALER.transform(np.zeros(6)), TTNParams(thetas))[0]
        assert grad[10] == pytest.approx(0.5, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-4
        for _ in range(100):
            scaler = random_scaler(rng)
            raw = rng.uniform(scaler.mins, scaler.maxs)
            params = TTNParams(rng.uniform(0, 2 * math.pi, 11))
            grad = gradient_batch(scaler.transform(raw), params)[0]
            for k in range(11):
                plus = params.copy()
                plus.thetas[k] += h
                minus = params.copy()
                minus.thetas[k] -= h
                angles = scaler.transform(raw)
                fd = (
                    forward_batch(angles, plus.thetas)[0, 0] - forward_batch(angles, minus.thetas)[0, 0]
                ) / (2 * h)
                assert abs(grad[k] - fd) < 1e-5


class TestInitParams:
    def test_same_seed_same_params(self):
        assert np.array_equal(init_params(12).thetas, init_params(12).thetas)

    def test_different_seeds_differ(self):
        for seed in range(100):
            a = init_params(seed).thetas
            b = init_params(seed + 1000).thetas
            assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        samples = np.concatenate([init_params(s).thetas for s in range(1000)])
        assert samples.size >= 10**4
        assert abs(samples.mean() - math.pi) < 0.1
        assert samples.min() >= 0.0
        assert samples.max() < 2 * math.pi


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        params = TTNParams(rng.uniform(0, 2 * math.pi, 11))
        scaler = random_scaler(rng)
        path = tmp_path / "model.txt"
        save_model(str(path), params, scaler, seed=77)
        loaded_params, loaded_scaler, meta = load_model(str(path))
        assert np.array_equal(loaded_params.thetas, params.thetas)
        assert np.array_equal(loaded_scaler.mins, scaler.mins)
        assert np.array_equal(loaded_scaler.maxs, scaler.maxs)
        assert meta["seed"] == "77"
        assert meta["layout"] == "ttn-v1"

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[scaler]\n0.0 1.0\nnot a number\n")
        with pytest.raises(ParseError, match=r"model\.txt:3"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "index, text, message",  # line index 1 is the first "min max" line, 8 the first angle
        [(8, "nan", "parameters must be finite"), (1, "1.0 0.0", "max > min")],
        ids=["nan-angle", "min-above-max"],
    )
    def test_invalid_values_are_parse_errors(self, tmp_path, index, text, message):
        path = tmp_path / "model.txt"
        save_model(str(path), init_params(0), UNIT_SCALER, seed=0)
        lines = path.read_text().splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"model\.txt: .*{message}"):
            load_model(str(path))

    def test_wrong_counts_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[scaler]\n0.0 1.0\n[params]\n1.0\n[meta]\nlayout=ttn-v1\n")
        with pytest.raises(ParseError):
            load_model(str(path))


class TestBatched:
    """forward_batch and gradient_batch equal the gate-list simulator with ==."""

    @staticmethod
    def random_angles(rng, n):
        return rng.uniform(0.0, 2 * math.pi, (n, 6))

    @staticmethod
    def check_forward(angles, thetas):
        got = ttn.forward_batch(angles, thetas)
        assert got.shape == (len(thetas), len(angles))
        for k, t in enumerate(thetas):
            params = TTNParams(t)
            want = [reference_prob(a, params) for a in angles]
            assert got[k].tolist() == want

    def test_forward_random(self):
        rng = np.random.default_rng(30)
        self.check_forward(self.random_angles(rng, 40), rng.uniform(-10, 10, (3, 11)))

    def test_forward_clamped_extremes(self):
        # every corner of the angle cube: each feature clamped to 0 or 2 pi
        corners = np.array([[2 * math.pi * ((i >> q) & 1) for q in range(6)] for i in range(64)])
        rng = np.random.default_rng(31)
        thetas = np.vstack([np.zeros(11), np.full(11, 2 * math.pi), rng.uniform(0, 2 * math.pi, 11)])
        self.check_forward(corners, thetas)

    def test_clamped_raw_features(self):
        rng = np.random.default_rng(32)
        scaler = random_scaler(rng)
        raw = rng.uniform(scaler.mins - 100, scaler.maxs + 100, (50, 6))
        angles = scaler.transform(raw)
        assert np.any(angles == 0.0) and np.any(angles == 2 * math.pi)
        self.check_forward(angles, rng.uniform(0, 2 * math.pi, (1, 11)))

    @pytest.mark.parametrize("n_sets, n_edges", [(1, 255), (1, 256), (1, 257), (3, 500), (300, 2)])
    def test_row_counts_around_batch_rows(self, n_sets, n_edges):
        assert ttn.BATCH_ROWS == 256
        rng = np.random.default_rng(n_sets * 1000 + n_edges)
        self.check_forward(self.random_angles(rng, n_edges), rng.uniform(0, 2 * math.pi, (n_sets, 11)))

    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(33)
        angles = self.random_angles(rng, 37)
        thetas = rng.uniform(0, 2 * math.pi, (5, 11))
        whole = ttn.forward_batch(angles, thetas)
        for rows in (1, 7, 36, 37, 38):
            monkeypatch.setattr(ttn, "BATCH_ROWS", rows)
            assert np.array_equal(ttn.forward_batch(angles, thetas), whole)

    @pytest.mark.parametrize("n_sets, n_edges", [(1, 600), (22, 68), (300, 2)])
    def test_blocks_hold_at_most_batch_rows(self, monkeypatch, n_sets, n_edges):
        rows = []
        ry = ttn._ry
        monkeypatch.setattr(ttn, "_ry", lambda psi, *args: rows.append(psi.shape[-1]) or ry(psi, *args))
        rng = np.random.default_rng(36)
        ttn.forward_batch(self.random_angles(rng, n_edges), rng.uniform(0, 2 * math.pi, (n_sets, 11)))
        assert max(rows) <= ttn.BATCH_ROWS
        assert sum(rows) >= n_sets * n_edges * 11  # every row takes the tree's 11 rotations

    def test_cnot_equals_apply_cnot(self):
        rng = np.random.default_rng(37)
        block = rng.standard_normal((2,) * 6 + (5,))
        pairs = [(c, t) for c in range(6) for t in range(6) if c != t]
        assert len(pairs) == 30
        for control, target in pairs:
            got = block.copy()
            ttn._cnot(got, control, target)
            for row in range(block.shape[-1]):
                state = StateVector(6, block[..., row].astype(complex).ravel())
                apply_cnot(state, control, target)
                assert got[..., row].ravel().tolist() == state.amplitudes.real.tolist()

    def test_no_edges(self):
        assert ttn.forward_batch(np.empty((0, 6)), np.zeros((2, 11))).shape == (2, 0)
        assert ttn.gradient_batch(np.empty((0, 6)), init_params(0)).shape == (0, 11)

    @pytest.mark.parametrize("n_edges", [11, 12, 68])  # 242, 264 and 1,496 rows
    def test_gradient_matches_per_row_shift(self, n_edges):
        rng = np.random.default_rng(34 + n_edges)
        angles = self.random_angles(rng, n_edges)
        angles[0] = 0.0
        angles[1] = 2 * math.pi
        params = TTNParams(rng.uniform(0, 2 * math.pi, 11))
        got = ttn.gradient_batch(angles, params)
        assert got.shape == (n_edges, 11)
        for a, row in zip(angles, got):
            want = np.empty(11)
            shifted = params.copy()
            for k in range(11):
                theta = params.thetas[k]
                shifted.thetas[k] = theta + math.pi / 2.0
                plus = reference_prob(a, shifted)
                shifted.thetas[k] = theta - math.pi / 2.0
                minus = reference_prob(a, shifted)
                shifted.thetas[k] = theta
                want[k] = 0.5 * (plus - minus)
            assert row.tolist() == want.tolist()

    def test_scalar_calls_equal_reference(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            scaler = random_scaler(rng)
            raw = rng.uniform(scaler.mins - 20, scaler.maxs + 20)
            params = TTNParams(rng.uniform(0, 2 * math.pi, 11))
            p = forward_batch(scaler.transform(raw), params.thetas)[0, 0]
            assert p == reference_forward(raw, params, scaler)
            seed = int(rng.integers(1000))
            assert shot_estimate(p, 100, seed) == reference_forward(raw, params, scaler, 100, seed)
            grad = gradient_batch(scaler.transform(raw), params)[0]
            assert grad.tolist() == reference_gradient(raw, params, scaler).tolist()
