import math

import numpy as np
import pytest

from qseed.statevector import (
    GateOp,
    apply_circuit,
    apply_cnot,
    apply_ry,
    dense_unitary_oracle,
    new_zero_state,
    prob_one,
    sample_shots,
)

from conftest import random_circuit


class TestNewZeroState:
    def test_one_qubit(self):
        s = new_zero_state(1)
        assert np.array_equal(s.amplitudes, [1, 0])

    def test_two_qubits(self):
        s = new_zero_state(2)
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_six_qubits(self):
        s = new_zero_state(6)
        assert s.amplitudes.shape == (64,)
        assert s.amplitudes[0] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            new_zero_state(n)


class TestApplyRy:
    def test_pi_flips_zero_to_one(self):
        s = apply_ry(new_zero_state(1), 0, math.pi)
        assert abs(s.amplitudes[0]) < 1e-12
        assert abs(s.amplitudes[1] - 1) < 1e-12

    def test_zero_angle_is_identity(self):
        s = apply_ry(new_zero_state(1), 0, 0.0)
        assert np.array_equal(s.amplitudes, [1, 0])

    def test_half_pi_gives_equal_superposition(self):
        s = apply_ry(new_zero_state(1), 0, math.pi / 2)
        assert np.allclose(s.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    def test_inverse_rotation_restores(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = float(rng.uniform(0, 2 * math.pi))
            q = int(rng.integers(4))
            s = new_zero_state(4)
            apply_ry(s, q, 1.2)  # arbitrary preparation
            before = s.amplitudes.copy()
            apply_ry(s, q, theta)
            apply_ry(s, q, -theta)
            assert np.max(np.abs(s.amplitudes - before)) < 1e-12

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            apply_ry(new_zero_state(2), 2, 0.1)


class TestApplyCnot:
    def test_control_zero_is_noop(self):
        s = apply_cnot(new_zero_state(2), 0, 1)
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_control_one_flips_target(self):
        s = new_zero_state(2)
        apply_ry(s, 0, math.pi)  # |10> in qubit order = index 1
        apply_cnot(s, 0, 1)
        assert abs(s.amplitudes[3] - 1) < 1e-12

    def test_bell_state(self):
        s = new_zero_state(2)
        apply_ry(s, 0, math.pi / 2)
        apply_cnot(s, 0, 1)
        expected = np.zeros(4)
        expected[0] = expected[3] = math.sqrt(0.5)
        assert np.allclose(s.amplitudes, expected, atol=1e-12)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(7)
        s = new_zero_state(3)
        for q in range(3):
            apply_ry(s, q, float(rng.uniform(0, 2 * math.pi)))
        before = s.amplitudes.copy()
        apply_cnot(s, 0, 2)
        apply_cnot(s, 0, 2)
        assert np.max(np.abs(s.amplitudes - before)) < 1e-15

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            apply_cnot(new_zero_state(2), 1, 1)


class TestProbOne:
    def test_zero_state(self):
        assert prob_one(new_zero_state(6), 3) == 0.0

    def test_half_pi(self):
        s = apply_ry(new_zero_state(1), 0, math.pi / 2)
        assert abs(prob_one(s, 0) - 0.5) < 1e-12

    def test_two_thirds_pi(self):
        # oracle: the rotation formula gives amplitude sin(theta/2) on |1>
        theta = 2 * math.pi / 3
        expected = math.sin(theta / 2) ** 2
        s = apply_ry(new_zero_state(1), 0, theta)
        assert abs(prob_one(s, 0) - expected) < 1e-12
        assert abs(expected - 0.75) < 1e-12

    def test_invalid_qubit(self):
        with pytest.raises(IndexError):
            prob_one(new_zero_state(2), 5)


class TestSampleShots:
    def test_p_zero(self):
        s = new_zero_state(3)
        assert sample_shots(s, 1, 1000, 42) == 0.0

    def test_p_one(self):
        s = apply_ry(new_zero_state(1), 0, math.pi)
        assert sample_shots(s, 0, 1000, 42) == 1.0

    def test_fixed_seed_reproducible(self):
        s = apply_ry(new_zero_state(1), 0, 1.1)
        a = sample_shots(s, 0, 1000, 9)
        b = sample_shots(s, 0, 1000, 9)
        assert a == b

    def test_binomial_spread(self):
        # oracle: binomial standard error sqrt(p(1-p)/n)
        s = apply_ry(new_zero_state(1), 0, math.pi / 2)
        estimates = [sample_shots(s, 0, 1000, k) for k in range(200)]
        std = np.std(estimates)
        expected = math.sqrt(0.25 / 1000)
        assert 0.5 * expected < std < 3.0 * expected

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_shots(new_zero_state(1), 0, 0, 1)


class TestDenseUnitaryOracle:
    def test_single_ry_pi(self):
        u = dense_unitary_oracle([GateOp("RY", 0, angle=math.pi)], 1)
        assert np.allclose(u, [[0, -1], [1, 0]], atol=1e-12)

    def test_empty_product_is_identity(self):
        u = dense_unitary_oracle([], 2)
        assert np.array_equal(u, np.eye(4))

    def test_too_many_qubits(self):
        with pytest.raises(ValueError):
            dense_unitary_oracle([], 9)

    def test_matches_sequential_application(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            gates = random_circuit(rng, 6, int(rng.integers(1, 60)))
            state = apply_circuit(new_zero_state(6), gates)
            u = dense_unitary_oracle(gates, 6)
            assert np.max(np.abs(u[:, 0] - state.amplitudes)) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            gates = random_circuit(rng, 4, 30)
            u = dense_unitary_oracle(gates, 4)
            assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


def test_norm_preserved_long_random_sequences():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        gates = random_circuit(rng, n, 100)
        state = apply_circuit(new_zero_state(n), gates)
        assert abs(state.norm_sq() - 1.0) < 1e-10
