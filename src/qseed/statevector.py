"""Dense statevector simulation of few-qubit Ry/CNOT circuits.

The gate-list simulator and the dense-unitary oracle are the reference that
tests hold `ttn.forward_batch` to. The product scores edges with
`forward_batch` and takes only `GateOp` and the shot rule `shot_estimate`
from this module; `sample_shots` applies that rule to one state.

Convention: little-endian basis indexing. Qubit k corresponds to bit k of the
amplitude index, so for two qubits the amplitude order is |00>, |10>, |01>,
|11> with the leftmost symbol being qubit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MAX_QUBITS = 12
ORACLE_MAX_QUBITS = 8


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class GateOp:
    """One circuit element: an Ry rotation or a CNOT."""

    kind: str  # "RY" or "CNOT"
    target: int
    control: Optional[int] = None
    angle: Optional[float] = None


def new_zero_state(n_qubits: int) -> StateVector:
    """Return |0...0> on n_qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
        )
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_qubit(state: StateVector, qubit: int, name: str = "qubit") -> None:
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(
            f"{name} {qubit} out of range for {state.n_qubits} qubits"
        )


def _qubit_view(state: StateVector, *qubits: int) -> np.ndarray:
    """Reshape amplitudes so the given qubits become the leading axes.

    Bit k of the index is the k-th fastest-varying axis in C order, hence
    axis (n - 1 - k) after reshape to (2,)*n.
    """
    n = state.n_qubits
    psi = state.amplitudes.reshape((2,) * n)
    axes = [n - 1 - q for q in qubits]
    return np.moveaxis(psi, axes, range(len(axes)))


def apply_ry(state: StateVector, target: int, angle: float) -> StateVector:
    """Apply Ry(angle) to the target qubit in place; returns the state."""
    _check_qubit(state, target, "target")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    psi = _qubit_view(state, target)
    a0 = psi[0].copy()
    psi[0] = c * a0 - s * psi[1]
    psi[1] = s * a0 + c * psi[1]
    return state


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target qubit on all basis states whose control bit is 1."""
    _check_qubit(state, control, "control")
    _check_qubit(state, target, "target")
    if control == target:
        raise ValueError(f"control and target coincide ({control})")
    psi = _qubit_view(state, control, target)
    tmp = psi[1, 0].copy()
    psi[1, 0] = psi[1, 1]
    psi[1, 1] = tmp
    return state


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    if gate.kind == "RY":
        return apply_ry(state, gate.target, gate.angle)
    if gate.kind == "CNOT":
        return apply_cnot(state, gate.control, gate.target)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def apply_circuit(state: StateVector, gates: Sequence[GateOp]) -> StateVector:
    for g in gates:
        apply_gate(state, g)
    return state


def prob_one(state: StateVector, qubit: int) -> float:
    """Probability of measuring |1> on the given qubit."""
    _check_qubit(state, qubit)
    psi = _qubit_view(state, qubit)
    p = float(np.sum(np.abs(psi[1]) ** 2))
    # guard against tiny negative round-off
    return min(max(p, 0.0), 1.0)


def shot_estimate(p, n_shots: int, seed: int):
    """Estimate readout probabilities p (a scalar or an array) from n_shots
    shots each: one binomial draw over all of p, seeded with seed, divided by
    n_shots. Memory does not grow with n_shots."""
    return np.random.default_rng(seed).binomial(n_shots, p) / n_shots


def sample_shots(state: StateVector, qubit: int, n_shots: int, seed: int) -> float:
    """Estimate prob_one by seeded shots (shot_estimate); n_shots >= 1."""
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    return float(shot_estimate(prob_one(state, qubit), n_shots, seed))


def _ry_matrix(angle: float) -> np.ndarray:
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator at `qubit` in the n-qubit space."""
    left = np.eye(2 ** (n_qubits - 1 - qubit), dtype=np.complex128)
    right = np.eye(2**qubit, dtype=np.complex128)
    return np.kron(left, np.kron(op, right))


_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def dense_unitary_oracle(gates: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n product of the gate matrices in application order.

    Brute-force test oracle: applying the result to |0...0> must match
    sequential gate application.
    """
    if not 1 <= n_qubits <= ORACLE_MAX_QUBITS:
        raise ValueError(
            f"oracle supports 1..{ORACLE_MAX_QUBITS} qubits, got {n_qubits}"
        )
    dim = 2**n_qubits
    u = np.eye(dim, dtype=np.complex128)
    for g in gates:
        if g.kind == "RY":
            m = _embed(_ry_matrix(g.angle), g.target, n_qubits)
        elif g.kind == "CNOT":
            if g.control == g.target:
                raise ValueError("control and target coincide")
            m = _embed(_P0, g.control, n_qubits) + _embed(
                _P1, g.control, n_qubits
            ) @ _embed(_X, g.target, n_qubits)
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
        u = m @ u
    return u
