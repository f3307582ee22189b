"""6-qubit tree-structured variational edge classifier.

The circuit contracts the six encoded qubits pairwise toward qubit 3, whose
|1> probability is the edge-truth probability. Layout (fixed, tag "ttn-v1"):

    1. encoding       Ry(x_i') on qubit i, i = 0..5
    2. layer 1        Ry(t0..t5) on qubits 0..5; CNOT 0->1, 2->3, 4->5
    3. layer 2        Ry(t6) on q1, Ry(t7) on q3; CNOT 1->3
    4. layer 3        Ry(t8) on q3, Ry(t9) on q5; CNOT 5->3
    5. layer 4        Ry(t10) on q3; readout = P(|1>) on q3
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DataError, ParseError, read_lines
from .statevector import GateOp

N_FEATURES = 6
N_PARAMS = 11
READOUT_QUBIT = 3
LAYOUT_TAG = "ttn-v1"

TWO_PI = 2.0 * math.pi

# The tree after encoding, in application order: ("RY", qubit, theta index)
# or ("CNOT", target, control).
TREE = (
    ("RY", 0, 0), ("RY", 1, 1), ("RY", 2, 2), ("RY", 3, 3), ("RY", 4, 4), ("RY", 5, 5),
    ("CNOT", 1, 0), ("CNOT", 3, 2), ("CNOT", 5, 4),  # layer 1
    ("RY", 1, 6), ("RY", 3, 7), ("CNOT", 3, 1),  # layer 2
    ("RY", 3, 8), ("RY", 5, 9), ("CNOT", 3, 5),  # layer 3
    ("RY", 3, 10),  # layer 4
)

# Rows of one statevector block in forward_batch. A row is 64 float64
# amplitudes, so a block takes 128 KiB and its temporaries about as much,
# whatever the number of edges and parameter vectors.
BATCH_ROWS = 256


@dataclass
class TTNParams:
    """The 11 trainable rotation angles, in layout order."""

    thetas: np.ndarray

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        if self.thetas.shape != (N_PARAMS,):
            raise ValueError(f"expected {N_PARAMS} angles, got {self.thetas.shape}")
        if not np.all(np.isfinite(self.thetas)):
            raise ValueError("parameters must be finite")

    def copy(self) -> "TTNParams":
        return TTNParams(self.thetas.copy())


@dataclass
class FeatureScaler:
    """Per-feature (min, max) bounds mapping raw features onto [0, 2*pi]."""

    mins: np.ndarray
    maxs: np.ndarray
    clamp_count: int = 0

    def __post_init__(self) -> None:
        self.mins = np.asarray(self.mins, dtype=float)
        self.maxs = np.asarray(self.maxs, dtype=float)
        if self.mins.shape != (N_FEATURES,) or self.maxs.shape != (N_FEATURES,):
            raise ValueError("scaler needs bounds for all 6 features")
        if not (np.all(np.isfinite(self.mins)) and np.all(np.isfinite(self.maxs))):
            raise ValueError("scaler bounds must be finite")
        if not np.all(self.maxs > self.mins):
            raise ValueError("every feature must have max > min")

    def transform(self, raw: Sequence[float]) -> np.ndarray:
        """Scale raw features to angles in [0, 2*pi], clamping out-of-range
        inputs and counting the clamping events."""
        x = np.asarray(raw, dtype=float)
        angles = TWO_PI * (x - self.mins) / (self.maxs - self.mins)
        clamped = np.clip(angles, 0.0, TWO_PI)
        self.clamp_count += int(np.count_nonzero(clamped != angles))
        return clamped


def fit_scaler(raw_features: np.ndarray) -> FeatureScaler:
    """Per-feature min/max over a training collection of raw edge features.

    Degenerate features (max == min) are widened by +-0.5 around the constant.
    """
    arr = np.asarray(raw_features, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != N_FEATURES or arr.shape[0] == 0:
        raise DataError(
            f"scaler needs a non-empty (n, {N_FEATURES}) feature array, "
            f"got shape {arr.shape}"
        )
    mins = arr.min(axis=0)
    maxs = arr.max(axis=0)
    degenerate = maxs == mins
    mins = np.where(degenerate, mins - 0.5, mins)
    maxs = np.where(degenerate, maxs + 0.5, maxs)
    return FeatureScaler(mins, maxs)


def encoding_gates(angles: Sequence[float]) -> List[GateOp]:
    return [GateOp("RY", target=i, angle=float(a)) for i, a in enumerate(angles)]


def circuit_gates(params: TTNParams) -> List[GateOp]:
    """The post-encoding tree circuit, parameters in layout order."""
    t = params.thetas
    return [
        GateOp("RY", target=q, angle=float(t[i])) if kind == "RY" else GateOp("CNOT", target=q, control=i)
        for kind, q, i in TREE
    ]


# --- batched evaluation ------------------------------------------------------
#
# A block is a real (2, 2, 2, 2, 2, 2, rows) array: the amplitude index of
# statevector reshaped as there (qubit q is axis 5 - q), one column per row,
# so every gate updates contiguous runs of rows. Every amplitude the gate-list
# simulator computes from |000000> has an exactly zero imaginary part, so the
# same real updates give the same bits.


def _half_angle_cos_sin(angles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """cos and sin of angle / 2 by `math`, as statevector.apply_ry takes them
    (numpy's vectorised cos and sin need not round like libm)."""
    halves = [a / 2.0 for a in angles.ravel().tolist()]
    cos = np.array([math.cos(h) for h in halves]).reshape(angles.shape)
    sin = np.array([math.sin(h) for h in halves]).reshape(angles.shape)
    return cos, sin


def _axis(qubit: int, bit: int) -> tuple:
    return (slice(None),) * (N_FEATURES - 1 - qubit) + (bit,)


def _ry(psi: np.ndarray, qubit: int, c: np.ndarray, s: np.ndarray) -> None:
    """Ry on `qubit` of every row, with one (cos, sin) of the half angle per
    row: the update c*a0 - s*a1, s*a0 + c*a1 of statevector.apply_ry."""
    a0, a1 = psi[_axis(qubit, 0)], psi[_axis(qubit, 1)]
    c_a0, s_a1, s_a0 = c * a0, s * a1, s * a0
    np.subtract(c_a0, s_a1, out=a0)
    np.add(s_a0, np.multiply(c, a1, out=c_a0), out=a1)


def _cnot(psi: np.ndarray, control: int, target: int) -> None:
    """Swap the target's 0 and 1 amplitudes where the control bit is 1."""
    v = psi[_axis(control, 1)]
    # indexing drops the control axis, so a target axis behind it moves down one
    lead = (slice(None),) * (N_FEATURES - 1 - target - (target < control))
    a0, a1 = v[lead + (0,)], v[lead + (1,)]
    tmp = a0.copy()
    a0[...] = a1
    a1[...] = tmp


def _encode(angles: np.ndarray) -> np.ndarray:
    """The states after encoding_gates(angles[e]), one row per edge."""
    c, s = _half_angle_cos_sin(angles)
    psi = np.zeros((2,) * N_FEATURES + (len(angles),))
    psi[(0,) * N_FEATURES] = 1.0
    for q in range(N_FEATURES):
        _ry(psi, q, c[:, q], s[:, q])
    return psi


def _readout(psi: np.ndarray) -> np.ndarray:
    """P(|1>) on qubit 3 per row: the 32 squared amplitudes with qubit 3 at 1,
    in amplitude-index order, summed as one contiguous row, which is the
    reduction statevector.prob_one makes."""
    ones = psi[_axis(READOUT_QUBIT, 1)]
    squares = np.ascontiguousarray((ones * ones).reshape(2 ** (N_FEATURES - 1), -1).T)
    return np.sum(squares, axis=1)


def forward_batch(angles: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """P(|1>) on qubit 3 for every edge under every parameter vector.

    angles: (E, 6) encoding angles (scaled features); thetas: (K, 11).
    Returns P of shape (K, E), P[k, e] for edge e under thetas[k]. Each
    (k, e) row of the statevector runs encoding_gates(angles[e]) +
    circuit_gates(thetas[k]) with the arithmetic of the gate-list simulator
    and reads out as statevector.prob_one does, so every P equals that
    simulator's bit for bit. A block holds at most BATCH_ROWS rows: up to
    BATCH_ROWS encoded edges, each under as many parameter vectors as fit.
    """
    angles = np.asarray(angles, dtype=float).reshape(-1, N_FEATURES)
    thetas = np.asarray(thetas, dtype=float).reshape(-1, N_PARAMS)
    tree_c, tree_s = _half_angle_cos_sin(thetas)
    probs = np.empty((len(thetas), len(angles)))
    for e0 in range(0, len(angles), BATCH_ROWS):
        encoded = _encode(angles[e0:e0 + BATCH_ROWS])
        n_edges = encoded.shape[-1]
        n_sets = max(1, BATCH_ROWS // n_edges)
        for k0 in range(0, len(thetas), n_sets):
            # rows in (parameter vector, edge) order
            c = np.repeat(tree_c[k0:k0 + n_sets], n_edges, axis=0).T.copy()
            s = np.repeat(tree_s[k0:k0 + n_sets], n_edges, axis=0).T.copy()
            psi = np.tile(encoded, c.shape[1] // n_edges)
            for kind, q, i in TREE:
                if kind == "RY":
                    _ry(psi, q, c[i], s[i])
                else:
                    _cnot(psi, i, q)
            probs[k0:k0 + n_sets, e0:e0 + n_edges] = _readout(psi).reshape(-1, n_edges)
    return np.clip(probs, 0.0, 1.0)


def gradient_batch(angles: np.ndarray, params: TTNParams) -> np.ndarray:
    """Parameter-shift gradient of the analytic forward for every edge.

    d p / d theta_k = [p(theta_k + pi/2) - p(theta_k - pi/2)] / 2, exact for
    Ry generators. The 22 shifted parameter vectors run in one forward_batch.
    Returns G of shape (E, 11).
    """
    shifted = np.repeat(params.thetas[None, :], 2 * N_PARAMS, axis=0)
    for k in range(N_PARAMS):
        theta = params.thetas[k]
        shifted[2 * k, k] = theta + math.pi / 2.0
        shifted[2 * k + 1, k] = theta - math.pi / 2.0
    p = forward_batch(angles, shifted)
    return (0.5 * (p[0::2] - p[1::2])).T


def init_params(seed: int) -> TTNParams:
    """11 angles drawn independently uniform over [0, 2*pi)."""
    rng = np.random.default_rng(seed)
    return TTNParams(rng.uniform(0.0, TWO_PI, size=N_PARAMS))


# --- model persistence -------------------------------------------------------
#
# Flat text file, three sections:
#   [scaler]   6 lines "min max"
#   [params]   11 lines, one angle each
#   [meta]     key=value lines: seed, layout
# Floats are written with repr() and round-trip exactly.


def save_model(
    path: str, params: TTNParams, scaler: FeatureScaler, seed: int
) -> None:
    lines = ["[scaler]"]
    for lo, hi in zip(scaler.mins, scaler.maxs):
        lines.append(f"{float(lo)!r} {float(hi)!r}")
    lines.append("[params]")
    for t in params.thetas:
        lines.append(repr(float(t)))
    lines.append("[meta]")
    lines.append(f"seed={seed}")
    lines.append(f"layout={LAYOUT_TAG}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> Tuple[TTNParams, FeatureScaler, dict]:
    mins: List[float] = []
    maxs: List[float] = []
    thetas: List[float] = []
    meta: dict = {}
    section = None
    for lineno, line in enumerate(read_lines(path, ParseError), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("["):
            if text not in ("[scaler]", "[params]", "[meta]"):
                raise ParseError(f"{path}:{lineno}: unknown section {text!r}")
            section = text
            continue
        try:
            if section == "[scaler]":
                lo, hi = text.split()
                mins.append(float(lo))
                maxs.append(float(hi))
            elif section == "[params]":
                thetas.append(float(text))
            elif section == "[meta]":
                key, value = text.split("=", 1)
                meta[key] = value
            else:
                raise ValueError("content before any section header")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if len(mins) != N_FEATURES:
        raise ParseError(f"{path}: expected {N_FEATURES} scaler lines, got {len(mins)}")
    if len(thetas) != N_PARAMS:
        raise ParseError(f"{path}: expected {N_PARAMS} parameter lines, got {len(thetas)}")
    if meta.get("layout") != LAYOUT_TAG:
        raise ParseError(f"{path}: unsupported layout tag {meta.get('layout')!r}")
    try:
        return TTNParams(np.array(thetas)), FeatureScaler(np.array(mins), np.array(maxs)), meta
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
