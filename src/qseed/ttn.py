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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, ParseError
from .statevector import (
    GateOp,
    ShotConfig,
    StateVector,
    apply_circuit,
    new_zero_state,
    prob_one,
    sample_shots,
)

N_FEATURES = 6
N_PARAMS = 11
READOUT_QUBIT = 3
LAYOUT_TAG = "ttn-v1"

TWO_PI = 2.0 * math.pi


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


def encode_features(raw: Sequence[float], scaler: FeatureScaler) -> StateVector:
    """Angle-encode six raw features: Ry(x_i') on qubit i of |000000>."""
    angles = scaler.transform(raw)
    state = new_zero_state(N_FEATURES)
    apply_circuit(state, encoding_gates(angles))
    return state


def encoding_gates(angles: Sequence[float]) -> List[GateOp]:
    return [GateOp("RY", target=i, angle=float(a)) for i, a in enumerate(angles)]


def circuit_gates(params: TTNParams) -> List[GateOp]:
    """The post-encoding tree circuit, parameters in layout order."""
    t = params.thetas
    gates: List[GateOp] = []
    # layer 1
    gates += [GateOp("RY", target=i, angle=float(t[i])) for i in range(6)]
    gates += [
        GateOp("CNOT", target=1, control=0),
        GateOp("CNOT", target=3, control=2),
        GateOp("CNOT", target=5, control=4),
    ]
    # layer 2
    gates += [
        GateOp("RY", target=1, angle=float(t[6])),
        GateOp("RY", target=3, angle=float(t[7])),
        GateOp("CNOT", target=3, control=1),
    ]
    # layer 3
    gates += [
        GateOp("RY", target=3, angle=float(t[8])),
        GateOp("RY", target=5, angle=float(t[9])),
        GateOp("CNOT", target=3, control=5),
    ]
    # layer 4
    gates.append(GateOp("RY", target=3, angle=float(t[10])))
    return gates


def ttn_forward(
    raw: Sequence[float],
    params: TTNParams,
    scaler: FeatureScaler,
    shots: Optional[ShotConfig] = None,
) -> float:
    """Edge-truth probability: readout P(|1>) of qubit 3 after the tree.

    Analytic when shots is None, otherwise estimated from seeded samples.
    """
    state = encode_features(raw, scaler)
    apply_circuit(state, circuit_gates(params))
    if shots is None:
        return prob_one(state, READOUT_QUBIT)
    return sample_shots(state, READOUT_QUBIT, shots)


def ttn_gradient(
    raw: Sequence[float], params: TTNParams, scaler: FeatureScaler
) -> np.ndarray:
    """Parameter-shift gradient of the analytic forward output.

    d p / d theta_k = [p(theta_k + pi/2) - p(theta_k - pi/2)] / 2, exact for
    Ry generators.
    """
    grad = np.empty(N_PARAMS)
    shifted = params.copy()
    for k in range(N_PARAMS):
        theta = params.thetas[k]
        shifted.thetas[k] = theta + math.pi / 2.0
        plus = ttn_forward(raw, shifted, scaler)
        shifted.thetas[k] = theta - math.pi / 2.0
        minus = ttn_forward(raw, shifted, scaler)
        shifted.thetas[k] = theta
        grad[k] = 0.5 * (plus - minus)
    return grad


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("["):
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
