"""Training and evaluation harness for the tree-circuit edge classifier.

One SGD update per subgraph: the weighted binary cross entropy gradient is
averaged over the subgraph's edges (chain rule through the parameter-shift
circuit gradient) and applied once. Metrics are confusion-matrix based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, NumericError, UsageError
from .hitgraph import SubGraph, subgraph_dirname
from .statevector import shot_estimate
from .ttn import N_FEATURES, FeatureScaler, TTNParams, forward_batch, gradient_batch

# Predictions are clamped to [BCE_EPS, 1 - BCE_EPS] so the loss stays finite.
BCE_EPS = 1e-7


@dataclass
class TrainConfig:
    epochs: int = 2
    learning_rate: float = 0.01
    split_ratio: float = 0.9
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.split_ratio < 1.0:
            raise UsageError("split_ratio must be in (0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise UsageError("threshold must be in (0, 1)")
        if not 0.0 <= self.learning_rate < math.inf:
            raise UsageError("learning_rate must be finite and non-negative")


@dataclass
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def purity(self) -> Optional[float]:
        denom = self.tp + self.fp
        return self.tp / denom if denom else None

    @property
    def efficiency(self) -> Optional[float]:
        denom = self.tp + self.fn
        return self.tp / denom if denom else None

    @property
    def accuracy(self) -> Optional[float]:
        return (self.tp + self.tn) / self.total if self.total else None


@dataclass
class UpdateRecord:
    update: int
    subgraph: str
    loss: float


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    metrics: Metrics


@dataclass
class History:
    updates: List[UpdateRecord] = field(default_factory=list)
    epochs: List[EpochRecord] = field(default_factory=list)


def edge_raw_features(
    g: SubGraph, edge: Tuple[int, int, int]
) -> np.ndarray:
    """(r, phi, z) of both endpoints, inner hit (smaller r) first."""
    src, dst, _ = edge
    a = g.nodes[src]
    b = g.nodes[dst]
    if b[0] < a[0]:
        a, b = b, a
    return np.array([a[0], a[1], a[2], b[0], b[1], b[2]])


def subgraph_features(g: SubGraph) -> np.ndarray:
    """(E, 6) raw features of the subgraph's edges, in edge order."""
    return np.array([edge_raw_features(g, e) for e in g.edges]).reshape(-1, N_FEATURES)


def collect_features(subgraphs: Sequence[SubGraph]) -> np.ndarray:
    """Raw feature rows for every edge of every subgraph (scaler fitting)."""
    if not any(g.edges for g in subgraphs):
        raise DataError("no edges in the given subgraphs")
    return np.concatenate([subgraph_features(g) for g in subgraphs])


def split_dataset(
    subgraphs: Sequence[SubGraph], split_ratio: float, seed: int
) -> Tuple[List[SubGraph], List[SubGraph]]:
    """Seeded shuffle, then first ceil(ratio * N) subgraphs to train."""
    if len(subgraphs) < 2:
        raise DataError(f"need >= 2 subgraphs to split, got {len(subgraphs)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(subgraphs))
    n_train = math.ceil(split_ratio * len(subgraphs))
    train = [subgraphs[i] for i in order[:n_train]]
    test = [subgraphs[i] for i in order[n_train:]]
    return train, test


def weighted_bce(pred: float, label: int, w_true: float, w_fake: float) -> float:
    """-[w_true * y * ln(p) + w_fake * (1 - y) * ln(1 - p)], p clamped."""
    p = min(max(pred, BCE_EPS), 1.0 - BCE_EPS)
    if label:
        return -w_true * math.log(p)
    return -w_fake * math.log(1.0 - p)


def _bce_dpred(pred: float, label: int, w_true: float, w_fake: float) -> float:
    """d loss / d pred; zero where the clamp is active."""
    if pred <= BCE_EPS or pred >= 1.0 - BCE_EPS:
        return 0.0
    if label:
        return -w_true / pred
    return w_fake / (1.0 - pred)


def class_weights(g: SubGraph) -> Tuple[float, float]:
    """Balance weights w = E / (2 * E_class); absent classes fall back to 1."""
    n_edges = len(g.edges)
    n_true = sum(label for _, _, label in g.edges)
    n_fake = n_edges - n_true
    w_true = n_edges / (2.0 * n_true) if n_true else 1.0
    w_fake = n_edges / (2.0 * n_fake) if n_fake else 1.0
    return w_true, w_fake


def subgraph_step(
    g: SubGraph, params: TTNParams, scaler: FeatureScaler, cfg: TrainConfig
) -> Tuple[TTNParams, float]:
    """One SGD update from this subgraph; returns (new params, mean loss).

    Losses and gradient rows are summed one edge at a time in edge order
    (a pairwise np.sum would round differently). Edges whose loss gradient
    the BCE clamp zeroes take no gradient row.
    """
    if not g.edges:
        raise DataError("subgraph has no edges")
    w_true, w_fake = class_weights(g)
    angles = scaler.transform(subgraph_features(g))
    preds = forward_batch(angles, params.thetas)[0].tolist()
    loss_sum = 0.0
    dl_dp = []
    for (_, _, label), pred in zip(g.edges, preds):
        loss_sum += weighted_bce(pred, label, w_true, w_fake)
        dl_dp.append(_bce_dpred(pred, label, w_true, w_fake))
    used = [i for i, d in enumerate(dl_dp) if d != 0.0]
    grad_sum = np.zeros_like(params.thetas)
    for i, grad in zip(used, gradient_batch(angles[used], params)):
        grad_sum += dl_dp[i] * grad
    n = len(g.edges)
    # The check below reports an overflow, so numpy need not warn of it too.
    # A NaN prediction makes its loss gradient NaN, so the check covers it.
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = params.thetas - cfg.learning_rate * grad_sum / n
    if not np.all(np.isfinite(thetas)):
        raise NumericError(
            f"subgraph {subgraph_dirname(g)}: the update gives non-finite parameters "
            f"(learning rate {cfg.learning_rate!r})"
        )
    return TTNParams(thetas), loss_sum / n


def edge_predictions(
    subgraphs: Sequence[SubGraph],
    params: TTNParams,
    scaler: FeatureScaler,
    n_shots: int = 0,
    shot_seed: int = 0,
) -> np.ndarray:
    """One prediction per edge of every subgraph, in set order.

    The whole set is scored in one forward_batch, whose rows are independent,
    so each prediction has the bits of scoring its edge alone. With n_shots
    > 0 the whole vector is sampled in one shot_estimate draw seeded with
    shot_seed, so estimates are independent yet reproducible; 0 is analytic.
    """
    # the empty block keeps np.concatenate defined for a set without edges
    raw = np.concatenate([np.empty((0, N_FEATURES))] + [subgraph_features(g) for g in subgraphs])
    preds = forward_batch(scaler.transform(raw), params.thetas)[0]
    return shot_estimate(preds, n_shots, shot_seed) if n_shots else preds


def evaluate_metrics(
    subgraphs: Sequence[SubGraph],
    params: TTNParams,
    scaler: FeatureScaler,
    threshold: float = 0.5,
    n_shots: int = 0,
    shot_seed: int = 0,
) -> Metrics:
    """Confusion counts over all edges; predicted true when pred >= threshold.
    A set without edges gives zero counts."""
    truth = np.array([label for g in subgraphs for _, _, label in g.edges], dtype=bool)
    predicted = edge_predictions(subgraphs, params, scaler, n_shots, shot_seed) >= threshold
    return Metrics(
        tp=int(np.count_nonzero(truth & predicted)),
        fp=int(np.count_nonzero(~truth & predicted)),
        tn=int(np.count_nonzero(~truth & ~predicted)),
        fn=int(np.count_nonzero(truth & ~predicted)),
    )


def train(
    train_set: Sequence[SubGraph],
    test_set: Sequence[SubGraph],
    cfg: TrainConfig,
    initial_params: TTNParams,
    scaler: FeatureScaler,
) -> Tuple[TTNParams, History]:
    """Epoch loop: seeded reshuffle, one subgraph_step per subgraph, then a
    validation pass. Deterministic given (data, config, initial params)."""
    usable = [g for g in train_set if g.edges]
    if not usable:
        raise DataError("training set has no subgraph with edges")

    rng = np.random.default_rng(cfg.seed)
    params = initial_params.copy()
    history = History()
    update = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(usable))
        epoch_losses = []
        for i in order:
            g = usable[i]
            params, loss = subgraph_step(g, params, scaler, cfg)
            history.updates.append(UpdateRecord(update, subgraph_dirname(g), loss))
            epoch_losses.append(loss)
            update += 1
        metrics = evaluate_metrics(test_set, params, scaler, cfg.threshold)
        history.epochs.append(
            EpochRecord(epoch, sum(epoch_losses) / len(epoch_losses), metrics)
        )
    return params, history


# --- history serialization ---------------------------------------------------


def _fmt_opt(value: Optional[float]) -> str:
    return "" if value is None else repr(value)


def write_metrics(m: Metrics, path: str) -> None:
    """One header line and one row of confusion counts and ratios."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tp,fp,tn,fn,purity,efficiency,accuracy\n")
        fh.write(
            f"{m.tp},{m.fp},{m.tn},{m.fn},"
            f"{_fmt_opt(m.purity)},{_fmt_opt(m.efficiency)},{_fmt_opt(m.accuracy)}\n"
        )


def write_history(history: History, updates_path: str, epochs_path: str) -> None:
    with open(updates_path, "w", encoding="utf-8") as fh:
        fh.write("update,subgraph,loss\n")
        for rec in history.updates:
            fh.write(f"{rec.update},{rec.subgraph},{rec.loss!r}\n")
    with open(epochs_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,purity,efficiency,accuracy\n")
        for rec in history.epochs:
            m = rec.metrics
            fh.write(
                f"{rec.epoch},{rec.train_loss!r},"
                f"{_fmt_opt(m.purity)},{_fmt_opt(m.efficiency)},{_fmt_opt(m.accuracy)}\n"
            )
