"""The benchmark's workloads: set-up, timed operation and output checks.

Every qseed command runs in-process through `qseed.cli.main`. One operation is
one command plus its output check; a non-zero exit or a failed check raises
`CheckFailed`. Each workload makes its inputs from the workload seed alone.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import glob
import io
import math
import os
import re
import tempfile
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from qseed import cli, hitgraph, synthgen, training, ttn
from qseed.statevector import dense_unitary_oracle

# Every generated track (pt >= 1 GeV in 2 T) crosses every barrel layer.
LAYERS = len(synthgen.DEFAULT_LAYER_RADII)
SUBGRAPHS_PER_EVENT = 16
TRAIN_SEED = 1
SHOTS, SHOT_SEED = 1000, 3
MODEL_SEED = 3
ORACLE_SAMPLE = 32
ORACLE_TOL = 1e-12


class CheckFailed(Exception):
    """A command exited non-zero or its outputs are wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Base: the set-up and timed operation of one workload.

    `run_cli` runs one command and returns its stdout; `untraced` is a context
    manager under which output checks run, so they add no spans.
    """

    events = tracks = noise = 0

    def __init__(self, work: str, seed: int, untraced: Callable) -> None:
        self.work = work
        self.seed = seed
        self.untraced = untraced
        self.attempted = 0
        self.events_dir = os.path.join(work, "events")
        self.subgraph_dir = os.path.join(work, "subgraphs")

    @property
    def hits(self) -> int:
        return self.events * (self.tracks * LAYERS + self.noise)

    def run_cli(self, *argv: str) -> str:
        self.attempted += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        _require(code == 0, f"qseed {argv[0]} exited with code {code}")
        return out.getvalue()

    def gen(self) -> None:
        self.run_cli(
            "gen", "--out", self.events_dir, "--events", str(self.events),
            "--tracks", str(self.tracks), "--noise", str(self.noise),
            "--seed", str(self.seed),
        )
        with self.untraced():
            paths = sorted(glob.glob(os.path.join(self.events_dir, "event*-hits.csv")))
            _require(len(paths) == self.events, f"gen wrote {len(paths)} events")
            for path in paths:
                with open(path, encoding="utf-8") as fh:
                    rows = sum(1 for _ in fh) - 1
                want = self.tracks * LAYERS + self.noise
                _require(rows == want, f"{path}: {rows} hits, expected {want}")

    def preprocess(self) -> None:
        self.run_cli("preprocess", "--in", self.events_dir, "--out", self.subgraph_dir)
        with self.untraced():
            dirs = glob.glob(os.path.join(self.subgraph_dir, "evt*_s*"))
            want = self.events * SUBGRAPHS_PER_EVENT
            _require(len(dirs) == want, f"preprocess wrote {len(dirs)} subgraphs, expected {want}")

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, out: str) -> str:
        """Run the commands whose wall time is measured; return their stdout."""
        raise NotImplementedError

    def check(self, out: str, stdout: str) -> dict:
        """Verify the outputs of `timed`; return edges, hits and guards."""
        raise NotImplementedError

    def op(self, out: str) -> dict:
        """One timed operation plus its output check."""
        start = time.perf_counter()
        stdout = self.timed(out)
        wall = time.perf_counter() - start
        with self.untraced():
            result = self.check(out, stdout)
        result["wall_s"] = wall
        return result


def _read_subgraphs(root: str) -> List[hitgraph.SubGraph]:
    return [hitgraph.read_subgraph(p) for p in sorted(glob.glob(os.path.join(root, "evt*_s*")))]


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _opt_float(text: str) -> Optional[float]:
    return float(text) if text else None


class TrainSmall(Workload):
    """One training epoch on 32 subgraphs: parameter-shift gradients dominate."""

    events, tracks, noise = 2, 50, 100

    def setup(self) -> None:
        self.gen()
        self.preprocess()

    def timed(self, out: str) -> str:
        return self.run_cli(
            "train", "--data", self.subgraph_dir, "--out", out,
            "--epochs", "1", "--seed", str(TRAIN_SEED),
        )

    def check(self, out: str, stdout: str) -> dict:
        params, _, _ = ttn.load_model(os.path.join(out, "model.txt"))
        _require(bool(np.all(np.isfinite(params.thetas))), "model has non-finite angles")
        manifest = cli.read_config_file(os.path.join(out, "train_manifest.txt"))
        train_set, _ = training.split_dataset(
            _read_subgraphs(self.subgraph_dir),
            float(manifest["split_ratio"]),
            int(manifest["split_seed"]),
        )
        usable = [g for g in train_set if g.edges]
        updates = _read_csv(os.path.join(out, "updates.csv"))
        _require(
            len(updates) == len(usable),
            f"updates.csv has {len(updates)} rows, expected {len(usable)}",
        )
        epochs = _read_csv(os.path.join(out, "epochs.csv"))
        _require(len(epochs) == 1, f"epochs.csv has {len(epochs)} rows, expected 1")
        loss = float(epochs[0]["train_loss"])
        _require(math.isfinite(loss), "train_loss is not finite")
        return {
            "edges": sum(len(g.edges) for g in usable),
            "hits": self.hits,
            "guards": {
                "training.train_loss": loss,
                "training.val_accuracy": _opt_float(epochs[0]["accuracy"]),
            },
        }


_EVENT_LINE = re.compile(
    r"^event (\d+): (\d+) hits kept, (\d+) doublets .*?, (\d+) cross-sector dropped",
    re.M,
)


class PreprocessDense(Workload):
    """One 7,500-hit event: the quadratic doublet pair loop dominates."""

    events, tracks, noise = 1, 500, 2500

    def setup(self) -> None:
        self.gen()

    def timed(self, out: str) -> str:
        return self.run_cli("preprocess", "--in", self.events_dir, "--out", out)

    def check(self, out: str, stdout: str) -> dict:
        lines = _EVENT_LINE.findall(stdout)
        _require(len(lines) == self.events, "preprocess printed no per-event summary")
        _, kept, doublets, dropped = (int(v) for v in lines[0])
        _require(kept == self.hits, f"{kept} hits kept, expected {self.hits}")
        graphs = _read_subgraphs(out)
        want = self.events * SUBGRAPHS_PER_EVENT
        _require(len(graphs) == want, f"preprocess wrote {len(graphs)} subgraphs, expected {want}")
        with tempfile.TemporaryDirectory(dir=self.work) as rewritten:
            for g in graphs:
                name = hitgraph.subgraph_dirname(g)
                hitgraph.write_subgraph(g, rewritten)
                for f in ("nodes.csv", "edges.csv"):
                    _require(
                        filecmp.cmp(os.path.join(out, name, f), os.path.join(rewritten, name, f), shallow=False),
                        f"{name}/{f} does not round-trip through read_subgraph",
                    )
        edges = sum(len(g.edges) for g in graphs)
        _require(
            edges + dropped == doublets,
            f"{edges} subgraph edges + {dropped} dropped != {doublets} doublets",
        )
        _require(sum(len(g.nodes) for g in graphs) == kept, "subgraph nodes != hits kept")
        return {"edges": doublets, "hits": self.hits, "guards": {}}


class InferShots(Workload):
    """Shot-mode eval plus analytic predict on 160 subgraphs, forward only."""

    events, tracks, noise = 10, 50, 100

    def setup(self) -> None:
        self.gen()
        self.preprocess()
        self.model = os.path.join(self.work, "model.txt")
        self.graphs = _read_subgraphs(self.subgraph_dir)
        self.n_edges = sum(len(g.edges) for g in self.graphs)
        scaler = ttn.fit_scaler(training.collect_features(self.graphs))
        ttn.save_model(self.model, ttn.init_params(MODEL_SEED), scaler, MODEL_SEED)

    def timed(self, out: str) -> str:
        data = ("--data", self.subgraph_dir, "--model", self.model)
        return self.run_cli(
            "eval", *data, "--out", os.path.join(out, "eval"),
            "--shots", str(SHOTS), "--shot-seed", str(SHOT_SEED),
        ) + self.run_cli("predict", *data, "--out", os.path.join(out, "predict"))

    def check(self, out: str, stdout: str) -> dict:
        (m,) = _read_csv(os.path.join(out, "eval", "metrics.csv"))
        counted = sum(int(m[k]) for k in ("tp", "fp", "tn", "fn"))
        _require(counted == self.n_edges, f"eval counted {counted} edges, expected {self.n_edges}")

        rows = _read_csv(os.path.join(out, "predict", "predictions.csv"))
        _require(len(rows) == self.n_edges, f"{len(rows)} predictions, expected {self.n_edges}")
        edges = [(g, e) for g in self.graphs for e in g.edges]
        for row, (g, e) in zip(rows, edges):
            _require(
                (row["subgraph"], int(row["src"]), int(row["dst"]), int(row["label"]))
                == (hitgraph.subgraph_dirname(g), *e),
                f"prediction row {row} is not edge {e} of {hitgraph.subgraph_dirname(g)}",
            )
        params, scaler, _ = ttn.load_model(self.model)
        gates = ttn.circuit_gates(params)
        readout = (np.arange(2**ttn.N_FEATURES) >> ttn.READOUT_QUBIT) & 1 == 1
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(len(rows), size=min(ORACLE_SAMPLE, len(rows)), replace=False):
            g, e = edges[i]
            angles = scaler.transform(training.edge_raw_features(g, e))
            u = dense_unitary_oracle(ttn.encoding_gates(angles) + gates, ttn.N_FEATURES)
            want = float(np.sum(np.abs(u[readout, 0]) ** 2))
            got = float(rows[i]["pred"])
            _require(
                abs(got - want) <= ORACLE_TOL,
                f"prediction {i} is {got!r}, oracle gives {want!r}",
            )
        return {
            "edges": 2 * self.n_edges,
            "hits": self.hits,
            "guards": {
                "training.eval_purity": _opt_float(m["purity"]),
                "training.eval_efficiency": _opt_float(m["efficiency"]),
            },
        }


WORKLOADS = {
    "train_small": TrainSmall,
    "preprocess_dense": PreprocessDense,
    "infer_shots": InferShots,
}
