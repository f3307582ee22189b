"""Command-line pipeline: gen, preprocess, train, eval, predict.

Configuration precedence is flags > key=value config file > built-in defaults;
the resolved configuration is echoed into a per-command manifest under the
output directory, and the manifest itself is a valid config file for a
bit-identical rerun (analytic mode).

Exit codes: 0 success, 1 usage/config error, 2 data/schema error, 3 numeric
failure.
"""

from __future__ import annotations

import glob
import os
import sys
import time
from typing import Dict, Optional

import click

from .errors import DataError, NumericError, QSeedError, UsageError
from . import hitgraph, synthgen, training, ttn
from .statevector import ShotConfig

MANIFEST_VERSION = "qseed-1"


def read_config_file(path: Optional[str]) -> Dict[str, str]:
    """Parse a name=value config file; '#' starts a comment."""
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected name=value")
            name, value = text.split("=", 1)
            values[name.strip()] = value.strip()
    return values


def _resolve(cfg: Dict[str, str], name: str, flag, default, cast):
    """flags > config file > default."""
    if flag is not None:
        return flag
    if name in cfg:
        raw = cfg[name]
        try:
            if cast is bool:
                return raw.lower() in ("1", "true", "yes")
            return cast(raw)
        except ValueError:
            raise UsageError(f"config value {name}={raw!r} is not a valid {cast.__name__}")
    return default


def write_manifest(out_dir: str, command: str, resolved: Dict[str, object], t0: float) -> str:
    path = os.path.join(out_dir, f"{command}_manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# resolved configuration, reusable via --config\n")
        fh.write(f"command={command}\n")
        fh.write(f"manifest_version={MANIFEST_VERSION}\n")
        for name in sorted(resolved):
            fh.write(f"{name}={resolved[name]}\n")
        fh.write(f"duration_s={time.perf_counter() - t0:.3f}\n")
    return path


def _load_subgraphs(data_dir: str):
    paths = sorted(glob.glob(os.path.join(data_dir, "evt*_s*")))
    if not paths:
        raise DataError(f"no subgraph directories under {data_dir}")
    return [hitgraph.read_subgraph(p) for p in paths]


@click.group()
def cli() -> None:
    """Quantum edge-classification pipeline for track seeding."""


@cli.command("gen")
@click.option("--out", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--events", type=int, default=None)
@click.option("--tracks", type=int, default=None)
@click.option("--noise", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--pt-min", type=float, default=None)
@click.option("--pt-max", type=float, default=None)
@click.option("--z0-spread", type=float, default=None)
@click.option("--smear", type=float, default=None)
@click.option("--b-field", type=float, default=None)
def cmd_gen(out, config_path, events, tracks, noise, seed, pt_min, pt_max, z0_spread, smear, b_field):
    """Generate synthetic event CSV triplets."""
    t0 = time.perf_counter()
    cfg = read_config_file(config_path)
    r = {
        "events": _resolve(cfg, "events", events, 1, int),
        "tracks": _resolve(cfg, "tracks", tracks, 20, int),
        "noise": _resolve(cfg, "noise", noise, 0, int),
        "seed": _resolve(cfg, "seed", seed, 0, int),
        "pt_min": _resolve(cfg, "pt_min", pt_min, 1.0, float),
        "pt_max": _resolve(cfg, "pt_max", pt_max, 5.0, float),
        "z0_spread": _resolve(cfg, "z0_spread", z0_spread, 30.0, float),
        "smear": _resolve(cfg, "smear", smear, 0.0, float),
        "b_field": _resolve(cfg, "b_field", b_field, 2.0, float),
    }
    if r["events"] < 1:
        raise UsageError("--events must be >= 1")
    os.makedirs(out, exist_ok=True)
    for event_id in range(1, r["events"] + 1):
        try:
            gen_cfg = synthgen.GeneratorConfig(
                n_tracks=r["tracks"],
                pt_range=(r["pt_min"], r["pt_max"]),
                noise_hits=r["noise"],
                b_field=r["b_field"],
                z0_spread=r["z0_spread"],
                smear_sigma=r["smear"],
                seed=r["seed"] + event_id,
            )
        except ValueError as exc:
            raise UsageError(str(exc))
        data = synthgen.gen_event(gen_cfg)
        synthgen.write_event(data, *synthgen.event_paths(out, event_id))
        click.echo(
            f"event {event_id}: {len(data.hits)} hits "
            f"({len(data.particles)} tracks, {r['noise']} noise)"
        )
    write_manifest(out, "gen", r, t0)


@cli.command("preprocess")
@click.option("--in", "in_dir", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--pt-min", type=float, default=None)
@click.option("--dphi-max", type=float, default=None)
@click.option("--z0-max", type=float, default=None)
@click.option("--eta-min", type=float, default=None)
@click.option("--eta-max", type=float, default=None)
@click.option("--cut-mode", type=click.Choice(["slope", "raw"]), default=None)
@click.option("--pt-mode", type=click.Choice(["label", "filter"]), default=None)
def cmd_preprocess(in_dir, out, config_path, pt_min, dphi_max, z0_max, eta_min, eta_max, cut_mode, pt_mode):
    """Build labeled subgraphs from event CSV triplets."""
    t0 = time.perf_counter()
    cfg = read_config_file(config_path)
    r = {
        "in": in_dir,
        "pt_min": _resolve(cfg, "pt_min", pt_min, 1.0, float),
        "dphi_max": _resolve(cfg, "dphi_max", dphi_max, 0.0006, float),
        "z0_max": _resolve(cfg, "z0_max", z0_max, 100.0, float),
        "eta_min": _resolve(cfg, "eta_min", eta_min, -5.0, float),
        "eta_max": _resolve(cfg, "eta_max", eta_max, 5.0, float),
        "cut_mode": _resolve(cfg, "cut_mode", cut_mode, "slope", str),
        "pt_mode": _resolve(cfg, "pt_mode", pt_mode, "label", str),
    }
    try:
        cuts = hitgraph.SelectionCuts(
            pt_min=r["pt_min"],
            dphi_slope_max=r["dphi_max"],
            z0_max=r["z0_max"],
            eta_range=(r["eta_min"], r["eta_max"]),
            cut_mode=r["cut_mode"],
            pt_mode=r["pt_mode"],
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    hits_files = sorted(glob.glob(os.path.join(in_dir, "event*-hits.csv")))
    if not hits_files:
        raise DataError(f"no event*-hits.csv files under {in_dir}")
    os.makedirs(out, exist_ok=True)
    total = 0
    for hits_path in hits_files:
        stem = hits_path[: -len("-hits.csv")]
        event_id = int(os.path.basename(stem)[len("event"):])
        hits = hitgraph.select_barrel_hits(
            hitgraph.load_event(hits_path, f"{stem}-particles.csv", f"{stem}-truth.csv")
        )
        if cuts.pt_mode == "filter":
            hits = hitgraph.filter_low_pt_hits(hits, cuts.pt_min)
        if not hits:
            click.echo(f"warning: event {event_id} has no barrel hits")
        pairs, dstats = hitgraph.build_doublets(hits, cuts)
        labels, lstats = hitgraph.label_edges(pairs, hits, cuts)
        subgraphs, dropped = hitgraph.section_graph(hits, pairs, labels, event_id)
        for g in subgraphs:
            hitgraph.write_subgraph(g, out)
        total += len(subgraphs)
        n_true = int(labels.sum())
        click.echo(
            f"event {event_id}: {len(hits)} hits kept, {len(pairs)} doublets "
            f"({n_true} true / {len(pairs) - n_true} fake), "
            f"{dropped} cross-sector dropped, {dstats.zero_dr_skipped} zero-dr "
            f"skipped, {lstats.missing_truth} missing-truth"
        )
    click.echo(f"{total} subgraphs written to {out}")
    write_manifest(out, "preprocess", r, t0)


@cli.command("train")
@click.option("--data", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--split-ratio", type=float, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--split-seed", type=int, default=None)
@click.option("--init-seed", type=int, default=None)
@click.option("--shuffle-seed", type=int, default=None)
def cmd_train(data, out, config_path, epochs, lr, split_ratio, threshold, seed, split_seed, init_seed, shuffle_seed):
    """Train the tree-circuit classifier on preprocessed subgraphs."""
    t0 = time.perf_counter()
    cfg = read_config_file(config_path)
    master = _resolve(cfg, "seed", seed, 0, int)
    r = {
        "data": data,
        "epochs": _resolve(cfg, "epochs", epochs, 2, int),
        "lr": _resolve(cfg, "lr", lr, 0.01, float),
        "split_ratio": _resolve(cfg, "split_ratio", split_ratio, 0.9, float),
        "threshold": _resolve(cfg, "threshold", threshold, 0.5, float),
        "seed": master,
        "split_seed": _resolve(cfg, "split_seed", split_seed, master + 1, int),
        "init_seed": _resolve(cfg, "init_seed", init_seed, master + 2, int),
        "shuffle_seed": _resolve(cfg, "shuffle_seed", shuffle_seed, master + 3, int),
    }
    try:
        train_cfg = training.TrainConfig(
            epochs=r["epochs"],
            learning_rate=r["lr"],
            split_ratio=r["split_ratio"],
            threshold=r["threshold"],
            seed=r["shuffle_seed"],
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    subgraphs = _load_subgraphs(data)
    train_set, test_set = training.split_dataset(
        subgraphs, train_cfg.split_ratio, r["split_seed"]
    )
    scaler = ttn.fit_scaler(training.collect_features(train_set))
    params = ttn.init_params(r["init_seed"])
    final_params, history = training.train(
        train_set, test_set, train_cfg, params, scaler
    )

    os.makedirs(out, exist_ok=True)
    model_path = os.path.join(out, "model.txt")
    ttn.save_model(model_path, final_params, scaler, r["init_seed"])
    training.write_history(
        history,
        os.path.join(out, "updates.csv"),
        os.path.join(out, "epochs.csv"),
    )
    for rec in history.epochs:
        acc = rec.metrics.accuracy if rec.metrics else None
        acc_text = f"{acc:.4f}" if acc is not None else "n/a"
        click.echo(
            f"epoch {rec.epoch}: train_loss={rec.train_loss:.4f} "
            f"val_accuracy={acc_text}"
        )
    click.echo(f"model written to {model_path}")
    write_manifest(out, "train", r, t0)


def _metrics_report(m: training.Metrics) -> str:
    def fmt(v):
        return "absent" if v is None else f"{v:.6f}"

    return (
        f"edges={m.total} TP={m.tp} FP={m.fp} TN={m.tn} FN={m.fn}\n"
        f"purity={fmt(m.purity)}\n"
        f"efficiency={fmt(m.efficiency)}\n"
        f"accuracy={fmt(m.accuracy)}\n"
    )


@cli.command("eval")
@click.option("--data", required=True, type=click.Path())
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--shots", type=int, default=None)
@click.option("--shot-seed", type=int, default=None)
def cmd_eval(data, model_path, out, config_path, threshold, shots, shot_seed):
    """Evaluate a trained model; optionally with shot-based readout."""
    t0 = time.perf_counter()
    cfg = read_config_file(config_path)
    r = {
        "data": data,
        "model": model_path,
        "threshold": _resolve(cfg, "threshold", threshold, 0.5, float),
        "shots": _resolve(cfg, "shots", shots, 0, int),
        "shot_seed": _resolve(cfg, "shot_seed", shot_seed, 0, int),
    }
    if not os.path.exists(model_path):
        raise DataError(f"model file not found: {model_path}")
    params, scaler, _ = ttn.load_model(model_path)
    subgraphs = _load_subgraphs(data)
    shot_cfg = ShotConfig(r["shots"], r["shot_seed"]) if r["shots"] > 0 else None
    metrics = training.evaluate_metrics(
        subgraphs, params, scaler, r["threshold"], shot_cfg
    )
    os.makedirs(out, exist_ok=True)
    report = _metrics_report(metrics)
    with open(os.path.join(out, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(report)
    with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("tp,fp,tn,fn,purity,efficiency,accuracy\n")
        fh.write(
            f"{metrics.tp},{metrics.fp},{metrics.tn},{metrics.fn},"
            f"{training._fmt_opt(metrics.purity)},"
            f"{training._fmt_opt(metrics.efficiency)},"
            f"{training._fmt_opt(metrics.accuracy)}\n"
        )
    click.echo(report, nl=False)
    write_manifest(out, "eval", r, t0)


@cli.command("predict")
@click.option("--data", required=True, type=click.Path())
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--shots", type=int, default=None)
@click.option("--shot-seed", type=int, default=None)
def cmd_predict(data, model_path, out, config_path, shots, shot_seed):
    """Write per-edge truth probabilities for a subgraph set."""
    t0 = time.perf_counter()
    cfg = read_config_file(config_path)
    r = {
        "data": data,
        "model": model_path,
        "shots": _resolve(cfg, "shots", shots, 0, int),
        "shot_seed": _resolve(cfg, "shot_seed", shot_seed, 0, int),
    }
    if not os.path.exists(model_path):
        raise DataError(f"model file not found: {model_path}")
    params, scaler, _ = ttn.load_model(model_path)
    subgraphs = _load_subgraphs(data)
    os.makedirs(out, exist_ok=True)
    shot_cfg = ShotConfig(r["shots"], r["shot_seed"]) if r["shots"] > 0 else None
    n = 0
    with open(os.path.join(out, "predictions.csv"), "w", encoding="utf-8") as fh:
        fh.write("subgraph,src,dst,label,pred\n")
        for g, (src, dst, label), pred in training.edge_predictions(
            subgraphs, params, scaler, shot_cfg
        ):
            fh.write(f"{hitgraph.subgraph_dirname(g)},{src},{dst},{label},{pred!r}\n")
            n += 1
    click.echo(f"{n} predictions written")
    write_manifest(out, "predict", r, t0)


def main(argv=None) -> int:
    """Run the CLI with the documented exit-code mapping."""
    try:
        cli.main(args=argv, prog_name="qseed", standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except UsageError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except (IOError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
