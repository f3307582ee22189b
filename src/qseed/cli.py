"""Command-line pipeline: gen, preprocess, train, eval, predict.

Each option declares its type, range and default once, in its click option.
A `--config` file of name=value lines supplies option defaults through
click's `default_map`, so the precedence is flags > config file > declared
defaults. Every successful run writes the values it used to a per-command
manifest under the output directory; the manifest is itself a valid config
file for a bit-identical rerun (analytic mode).

Exit codes: 0 success, 1 usage/config error, 2 data/schema error, 3 numeric
failure.
"""

from __future__ import annotations

import functools
import glob
import os
import re
import shutil
import sys
import time
from typing import Dict, Optional

import click

from .errors import DataError, QSeedError, UsageError, read_lines
from . import hitgraph, synthgen, training, ttn

MANIFEST_VERSION = "qseed-1"


def read_config_file(path: Optional[str]) -> Dict[str, str]:
    """Parse a name=value config file. A line whose first non-blank
    character is '#' is a comment; elsewhere '#' is part of the value, so a
    path that holds one survives a manifest rerun. The name is stripped of
    blanks; the value is everything after the first '=', blanks included,
    so a path that starts or ends with a blank survives too."""
    if path is None:
        return {}
    values: Dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path, UsageError), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "\0" in line:
            raise UsageError(f"{path}:{lineno}: line holds a NUL byte")
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected name=value")
        name, value = line.split("=", 1)
        values[name.strip()] = value
    return values


# Keys a manifest carries that name no option; a manifest is a config file.
MANIFEST_KEYS = ("command", "manifest_version", "duration_s")


def _use_config(ctx: click.Context, param: click.Parameter, path: Optional[str]) -> None:
    # `--config` is eager, so this runs before any other option reads its default.
    values = read_config_file(path)
    # Any command's options are accepted, so one command's manifest can feed another.
    known = {p.name for c in cli.commands.values() for p in c.params} | set(MANIFEST_KEYS)
    for key in values:
        if key not in known:
            raise UsageError(f"{path}: unknown config key {key!r}")
    ctx.default_map = values


@click.group(context_settings={"show_default": True})
def cli() -> None:
    """Quantum edge-classification pipeline for track seeding."""


def command(name: str):
    """Register `fn` as subcommand `name`, with `--out` and `--config`.

    The command times the run and writes `<name>_manifest.txt` under `--out`
    from the options it received, plus any derived values `fn` returns.
    """

    def register(fn):
        @functools.wraps(fn)
        def run(out, **opts):
            t0 = time.perf_counter()
            resolved = {**opts, **(fn(out, **opts) or {})}
            with open(os.path.join(out, f"{name}_manifest.txt"), "w", encoding="utf-8") as fh:
                fh.write("# resolved configuration, reusable via --config\n")
                fh.write(f"command={name}\n")
                fh.write(f"manifest_version={MANIFEST_VERSION}\n")
                for key in sorted(resolved):
                    fh.write(f"{key}={resolved[key]}\n")
                fh.write(f"duration_s={time.perf_counter() - t0:.3f}\n")

        run = click.option(
            "--config", type=click.Path(), is_eager=True, expose_value=False, callback=_use_config
        )(run)
        run = click.option("--out", required=True, type=click.Path())(run)
        return cli.command(name)(run)

    return register


def _check_threshold(ctx: click.Context, param: click.Parameter, value: float) -> float:
    # click.FloatRange would let 'nan' through: every comparison with NaN is false.
    if not 0.0 < value < 1.0:
        raise click.BadParameter(f"{value} is not in the open interval (0, 1).")
    return value


def _load_subgraphs(data_dir: str):
    paths = sorted(glob.glob(os.path.join(data_dir, "evt*_s*")))
    if not paths:
        raise DataError(f"no subgraph directories under {data_dir}")
    return [hitgraph.read_subgraph(p) for p in paths]


@command("gen")
@click.option("--events", type=click.IntRange(min=1), default=1)
@click.option("--tracks", type=int, default=20)
@click.option("--noise", type=int, default=0)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--pt-min", type=float, default=1.0)
@click.option("--pt-max", type=float, default=5.0)
@click.option("--z0-spread", type=float, default=30.0)
@click.option("--smear", type=float, default=0.0)
@click.option("--b-field", type=float, default=2.0)
def cmd_gen(out, events, tracks, noise, seed, pt_min, pt_max, z0_spread, smear, b_field):
    """Generate synthetic event CSV triplets."""
    for event_id in range(1, events + 1):
        gen_cfg = synthgen.GeneratorConfig(
            n_tracks=tracks,
            pt_range=(pt_min, pt_max),
            noise_hits=noise,
            b_field=b_field,
            z0_spread=z0_spread,
            smear_sigma=smear,
            seed=seed + event_id,
        )
        data = synthgen.gen_event(gen_cfg)
        os.makedirs(out, exist_ok=True)  # after the checks, so a bad value writes nothing
        synthgen.write_event(data, *synthgen.event_paths(out, event_id))
        click.echo(
            f"event {event_id}: {len(data.hits)} hits "
            f"({len(data.particles)} tracks, {noise} noise)"
        )


_HITS_NAME_RE = re.compile(r"event(\d+)-hits\.csv")


@command("preprocess")
@click.option("--in", "in", required=True, type=click.Path())
@click.option("--pt-min", type=float, default=1.0)
@click.option("--dphi-max", type=float, default=0.0006)
@click.option("--z0-max", type=float, default=100.0)
@click.option("--eta-min", type=float, default=-5.0)
@click.option("--eta-max", type=float, default=5.0)
@click.option("--cut-mode", type=click.Choice(["slope", "raw"]), default="slope")
@click.option("--pt-mode", type=click.Choice(["label", "filter"]), default="label")
def cmd_preprocess(out, pt_min, dphi_max, z0_max, eta_min, eta_max, cut_mode, pt_mode, **paths):
    """Build labeled subgraphs from event CSV triplets."""
    in_dir = paths["in"]  # `in` is a Python keyword, so it cannot be a parameter name
    cuts = hitgraph.SelectionCuts(
        pt_min=pt_min,
        dphi_slope_max=dphi_max,
        z0_max=z0_max,
        eta_range=(eta_min, eta_max),
        cut_mode=cut_mode,
        pt_mode=pt_mode,
    )

    hits_files = sorted(glob.glob(os.path.join(in_dir, "event*-hits.csv")))
    if not hits_files:
        raise DataError(f"no event*-hits.csv files under {in_dir}")
    # Every name is checked before any subgraph is written.
    paths_by_id = {}
    for hits_path in hits_files:
        m = _HITS_NAME_RE.fullmatch(os.path.basename(hits_path))
        if not m:
            raise DataError(f"{hits_path}: file name not of the form event<ID>-hits.csv")
        event_id = int(m.group(1))
        if event_id in paths_by_id:
            raise DataError(f"{paths_by_id[event_id]} and {hits_path} are both event {event_id}")
        paths_by_id[event_id] = hits_path
    os.makedirs(out, exist_ok=True)
    # A failed event removes every subgraph this run wrote, so a later
    # command cannot train on part of the input. Each directory is recorded
    # before it is written, so a half-written one goes too.
    written = []
    try:
        for event_id, hits_path in paths_by_id.items():
            stem = hits_path[: -len("-hits.csv")]
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
                written.append(os.path.join(out, hitgraph.subgraph_dirname(g)))
                hitgraph.write_subgraph(g, out)
            n_true = int(labels.sum())
            click.echo(
                f"event {event_id}: {len(hits)} hits kept, {len(pairs)} doublets "
                f"({n_true} true / {len(pairs) - n_true} fake), "
                f"{dropped} cross-sector dropped, {dstats.zero_dr_skipped} zero-dr "
                f"skipped, {lstats.missing_truth} missing-truth"
            )
    except BaseException:
        for path in written:
            shutil.rmtree(path, ignore_errors=True)
        raise
    click.echo(f"{len(written)} subgraphs written to {out}")


@command("train")
@click.option("--data", required=True, type=click.Path())
@click.option("--epochs", type=click.IntRange(min=1), default=2)
@click.option("--lr", type=float, default=0.01)
@click.option("--split-ratio", type=float, default=0.9)
@click.option("--threshold", type=float, default=0.5, callback=_check_threshold)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--split-seed", type=click.IntRange(min=0), show_default="seed + 1")
@click.option("--init-seed", type=click.IntRange(min=0), show_default="seed + 2")
@click.option("--shuffle-seed", type=click.IntRange(min=0), show_default="seed + 3")
def cmd_train(out, data, epochs, lr, split_ratio, threshold, seed, split_seed, init_seed, shuffle_seed):
    """Train the tree-circuit classifier on preprocessed subgraphs."""
    seeds = {
        "split_seed": seed + 1 if split_seed is None else split_seed,
        "init_seed": seed + 2 if init_seed is None else init_seed,
        "shuffle_seed": seed + 3 if shuffle_seed is None else shuffle_seed,
    }
    train_cfg = training.TrainConfig(
        epochs=epochs,
        learning_rate=lr,
        split_ratio=split_ratio,
        threshold=threshold,
        seed=seeds["shuffle_seed"],
    )

    subgraphs = _load_subgraphs(data)
    train_set, test_set = training.split_dataset(
        subgraphs, train_cfg.split_ratio, seeds["split_seed"]
    )
    scaler = ttn.fit_scaler(training.collect_features(train_set))
    params = ttn.init_params(seeds["init_seed"])
    final_params, history = training.train(
        train_set, test_set, train_cfg, params, scaler
    )

    os.makedirs(out, exist_ok=True)
    model_path = os.path.join(out, "model.txt")
    ttn.save_model(model_path, final_params, scaler, seeds["init_seed"])
    training.write_history(
        history,
        os.path.join(out, "updates.csv"),
        os.path.join(out, "epochs.csv"),
    )
    for rec in history.epochs:
        acc = rec.metrics.accuracy
        acc_text = f"{acc:.4f}" if acc is not None else "n/a"
        click.echo(
            f"epoch {rec.epoch}: train_loss={rec.train_loss:.4f} "
            f"val_accuracy={acc_text}"
        )
    click.echo(f"model written to {model_path}")
    return seeds


def _metrics_report(m: training.Metrics) -> str:
    def fmt(v):
        return "absent" if v is None else f"{v:.6f}"

    return (
        f"edges={m.total} TP={m.tp} FP={m.fp} TN={m.tn} FN={m.fn}\n"
        f"purity={fmt(m.purity)}\n"
        f"efficiency={fmt(m.efficiency)}\n"
        f"accuracy={fmt(m.accuracy)}\n"
    )


# numpy's binomial draw takes a count of at most 2**63 - 1 and raises above it.
SHOT_COUNT = click.IntRange(min=0, max=2**63 - 1)


@command("eval")
@click.option("--data", required=True, type=click.Path())
@click.option("--model", required=True, type=click.Path())
@click.option("--threshold", type=float, default=0.5, callback=_check_threshold)
@click.option("--shots", type=SHOT_COUNT, default=0)
@click.option("--shot-seed", type=click.IntRange(min=0), default=0)
def cmd_eval(out, data, model, threshold, shots, shot_seed):
    """Evaluate a trained model; optionally with shot-based readout."""
    params, scaler, _ = ttn.load_model(model)
    subgraphs = _load_subgraphs(data)
    metrics = training.evaluate_metrics(subgraphs, params, scaler, threshold, shots, shot_seed)
    if metrics.total == 0:
        raise DataError("no edges to evaluate")
    os.makedirs(out, exist_ok=True)
    report = _metrics_report(metrics)
    with open(os.path.join(out, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(report)
    training.write_metrics(metrics, os.path.join(out, "metrics.csv"))
    click.echo(report, nl=False)


@command("predict")
@click.option("--data", required=True, type=click.Path())
@click.option("--model", required=True, type=click.Path())
@click.option("--shots", type=SHOT_COUNT, default=0)
@click.option("--shot-seed", type=click.IntRange(min=0), default=0)
def cmd_predict(out, data, model, shots, shot_seed):
    """Write per-edge truth probabilities for a subgraph set."""
    params, scaler, _ = ttn.load_model(model)
    subgraphs = _load_subgraphs(data)
    preds = training.edge_predictions(subgraphs, params, scaler, shots, shot_seed)
    os.makedirs(out, exist_ok=True)
    edges = ((hitgraph.subgraph_dirname(g), e) for g in subgraphs for e in g.edges)
    with open(os.path.join(out, "predictions.csv"), "w", encoding="utf-8") as fh:
        fh.write("subgraph,src,dst,label,pred\n")
        # tolist() gives Python floats, whose repr is a plain number
        for (name, (src, dst, label)), pred in zip(edges, preds.tolist()):
            fh.write(f"{name},{src},{dst},{label},{pred!r}\n")
    click.echo(f"{len(preds)} predictions written")


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
    except QSeedError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        click.echo(f"error: {message}", err=True)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
