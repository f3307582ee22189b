"""qseed benchmark: three single-process workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload train_small --seed 7 --seconds 20 --trace 0

Each sample is a fresh child process (bench/worker.py) that generates its
inputs from --seed, runs the workload's set-up and then one or more timed
operations through `qseed.cli.main`, and checks their outputs. Children run
one after another (a closed loop with one client) while the next one is
expected to end within --seconds, and at least a minimum number of times.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The parent imports neither qseed nor numpy, so it lists the names itself.
WORKLOAD_NAMES = ("train_small", "preprocess_dense", "infer_shots")
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_SAMPLES = {0: 3, 1: 2}  # children per run, by trace flag
CHILD_SHARE = 8  # a child times operations for up to --seconds / CHILD_SHARE
DEADLINE_S = 150.0  # start no child that could end after this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "edges_per_s": "edges/s",
    "hits_per_s": "hits/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics. Times come from spans recorded around each public
# function (bench/spans.py); counts from their arguments and return values.
TIMED = [
    "synthgen.gen_event", "synthgen.write_event",
    "hitgraph.load_event", "hitgraph.select_barrel_hits",
    "hitgraph.build_doublets", "hitgraph.label_edges",
    "hitgraph.section_graph", "hitgraph.write_subgraph",
    "hitgraph.read_subgraph",
    "ttn.ttn_forward", "ttn.ttn_gradient", "ttn.fit_scaler",
    "ttn.load_model", "ttn.save_model",
    "statevector.apply_circuit", "statevector.new_zero_state",
    "statevector.prob_one", "statevector.sample_shots",
    "training.split_dataset", "training.collect_features",
    "training.subgraph_step", "training.evaluate_metrics",
    "training.write_history",
]
CLI = [f"cli.{c}" for c in ("gen", "preprocess", "train", "eval", "predict")]
SELF_TIMED = ["ttn.ttn_forward", "ttn.ttn_gradient", "training.subgraph_step",
              "training.evaluate_metrics"] + CLI
CALLED = [
    "hitgraph.write_subgraph", "hitgraph.read_subgraph",
    "ttn.ttn_forward", "ttn.ttn_gradient",
    "statevector.apply_circuit", "statevector.prob_one",
    "statevector.sample_shots", "training.subgraph_step",
]
COUNTED = [
    "hitgraph.pairs_considered", "hitgraph.zero_dr_skipped",
    "hitgraph.doublets", "hitgraph.cross_sector_dropped",
    "hitgraph.missing_truth", "ttn.clamped_features",
    "statevector.gates_applied", "statevector.shots_drawn",
    "training.edges_stepped", "training.edges_evaluated", "synthgen.hits",
]
# Learning guards, read from the outputs; they repeat exactly for one seed.
GUARDS = {
    "training.train_loss": "nats",
    "training.val_accuracy": "ratio",
    "training.eval_purity": "ratio",
    "training.eval_efficiency": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{n}.s": "s" for n in TIMED + CLI}
    units.update({f"{n}.self_s": "s" for n in SELF_TIMED})
    units.update({f"{n}.calls": "count" for n in CALLED})
    units.update({n: "count" for n in COUNTED})
    units.update({
        "hitgraph.doublet_yield": "ratio",
        "hitgraph.build_doublets.ns_per_pair": "ns",
        "ttn.ttn_forward.us_per_call": "us",
        "training.grad_calls_per_edge": "calls/edge",
        "trace_overhead": "ratio",
    })
    units.update(GUARDS)
    return units


def median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --- children ----------------------------------------------------------------


def run_children(args, work: str) -> list:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    children = []
    start = time.monotonic()
    longest = 0.0
    while True:
        i = len(children)
        child_work = os.path.join(work, f"child{i}")
        os.makedirs(child_work)
        result_path = os.path.join(work, f"child{i}.json")
        argv = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--work", child_work, "--result", result_path,
            "--op-seconds", repr(args.seconds / CHILD_SHARE),
            "--trace", str(args.trace), "--traced-first", str(i % 2),
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=max(DEADLINE_S + 20.0 - (spawned - start), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"child {i} did not finish in time")
        if proc.returncode != 0:
            raise SystemExit(f"child {i} exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)
        shutil.rmtree(child_work, ignore_errors=True)
        ended = time.monotonic()
        longest = max(longest, ended - spawned)
        if "first_op_at" in child:
            child["setup_s"] = child["first_op_at"] - spawned
        children.append(child)
        elapsed = ended - start
        if child["failed"]:
            break
        if elapsed + longest > DEADLINE_S:
            break
        if len(children) >= MIN_SAMPLES[args.trace] and elapsed + longest > args.seconds:
            break
    return children


# --- aggregation -------------------------------------------------------------


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def end_to_end(children, ops):
    samples = {
        "setup_s": [c["setup_s"] for c in children if "setup_s" in c],
        "wall_s": [o["wall_s"] for o in ops],
        "edges_per_s": [o["edges"] / o["wall_s"] for o in ops],
        "hits_per_s": [o["hits"] / o["wall_s"] for o in ops],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    return {k: median(v) for k, v in samples.items()}, samples


def per_layer(children, problems):
    setups = [c["setup_phase"] for c in children if "setup_phase" in c]
    traced = [o for c in children for o in c["ops"] if o["traced"]]
    phases = [o["phase"] for o in traced]

    def combined(kind, name, exact=False):
        """Set-up plus one timed operation: medians of each part."""
        parts = []
        for group in (setups, phases):
            values = [p[kind].get(name, 0) for p in group]
            if exact and len(set(values)) > 1:
                problems.append(f"{name} differs across samples: {sorted(set(values))}")
            parts.append(median(values))
        return int(parts[0] + parts[1]) if exact else parts[0] + parts[1]

    m = {}
    for n in TIMED + CLI:
        m[f"{n}.s"] = combined("s", n)
    for n in SELF_TIMED:
        m[f"{n}.self_s"] = combined("self_s", n)
    for n in CALLED:
        m[f"{n}.calls"] = combined("calls", n, exact=True)
    for n in COUNTED:
        m[n] = combined("counts", n, exact=True)
    pairs = m["hitgraph.pairs_considered"]
    m["hitgraph.doublet_yield"] = _ratio(m["hitgraph.doublets"], pairs)
    m["hitgraph.build_doublets.ns_per_pair"] = _ratio(m["hitgraph.build_doublets.s"] * 1e9, pairs)
    m["ttn.ttn_forward.us_per_call"] = _ratio(m["ttn.ttn_forward.s"] * 1e6, m["ttn.ttn_forward.calls"])
    m["training.grad_calls_per_edge"] = _ratio(m["ttn.ttn_gradient.calls"], m["training.edges_stepped"])

    # Each child runs the operation in adjacent untraced/traced pairs.
    ratios = []
    for c in children:
        for a, b in zip(c["ops"][::2], c["ops"][1::2]):
            t, u = (a, b) if a["traced"] else (b, a)
            ratios.append(t["wall_s"] / u["wall_s"])
    overhead = median(ratios) - 1.0
    m["trace_overhead"] = overhead
    for o in traced:
        uncovered = 1.0 - o["phase"]["top_s"] / o["wall_s"]
        if uncovered > max(overhead, 0.01):
            problems.append(
                f"top-level spans leave {uncovered:.2%} of a traced wall_s uncovered "
                f"(trace overhead {overhead:.2%})"
            )
    for name in GUARDS:
        m[name] = guard_value(traced, name)
    return m


def guard_value(ops, name) -> float:
    """A learning guard; 0 where the workload does not compute it."""
    values = [o["guards"].get(name) for o in ops]
    return values[0] if values and values[0] is not None else 0.0


def check_repeats(ops, problems) -> None:
    """Learning guards and work counts repeat exactly for one seed."""
    for key in ("edges", "hits", "guards"):
        seen = {json.dumps(o[key], sort_keys=True) for o in ops}
        if len(seen) > 1:
            problems.append(f"{key} differ across operations: {sorted(seen)}")


# --- environment record --------------------------------------------------------


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "none"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.exists(ref_path):
        return "unknown"  # packed ref; src_sha256 still identifies the code
    with open(ref_path, encoding="utf-8") as fh:
        return fh.read().strip()


def source_digest() -> str:
    """sha256 over the package's .py files, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qseed")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "qseed", "__init__.py")):
        print(f"error: no qseed sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    try:
        children = run_children(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [e for c in children for e in c["errors"]]
    ops = [o for c in children for o in c["ops"]]
    if not ops:
        print("error: no operation completed: " + "; ".join(problems), file=sys.stderr)
        return 1
    check_repeats(ops, problems)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)

    mode = "traced" if args.trace else "untraced"
    print(f"qseed benchmark: workload {args.workload}, seed {args.seed}, {mode}, "
          f"{len(children)} child processes, {len(ops)} timed operations")
    if args.trace:
        metrics = per_layer(children, problems)
        units = per_layer_units()
        for name in sorted(units):
            print(f"  {name:44s} {_fmt(metrics[name])} {units[name]}")
    else:
        metrics, samples = end_to_end(children, ops)
        units = END_TO_END
        for name, unit in units.items():
            print(f"  {name:14s} {metrics[name]:.6g} {unit}  (median; {_spread(samples[name])})")
        for name, value in sorted(ops[0]["guards"].items()):
            print(f"  {name:14s} {value!r} (learning guard, identical in every operation)")
    print(f"  fail_frac      {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    env = dict(children[0]["env"])
    env.update({
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "samples": {
            "children": len(children),
            "timed_operations": len(ops),
            "traced_operations": sum(o["traced"] for o in ops),
        },
    })
    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
