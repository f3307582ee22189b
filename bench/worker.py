"""One benchmark child process: set up a workload, then time operations.

Started by run.py, one fresh process per sample, so that set-up time and peak
memory belong to one workload. Writes a JSON result file and exits 0, also
when an operation failed (the failure is in the result).

In trace mode the set-up is traced, then each iteration runs the operation
once untraced and once traced, in the order given by --traced-first.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import qseed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--op-seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced-first", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    src = os.path.join(ROOT, "src", "qseed")
    if os.path.dirname(os.path.abspath(qseed.__file__)) != src:
        raise SystemExit(f"qseed imported from {qseed.__file__}, not {src}")

    tracer = Tracer() if args.trace else None
    untraced = tracer.paused if tracer else contextlib.nullcontext
    workload = WORKLOADS[args.workload](args.work, args.seed, untraced)
    result = {"env": _environment(), "ops": [], "failed": 0, "errors": []}

    def run_op(index: int, traced: bool) -> float:
        out = os.path.join(args.work, f"op{index}")
        with tracer.installed() if traced else contextlib.nullcontext():
            op = workload.op(out)
        if traced:
            op["phase"] = tracer.take_phase()
        op["traced"] = traced
        result["ops"].append(op)
        shutil.rmtree(out, ignore_errors=True)
        return op["wall_s"]

    if not tracer:
        order = (False,)
    else:
        order = (True, False) if args.traced_first else (False, True)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            workload.setup()
        if tracer:
            result["setup_phase"] = tracer.take_phase()
        result["first_op_at"] = time.monotonic()
        spent = last = 0.0
        while not result["ops"] or spent + last <= args.op_seconds:
            last = sum(run_op(len(result["ops"]), traced) for traced in order)
            spent += last
    except Exception as exc:  # a failed operation is reported, not raised
        traceback.print_exc()
        result["failed"] = 1
        result["errors"].append(f"{type(exc).__name__}: {exc}")
    result["attempted"] = workload.attempted
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
