"""Span tracing of qseed's public functions from outside the package.

The tracer replaces each traced function with a wrapper at every module
attribute through which callers look it up, records one span per call (name,
start, end, parent span) in memory, and restores the originals when it is
uninstalled. Nothing in the package is edited.

Names are imported by value in a few places (`training` holds its own
`ttn_forward` and `ttn_gradient`, `ttn` holds its own `apply_circuit`,
`new_zero_state`, `prob_one` and `sample_shots`), so each function lists every
module where a caller looks it up.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from qseed import cli, hitgraph, statevector, synthgen, training, ttn

CLI_COMMANDS = ("gen", "preprocess", "train", "eval", "predict")
GRADIENT_FORWARD = "ttn.ttn_gradient/ttn_forward"


# --- counters read from arguments and return values --------------------------


def _count_doublets(tracer, args, result):
    doublets, stats = result
    tracer.counts["hitgraph.pairs_considered"] += stats.pairs_considered
    tracer.counts["hitgraph.zero_dr_skipped"] += stats.zero_dr_skipped
    tracer.counts["hitgraph.doublets"] += len(doublets)


def _count_missing_truth(tracer, args, result):
    tracer.counts["hitgraph.missing_truth"] += result[1].missing_truth


def _count_cross_sector(tracer, args, result):
    tracer.counts["hitgraph.cross_sector_dropped"] += result[1]


def _count_gen_hits(tracer, args, result):
    tracer.counts["synthgen.hits"] += len(result.hits)


def _count_gates(tracer, args, result):
    tracer.counts["statevector.gates_applied"] += len(args[1])


def _count_shots(tracer, args, result):
    tracer.counts["statevector.shots_drawn"] += args[2].n_shots


def _count_stepped(tracer, args, result):
    tracer.counts["training.edges_stepped"] += len(args[0].edges)


def _count_evaluated(tracer, args, result):
    tracer.counts["training.edges_evaluated"] += result.total


def _keep_fitted_scaler(tracer, args, result):
    tracer.scalers.append(result)


def _keep_loaded_scaler(tracer, args, result):
    tracer.scalers.append(result[1])


# (span name, module lookups, counter hook)
TRACED: List[Tuple[str, tuple, Optional[Callable]]] = [
    ("synthgen.gen_event", (synthgen,), _count_gen_hits),
    ("synthgen.write_event", (synthgen,), None),
    ("hitgraph.load_event", (hitgraph,), None),
    ("hitgraph.select_barrel_hits", (hitgraph,), None),
    ("hitgraph.build_doublets", (hitgraph,), _count_doublets),
    ("hitgraph.label_edges", (hitgraph,), _count_missing_truth),
    ("hitgraph.section_graph", (hitgraph,), _count_cross_sector),
    ("hitgraph.write_subgraph", (hitgraph,), None),
    ("hitgraph.read_subgraph", (hitgraph,), None),
    ("ttn.ttn_forward", (ttn, training), None),
    ("ttn.ttn_gradient", (ttn, training), None),
    ("ttn.fit_scaler", (ttn,), _keep_fitted_scaler),
    ("ttn.load_model", (ttn,), _keep_loaded_scaler),
    ("ttn.save_model", (ttn,), None),
    ("statevector.apply_circuit", (statevector, ttn), _count_gates),
    ("statevector.new_zero_state", (statevector, ttn), None),
    ("statevector.prob_one", (statevector, ttn), None),
    ("statevector.sample_shots", (statevector, ttn), _count_shots),
    ("training.split_dataset", (training,), None),
    ("training.collect_features", (training,), None),
    ("training.subgraph_step", (training,), _count_stepped),
    ("training.evaluate_metrics", (training,), _count_evaluated),
    ("training.write_history", (training,), None),
]


class Tracer:
    """In-memory span recorder for one process, one thread."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.scalers: list = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self) -> None:
        for name, modules, hook in TRACED:
            attr = name.split(".", 1)[1]
            wrappers: Dict[int, Callable] = {}
            for module in modules:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue  # a later version may drop this lookup
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, hook)
                self._patch(module, attr, wrappers[id(fn)])
        for command in CLI_COMMANDS:
            cmd = cli.cli.commands[command]
            self._patch(cmd, "callback", self._wrap(f"cli.{command}", cmd.callback, None))

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function while the block runs, then restore."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Run the block on the original functions, also inside `installed`."""
        if not self._restore:
            yield
            return
        self._uninstall()
        try:
            yield
        finally:
            self._install()

    def take_phase(self) -> dict:
        """Summarise the spans and counters recorded since the last call and
        clear them. Must be called between top-level calls."""
        if self.stack:
            raise RuntimeError("phase ended inside an open span")
        summary = summarize(self.spans)
        counts = dict(self.counts)
        counts["ttn.clamped_features"] = sum(s.clamp_count for s in self.scalers)
        summary["counts"] = counts
        self.spans.clear()
        self.counts.clear()
        self.scalers.clear()
        return summary


def summarize(spans) -> dict:
    """Inclusive time, self time and call count per span name.

    Self time is a span's duration minus its child spans, which on one thread
    are disjoint and lie inside it. `top_s` is the time covered by spans
    without a parent. Forwards made inside `ttn_gradient` belong to the
    gradient: they are kept under their own key, so `ttn.ttn_forward` counts
    only forwards that callers ask for and each forward is timed once across
    the two.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    s: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    top_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == "ttn.ttn_forward" and parent >= 0 and spans[parent][0] == "ttn.ttn_gradient":
            name = GRADIENT_FORWARD
        duration = end - start
        s[name] = s.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            top_s += duration
    return {"s": s, "self_s": self_s, "calls": calls, "top_s": top_s}
