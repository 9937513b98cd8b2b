"""In-memory spans recorded around calls into the library's public functions.

A span is ``[name, start, end, parent, attrs]``, times from
``time.perf_counter`` in seconds and ``parent`` the index of the enclosing
span (-1 at top level). Every run stamps tasks and epochs by wrapping
``tasks.train_loop``; only the traced process also wraps the layer
functions listed in ``TARGETS``. Each name is patched in the module that
calls it, so the library itself is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import reference


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def open(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")


def _resolve(target):
    """(owner, attribute) for ``"module:Attr.path"`` under edgetensor."""
    module, path = target.split(":")
    owner = importlib.import_module(f"edgetensor.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None, attr
    return owner, attr


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.spans[idx][4] = counter(args, out)
        return out
    return traced


def _reference(tracer):
    idx = tracer.open("reference")
    try:
        reference.kernel()
    finally:
        tracer.close(idx)


def stamp_epochs(tracer):
    """Wrap ``tasks.train_loop`` so each ``step`` call starts an epoch span.

    An epoch runs from one ``step`` call to the next (or to the loop's
    return): forward, loss, in-step metrics, backward and Adam. After each
    epoch, outside it, the reference kernel runs in a ``reference`` span.
    """
    owner, attr = _resolve("tasks:train_loop")
    if owner is None:
        raise RuntimeError("tasks.train_loop is gone; epochs cannot be timed")
    original = getattr(owner, attr)

    @functools.wraps(original)
    def train_loop(tape, step, config):
        epoch = None

        def stamped(*args, **kwargs):
            nonlocal epoch
            if epoch is not None:
                tracer.close(epoch)
                _reference(tracer)
            epoch = tracer.open("epoch")
            idx = tracer.open("training.step")
            try:
                return step(*args, **kwargs)
            finally:
                tracer.close(idx)

        loop = tracer.open("tasks.train_loop")
        try:
            return original(tape, stamped, config)
        finally:
            if epoch is not None:
                tracer.close(epoch)
                _reference(tracer)
            tracer.close(loop)

    setattr(owner, attr, train_loop)


def _count_plan(args, plan):
    """Plan sizes: slots, triples before filtering (sum of anchor degrees), triples."""
    mode, tensor, adjacency = args[:3]
    out_idx = getattr(plan, "out_idx", None)
    if out_idx is None:
        return None
    anchor = tensor.rows if mode == 1 else tensor.cols
    indptr = adjacency.indptr
    return {"plan": id(plan), "slots": int(tensor.num_slots),
            "candidates": int((indptr[anchor + 1] - indptr[anchor]).sum()),
            "triples": int(out_idx.size), "p": int(tensor.p)}


def _count_rows(args, out):
    return {"count": int(len(out))}


# (target "module:attribute" as called, span name, counter or None)
TARGETS = [
    ("layers:propagate_mode1", "edge_tensor.propagate_mode1", None),
    ("layers:propagate_mode2", "edge_tensor.propagate_mode2", None),
    ("layers:axpy", "edge_tensor.axpy", None),
    ("layers:project_mode3", "edge_tensor.project_mode3", None),
    ("edge_tensor:contraction_plan", "edge_tensor.contraction_plan", _count_plan),
    ("models:tpgc_forward", "layers.tpgc_forward", None),
    ("models:attention_forward", "layers.attention_forward", None),
    ("models:gc_forward", "layers.gc_forward", None),
    ("models:build_concat_features", "features.build", None),
    ("models:build_subtract_features", "features.build", None),
    ("models:renormalize_weights", "sparse_graph.renormalize_weights", None),
    ("tasks:etgnn_forward", "models.etgnn_forward", None),
    ("tasks:link_scores", "models.link_scores", None),
    ("training:backward", "autodiff.backward", None),
    ("params:ParamTape.adam_step", "params.adam_step", None),
    ("tasks:cross_entropy_masked", "training.loss", None),
    ("tasks:bce_from_scores", "training.loss", None),
    ("tasks:sample_non_edges", "evaluation.sample_non_edges", _count_rows),
    ("tasks:accuracy", "evaluation.metrics", None),
    ("tasks:homophily", "evaluation.metrics", None),
    ("tasks:auc_ap", "evaluation.metrics", None),
    ("tasks:prepare", "tasks.prepare", None),
    ("tasks:prepare_multigraph", "tasks.prepare", None),
    ("tasks:renormalize", "tasks.prepare", None),
    ("tasks:build_model", "tasks.prepare", None),
]


def install(tracer):
    """Wrap every target that still exists; return the span names left unwrapped."""
    wrapped, missing = set(), set()
    for target, name, counter in TARGETS:
        owner, attr = _resolve(target)
        if owner is None:
            missing.add(name)
            continue
        setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, counter))
        wrapped.add(name)
    return sorted(missing - wrapped)


@dataclass(frozen=True)
class LayerMetric:
    name: str           # its unit is listed in BENCHMARK.json
    spans: tuple        # span names it is derived from
    should_move: str    # the prediction: end-to-end metric and workloads it moves


E2E_EDGE = "epoch_ms_p50 on nc and mg; absent on lp"
LAYER_METRICS = [
    LayerMetric("edge_tensor.propagate_mode1_ms", ("edge_tensor.propagate_mode1",), E2E_EDGE),
    LayerMetric("edge_tensor.propagate_mode2_ms", ("edge_tensor.propagate_mode2",), E2E_EDGE),
    LayerMetric("edge_tensor.axpy_ms", ("edge_tensor.axpy",), E2E_EDGE),
    LayerMetric("edge_tensor.project_mode3_ms", ("edge_tensor.project_mode3",), E2E_EDGE),
    LayerMetric("edge_tensor.plan_build_ms", ("edge_tensor.contraction_plan",),
                "setup_s and peak_rss_mb on mg; small on nc"),
    LayerMetric("edge_tensor.slots", ("edge_tensor.contraction_plan",),
                "explains plan_build_ms and the mode-1/2 times"),
    LayerMetric("edge_tensor.plan_candidates", ("edge_tensor.contraction_plan",),
                "explains plan_build_ms and peak_rss_mb on mg"),
    LayerMetric("edge_tensor.plan_triples", ("edge_tensor.contraction_plan",),
                "explains the mode-1/2 times"),
    LayerMetric("edge_tensor.plan_hit_ratio", ("edge_tensor.contraction_plan",),
                "explains plan_build_ms (share of candidates that survive)"),
    LayerMetric("edge_tensor.propagate_bytes_computed", ("edge_tensor.contraction_plan",),
                "explains the mode-1/2 times (triples x p x 8 bytes, computed)"),
    LayerMetric("layers.tpgc_forward_ms", ("layers.tpgc_forward",), "epoch_ms_p50 on nc and mg"),
    LayerMetric("layers.tpgc_self_ms", ("layers.tpgc_forward",), "epoch_ms_p50 on nc and mg"),
    LayerMetric("layers.attention_forward_ms", ("layers.attention_forward",),
                "epoch_ms_p50 on mg only"),
    LayerMetric("layers.gc_forward_ms", ("layers.gc_forward",), "epoch_ms_p50 on lp (node stack)"),
    LayerMetric("features.build_ms", ("features.build",), "epoch_ms_p50 on nc (concat)"),
    LayerMetric("sparse_graph.renormalize_weights_ms", ("sparse_graph.renormalize_weights",),
                "epoch_ms_p50 on nc and mg"),
    LayerMetric("models.etgnn_forward_ms", ("models.etgnn_forward",), "epoch_ms_p50, all workloads"),
    LayerMetric("models.link_scores_ms", ("models.link_scores",), "epoch_ms_p50 on lp only"),
    LayerMetric("autodiff.backward_ms", ("autodiff.backward",), "epoch_ms_p50, all workloads"),
    LayerMetric("autodiff.backward_share", ("autodiff.backward",), "epoch_ms_p50, all workloads"),
    LayerMetric("params.adam_step_ms", ("params.adam_step",),
                "predicted no change anywhere (<0.1% of an epoch)"),
    LayerMetric("training.loss_ms", ("training.loss",), "epoch_ms_p50, all workloads (small)"),
    LayerMetric("training.loop_self_ms", (), "epoch_ms_p50, all workloads (small)"),
    LayerMetric("evaluation.sample_non_edges_ms", ("evaluation.sample_non_edges",),
                "epoch_ms_p50 on lp only"),
    LayerMetric("evaluation.non_edges_sampled", ("evaluation.sample_non_edges",),
                "explains sample_non_edges_ms on lp"),
    LayerMetric("evaluation.metrics_ms", ("evaluation.metrics",),
                "epoch_ms_p50, all workloads (small)"),
    LayerMetric("tasks.prepare_ms", ("tasks.prepare",), "setup_s, mostly on mg"),
    LayerMetric("trace.overhead_frac", (),
                "the gap between traced and untraced epoch medians"),
]


# --- derivation ---------------------------------------------------------------

def tail(values, percentile):
    """(value, samples beyond) of the nearest-rank ``percentile``."""
    xs = sorted(values)
    rank = max(math.ceil(percentile / 100 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


class Timeline:
    """Spans of one process grouped by task call and epoch.

    The ``scaled`` times are multiplied by ``reference.NOMINAL_MS`` over the
    reference kernel's time next to them: for an epoch, the median of the
    two kernel runs before it and the two after it.
    """

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.ms = [(s[2] - s[1]) * 1e3 for s in spans]
        self.child_ms = [0.0] * n
        self.epoch_of = [-1] * n
        self.task_of = [-1] * n
        self.epochs = defaultdict(list)  # task span -> its epoch spans in order
        self.refs = defaultdict(list)  # task span -> its reference spans in order
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                self.child_ms[parent] += self.ms[i]
                self.epoch_of[i] = self.epoch_of[parent]
                self.task_of[i] = self.task_of[parent]
            if name == "epoch":
                self.epoch_of[i] = i
                self.epochs[self.task_of[i]].append(i)
            elif name == "task":
                self.task_of[i] = i
            elif name == "reference":
                self.refs[self.task_of[i]].append(i)
        self.tasks = [i for i, s in enumerate(spans) if s[0] == "task"]
        self.called = [t for t in self.tasks if self.epochs[t]]  # calls that trained
        self.setup_epochs = [self.epochs[t][0] for t in self.called]
        self.steady = [e for t in self.tasks for e in self.epochs[t][1:]]

    def _speed(self, refs):
        return reference.NOMINAL_MS / statistics.median(self.ms[r] for r in refs)

    def _call(self, t, scaled):
        """Set-up (s), steady epochs (ms) and whole run (s) of task call ``t``."""
        epochs, refs = self.epochs[t], self.refs[t]
        setup = self.spans[epochs[0]][2] - self.spans[t][1]
        steady = [self.ms[e] for e in epochs[1:]]
        run = self.ms[t] / 1e3
        if not scaled:
            return setup, steady, run
        # reference span j runs right after epoch j; the set-up and each epoch
        # are scaled by the kernel runs next to them, the rest of the call
        # (final evaluation) by the call's median, and the kernel's own time
        # is left out
        speed = [self._speed(refs[max(j - 2, 0):j + 2]) for j in range(len(epochs))]
        rest = run - setup - (sum(steady) + sum(self.ms[r] for r in refs)) / 1e3
        setup *= speed[0]
        steady = [ms * k for ms, k in zip(steady, speed[1:])]
        return setup, steady, setup + sum(steady) / 1e3 + rest * self._speed(refs)

    def setup_s(self, scaled=False):
        """Task entry to the end of its first epoch, per task call."""
        return [self._call(t, scaled)[0] for t in self.called]

    def steady_ms(self, scaled=False):
        return [ms for t in self.called for ms in self._call(t, scaled)[1]]

    def run_s(self, scaled=False):
        """Whole task call, per call."""
        return [self._call(t, scaled)[2] for t in self.called]

    def per_epoch(self, names, key=None):
        """Per steady epoch: summed duration (or ``key(span, i)``) of spans named ``names``."""
        totals = dict.fromkeys(self.steady, 0.0)
        for i, span in enumerate(self.spans):
            e = self.epoch_of[i]
            if span[0] in names and e in totals:
                totals[e] += self.ms[i] if key is None else key(span, i)
        return list(totals.values())

    def per_task(self, names, epochs=None):
        """Per task call: summed duration of spans named ``names`` (within ``epochs``)."""
        totals = dict.fromkeys(self.tasks, 0.0)
        for i, span in enumerate(self.spans):
            if span[0] in names and (epochs is None or self.epoch_of[i] in epochs):
                totals[self.task_of[i]] += self.ms[i]
        return list(totals.values())

    def plan_stats(self):
        """Per task call: slots, candidates and triples over its distinct plans."""
        per_task = []
        for t in self.tasks:
            plans = {s[4]["plan"]: s[4] for i, s in enumerate(self.spans)
                     if s[0] == "edge_tensor.contraction_plan"
                     and self.task_of[i] == t and s[4]}
            per_task.append({
                "slots": max((p["slots"] for p in plans.values()), default=0),
                "candidates": sum(p["candidates"] for p in plans.values()),
                "triples": sum(p["triples"] for p in plans.values())})
        return per_task


def layer_metrics(spans, untraced_epoch_ms, missing):
    """Per-layer metrics from a traced run: ``{name: (value, samples)}``.

    Times are medians over steady epochs unless the metric is per set-up.
    Metrics whose every span was left unwrapped are omitted.
    """
    tl = Timeline(spans)
    med = statistics.median

    def epoch_median(*names, key=None):
        values = tl.per_epoch(names, key)
        return med(values), len(values)

    def self_ms(span, i):
        return tl.ms[i] - tl.child_ms[i]

    def bytes_computed(span, i):
        return span[4]["triples"] * span[4]["p"] * 8 if span[4] else 0

    epoch_ms = tl.steady_ms()
    plans = tl.plan_stats()
    backward = tl.per_epoch(("autodiff.backward",))
    out = {
        "edge_tensor.propagate_mode1_ms": epoch_median("edge_tensor.propagate_mode1"),
        "edge_tensor.propagate_mode2_ms": epoch_median("edge_tensor.propagate_mode2"),
        "edge_tensor.axpy_ms": epoch_median("edge_tensor.axpy"),
        "edge_tensor.project_mode3_ms": epoch_median("edge_tensor.project_mode3"),
        "edge_tensor.plan_build_ms": (
            med(tl.per_task(("edge_tensor.contraction_plan",), set(tl.setup_epochs))),
            len(tl.tasks)),
        "edge_tensor.slots": (med(p["slots"] for p in plans), len(plans)),
        "edge_tensor.plan_candidates": (med(p["candidates"] for p in plans), len(plans)),
        "edge_tensor.plan_triples": (med(p["triples"] for p in plans), len(plans)),
        "edge_tensor.plan_hit_ratio": (
            med(p["triples"] / p["candidates"] if p["candidates"] else 0.0
                for p in plans), len(plans)),
        "edge_tensor.propagate_bytes_computed": epoch_median(
            "edge_tensor.contraction_plan", key=bytes_computed),
        "layers.tpgc_forward_ms": epoch_median("layers.tpgc_forward"),
        "layers.tpgc_self_ms": epoch_median("layers.tpgc_forward", key=self_ms),
        "layers.attention_forward_ms": epoch_median("layers.attention_forward"),
        "layers.gc_forward_ms": epoch_median("layers.gc_forward"),
        "features.build_ms": epoch_median("features.build"),
        "sparse_graph.renormalize_weights_ms": epoch_median("sparse_graph.renormalize_weights"),
        "models.etgnn_forward_ms": epoch_median("models.etgnn_forward"),
        "models.link_scores_ms": epoch_median("models.link_scores"),
        "autodiff.backward_ms": (med(backward), len(backward)),
        "autodiff.backward_share": (
            med(b / e for b, e in zip(backward, epoch_ms)), len(epoch_ms)),
        "params.adam_step_ms": epoch_median("params.adam_step"),
        "training.loss_ms": epoch_median("training.loss"),
        "training.loop_self_ms": epoch_median("epoch", key=self_ms),
        "evaluation.sample_non_edges_ms": epoch_median("evaluation.sample_non_edges"),
        "evaluation.non_edges_sampled": epoch_median(
            "evaluation.sample_non_edges", key=lambda span, i: span[4]["count"]),
        "evaluation.metrics_ms": epoch_median("evaluation.metrics"),
        "tasks.prepare_ms": (med(tl.per_task(("tasks.prepare",))), len(tl.tasks)),
        "trace.overhead_frac": (
            med(tl.steady_ms(scaled=True)) / med(untraced_epoch_ms) - 1.0,
            len(epoch_ms) + len(untraced_epoch_ms)),
    }
    for metric in LAYER_METRICS:
        if metric.spans and all(name in missing for name in metric.spans):
            del out[metric.name]
    return out
