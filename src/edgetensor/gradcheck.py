"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import numpy as np

from .autodiff import backward
from .evaluation import sample_non_edges, split_nodes
from .generators import sbm_generate
from .models import (build_model, etgnn_forward, link_scores, prepare,
                     read_settings)
from .params import ParamTape
from .training import bce_from_scores, cross_entropy_masked


# central-difference step, and a coordinate's pass rule (see below)
FD_STEP = 1e-5
FD_REL_TOL = 1e-4
FD_ABS_FLOOR = 1e-7


def finite_difference_check(tape, loss_fn):
    """Compare every parameter gradient against central differences.

    ``loss_fn()`` must rebuild the traced forward pass from the tape's
    current parameter values and return a scalar Var. A coordinate passes
    when |g - fd| <= FD_ABS_FLOOR or the relative error is within
    FD_REL_TOL. Returns (ok, report) where report maps parameter name to
    its worst relative error over the coordinates where max(|g|, |fd|) or
    |g - fd| exceeds FD_ABS_FLOOR.
    """
    tape.zero_grad()
    backward(loss_fn())
    analytic = {name: np.array(p.grad if p.grad is not None else
                               np.zeros_like(p.value))
                for name, p in tape.params.items()}
    tape.zero_grad()

    report = {}
    ok = True
    for name, p in tape.params.items():
        worst = 0.0
        flat = p.value.reshape(-1)
        grad = analytic[name].reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + FD_STEP
            hi = float(loss_fn().value)
            flat[k] = original - FD_STEP
            lo = float(loss_fn().value)
            flat[k] = original
            fd = (hi - lo) / (2.0 * FD_STEP)
            diff = abs(grad[k] - fd)
            scale = max(abs(grad[k]), abs(fd))
            if max(scale, diff) > FD_ABS_FLOOR:
                rel = diff / scale
                worst = max(worst, rel)
                ok = ok and not (diff > FD_ABS_FLOOR and rel > FD_REL_TOL)
        report[name] = worst
    return ok, report


def _tiny_model(model_kind, seed, n_per_block, recipe, out_dim=None,
                **model_kwargs):
    """(graph, ctx, tape, model) on a two-block SBM with small widths and
    identity activations, so no ReLU kink can spoil a check.

    A kind that reads them gets ``reduce_dim=2`` and ``edge_hidden=(3, 1)``,
    so the first edge layer narrows under concat (4 -> 3) and widens under
    subtract (2 -> 3).
    """
    graph = sbm_generate([n_per_block, n_per_block], 0.6, 0.3, seed=seed + 1)
    ctx = prepare(graph)
    small = read_settings(model_kind, False,
                          {"reduce_dim": 2, "edge_hidden": (3, 1)})
    tape = ParamTape()
    model = build_model(tape, model_kind, ctx, out_dim or graph.num_classes,
                        recipe=recipe, gc_hidden=(4,), seed=seed,
                        hidden_activation="identity", **small, **model_kwargs)
    return graph, ctx, tape, model


def model_gradcheck(model_kind="et_gcn", seed=0, n_per_block=5,
                    recipe="concat"):
    """Finite-difference suite for a full model on a tiny synthetic graph.

    The model's hidden activations are identity, so ReLU kinks cannot
    spoil the check; ``recipe`` picks the edge recipe. The loss is node
    classification's masked cross-entropy. To check another model (ReLU
    hiddens, say), pass its tape and loss to
    :func:`finite_difference_check`.
    """
    graph, ctx, tape, model = _tiny_model(model_kind, seed, n_per_block,
                                          recipe)
    splits = split_nodes(graph.labels, 2, 0.2, seed=seed + 2)

    def loss_fn():
        z = etgnn_forward(model, ctx).z
        return cross_entropy_masked(z, graph.labels, splits["train"])

    return finite_difference_check(tape, loss_fn)


def link_gradcheck(model_kind="et_gcn", seed=0, n_per_block=5):
    """:func:`model_gradcheck` for the link-prediction loss.

    The model embeds nodes with an identity output layer, as
    ``tasks.run_link_prediction`` builds it, and the loss is
    ``bce_from_scores`` over the ``link_scores`` of the graph's edges and
    of as many non-edges (fewer when the graph has fewer), sampled once.
    The recipe is concat: the check is of the pair-score adjoint, which
    the recipe does not reach, and :func:`model_gradcheck` already varies
    it.
    """
    graph, ctx, tape, model = _tiny_model(model_kind, seed, n_per_block,
                                          "concat", out_dim=4,
                                          final_activation="identity")
    a = graph.adjacency
    upper = a.rows < a.cols
    pos = np.stack([a.rows[upper], a.cols[upper]], axis=1)
    count = min(pos.shape[0], a.n * (a.n - 1) // 2 - pos.shape[0])
    neg = sample_non_edges(a.n, a.keys[upper], count,
                           np.random.default_rng(seed + 3))

    def loss_fn():
        z = etgnn_forward(model, ctx).z
        return bce_from_scores(link_scores(z, pos), link_scores(z, neg))

    return finite_difference_check(tape, loss_fn)
