"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import numpy as np

from .autodiff import backward
from .evaluation import split_nodes
from .generators import sbm_generate
from .models import build_model, etgnn_forward, prepare
from .params import ParamTape
from .training import cross_entropy_masked


def finite_difference_check(tape, loss_fn, step=1e-5, rel_tol=1e-4,
                            abs_floor=1e-7):
    """Compare every parameter gradient against central differences.

    ``loss_fn()`` must rebuild the traced forward pass from the tape's
    current parameter values and return a scalar Var. A coordinate passes
    when |g - fd| <= abs_floor or the relative error is within rel_tol.
    Returns (ok, report) where report maps parameter name to its worst
    relative error over the coordinates where max(|g|, |fd|) or |g - fd|
    exceeds abs_floor.
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
            flat[k] = original + step
            hi = float(loss_fn().value)
            flat[k] = original - step
            lo = float(loss_fn().value)
            flat[k] = original
            fd = (hi - lo) / (2.0 * step)
            diff = abs(grad[k] - fd)
            scale = max(abs(grad[k]), abs(fd))
            if max(scale, diff) > abs_floor:
                rel = diff / scale
                worst = max(worst, rel)
                ok = ok and not (diff > abs_floor and rel > rel_tol)
        report[name] = worst
    return ok, report


def model_gradcheck(model_kind="et_gcn", seed=0, n_per_block=5,
                    activation="identity", **check_kwargs):
    """Finite-difference suite for a full model on a tiny synthetic graph.

    Uses identity activations by default so ReLU kinks cannot spoil the
    check; pass ``activation="relu"`` to check at a random (almost surely
    kink-free) operating point.
    """
    graph = sbm_generate([n_per_block, n_per_block], 0.6, 0.3, seed=seed + 1)
    splits = split_nodes(graph.labels, 2, 0.2, seed=seed + 2)
    ctx = prepare(graph)
    tape = ParamTape()
    model = build_model(tape, model_kind, ctx, graph.num_classes, reduce_dim=2,
                        edge_hidden=(3, 1), gc_hidden=(4,), epsilon=0.2,
                        seed=seed, hidden_activation=activation)

    def loss_fn():
        z = etgnn_forward(model, ctx).z
        return cross_entropy_masked(z, graph.labels, splits["train"])

    return finite_difference_check(tape, loss_fn, **check_kwargs)
