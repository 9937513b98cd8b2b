"""Finite-difference gradient verification."""

import numpy as np
import pytest

from edgetensor import autodiff as ad
from edgetensor.autodiff import Var, backward
from edgetensor.evaluation import split_nodes
from edgetensor.features import RECIPE_KINDS
from edgetensor.generators import sbm_generate
from edgetensor.gradcheck import finite_difference_check, model_gradcheck
from edgetensor.models import (NEGATIVE_MODES, build_model, etgnn_forward,
                               prepare, prepare_multigraph)
from edgetensor.params import ParamTape
from edgetensor.training import cross_entropy_masked


def test_quadratic_gradient_passes():
    tape = ParamTape()
    w = tape.add("w", np.array([1.0, -2.0, 0.5]))

    def loss_fn():
        return ad.total(ad.mul(w, w))

    ok, report = finite_difference_check(tape, loss_fn)
    assert ok
    assert report["w"] <= 1e-4


def test_detects_wrong_gradient():
    tape = ParamTape()
    w = tape.add("w", np.array([1.0, 2.0]))

    def loss_fn():
        # value of sum(w^2) but a graph whose gradient is only w, not 2w
        wrong = ad.scale(ad.mul(w, Var(w.value.copy())), 1.0)
        return ad.total(wrong)

    ok, report = finite_difference_check(tape, loss_fn)
    assert not ok
    assert report["w"] > 1e-2


def test_loss_independent_parameter_has_zero_gradient():
    tape = ParamTape()
    used = tape.add("used", np.array([2.0]))
    tape.add("unused", np.array([5.0]))

    def loss_fn():
        return ad.total(ad.mul(used, used))

    ok, report = finite_difference_check(tape, loss_fn)
    assert ok
    assert report["unused"] == 0.0


def test_linear_layer_closed_form_gradient(rng):
    x = rng.standard_normal((6, 3))
    tape = ParamTape()
    w = tape.create("w", (3, 2), seed=0)

    def loss_fn():
        z = ad.matmul(Var(x), w)
        return ad.total(ad.mul(z, z))

    ok, _ = finite_difference_check(tape, loss_fn)
    assert ok
    tape.zero_grad()
    backward(loss_fn())
    np.testing.assert_allclose(w.grad, 2 * x.T @ (x @ w.value), atol=1e-10)


@pytest.mark.parametrize("kind", ["et_gcn", "et_gat"])
def test_full_model_gradcheck(kind):
    ok, report = model_gradcheck(model_kind=kind, seed=0)
    assert ok, report


def test_gradcheck_reports_real_relative_errors():
    # central differences are never exact, so every parameter the loss reads
    # shows a small positive error, below the default rel_tol, rather than 0
    ok, report = model_gradcheck(model_kind="et_gcn", seed=0)
    assert ok
    for name, worst in report.items():
        assert 0.0 < worst < 1e-4, (name, worst)


def test_full_model_gradcheck_with_relu():
    ok, report = model_gradcheck(model_kind="et_gcn", seed=1,
                                 activation="relu")
    assert ok, report


# every configuration the CLI can build: the edge-stack kinds cross every
# recipe on a single graph and the multi-graph context ("stack", whose views
# replace the recipe), every negative mode and blend setting; gcn_only has
# no edge stack, so it takes the defaults, on either kind of context
CONFIGURATIONS = [(kind, features, negative_mode, blend)
                  for kind in ("et_gcn", "et_gat")
                  for features in (*RECIPE_KINDS, "stack")
                  for negative_mode in NEGATIVE_MODES
                  for blend in (False, True)] + [
                      ("gcn_only", "concat", "clamp", False),
                      ("gcn_only", "stack", "clamp", False)]


def configured_loss(kind, features, negative_mode, blend):
    """(tape, loss_fn) of one configuration on a tiny graph."""
    graph = sbm_generate([5, 5], 0.6, 0.3, seed=1)
    splits = split_nodes(graph.labels, 2, 0.2, seed=2)
    if features == "stack":
        other = sbm_generate([5, 5], 0.5, 0.2, seed=5)
        ctx = prepare_multigraph([graph.adjacency, other.adjacency],
                                 graph.node_features, graph.labels)
        recipe = "concat"
    else:
        ctx, recipe = prepare(graph), features
    tape = ParamTape()
    model = build_model(tape, kind, ctx, graph.num_classes,
                        recipe_kind=recipe, reduce_dim=2, edge_hidden=(3, 1),
                        gc_hidden=(4,), negative_mode=negative_mode,
                        blend_attention=blend, seed=0,
                        hidden_activation="identity")

    def loss_fn():
        z = etgnn_forward(model, ctx).z
        return cross_entropy_masked(z, graph.labels, splits["train"])

    return tape, loss_fn


@pytest.mark.parametrize("kind, features, negative_mode, blend",
                         CONFIGURATIONS)
def test_every_model_configuration_gradcheck(kind, features, negative_mode,
                                             blend):
    ok, report = finite_difference_check(
        *configured_loss(kind, features, negative_mode, blend))
    assert ok, report


@pytest.mark.parametrize("kind, features, negative_mode, blend",
                         CONFIGURATIONS)
def test_every_registered_parameter_gets_a_gradient(kind, features,
                                                    negative_mode, blend):
    tape, loss_fn = configured_loss(kind, features, negative_mode, blend)
    backward(loss_fn())
    for name, p in tape.params.items():
        assert p.grad is not None and np.any(p.grad != 0.0), name
