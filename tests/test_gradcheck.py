"""Finite-difference gradient verification."""

import pickle

import numpy as np
import pytest

from conftest import configured_graph, configured_loss
from edgetensor import autodiff as ad
from edgetensor.autodiff import Var, backward
from edgetensor.features import RECIPE_KINDS
from edgetensor.gradcheck import (finite_difference_check, link_gradcheck,
                                  model_gradcheck)
from edgetensor.params import ParamTape


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
        wrong = ad.mul(ad.mul(w, Var(w.value.copy())), 1.0)
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


@pytest.mark.parametrize("kind", ["gcn_only", "et_gcn", "et_gat"])
def test_link_prediction_loss_gradcheck(kind):
    # bce over the link scores of the edges and of sampled non-edges, with
    # z read by both calls, through the whole model
    ok, report = link_gradcheck(model_kind=kind, seed=0)
    assert ok, report
    assert all(0.0 < worst < 1e-4 for worst in report.values()), report


def test_gcn_only_gradchecks_take_no_edge_stack_setting():
    # the benchmark's gate runs the first; neither passes gcn_only a
    # setting it does not read
    for ok, report in (model_gradcheck("gcn_only", seed=1),
                       link_gradcheck("gcn_only")):
        assert ok, report
        assert sorted(report) == ["gc_0", "gc_1"]


def test_full_model_gradcheck_with_relu():
    # relu hiddens at a random (almost surely kink-free) operating point
    ok, report = finite_difference_check(*configured_loss(
        "et_gcn", "concat", seed=1, activation="relu"))
    assert ok, report


# every configuration the CLI can build: the edge-stack kinds cross every
# recipe on a single graph and the multi-graph context ("stack", whose views
# replace the recipe); gcn_only has no edge stack, so it takes no edge-stack
# setting, on either kind of context
CONFIGURATIONS = [(kind, features)
                  for kind in ("et_gcn", "et_gat")
                  for features in (*RECIPE_KINDS, "stack")] + [
                      ("gcn_only", "concat"), ("gcn_only", "stack")]


@pytest.mark.parametrize("kind, features", CONFIGURATIONS)
def test_every_model_configuration_gradcheck(kind, features):
    ok, report = finite_difference_check(*configured_loss(kind, features))
    assert ok, report


@pytest.mark.parametrize("kind, features", CONFIGURATIONS)
def test_every_registered_parameter_gets_a_gradient(kind, features):
    tape, loss_fn = configured_loss(kind, features)
    backward(loss_fn())
    for name, p in tape.params.items():
        assert p.grad is not None and np.any(p.grad != 0.0), name


@pytest.mark.parametrize("kind, features", CONFIGURATIONS)
def test_warm_graph_arrays_equal_a_freshly_unpickled_graphs(kind, features):
    """A forward and backward that read the arrays an earlier one kept (Â's
    gathered weights, node plan and flat segment ids, the context's Â·X
    and label pairs) equal, bit for bit, those on the same graph pickled
    and loaded, which keeps none of them."""
    def loss_and_grads(graph, passes):
        tape, loss_fn = configured_loss(kind, features, graph=graph)
        for _ in range(passes):
            tape.zero_grad()
            loss = loss_fn()
            backward(loss)
        return [loss.value] + [p.grad for _, p in sorted(tape.params.items())]

    graph = configured_graph(features)
    warm = loss_and_grads(graph, 2)
    cold = loss_and_grads(pickle.loads(pickle.dumps(graph)), 1)
    assert len(warm) == len(cold)
    for got, want in zip(warm, cold):
        assert np.array_equal(got, want)
