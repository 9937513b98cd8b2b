"""Initialization, the parameter tape, Adam updates and checkpoints."""

import os

import numpy as np
import pytest

from edgetensor.evaluation import split_nodes
from edgetensor.generators import sbm_generate
from edgetensor.models import MODEL_KINDS
from edgetensor.params import (NonFiniteGradient, ParamTape, glorot_init,
                               load_checkpoint, save_checkpoint)
from edgetensor.tasks import run_node_classification
from edgetensor.training import TaskConfig


def test_glorot_bounds_and_determinism():
    w = glorot_init((40, 60), seed=3)
    limit = np.sqrt(6.0 / 100)
    assert np.all(np.abs(w) <= limit)
    assert np.array_equal(w, glorot_init((40, 60), seed=3))
    assert not np.array_equal(w, glorot_init((40, 60), seed=4))


def test_glorot_vector_fan_out_one():
    v = glorot_init((50,), seed=0)
    limit = np.sqrt(6.0 / 51)
    assert v.shape == (50,)
    assert np.all(np.abs(v) <= limit)
    # a sample this large should come close to the bound
    assert np.abs(v).max() > 0.8 * limit


def test_glorot_variance_matches_uniform_law():
    w = glorot_init((200, 100), seed=1)
    limit = np.sqrt(6.0 / 300)
    expected_var = limit ** 2 / 3.0  # variance of U(-limit, limit)
    assert w.var() == pytest.approx(expected_var, rel=0.05)


def test_glorot_rejects_bad_shape():
    with pytest.raises(ValueError):
        glorot_init((0, 3), seed=0)


def adam_oracle(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrence, scalar form."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_matches_hand_recurrence():
    tape = ParamTape()
    p = tape.add("w", np.array([1.0]))
    grads = [0.3, -0.7, 1.1]
    for g in grads:
        p.grad = np.array([g])
        tape.adam_step(0.05)
    expected = adam_oracle(1.0, grads, 0.05)
    assert p.value[0] == pytest.approx(expected, abs=1e-14)


def test_adam_first_step_moves_by_learning_rate():
    # with bias correction, step 1 is lr * g / (|g| + eps) ~= lr * sign(g)
    tape = ParamTape()
    p = tape.add("w", np.zeros(2))
    p.grad = np.array([0.5, -2.0])
    tape.adam_step(0.01)
    np.testing.assert_allclose(p.value, [-0.01, 0.01], rtol=1e-6)


def test_adam_zeroes_gradients_after_step():
    tape = ParamTape()
    p = tape.add("w", np.zeros(2))
    p.grad = np.ones(2)
    tape.adam_step(0.1)
    assert p.grad is None
    assert tape.step_count == 1


def test_adam_missing_grad_treated_as_zero():
    tape = ParamTape()
    p = tape.add("w", np.array([2.0]))
    tape.adam_step(0.1)
    assert p.value[0] == pytest.approx(2.0)


def test_adam_rejects_non_finite_gradient():
    tape = ParamTape()
    p = tape.add("w", np.zeros(1))
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradient, match="w"):
        tape.adam_step(0.1)


def test_adam_checks_every_gradient_before_updating():
    # a NaN on the second parameter leaves the first one, every moment and
    # the step count as they were
    tape = ParamTape()
    a = tape.add("a", np.zeros(2))
    b = tape.add("b", np.zeros(2))
    a.grad, b.grad = np.ones(2), np.ones(2)
    tape.adam_step(0.1)

    def state():
        return [tape.snapshot(), {k: m.copy() for k, m in tape._m.items()},
                {k: v.copy() for k, v in tape._v.items()}]

    before = state()
    a.grad, b.grad = np.ones(2), np.array([0.0, np.nan])
    with pytest.raises(NonFiniteGradient, match="'b'"):
        tape.adam_step(0.1)
    for want, got in zip(before, state()):
        for name in ("a", "b"):
            np.testing.assert_array_equal(got[name], want[name])
    assert tape.step_count == 1


def test_duplicate_parameter_name_rejected():
    tape = ParamTape()
    tape.add("w", np.zeros(1))
    with pytest.raises(ValueError, match="already"):
        tape.add("w", np.zeros(1))


def test_snapshot_restore_round_trip():
    tape = ParamTape()
    p = tape.create("w", (3, 2), seed=0)
    snap = tape.snapshot()
    p.value += 1.0
    tape.restore(snap)
    np.testing.assert_array_equal(p.value, snap["w"])
    # restore mutates in place so traced references stay valid
    assert tape.params["w"] is p


@pytest.mark.parametrize("snap, message", [
    ({"w": np.zeros((3, 4))}, r"\['b'\]"),
    ({"w": np.zeros((3, 4)), "b": np.zeros(4), "reducer": np.zeros((2, 2))},
     r"\['reducer'\]"),
    ({"w": np.zeros((1, 4)), "b": np.zeros(4)}, r"w \(1, 4\) != \(3, 4\)"),
], ids=["missing_name", "extra_reducer", "broadcast_shape"])
def test_restore_rejects_a_mismatched_snapshot(snap, message):
    tape = ParamTape()
    tape.create("w", (3, 4), seed=0)
    tape.add("b", np.ones(4))
    before = tape.snapshot()
    with pytest.raises(ValueError, match=message):
        tape.restore(snap)
    for name, value in before.items():
        np.testing.assert_array_equal(tape.params[name].value, value)


def test_checkpoint_round_trip(tmp_path):
    values = {"a": np.random.default_rng(0).standard_normal((3, 4)),
              "b": np.array([1.5, -2.25])}
    save_checkpoint(values, tmp_path / "ckpt", manifest={"epoch": 7})
    loaded, manifest = load_checkpoint(tmp_path / "ckpt")
    assert manifest["epoch"] == 7
    assert set(loaded) == {"a", "b"}
    np.testing.assert_array_equal(loaded["a"], values["a"])
    np.testing.assert_array_equal(loaded["b"], values["b"])
    assert loaded["b"].shape == (2,)
    # one file, one format: nothing else is left in the directory
    assert os.listdir(tmp_path / "ckpt") == ["checkpoint.json"]


@pytest.fixture(scope="module")
def trained_params():
    """The best parameters of a tiny run of each model kind (et_gat's
    ``theta`` is 1-d), plus a vector of float64's edge values."""
    graph = sbm_generate([8, 8], 0.5, 0.1, seed=0)
    splits = split_nodes(graph.labels, 2, 0.5, seed=0)
    params = {"edge": np.array([-0.0, 5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308, 0.1])}
    for kind in MODEL_KINDS:
        run = run_node_classification(graph, splits,
                                      TaskConfig(0.05, 3, 3, seed=0),
                                      model_kind=kind)
        params.update({f"{kind}/{name}": value
                       for name, value in run.best_params.items()})
    return params


def test_checkpoint_round_trips_every_bit(tmp_path, trained_params):
    assert trained_params["et_gat/theta"].ndim == 1
    save_checkpoint(trained_params, tmp_path, manifest={"seed": 3})
    loaded, manifest = load_checkpoint(tmp_path)
    assert manifest == {"seed": 3}
    assert loaded.keys() == trained_params.keys()
    for name, value in trained_params.items():
        assert loaded[name].dtype == np.float64, name
        assert loaded[name].shape == value.shape, name
        assert loaded[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("values, manifest, error", [
    ({"w": np.ones((2, 2))}, {"seed": object()}, TypeError),
    ({"w": np.array([[1.0, np.nan], [0.0, 1.0]])}, {"seed": 1}, ValueError),
    ({"w": np.full((2, 2), -np.inf)}, {"seed": 1}, ValueError),
], ids=["unencodable_manifest", "nan_param", "inf_param"])
def test_a_failed_save_keeps_the_previous_checkpoint_whole(
        tmp_path, values, manifest, error):
    """A save that raises partway leaves the previous checkpoint as it
    was: its values and its manifest, not a mix of two runs."""
    before = {"w": np.arange(4.0).reshape(2, 2), "theta": np.array([0.5])}
    save_checkpoint(before, tmp_path, manifest={"seed": 0, "epoch": 4})
    with pytest.raises(error):
        save_checkpoint(values, tmp_path, manifest=manifest)
    loaded, kept = load_checkpoint(tmp_path)
    assert kept == {"seed": 0, "epoch": 4}
    assert loaded.keys() == before.keys()
    for name, value in before.items():
        assert loaded[name].tobytes() == value.tobytes()
    assert os.listdir(tmp_path) == ["checkpoint.json"]
