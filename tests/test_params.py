"""Initialization, the parameter tape, Adam updates and checkpoints."""

import numpy as np
import pytest

from edgetensor.params import (NonFiniteGradient, ParamTape, glorot_init,
                               load_checkpoint, save_checkpoint)


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
    assert tape["w"] is p


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
        np.testing.assert_array_equal(tape[name].value, value)


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
