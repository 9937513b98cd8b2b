"""Losses and the early-stopping training loop."""

import numpy as np
import pytest

from conftest import loop_bce, loop_cross_entropy
from edgetensor import autodiff as ad
from edgetensor import training
from edgetensor.autodiff import Var, backward
from edgetensor.params import ParamTape
from edgetensor.training import (DivergenceError, TaskConfig, bce_from_scores,
                                 cross_entropy_masked, train_loop)


def test_cross_entropy_perfect_predictions():
    pred = np.eye(3)
    loss = cross_entropy_masked(pred, [0, 1, 2], [0, 1, 2])
    # exact one-hot rows hit the probability floor's log(1) = 0
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_four_classes():
    pred = np.full((5, 4), 0.25)
    loss = cross_entropy_masked(pred, [0, 1, 2, 3, 0], [0, 1, 2, 3, 4])
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_matches_loop_oracle(rng):
    logits = rng.standard_normal((6, 3))
    e = np.exp(logits)
    pred = e / e.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, size=6)
    mask = np.array([0, 2, 5])
    expected = -np.mean([np.log(pred[i, labels[i]]) for i in mask])
    loss = cross_entropy_masked(pred, labels, mask)
    assert loss == pytest.approx(expected, abs=1e-12)


def bits(x):
    """The bytes of ``x`` as float64, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).tobytes()


# Rounding shows a change of summation order in only some draws, so each
# oracle test checks many.
ORACLE_DRAWS = 30


@pytest.mark.parametrize("mask", [[0, 2, 5], [3, 1, 3, 3, 0, 1, 4]],
                         ids=["distinct", "repeated"])
def test_cross_entropy_bitwise_equal_to_loop_oracle(mask, rng):
    for _ in range(ORACLE_DRAWS):
        pred = rng.random((6, 3))
        pred[1, :] = 0.0  # node 1's term sits on the probability floor
        labels = rng.integers(0, 3, size=6)
        p = Var(pred.copy())
        loss = cross_entropy_masked(p, labels, mask)
        backward(loss)
        want_loss, want_grad = loop_cross_entropy(pred, labels, mask)
        assert bits(loss.value) == bits(want_loss)
        assert bits(p.grad) == bits(want_grad)


def test_bce_bitwise_equal_to_loop_oracle(rng):
    for _ in range(ORACLE_DRAWS):
        # 7 scores, so the 1/7 scale rounds; the last of each is floored
        pos = np.append(rng.random(3), 0.0)
        neg = np.append(rng.random(2), 1.0)
        p, q = Var(pos.copy()), Var(neg.copy())
        loss = bce_from_scores(p, q)
        backward(loss)
        want_loss, want_pos, want_neg = loop_bce(pos, neg)
        assert bits(loss.value) == bits(want_loss)
        assert bits(p.grad) == bits(want_pos)
        assert bits(q.grad) == bits(want_neg)


def test_cross_entropy_label_beyond_the_columns_rejected():
    with pytest.raises(ValueError, match="outside the 2 prediction columns"):
        cross_entropy_masked(np.full((2, 2), 0.5), [0, 2], [0, 1])


def test_cross_entropy_empty_mask_rejected():
    with pytest.raises(ValueError, match="empty mask"):
        cross_entropy_masked(np.full((2, 2), 0.5), [0, 1], [])


def test_cross_entropy_unlabeled_node_in_mask_rejected():
    with pytest.raises(ValueError, match="unlabeled"):
        cross_entropy_masked(np.full((2, 2), 0.5), [-1, 1], [0, 1])


def test_cross_entropy_traced_gradient(rng):
    logits = Var(rng.standard_normal((4, 3)))
    labels = np.array([0, 2, 1, 0])
    mask = np.array([0, 1, 3])
    backward(cross_entropy_masked(ad.row_softmax(logits), labels, mask))
    # gradient of mean CE w.r.t. logits is (p - onehot) / |mask| on masked rows
    p = ad.row_softmax(Var(logits.value)).value
    expected = np.zeros_like(p)
    for i in mask:
        expected[i] = p[i]
        expected[i, labels[i]] -= 1.0
    expected /= mask.size
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_bce_half_scores_give_log_two():
    pos = np.full(4, 0.5)
    neg = np.full(4, 0.5)
    loss = bce_from_scores(Var(pos), Var(neg))
    assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_matches_loop_oracle(rng):
    pos = rng.random(5) * 0.98 + 0.01
    neg = rng.random(3) * 0.98 + 0.01
    expected = -(np.log(pos).sum() + np.log(1 - neg).sum()) / 8
    loss = bce_from_scores(Var(pos), Var(neg))
    assert float(loss.value) == pytest.approx(expected, abs=1e-12)


def test_bce_floor_keeps_loss_finite():
    loss = bce_from_scores(Var(np.array([0.0])), Var(np.array([1.0])))
    assert np.isfinite(float(loss.value))


def quadratic_step(tape, noise=None):
    """Step closure minimizing (w - 3)^2 with val loss equal to train loss;
    its outputs are a copy of the parameter the epoch ran at."""
    p = tape.params["w"]

    def step(epoch):
        # rebuild the graph from the live parameter each epoch
        diff = ad.add(p, -3.0)
        loss = ad.total(ad.mul(diff, diff))
        val = float(loss.value) if noise is None else float(loss.value) + noise[epoch]
        return loss, val, -val, {}, p.value.copy()

    return step


def test_train_loop_converges_and_restores_best():
    tape = ParamTape()
    tape.add("w", np.array([0.0]))
    result = train_loop(tape, quadratic_step(tape),
                        TaskConfig(learning_rate=0.1, max_epochs=500,
                                   patience=20))
    assert tape.params["w"].value[0] == pytest.approx(3.0, abs=1e-2)
    assert result.best_val_loss == pytest.approx(0.0, abs=1e-3)
    np.testing.assert_array_equal(tape.params["w"].value, result.best_params["w"])
    # the outputs kept are those of the epoch that ran at best_params
    np.testing.assert_array_equal(result.best_outputs, result.best_params["w"])


def test_train_loop_early_stops_on_plateau():
    tape = ParamTape()
    tape.add("w", np.array([2.9999]))
    # validation loss frozen at a constant: epoch 0 improves over inf,
    # then `patience` consecutive non-improving epochs trigger the stop
    def step(epoch):
        diff = ad.add(tape.params["w"], -3.0)
        return ad.total(ad.mul(diff, diff)), 1.0, 0.0, {}, epoch

    result = train_loop(tape, step, TaskConfig(learning_rate=1e-4,
                                               max_epochs=1000, patience=5))
    assert result.stopped_early
    assert len(result.history) == 1 + 5
    assert result.best_epoch == 0
    assert result.best_outputs == 0


def test_train_loop_patience_zero_stops_at_first_stall():
    tape = ParamTape()
    tape.add("w", np.array([0.0]))

    def step(epoch):
        diff = ad.add(tape.params["w"], -3.0)
        return ad.total(ad.mul(diff, diff)), 1.0, 0.0, {}, None

    result = train_loop(tape, step, TaskConfig(learning_rate=1e-4,
                                               max_epochs=100, patience=0))
    assert len(result.history) == 2  # first improves over inf, second stalls


def test_train_loop_raises_on_divergence():
    tape = ParamTape()
    tape.add("w", np.array([0.0]))

    def step(epoch):
        diff = ad.add(tape.params["w"], -3.0)
        loss = ad.total(ad.mul(diff, diff))
        val = np.nan if epoch == 3 else 1.0 / (epoch + 1)
        return loss, val, 0.0, {}, None

    with pytest.raises(DivergenceError) as err:
        train_loop(tape, step, TaskConfig(learning_rate=0.01, max_epochs=10))
    assert len(err.value.history) == 3
    assert "w" in err.value.snapshot


def test_train_loop_records_history_extras():
    tape = ParamTape()
    tape.add("w", np.array([0.0]))

    def step(epoch):
        diff = ad.add(tape.params["w"], -3.0)
        return (ad.total(ad.mul(diff, diff)), float(epoch), 0.5,
                {"homophily": epoch * 0.1}, None)

    result = train_loop(tape, step, TaskConfig(learning_rate=0.01,
                                               max_epochs=3, patience=10))
    assert [r.epoch for r in result.history] == [0, 1, 2]
    assert result.history[2].extra["homophily"] == pytest.approx(0.2)


def test_small_steps_decrease_smooth_loss():
    tape = ParamTape()
    tape.add("w", np.array([10.0]))

    losses = []

    def step(epoch):
        diff = ad.add(tape.params["w"], -3.0)
        loss = ad.total(ad.mul(diff, diff))
        losses.append(float(loss.value))
        return loss, float(loss.value), 0.0, {}, None

    train_loop(tape, step, TaskConfig(learning_rate=1e-3, max_epochs=50,
                                      patience=50))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_task_config_rejects_bad_learning_rate():
    with pytest.raises(ValueError):
        TaskConfig(learning_rate=0.0)


@pytest.mark.parametrize("field, value", [
    ("max_epochs", 0), ("max_epochs", -3), ("patience", -1),
    ("patience", -2),
])
def test_task_config_rejects_bad_epoch_settings(field, value):
    # zero epochs leave no best epoch to score, and a negative patience
    # would silently act as 1
    TaskConfig(max_epochs=1, patience=0)
    with pytest.raises(ValueError, match=f"{field} must be at least"):
        TaskConfig(**{field: value})


def counting_updates(monkeypatch):
    """The backward passes and Adam steps ``train_loop`` runs, in order."""
    calls = []

    def counting_backward(loss):
        calls.append("backward")
        return backward(loss)

    adam_step = ParamTape.adam_step

    def counting_adam_step(tape, learning_rate):
        calls.append("adam_step")
        return adam_step(tape, learning_rate)

    monkeypatch.setattr(training, "backward", counting_backward)
    monkeypatch.setattr(ParamTape, "adam_step", counting_adam_step)
    return calls


@pytest.mark.parametrize("patience, stopped_early", [(3, True), (50, False)],
                         ids=["early_stop", "max_epochs"])
def test_train_loop_updates_after_every_epoch_but_the_last(
        monkeypatch, patience, stopped_early):
    """No later epoch reads the last epoch's update, and the best snapshot
    replaces it, so the last epoch of either path runs no backward pass."""
    tape = ParamTape()
    tape.add("w", np.array([0.0]))
    noise = np.where(np.arange(12) < 4, 0.0, 100.0)  # epoch 3 is the best
    calls = counting_updates(monkeypatch)
    result = train_loop(tape, quadratic_step(tape, noise),
                        TaskConfig(learning_rate=0.1, max_epochs=12,
                                   patience=patience))
    assert result.stopped_early == stopped_early
    assert len(result.history) == (4 + 3 if stopped_early else 12)
    assert calls == ["backward", "adam_step"] * (len(result.history) - 1)
    assert result.best_epoch == 3
    np.testing.assert_array_equal(result.best_outputs, result.best_params["w"])
    np.testing.assert_array_equal(tape.params["w"].value, result.best_params["w"])


def test_one_epoch_scores_the_parameters_without_updating_them(monkeypatch):
    tape = ParamTape()
    tape.add("w", np.array([1.5]))
    calls = counting_updates(monkeypatch)
    result = train_loop(tape, quadratic_step(tape),
                        TaskConfig(learning_rate=0.1, max_epochs=1))
    assert calls == []
    assert [r.val_loss for r in result.history] == [2.25]
    assert result.best_val_loss == 2.25 and result.best_epoch == 0
    np.testing.assert_array_equal(result.best_outputs, [1.5])
    np.testing.assert_array_equal(tape.params["w"].value, [1.5])
