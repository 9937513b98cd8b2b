"""Losses and the early-stopping training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import backward

PROB_FLOOR = 1e-12


class DivergenceError(RuntimeError):
    """Training loss became non-finite; carries the last good snapshot."""

    def __init__(self, message, snapshot, history):
        super().__init__(message)
        self.snapshot = snapshot
        self.history = history


def cross_entropy_masked(predictions, labels, mask):
    """Mean negative log-probability of the true class over masked nodes.

    ``predictions`` rows must already be probability vectors (softmaxed).
    Returns the 0-d loss, a Var when ``predictions`` is traced.
    """
    mask = np.asarray(mask, dtype=np.intp)
    if mask.size == 0:
        raise ValueError("empty mask")
    picked_labels = np.asarray(labels, dtype=np.intp)[mask]
    if np.any(picked_labels < 0):
        raise ValueError("mask selects an unlabeled node")
    width = ad.value(predictions).shape[1]
    if np.any(picked_labels >= width):
        raise ValueError(f"mask selects a label outside the {width} "
                         "prediction columns")
    # one flat gather: row mask[k], column picked_labels[k]
    picked = ad.gather_rows(ad.reshape(predictions, (-1,)),
                            mask * width + picked_labels)
    return ad.mul(ad.mean(ad.log(ad.floor_at(picked, PROB_FLOOR))), -1.0)


def bce_from_scores(pos_scores, neg_scores):
    """BCE on 1-d scores: positives toward 1, negatives toward 0.

    Returns the 0-d loss, a Var when the scores are traced.
    """
    total = ad.value(pos_scores).size + ad.value(neg_scores).size
    log_pos = ad.total(ad.log(ad.floor_at(pos_scores, PROB_FLOOR)))
    log_neg = ad.total(ad.log(ad.floor_at(ad.sub(1.0, neg_scores),
                                          PROB_FLOOR)))
    return ad.mul(ad.add(log_pos, log_neg), -1.0 / total)


@dataclass
class TaskConfig:
    """Hyperparameters of one training run.

    ``max_epochs`` is at least 1, so every run has a best epoch whose
    outputs score it; one epoch is an evaluation, since the last epoch
    updates nothing. ``patience`` is at least 0 (see :func:`train_loop`).
    """

    learning_rate: float = 0.01
    max_epochs: int = 10000
    patience: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got "
                             f"{self.max_epochs!r}")
        if self.patience < 0:
            raise ValueError(f"patience must be at least 0, got "
                             f"{self.patience!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_metric: float
    extra: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    best_params: dict
    best_epoch: int
    best_val_loss: float
    history: list
    stopped_early: bool
    best_outputs: object  # what the best epoch's step returned last


def train_loop(tape, step, config):
    """Run Adam with early stopping on validation loss.

    ``step(epoch)`` performs a traced forward pass with the tape's current
    parameters and returns ``(train_loss_var, val_loss, val_metric, extra,
    outputs)``, where ``outputs`` are plain values (never Vars) the caller
    scores the run on. The parameters with the lowest validation loss are
    restored and returned, with their epoch's ``outputs`` as
    ``best_outputs``, so no forward pass is needed after training. Stops
    when the validation loss has not improved for ``patience`` consecutive
    epochs (``patience == 0`` stops at the first non-improving epoch) or
    after ``max_epochs``. Every epoch but the last updates the parameters;
    the last runs no backward pass, since no later epoch would read its
    update.
    """
    best_snapshot = tape.snapshot()
    best_val = np.inf
    best_epoch = -1
    best_outputs = None
    bad_epochs = 0
    history = []
    stall_limit = max(config.patience, 1)
    stopped_early = False
    for epoch in range(config.max_epochs):
        tape.zero_grad()
        loss_var, val_loss, val_metric, extra, outputs = step(epoch)
        train_loss = float(loss_var.value)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}", best_snapshot, history)
        history.append(EpochRecord(epoch, train_loss, float(val_loss),
                                   float(val_metric), extra))
        if val_loss < best_val:
            best_val = float(val_loss)
            best_epoch = epoch
            best_snapshot = tape.snapshot()
            best_outputs = outputs
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= stall_limit:
                stopped_early = True
                break
        if epoch == config.max_epochs - 1:
            break
        backward(loss_var)
        tape.adam_step(config.learning_rate)
    tape.restore(best_snapshot)
    return TrainResult(best_snapshot, best_epoch, best_val, history,
                       stopped_early, best_outputs)
