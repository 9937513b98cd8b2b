"""Trainable-parameter registry, Glorot initialization and Adam updates."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .autodiff import Var


# Adam's moment decays and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteGradient(RuntimeError):
    """Raised by adam_step when a parameter's gradient is not finite."""


def glorot_init(shape, seed):
    """Uniform samples in +-sqrt(6 / (fan_in + fan_out)), fixed per seed.

    For vectors fan_out is taken as 1.
    """
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise ValueError("dimensions must be positive")
    fan_in = shape[0]
    fan_out = shape[1] if len(shape) > 1 else 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return np.random.default_rng(seed).uniform(-limit, limit, shape)


class ParamTape:
    """Named parameters with gradient accumulators and Adam moment state."""

    def __init__(self):
        self.params = {}
        self._m = {}
        self._v = {}
        self.step_count = 0

    def add(self, name, value):
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        p = Var(np.array(value, dtype=np.float64))
        self.params[name] = p
        self._m[name] = np.zeros_like(p.value)
        self._v[name] = np.zeros_like(p.value)
        return p

    def create(self, name, shape, seed):
        return self.add(name, glorot_init(shape, seed))

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def adam_step(self, learning_rate):
        """Standard bias-corrected Adam update; gradients are zeroed after.

        Every gradient is checked before any parameter moves, so a
        non-finite one raises with values, moments and ``step_count``
        unchanged.
        """
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteGradient(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            p.value -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        self.zero_grad()

    def snapshot(self):
        """Copies of all parameter values."""
        return {name: p.value.copy() for name, p in self.params.items()}

    def restore(self, snap):
        """Copy ``snap`` in place; it must hold exactly these names and shapes."""
        wrong = sorted(set(self.params) ^ set(snap)) or [
            f"{name} {np.shape(value)} != {self.params[name].value.shape}"
            for name, value in sorted(snap.items())
            if np.shape(value) != self.params[name].value.shape]
        if wrong:
            raise ValueError(f"snapshot does not match the parameters: {wrong}")
        for name, value in snap.items():
            self.params[name].value[...] = value


# ---------------------------------------------------------------------------
# checkpoints: one JSON document holding the manifest and the parameters


@contextmanager
def atomic_open(path, newline=None):
    """Write ``path`` via a temp file that replaces it only on success."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(values, directory, manifest):
    """Write the manifest and the named arrays, as nested lists, to one file,
    ``checkpoint.json``, in one atomic replace; a non-finite value raises."""
    os.makedirs(directory, exist_ok=True)
    params = {k: np.asarray(v, dtype=np.float64).tolist()
              for k, v in values.items()}
    with atomic_open(os.path.join(directory, "checkpoint.json")) as fh:
        json.dump({"manifest": manifest, "params": params}, fh,
                  allow_nan=False, sort_keys=True)


def _refuse_constant(token):
    raise ValueError(f"checkpoint holds the non-finite value {token}")


def load_checkpoint(directory):
    """Read back (values, manifest) written by :func:`save_checkpoint`;
    each array is float64, shaped by its list nesting. A ``NaN`` or
    ``Infinity`` token, which no save writes, raises."""
    with open(os.path.join(directory, "checkpoint.json")) as fh:
        doc = json.load(fh, parse_constant=_refuse_constant)
    return ({k: np.asarray(v, dtype=np.float64)
             for k, v in doc["params"].items()}, doc["manifest"])
