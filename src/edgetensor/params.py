"""Trainable-parameter registry, Glorot initialization and Adam updates."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .autodiff import Parameter


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
        p = Parameter(np.array(value, dtype=np.float64), name)
        self.params[name] = p
        self._m[name] = np.zeros_like(p.value)
        self._v[name] = np.zeros_like(p.value)
        return p

    def create(self, name, shape, seed):
        return self.add(name, glorot_init(shape, seed))

    def __getitem__(self, name):
        return self.params[name]

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def adam_step(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        """Standard bias-corrected Adam update; gradients are zeroed after."""
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient for parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            p.value -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
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
# checkpoints: parameter arrays in a text snapshot plus a JSON manifest


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


def save_checkpoint(values, directory, manifest=None):
    """Write named arrays to ``params.txt`` and a manifest to ``manifest.json``."""
    os.makedirs(directory, exist_ok=True)
    with atomic_open(os.path.join(directory, "params.txt")) as fh:
        for name in sorted(values):
            arr = np.atleast_2d(np.asarray(values[name], dtype=np.float64))
            fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    meta = dict(manifest or {})
    meta["shapes"] = {k: list(np.asarray(v).shape) for k, v in values.items()}
    with atomic_open(os.path.join(directory, "manifest.json")) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_checkpoint(directory):
    """Read back (values, manifest) written by :func:`save_checkpoint`."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    values = {}
    with open(os.path.join(directory, "params.txt")) as fh:
        line = fh.readline()
        while line:
            name, nrows, ncols = line.split()
            rows = [list(map(float, fh.readline().split())) for _ in range(int(nrows))]
            arr = np.array(rows)
            if len(manifest["shapes"][name]) == 1:
                arr = arr.reshape(-1)
            values[name] = arr
            line = fh.readline()
    return values, manifest
