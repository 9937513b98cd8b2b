"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable quantity is a :class:`Var` holding a float64 array.
Operations build a DAG of Vars; :func:`backward` walks it in reverse
topological order and accumulates vector-Jacobian products into ``.grad``.
Accumulation order is fixed by graph construction order, so gradients are
bit-identical across runs.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A node in the computation graph.

    ``value`` is always a float64 ndarray (possibly 0-d). ``grad`` is filled
    by :func:`backward` and has the same shape as ``value``.
    """

    __slots__ = ("value", "grad", "_parents", "_vjps", "name")

    def __init__(self, value, parents=(), vjps=(), name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Var{tag}(shape={self.value.shape})"


class Parameter(Var):
    """A leaf Var whose value persists across training steps."""

    def __init__(self, value, name):
        super().__init__(value, name=name)


def as_var(x):
    """Wrap a plain array as a constant Var; Vars pass through."""
    return x if isinstance(x, Var) else Var(x)


def backward(root, seed=None):
    """Accumulate d(root)/d(node) into ``node.grad`` for every ancestor.

    ``seed`` defaults to ones (the usual choice for a scalar loss).
    Existing ``.grad`` values are added to, so callers must zero parameter
    gradients between steps.
    """
    if seed is None:
        seed = np.ones_like(root.value)
    else:
        seed = np.asarray(seed, dtype=np.float64)

    # Iterative topological sort; recursion would overflow on deep nets.
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    pending = {id(root): seed}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(g)
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = as_var(a), as_var(b)
    return Var(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape),
         lambda g: _unbroadcast(g, b.value.shape)),
    )


def sub(a, b):
    a, b = as_var(a), as_var(b)
    return Var(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape),
         lambda g: _unbroadcast(-g, b.value.shape)),
    )


def mul(a, b):
    a, b = as_var(a), as_var(b)
    return Var(
        a.value * b.value,
        (a, b),
        (lambda g: _unbroadcast(g * b.value, a.value.shape),
         lambda g: _unbroadcast(g * a.value, b.value.shape)),
    )


def scale(a, c):
    a = as_var(a)
    c = float(c)
    return Var(a.value * c, (a,), (lambda g: g * c,))


def add_const(a, c):
    a = as_var(a)
    return Var(a.value + c, (a,), (lambda g: g,))


def neg(a):
    return scale(a, -1.0)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape):
    a = as_var(a)
    old = a.value.shape
    return Var(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def concat_cols(a, b):
    a, b = as_var(a), as_var(b)
    da = a.value.shape[1]
    return Var(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        (lambda g: g[:, :da], lambda g: g[:, da:]),
    )


def gather_rows(a, idx):
    a = as_var(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return Var(a.value[idx], (a,), (vjp,))


def take_elems(a, rows, cols):
    """Gather ``a[rows[k], cols[k]]`` into a vector."""
    a = as_var(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, (rows, cols), g)
        return out

    return Var(a.value[rows, cols], (a,), (vjp,))


# ---------------------------------------------------------------------------
# matrix products and reductions


def matmul(a, b):
    a, b = as_var(a), as_var(b)
    return Var(
        a.value @ b.value,
        (a, b),
        (lambda g: g @ b.value.T, lambda g: a.value.T @ g),
    )


def total(a):
    """Sum of all elements, as a 0-d Var."""
    a = as_var(a)
    return Var(a.value.sum(), (a,), (lambda g: np.full_like(a.value, float(g)),))


def mean(a):
    a = as_var(a)
    count = a.value.size
    return scale(total(a), 1.0 / count)


def sum_cols(a):
    """Row-wise sum of a 2-d Var, returning a 1-d Var."""
    a = as_var(a)
    ncols = a.value.shape[1]
    return Var(a.value.sum(axis=1), (a,),
               (lambda g: np.repeat(g[:, None], ncols, axis=1),))


def bincount_rows(values, seg_ids, num_segments):
    """Plain-array segment sum: row k of ``values`` is added to row ``seg_ids[k]``.

    One ``bincount`` per column, so accumulation runs in array order and the
    result is deterministic.
    """
    if values.ndim == 1:
        return np.bincount(seg_ids, weights=values, minlength=num_segments)
    out = np.empty((num_segments, values.shape[1]))
    for k in range(values.shape[1]):
        out[:, k] = np.bincount(seg_ids, weights=values[:, k],
                                minlength=num_segments)
    return out


def segment_sum(a, seg_ids, num_segments):
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``seg_ids``."""
    a = as_var(a)
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    out = bincount_rows(a.value, seg_ids, num_segments)
    return Var(out, (a,), (lambda g: g[seg_ids],))


def segment_softmax(a, seg_ids, num_segments):
    """Softmax of a 1-d Var within each segment (numerically stabilized)."""
    a = as_var(a)
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    highs = np.full(num_segments, -np.inf)
    np.maximum.at(highs, seg_ids, a.value)
    e = np.exp(a.value - highs[seg_ids])
    denom = np.bincount(seg_ids, weights=e, minlength=num_segments)
    p = e / denom[seg_ids]

    def vjp(g):
        dots = np.bincount(seg_ids, weights=g * p, minlength=num_segments)
        return p * (g - dots[seg_ids])

    return Var(p, (a,), (vjp,))


def row_softmax(a):
    a = as_var(a)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return p * (g - (g * p).sum(axis=1, keepdims=True))

    return Var(p, (a,), (vjp,))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a):
    a = as_var(a)
    mask = a.value > 0
    return Var(np.where(mask, a.value, 0.0), (a,), (lambda g: g * mask,))


def leaky_relu(a, slope=0.2):
    a = as_var(a)
    pos = a.value > 0
    factor = np.where(pos, 1.0, slope)
    return Var(a.value * factor, (a,), (lambda g: g * factor,))


def sigmoid(a):
    a = as_var(a)
    x = a.value
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def vjp(g):
        return g * s * (1.0 - s)

    return Var(s, (a,), (vjp,))


def log(a):
    a = as_var(a)
    return Var(np.log(a.value), (a,), (lambda g: g / a.value,))


def floor_at(a, c):
    """max(a, c) elementwise; subgradient flows where a > c."""
    a = as_var(a)
    mask = a.value > c
    return Var(np.where(mask, a.value, c), (a,), (lambda g: g * mask,))


def absolute(a):
    """|a| elementwise; subgradient at 0 is 0."""
    a = as_var(a)
    sign = np.sign(a.value)
    return Var(np.abs(a.value), (a,), (lambda g: g * sign,))


def rsqrt(a):
    a = as_var(a)
    r = 1.0 / np.sqrt(a.value)
    return Var(r, (a,), (lambda g: g * (-0.5) * r / a.value,))
