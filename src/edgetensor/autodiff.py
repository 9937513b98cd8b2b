"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every differentiable quantity is a :class:`Var` holding a float64 array.
Operations build a DAG of Vars; :func:`backward` walks it in reverse
topological order and accumulates vector-Jacobian products into ``.grad``
of the leaves only, the Vars with no parents (parameters and Vars a caller
builds). An intermediate hands its cotangent to its parents and keeps
nothing, so a backward leaves no gradient-sized copy of the tape alive.
Accumulation order is fixed by graph construction order, so gradients are
bit-identical across runs.

The one tracing rule: an op takes plain arrays or Vars. It returns a Var
only when at least one input is a Var, and that Var's parents and vjps
cover only its Var inputs, so :func:`backward` never computes the gradient
of a constant. With all-plain inputs it returns the plain numpy result of
the same arithmetic. So each op does one job: a constant scale, shift or
negation is :func:`mul`, :func:`add` or :func:`sub` with a plain operand
(negation is ``mul(x, -1.0)``, which, unlike ``sub(0.0, x)``, negates a
zero too), and an element gather is :func:`gather_rows` on
``reshape(x, (-1,))``.

Rows are gathered over a fixed index array with ``np.take(x, idx,
axis=0)`` rather than ``x[idx]``. On numpy 2.4 it is 2-5x faster for
rows of 1-16 float64, with the same result and the same ``IndexError``
on an out-of-range index.

Two plain-array kernels run feature-major: each transposes its 2-d
operands once and then works on one contiguous feature column at a time, so no
(terms x width) block or flat index is ever built.
:func:`gather_scale_sum` serves the sparse products of
``edge_tensor.propagate_values`` (the mode-1/2 products and A·H) and the
adjoint of ``models.link_scores``. ``propagate_values`` calls it one way
round in both directions: its forward and its tensor adjoint each gather
through the plan's sorted output slots and add into its input slots, the
forward reading the weights transposed. It is bitwise equal to the
row-major gather-multiply-``segment_sum`` composition: every term is the
same single product, and ``bincount`` adds each output's terms in array
order either way. :func:`row_dots` serves the weight adjoint of
``propagate_values`` and the forward of ``link_scores``.

Pair features never become a (pairs x 2 width) block. A linear map of
[x_i || x_j] is x_i W_top + x_j W_bot, so the recipes of ``features``
and the attention scores of ``layers`` project the n node rows first
(:func:`row_slice` takes W's halves) and gather the projected rows.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A node in the computation graph.

    ``value`` is always a float64 ndarray (possibly 0-d). ``grad`` is filled
    by :func:`backward` on leaves only (a Var with no parents) and has the
    same shape as ``value``; an op's result keeps ``grad`` None.
    """

    __slots__ = ("value", "grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value(x):
    """The array behind ``x``: ``x.value`` for a Var, ``x`` itself otherwise."""
    return x.value if isinstance(x, Var) else x


def _node(out, *pairs):
    """Result of an op: ``out`` traced over the Var inputs of ``pairs``.

    Each pair is ``(input, vjp)``; pairs whose input is not a Var are
    dropped. With no Var input the plain ``out`` is returned. Ops outside
    this module (``edge_tensor.propagate_values``,
    ``models.link_scores``) build their result with it too, so the rule
    lives here.
    """
    traced = [(x, vjp) for x, vjp in pairs if isinstance(x, Var)]
    if not traced:
        return out
    parents, vjps = zip(*traced)
    return Var(out, parents, vjps)


def backward(root):
    """Accumulate d(root)/d(leaf) into ``leaf.grad`` for every leaf ancestor.

    A leaf is a Var with no parents. Intermediate nodes, ``root`` included
    unless it is a leaf, get no ``.grad``: each cotangent is dropped once
    its node's vjps have run. The root's cotangent is ones, as for a scalar
    loss; to pull a cotangent ``g`` back through an output ``out``, run
    ``backward(total(mul(out, g)))``, which hands ``out`` exactly ``g``.
    Existing ``.grad`` values are added to, so callers must zero parameter
    gradients between steps.
    """
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

    # every node after the root is a parent of a node before it, so its
    # cotangent is pending by the time it is reached
    pending = {id(root): np.ones_like(root.value)}
    for node in reversed(topo):
        g = pending.pop(id(node))
        if not node._parents:
            node.grad = g if node.grad is None else node.grad + g
            continue
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
    av, bv = value(a), value(b)
    return _node(av + bv,
                 (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(g, bv.shape)))


def sub(a, b):
    av, bv = value(a), value(b)
    return _node(av - bv,
                 (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(-g, bv.shape)))


def mul(a, b):
    av, bv = value(a), value(b)
    return _node(av * bv,
                 (a, lambda g: _unbroadcast(g * bv, av.shape)),
                 (b, lambda g: _unbroadcast(g * av, bv.shape)))


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape):
    av = value(a)
    return _node(av.reshape(shape), (a, lambda g: g.reshape(av.shape)))


def row_slice(a, start, stop):
    """Rows ``start:stop`` of ``a`` (a weight's top or bottom half)."""
    av = value(a)

    def vjp(g):
        out = np.zeros_like(av)
        out[start:stop] = g
        return out

    return _node(av[start:stop], (a, vjp))


def gather_rows(a, idx, flat=None):
    """Rows ``idx`` of ``a``; the adjoint sums them back with
    :func:`bincount_rows`.

    ``flat``, for a 2-d ``a``, is ``flat_ids(idx, width)``, kept by a
    caller that gathers through one index at one width every epoch (a
    pattern's ``flat_ids``), so the adjoint does not rebuild it.
    """
    av = value(a)
    idx = np.asarray(idx, dtype=np.intp)
    return _node(np.take(av, idx, axis=0),
                 (a, lambda g: bincount_rows(g, idx, av.shape[0], flat)))


# ---------------------------------------------------------------------------
# matrix products and reductions


def matmul(a, b):
    """``a @ b``.

    For a one-column 2-d ``b``, as the (p, 1) projection that ends every
    edge stack is, ``a``'s adjoint, the outer product g bᵀ, is built by
    broadcasting, in feature-major order, rather than by a k=1 BLAS call:
    0.08-0.15 against 0.28-0.41 ms at 25,908-37,976 rows of width 6 (one
    BLAS thread, numpy 2.4). The BLAS product sums from +0.0, so it turns
    an exact -0.0 term into +0.0; the broadcast does the same by adding
    0.0, which keeps it bitwise equal.
    """
    av, bv = value(a), value(b)
    rank1 = av.ndim == bv.ndim == 2 and bv.shape[1] == 1

    def vjp_a(g):
        if rank1:
            outer = bv * g.T
            outer += 0.0
            return outer.T
        return g @ bv.T

    return _node(av @ bv, (a, vjp_a), (b, lambda g: av.T @ g))


def total(a):
    """Sum of all elements, as a 0-d Var."""
    av = value(a)
    return _node(av.sum(), (a, lambda g: np.full_like(av, float(g))))


def mean(a):
    return mul(total(a), 1.0 / value(a).size)


def flat_ids(seg_ids, ncols):
    """``seg_id * ncols + col`` for each element of a (len(seg_ids), ncols)
    block, in row-major order: the index one ``bincount`` sums its rows by."""
    return (seg_ids[:, None] * ncols + np.arange(ncols)).reshape(-1)


def bincount_rows(values, seg_ids, num_segments, flat=None):
    """Plain-array segment sum: row k of ``values`` is added to row ``seg_ids[k]``.

    A 2-d block runs one ``bincount`` over :func:`flat_ids`, built here
    unless passed as ``flat``; it sums in array order, as a ``bincount``
    per column would: deterministic and bitwise equal to it. An F-ordered
    block, as the cotangent of :func:`matmul`'s one-column adjoint is,
    runs that ``bincount`` per contiguous column instead of being copied
    into C order (0.47 against 1.5 ms at 25,908 x 8 on numpy 2.4), and
    gives an F-ordered result.
    """
    if values.ndim == 1:
        return np.bincount(seg_ids, weights=values, minlength=num_segments)
    if values.flags.f_contiguous and not values.flags.c_contiguous:
        out = np.empty((values.shape[1], num_segments))
        for q, column in enumerate(values.T):
            out[q] = np.bincount(seg_ids, weights=column, minlength=num_segments)
        return out.T
    ncols = values.shape[1]
    if flat is None:
        flat = flat_ids(seg_ids, ncols)
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=num_segments * ncols).reshape(num_segments, ncols)


def gather_scale_sum(x, gather_idx, scale, seg_ids, num_segments):
    """Plain-array kernel: ``out[s] = sum_k scale[k] * x[gather_idx[k]]`` over
    the k with ``seg_ids[k] == s``, for a 2-d ``x``.

    Feature-major: ``x`` is transposed once (free when it is already
    F-ordered, as this kernel's own output is), then each feature column
    is one contiguous ``np.take``, an in-place scale and one ``bincount``.
    Returns the (num_segments, width) result as the transpose of a
    C-ordered (width, num_segments) block.
    """
    columns = np.ascontiguousarray(x.T)
    out = np.empty((columns.shape[0], num_segments))
    for q, column in enumerate(columns):
        terms = np.take(column, gather_idx)
        terms *= scale
        out[q] = np.bincount(seg_ids, weights=terms, minlength=num_segments)
    return out.T


def row_dots(x, x_idx, y, y_idx):
    """Plain-array kernel: ``out[k] = x[x_idx[k]] . y[y_idx[k]]`` for 2-d
    ``x`` and ``y`` of equal width.

    Feature-major, like :func:`gather_scale_sum`: each operand is
    transposed once (free when it is F-ordered), then each feature column
    takes the product of two contiguous ``np.take``s. The first column's
    product is the sum's start, and each later one is added into it. So
    every row adds its columns in order 0, 1, ..., p - 1: deterministic,
    though it may differ in the last bit from ``einsum`` or
    ``.sum(axis=1)``, which add in other orders (the latter from width 8
    up on numpy 2.4). Starting from the first product rather than from
    zeros changes only the sign of a zero: a row whose every product is
    -0.0 sums to -0.0, not 0.0. Neither reader can see that: the weight
    adjoint of ``edge_tensor.propagate_values`` adds the dots into a
    ``bincount`` that starts at 0.0, and ``models.link_scores`` takes their
    sigmoid, which is 0.5 at both zeros.
    """
    x_cols, y_cols = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    if not len(x_cols):
        return np.zeros(len(x_idx))
    out = np.take(x_cols[0], x_idx)
    out *= np.take(y_cols[0], y_idx)
    for x_col, y_col in zip(x_cols[1:], y_cols[1:]):
        term = np.take(x_col, x_idx)
        term *= np.take(y_col, y_idx)
        out += term
    return out


def segment_sum(a, seg_ids, num_segments):
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``seg_ids``."""
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    out = bincount_rows(value(a), seg_ids, num_segments)
    return _node(out, (a, lambda g: np.take(g, seg_ids, axis=0)))


def segment_softmax(a, seg_ids, num_segments):
    """Softmax of a 1-d Var within each segment (numerically stabilized)."""
    av = value(a)
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    highs = np.full(num_segments, -np.inf)
    np.maximum.at(highs, seg_ids, av)
    e = np.exp(av - highs[seg_ids])
    denom = np.bincount(seg_ids, weights=e, minlength=num_segments)
    p = e / denom[seg_ids]

    def vjp(g):
        dots = np.bincount(seg_ids, weights=g * p, minlength=num_segments)
        return p * (g - dots[seg_ids])

    return _node(p, (a, vjp))


def row_softmax(a):
    av = value(a)
    shifted = av - av.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return p * (g - (g * p).sum(axis=1, keepdims=True))

    return _node(p, (a, vjp))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a):
    return floor_at(a, 0.0)


LEAKY_SLOPE = 0.2


def leaky_relu(a):
    av = value(a)
    factor = np.where(av > 0, 1.0, LEAKY_SLOPE)
    return _node(av * factor, (a, lambda g: g * factor))


def sigmoid(a):
    x = value(a)
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        return g * s * (1.0 - s)

    return _node(s, (a, vjp))


def log(a):
    av = value(a)
    return _node(np.log(av), (a, lambda g: g / av))


def floor_at(a, c):
    """max(a, c) elementwise; subgradient flows where a > c.

    The adjoint multiplies by the mask in ``g``'s memory order, copying
    the mask when ``g`` is in the other: at 25,908 x 8 on numpy 2.4, a
    C-ordered ``g`` times an F-ordered mask took 1.5 ms, the copy and a
    matching product 0.3 ms.
    """
    av = value(a)
    mask = av > c

    def vjp(g):
        fortran = g.flags.f_contiguous and not g.flags.c_contiguous
        return g * np.asarray(mask, order="F" if fortran else "C")

    return _node(np.where(mask, av, c), (a, vjp))


def rsqrt(a):
    av = value(a)
    r = 1.0 / np.sqrt(av)
    return _node(r, (a, lambda g: g * (-0.5) * r / av))
