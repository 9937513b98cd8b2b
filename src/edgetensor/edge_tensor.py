"""Sparse n x n x p edge-feature tensors and their mode products.

The tensor's first two modes are restricted to a fixed symmetric support
(the graph's edges plus the diagonal). Mode-1/2 products against a sparse
matrix are computed only for output slots inside the support; everything
the full dense product would create outside it is dropped. A precomputed
contraction plan lists the surviving (output slot, matrix entry, input
slot) triples so forward and adjoint passes share one kernel.

Building a plan is a masked sparse matrix product. For each adjacency
entry (h, i) the builder walks the shorter of support rows h and i and
looks the matching slot up in the other, so it tests
sum_e min(deg h, deg i) candidates and holds O(candidates) memory. The
mode-2 plan is the mode-1 plan relabeled through the support's transpose
permutation. Both are sorted by (output slot, adjacency entry): that
fixes the order in which each output's terms are summed, so results are
bitwise independent of how the triples were enumerated.

The support is an :class:`EdgeSupport`: the pattern of a
:class:`~edgetensor.sparse_graph.SparseAdjacency`, which validated it, plus
a diagonal check. A tensor is a support and a (num_slots, p) block of
values; ``p`` is read from the values. Every tensor derived from another
(new values, a mode product, a projection) shares its support object, so
only the values are checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var


@dataclass(frozen=True, eq=False, init=False)
class EdgeSupport:
    """The slot layout of an edge tensor: an adjacency's validated pattern.

    ``EdgeSupport(adjacency)`` shares the adjacency's ``rows``, ``cols``,
    ``keys`` (slot (i, j) as i * n + j, strictly increasing) and
    ``transpose_permutation`` (the slot of each slot's mirror; raises
    unless the pattern is symmetric), and checks only that every diagonal
    slot (i, i) is present. It keeps no reference to the adjacency, whose
    ``plans`` are keyed by support. ``eq=False``: supports compare and
    hash by identity, so tensors and plan caches share one object.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    keys: np.ndarray = field(repr=False)
    transpose_permutation: np.ndarray = field(repr=False)

    def __init__(self, adjacency):
        # the pattern has no duplicate entries, so n diagonal entries are all of them
        if np.count_nonzero(adjacency.rows == adjacency.cols) != adjacency.n:
            raise ValueError("support must contain every diagonal slot")
        for name in ("n", "rows", "cols", "keys", "transpose_permutation"):
            object.__setattr__(self, name, getattr(adjacency, name))

    @property
    def num_slots(self):
        return self.rows.size


@dataclass(frozen=True, eq=False)
class EdgeFeatureTensor:
    """Edge features: one length-p vector per slot of an :class:`EdgeSupport`.

    ``values`` has shape (num_slots, p); during a traced forward pass it may
    be an autodiff Var instead of a plain array. Plain values are checked
    for finiteness, a Var only for its shape.
    """

    support: EdgeSupport
    values: object

    def __post_init__(self):
        if isinstance(self.values, Var):
            shape = self.values.value.shape
        else:
            values = np.asarray(self.values, dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise ValueError("tensor values must be finite")
            object.__setattr__(self, "values", values)
            shape = values.shape
        if len(shape) != 2 or shape[0] != self.support.num_slots:
            raise ValueError(f"values must have shape ({self.support.num_slots}, p)")

    @classmethod
    def from_support_of(cls, adjacency, values):
        """Tensor on the support of ``adjacency`` (which must include the diagonal)."""
        return cls(adjacency.support, values)

    @property
    def p(self):
        return ad.value(self.values).shape[1]

    @property
    def n(self):
        return self.support.n

    @property
    def rows(self):
        return self.support.rows

    @property
    def cols(self):
        return self.support.cols

    @property
    def num_slots(self):
        return self.support.num_slots

    def with_values(self, values):
        """Same support, new values of any width."""
        return EdgeFeatureTensor(self.support, values)

    def to_dense(self):
        dense = np.zeros((self.n, self.n, self.p))
        dense[self.rows, self.cols] = ad.value(self.values)
        return dense


# ---------------------------------------------------------------------------
# dense oracle


def mode_k_product_dense(tensor, matrix, k):
    """Dense mode-k product of a 3-way tensor against a matrix.

    (X x_k A)[..., j, ...] = sum_i X[..., i, ...] A[j, i], contracting the
    k-th index (k in {1, 2, 3}). This is the reference for every sparse
    product in this module.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError("tensor must be 3-way")
    if matrix.ndim != 2 or matrix.shape[1] != tensor.shape[k - 1]:
        raise ValueError("matrix columns must match tensor dimension k")
    if k == 1:
        return np.einsum("abc,ja->jbc", tensor, matrix)
    if k == 2:
        return np.einsum("abc,jb->ajc", tensor, matrix)
    if k == 3:
        return np.einsum("abc,jc->abj", tensor, matrix)
    raise ValueError("k must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# contraction plans


@dataclass(frozen=True)
class ContractionPlan:
    """Triples (output slot, adjacency entry, input slot) of a masked product."""

    out_idx: np.ndarray
    adj_idx: np.ndarray
    slot_idx: np.ndarray
    num_slots: int
    num_adj: int


def _build_plan(mode, support, adjacency):
    """Enumerate surviving contraction triples for mode 1 or 2.

    Mode 1: out(h, j) = sum_i a(h, i) * s(i, j); a triple survives when
    (h, i) is a stored adjacency entry and (h, j), (i, j) are stored
    slots. For each entry the j of the shorter of support rows h and i
    are walked and the other slot is looked up in ``support.keys``: the
    cost is sum_e min(deg h, deg i) candidates over entries e = (h, i).
    Mode 2, out(i, h) = sum_j a(h, j) * s(i, j), is mode 1 on mirrored
    slots: the support is symmetric, so its triples are the mode-1
    triples relabeled through ``support.transpose_permutation``. Either
    way the triples are sorted by (output slot, adjacency entry), the
    order each output's segment sum adds its terms in, so results do not
    depend on how the triples were found. The adjacency's entries must
    lie inside the support.
    """
    n, keys = support.n, support.keys
    if adjacency.n != n:
        raise ValueError("tensor and adjacency node counts differ")
    pos = np.searchsorted(keys, adjacency.keys)
    if not np.array_equal(keys[np.minimum(pos, keys.size - 1)], adjacency.keys):
        raise ValueError("adjacency support must be contained in tensor support")
    row_ptr = np.searchsorted(support.rows, np.arange(n + 1))
    deg = np.diff(row_ptr)
    h, i = adjacency.rows, adjacency.cols
    walk_h = deg[h] <= deg[i]
    walked = np.where(walk_h, h, i)
    other = np.where(walk_h, i, h)
    count = deg[walked]
    starts = np.zeros(count.size, dtype=np.intp)
    np.cumsum(count[:-1], out=starts[1:])
    adj_idx = np.repeat(np.arange(adjacency.nnz), count)
    # ragged ranges: the walked row's slot indices for each entry
    walked_slot = (np.arange(adj_idx.size) - np.repeat(starts, count)
                   + np.repeat(row_ptr[walked], count))
    looked = other[adj_idx] * n + support.cols[walked_slot]
    pos = np.searchsorted(keys, looked)
    pos[pos >= keys.size] = 0
    hit = keys[pos] == looked
    adj_idx, walked_slot, pos = adj_idx[hit], walked_slot[hit], pos[hit]
    walk_h = walk_h[adj_idx]
    out_idx = np.where(walk_h, walked_slot, pos)
    slot_idx = np.where(walk_h, pos, walked_slot)
    if mode != 1:
        perm = support.transpose_permutation
        out_idx, slot_idx = perm[out_idx], perm[slot_idx]
    order = np.argsort(out_idx * adjacency.nnz + adj_idx)
    return ContractionPlan(out_idx[order], adj_idx[order], slot_idx[order],
                           support.num_slots, adjacency.nnz)


def contraction_plan(mode, tensor, adjacency):
    """Plan of ``tensor``'s support against ``adjacency``.

    Built (and the support pair checked) once, then cached on the adjacency
    under ``(mode, support)``; supports hash by identity, and every
    ``with_weights`` copy of the adjacency shares the cache.
    """
    key = (mode, tensor.support)
    plan = adjacency.plans.get(key)
    if plan is None:
        plan = adjacency.plans[key] = _build_plan(mode, tensor.support, adjacency)
    return plan


def propagate_values(plan, a_vals, s_vals):
    """Masked sparse product on raw value blocks: the library's one
    sparse-product op.

    out[t] sums a * s over the plan triples of output slot t. It runs the
    mode-1/2 products of this module and, over a plan with one triple per
    adjacency entry, the node product A·H of ``layers.sparse_matmul``. An
    autodiff op: traced when either block is a Var. Adjoints reuse the
    same plan: the gradient w.r.t. the tensor is the product with
    transposed matrix roles, restricted to the same support.

    The forward and the tensor adjoint run through
    :func:`autodiff.gather_scale_sum`, so no (triples x p) block is built.
    The tensor adjoint gathers the weights again instead of keeping them,
    so the tape holds no triples-long array. The weight adjoint sums the
    row dot products of :func:`autodiff.row_dots` per adjacency entry with
    one ``bincount``.
    """
    av, sv = ad.value(a_vals), ad.value(s_vals)
    out = ad.gather_scale_sum(sv, plan.slot_idx, np.take(av, plan.adj_idx),
                              plan.out_idx, plan.num_slots)

    def vjp_a(g):
        return np.bincount(plan.adj_idx,
                           weights=ad.row_dots(g, plan.out_idx, sv, plan.slot_idx),
                           minlength=plan.num_adj)

    def vjp_s(g):
        return ad.gather_scale_sum(g, plan.out_idx, np.take(av, plan.adj_idx),
                                   plan.slot_idx, plan.num_slots)

    return ad._node(out, (a_vals, vjp_a), (s_vals, vjp_s))


# ---------------------------------------------------------------------------
# public sparse operations


def _propagate(s, a, mode):
    return s.with_values(propagate_values(contraction_plan(mode, s, a),
                                          a.weights, s.values))


def propagate_mode1(s, a):
    """Masked mode-1 product: slot (h, j) gets sum_i a[h, i] * s[(i, j)].

    ``a.weights`` may be a Var (traced attention values on a fixed pattern).
    """
    return _propagate(s, a, 1)


def propagate_mode2(s, a):
    """Masked mode-2 product: slot (i, h) gets sum_j a[h, j] * s[(i, j)]."""
    return _propagate(s, a, 2)


def project_mode3(s, w):
    """Per-slot feature projection: each slot vector v becomes w^T v."""
    if ad.value(w).shape[0] != s.p:
        raise ValueError("projection rows must match tensor feature dimension")
    return s.with_values(ad.matmul(s.values, w))


def axpy(s1, s2, epsilon):
    """Slotwise s1 + epsilon * s2 on identical supports."""
    same = s1.support is s2.support or np.array_equal(s1.support.keys,
                                                      s2.support.keys)
    if s1.p != s2.p or not same:
        raise ValueError("axpy requires identical supports and feature dims")
    return s1.with_values(ad.add(s1.values, ad.scale(s2.values, epsilon)))
