"""Sparse n x n x p edge-feature tensors and their mode products.

A tensor lives on a pattern: a :class:`~edgetensor.sparse_graph.SparseAdjacency`
whose entries are its slots (the graph's edges plus the diagonal), with a
(num_slots, p) block of values; ``p`` is read from the values. The pattern
must store every diagonal entry, a check cached on the pattern, so it runs
once per pattern however many tensors (new values, a mode product, a
projection) are built on it. It is symmetric, as every pattern is: that is
decided in :mod:`edgetensor.sparse_graph` alone.

Mode-1/2 products against a sparse matrix are computed only for output
slots on the pattern; everything the full dense product would create
outside it is dropped. The matrix must lie on the tensor's own pattern (a
``with_weights`` copy of it, as attention's is): a product against any
other pattern, a strict sub-pattern included, raises. The pattern owns
the contraction plans, the surviving (output slot, matrix entry, input
slot) triples, which forward and adjoint passes share: one walk per
pattern builds both, and they share their output-slot array (see
``SparseAdjacency.plans``). Plans are looked up on the tensor's pattern,
never on the matrix, so a per-forward copy of the matrix never rebuilds
them.

The forward and the tensor adjoint are one gather-scale-scatter over a
plan: both gather rows through its sorted output slots and add them into
its input slots. The forward reads the matrix transposed, through
``plan.transpose``, which the symmetric pattern makes exact (see
:func:`propagate_values`). A matrix keeps the weights its forward
gathered through each plan it is multiplied over, one float64 per triple
(``SparseAdjacency.product_weights``; 1.2 MB for the two modes of a
2,000-node graph of mean degree 12), so only its first product over a
plan gathers them: Â, and the per-forward copies holding attention or
the learned graph, which both edge layers or both node layers of one
forward read. Only a leaf Var's weights, a parameter's, are gathered on
every call. The tensor adjoint reads the kept array only for plain
symmetric weights, as Â's are; it gathers any other weights per call.

What a product keeps depends on which side is constant:

- constant weights (Â, and a Var computed by an op, as attention's are)
  keep their gathered weights per plan, as above;
- constant (plain) values under traced weights keep their nonzero
  triples: per plan and channel, the positions and output slots of the
  triples whose input entry is nonzero
  (``EdgeFeatureTensor._nonzero_triples``, at most 16 bytes per kept
  triple), so the forward's gather, scale and ``bincount`` run over
  those alone. This is et_gat's first layer on edge channels, whose
  one-hot or binary entries are mostly zero. Each dropped term is
  w * (±0) = ±0, and a ``bincount`` bin starts at +0.0 and never
  becomes -0.0, so adding ±0 never changes it: the output is bit for bit
  the full gather's for finite weights. A channel without zeros keeps
  nothing;
- constant values under constant weights (et_gcn on edge channels) keep
  nothing on the value side: the whole product is a constant, which is
  left to be computed once per graph as a whole;
- traced values under traced weights (recipes and every later layer)
  keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .sparse_graph import SparseAdjacency, _frozen


@dataclass(frozen=True, eq=False)
class EdgeFeatureTensor:
    """Edge features: one length-p vector per entry of ``pattern``.

    ``values`` has shape (num_slots, p); during a traced forward pass it may
    be an autodiff Var instead of a plain array. Plain values are checked
    for finiteness, a Var only for its shape.
    """

    pattern: SparseAdjacency
    values: object

    def __post_init__(self):
        # cached on the pattern: it runs once per pattern
        if not self.pattern.has_self_loops:
            raise ValueError("support must contain every diagonal slot")
        if isinstance(self.values, Var):
            shape = self.values.value.shape
        else:
            values = np.asarray(self.values, dtype=np.float64)
            if not np.all(np.isfinite(values)):
                raise ValueError("tensor values must be finite")
            object.__setattr__(self, "values", values)
            shape = values.shape
        if len(shape) != 2 or shape[0] != self.num_slots:
            raise ValueError(f"values must have shape ({self.num_slots}, p)")

    @classmethod
    def from_support_of(cls, adjacency, values):
        """Tensor on the pattern of ``adjacency`` (which must include the diagonal)."""
        return cls(adjacency, values)

    @property
    def p(self):
        return ad.value(self.values).shape[1]

    @property
    def n(self):
        return self.pattern.n

    @property
    def rows(self):
        return self.pattern.rows

    @property
    def cols(self):
        return self.pattern.cols

    @property
    def num_slots(self):
        return self.pattern.nnz

    @cached_property
    def _kept_triples(self):
        return {}

    def _nonzero_triples(self, plan):
        """Per channel of the plain values, the triples of ``plan`` whose
        input entry is nonzero, built on first use per plan, one channel at
        a time, and kept.

        A channel's entry is None when none of its entries is zero, else
        ``(positions, slots, value)``: the read-only positions in the plan
        of the triples whose input slot (``out_idx``, which the forward
        gathers through) holds a nonzero entry, and their output slots
        (``slot_idx``), 16 bytes per kept triple. ``value`` is the one
        value every nonzero entry of the channel holds, as in a binary
        channel, so the forward scales by it instead of gathering the
        entries; None when they differ. The values are taken as constants:
        a tensor's plain values must not be written after its first product.
        """
        kept = self._kept_triples.get(plan)
        if kept is None:
            kept = [_channel_triples(plan, column) for column in self.values.T]
            self._kept_triples[plan] = kept
        return kept

    def with_values(self, values):
        """Same pattern, new values of any width."""
        return EdgeFeatureTensor(self.pattern, values)

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
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if tensor.ndim != 3:
        raise ValueError("tensor must be 3-way")
    if matrix.ndim != 2 or matrix.shape[1] != tensor.shape[k - 1]:
        raise ValueError("matrix columns must match tensor dimension k")
    subscripts = ("abc,ja->jbc", "abc,jb->ajc", "abc,jc->abj")[k - 1]
    return np.einsum(subscripts, tensor, matrix)


# ---------------------------------------------------------------------------
# masked products


def contraction_plan(mode, tensor, adjacency):
    """Plan of the mode-``mode`` product of ``tensor`` against ``adjacency``.

    Both must lie on one pattern. The plan is read from the tensor's
    pattern, which builds its pair once (``SparseAdjacency.plans``).
    """
    if not tensor.pattern.same_pattern(adjacency):
        raise ValueError("adjacency must lie on the tensor's pattern")
    return tensor.pattern.plans[mode - 1]


def _channel_triples(plan, column):
    """A channel's entry of ``EdgeFeatureTensor._nonzero_triples``."""
    nonzero = column != 0
    count = np.count_nonzero(nonzero)
    if count == column.size:
        return None
    positions = np.flatnonzero(np.take(nonzero, plan.out_idx))
    first = column[np.argmax(nonzero)]
    value = float(first) if count and np.count_nonzero(column == first) == count else None
    return _frozen(positions), _frozen(np.take(plan.slot_idx, positions)), value


def _sum_nonzero(sv, plan, weights, nonzero):
    """``gather_scale_sum(sv, plan.out_idx, weights, plan.slot_idx,
    plan.num_slots)`` over each channel's ``nonzero`` triples only.

    Feature-major, as that kernel is, with the same F-ordered result; a
    channel without kept triples runs over every triple, as it does.
    ``sv`` is read through its strided columns, not a contiguous copy: a
    channel with one nonzero value never reads it.
    """
    out = np.empty((sv.shape[1], plan.num_slots))
    for q, (column, kept) in enumerate(zip(sv.T, nonzero)):
        if kept is None:
            terms = np.take(column, plan.out_idx)
            terms *= weights
            seg_ids = plan.slot_idx
        else:
            # indexing, not np.take, which copies read-only indices first
            positions, seg_ids, value = kept
            terms = weights[positions]
            terms *= (value if value is not None
                      else column[plan.out_idx[positions]])
        out[q] = np.bincount(seg_ids, weights=terms, minlength=plan.num_slots)
    return out.T


def propagate_values(plan, a, s_vals, nonzero=None):
    """Masked sparse product of matrix ``a`` and a raw value block: the
    library's one sparse-product op.

    out[t] sums a * s over the plan triples of output slot t. It runs the
    mode-1/2 products of this module and, over a plan with one triple per
    adjacency entry, the node product A·H of ``layers.sparse_matmul``. An
    autodiff op: traced when ``a.weights`` or ``s_vals`` is a Var.
    Adjoints reuse the same plan: the gradient w.r.t. the tensor is the
    product with transposed matrix roles, restricted to the same support.

    The forward and the tensor adjoint are one gather-scale-scatter over
    the plan, :func:`autodiff.gather_scale_sum` gathering rows through
    the sorted ``out_idx`` and adding them into ``slot_idx``; only the
    weights differ. The forward reads them through ``plan.transpose``:
    the pattern is symmetric, so triple (t, e, u) read backwards is triple
    (u, transpose[e], t), which adds a[transpose[e]] * s[t] into slot u.
    Each output slot still gets the same products in the same order, so
    the result is bit for bit that of gathering through ``slot_idx`` and
    adding into ``out_idx``, for any weights, symmetric or not. No
    (triples x p) block is built. The matrix keeps the forward's gathered
    weights per plan unless they are a leaf Var, and hands the tensor
    adjoint the same array when they are plain and symmetric
    (``SparseAdjacency.product_weights``). Other weights the adjoint
    gathers again instead of keeping them, so the tape holds no
    triples-long array of a per-forward copy. The weight adjoint sums the
    row dot products of :func:`autodiff.row_dots` per adjacency entry with
    one ``bincount``.

    ``nonzero``, for plain values, is their tensor's
    ``_nonzero_triples(plan)``: the forward then runs over the triples that
    read a nonzero entry only, bit for bit equal for finite weights (see
    the module docstring). The adjoints do not read it.
    """
    av, sv = ad.value(a.weights), ad.value(s_vals)
    forward, adjoint = a.product_weights(plan)
    if nonzero is None:
        out = ad.gather_scale_sum(sv, plan.out_idx, forward, plan.slot_idx,
                                  plan.num_slots)
    else:
        out = _sum_nonzero(sv, plan, forward, nonzero)

    def vjp_a(g):
        return np.bincount(plan.adj_idx,
                           weights=ad.row_dots(g, plan.out_idx, sv, plan.slot_idx),
                           minlength=plan.num_adj)

    def vjp_s(g):
        weights = adjoint if adjoint is not None else np.take(av, plan.adj_idx)
        return ad.gather_scale_sum(g, plan.out_idx, weights, plan.slot_idx,
                                   plan.num_slots)

    return ad._node(out, (a.weights, vjp_a), (s_vals, vjp_s))


def _propagate(s, a, mode):
    plan = contraction_plan(mode, s, a)
    # plain values under traced weights keep their nonzero triples
    nonzero = (s._nonzero_triples(plan) if isinstance(a.weights, Var)
               and not isinstance(s.values, Var) else None)
    return s.with_values(propagate_values(plan, a, s.values, nonzero))


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
    if s1.p != s2.p or not s1.pattern.same_pattern(s2.pattern):
        raise ValueError("axpy requires identical supports and feature dims")
    return s1.with_values(ad.add(s1.values, ad.mul(s2.values, epsilon)))
