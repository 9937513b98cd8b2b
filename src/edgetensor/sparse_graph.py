"""Sparse symmetric adjacency matrices and degree renormalization.

Entries are stored in canonical (row, col) sorted order, so iteration and
serialization are deterministic. All weights are float64. Matrices compare
and hash by identity.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .edge_tensor import EdgeSupport


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """An n x n sparse real matrix stored as sorted COO triplets.

    Any weights on a pattern: the raw adjacency A, its renormalized form,
    attention weights, the learned graph. The constructor takes plain
    arrays; :meth:`with_weights` copies the validated pattern (its cached
    keys, indptr, transpose permutation, support and ``plans`` are shared)
    with new weights, which may be an autodiff Var. Immutable apart from
    ``plans``: contraction plans keyed by (mode, EdgeSupport), filled by
    ``edge_tensor.contraction_plan``.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: object  # plain float64 array, or a Var after with_weights
    symmetric: bool = True
    plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        weights = np.asarray(self.weights, dtype=np.float64)
        if rows.shape != cols.shape or rows.shape != weights.shape:
            raise ValueError("rows, cols and weights must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValueError("col index out of range")
        keys = rows * self.n + cols
        if keys.size and np.any(np.diff(keys) <= 0):
            order = np.argsort(keys, kind="stable")
            if np.any(np.diff(keys[order]) == 0):
                raise ValueError("duplicate (row, col) entry")
            rows, cols, weights = rows[order], cols[order], weights[order]
        for name, arr in (("rows", rows), ("cols", cols), ("weights", weights)):
            object.__setattr__(self, name, arr)
        self._check_weights()

    def _check_weights(self):
        """Shape for a Var; shape, finiteness and symmetry for plain weights."""
        plain = not isinstance(self.weights, ad.Var)
        if plain:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        w = ad.value(self.weights)
        if w.shape != self.rows.shape:
            raise ValueError("rows, cols and weights must have equal length")
        if plain and not np.all(np.isfinite(w)):
            raise ValueError("adjacency weights must be finite")
        if plain and self.symmetric and not np.array_equal(w, w[self.transpose_permutation]):
            raise ValueError("symmetric flag set but entries are not symmetric")

    @classmethod
    def from_undirected_edges(cls, n, pairs, weights=None):
        """Build a symmetric matrix from undirected (i, j) pairs, i != j."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if weights is None:
            weights = np.ones(len(pairs))
        weights = np.asarray(weights, dtype=np.float64)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        return cls(n, rows, cols, np.concatenate([weights, weights]), symmetric=True)

    @property
    def nnz(self):
        return self.rows.size

    @cached_property
    def keys(self):
        """Encoded entry positions row*n+col, strictly increasing."""
        return self.rows * self.n + self.cols

    @cached_property
    def indptr(self):
        """CSR row pointer over the sorted entries."""
        counts = np.bincount(self.rows, minlength=self.n)
        ptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(counts, out=ptr[1:])
        return ptr

    @cached_property
    def transpose_permutation(self):
        """Permutation p with (rows, cols)[p[k]] == (cols[k], rows[k])."""
        tkeys = self.cols * self.n + self.rows
        perm = np.searchsorted(self.keys, tkeys)
        if np.any(perm >= self.nnz) or not np.array_equal(self.keys[perm], tkeys):
            raise ValueError("entry pattern is not symmetric")
        return perm

    @cached_property
    def support(self):
        """This matrix's pattern as an edge-tensor support, built once.

        Shares this matrix's index arrays. Raises ValueError unless the
        pattern is symmetric and contains every diagonal entry (a
        renormalized adjacency always does).
        """
        return EdgeSupport(self)

    def with_weights(self, weights, symmetric=None):
        """Same validated pattern and plans, new (plain or Var) weights."""
        twin = copy.copy(self)
        object.__setattr__(twin, "weights", weights)
        object.__setattr__(twin, "symmetric",
                           self.symmetric if symmetric is None else symmetric)
        twin._check_weights()
        return twin

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = ad.value(self.weights)
        return dense


@dataclass(frozen=True)
class LabeledGraph:
    """A graph with node features, class labels and train/val/test splits.

    ``labels[i] == -1`` marks an unlabeled node. Split index sets are
    disjoint; any of them may be empty.
    """

    adjacency: SparseAdjacency
    node_features: np.ndarray
    labels: np.ndarray
    splits: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "node_features",
                           np.asarray(self.node_features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.intp))
        n = self.adjacency.n
        if self.node_features.shape[0] != n:
            raise ValueError("feature row count must equal node count")
        if self.labels.shape != (n,):
            raise ValueError("labels must be a length-n vector")
        splits = {k: np.asarray(v, dtype=np.intp) for k, v in self.splits.items()}
        object.__setattr__(self, "splits", splits)
        seen = set()
        for name, idx in splits.items():
            s = set(idx.tolist())
            if s & seen:
                raise ValueError(f"split {name!r} overlaps another split")
            seen |= s

    @property
    def n(self):
        return self.adjacency.n

    @property
    def num_classes(self):
        labeled = self.labels[self.labels >= 0]
        return int(labeled.max()) + 1 if labeled.size else 0


def renormalize(adjacency):
    """Symmetric degree renormalization with self-loops.

    Returns D^{-1/2} (A + I) D^{-1/2} where D holds the row sums of A + I.
    Existing self-loops in A are summed with the injected identity. The
    output support is support(A) union the diagonal.
    """
    if not adjacency.symmetric:
        raise ValueError("renormalize requires a symmetric adjacency")
    if isinstance(adjacency.weights, ad.Var):
        raise ValueError("renormalize needs plain weights; use "
                         "renormalize_weights on a fixed pattern for a Var")
    if np.any(adjacency.weights < 0):
        raise ValueError("adjacency weights must be nonnegative")
    n = adjacency.n
    diag = np.arange(n) * (n + 1)
    ukeys, inverse = np.unique(np.concatenate([adjacency.keys, diag]),
                               return_inverse=True)
    # A on pattern(A) union the diagonal; renormalize_weights adds I
    weights = np.bincount(inverse[:adjacency.nnz], weights=adjacency.weights,
                          minlength=ukeys.size)
    rows, cols = ukeys // n, ukeys % n
    return SparseAdjacency(n, rows, cols,
                           renormalize_weights(rows, cols, n, weights))


def renormalize_weights(rows, cols, n, weights):
    """Differentiable renormalization of entry values on a fixed pattern.

    The pattern must already contain every diagonal slot; the identity is
    added to the diagonal values before degree normalization. ``weights``
    may be a Var (gradients flow through) or a plain array.
    """
    diag = np.where(rows == cols, 1.0, 0.0)
    w_bar = ad.add(weights, diag)
    deg = ad.segment_sum(w_bar, rows, n)
    inv_sqrt = ad.rsqrt(deg)
    return ad.mul(w_bar, ad.mul(ad.gather_rows(inv_sqrt, rows),
                                ad.gather_rows(inv_sqrt, cols)))
