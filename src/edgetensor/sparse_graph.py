"""Sparse symmetric adjacency matrices, their contraction plans and
degree renormalization.

Entries are stored in canonical (row, col) sorted order, so iteration and
serialization are deterministic. A matrix has at most 3,037,000,499 nodes,
so that its entry keys row*n+col fit in int64. All weights are float64.
Matrices compare and hash by identity.

Symmetry is decided here alone. The constructor refuses an asymmetric
pattern or asymmetric weights, so every pattern is symmetric; a
``with_weights`` copy's weights (attention, the learned graph) need not
be. :func:`renormalize`, the one function that needs symmetric weights
and can be given a copy, checks them itself.

A matrix's pattern is also the slot layout of the edge tensors built on it
(see :mod:`edgetensor.edge_tensor`), and it owns their contraction plans:
the pair is built on first use by one walk over the slots (x, y) with
x <= y, and cached. Every ``with_weights`` copy made after that shares it.
The walk finds the entries that close its wedges by a hashed lookup of
their keys: a table of 4-8 int32 slots per entry, built once per walk,
resolves a key by one gather and one compare, and only the keys that land
on a slot two entries share are binary-searched, so the plans are exactly
those of a binary search. A pattern whose pair could need more than
``PLAN_BUDGET_BYTES`` (1 GiB) is refused with a ``ValueError`` before the
walk allocates its candidates or its table. The bound is 64 bytes per
candidate, several times the pair a sparse graph builds, so refusal
starts at 2**24 (16.8M) candidates: about n = 197k nodes at mean degree
12 (85 candidates a node), whose pair would be ~0.23 GB.

Beside the plan pair a pattern keeps its node plan (``node_plan``, the
A·H plan of ``layers.sparse_matmul``: one index array of nnz entries),
built at the latest by its first ``with_weights`` copy, so every copy
shares one; and per row width, built on first use, the flat segment ids
of the adjoint of gathering node rows to its entries' rows or columns
(``flat_ids``: nnz x width ids per end and width). These depend on the
pattern alone, so ``with_weights`` copies made after share them. On a
2,000-node graph of mean degree 12 (25,908 entries with the diagonal)
the node plan is 0.2 MB, and a recipe's ids at width 8 are 1.7 MB per
end.

A matrix also owns what depends on its weights. ``renormalized`` (plain
weights only) is computed on first read and kept, and with it the plans
built on it, so every run on one graph shares one renormalized matrix and
one plan pair. ``product_weights`` keeps, per plan a product runs over,
the weights the forward gathers through it (one float64 per triple: 1.4
MB for both modes and A·H on the graph above), for every matrix whose
weights cannot change under it: plain weights, and a Var computed by an
op (attention, the learned graph), whose value no later op writes. A leaf
Var keeps nothing, since an optimizer or a finite difference updates a
parameter's value in place. ``with_weights`` copies never inherit these.
A matrix pickles without its cached properties, which rebuild on demand.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import autodiff as ad

# bytes one pattern's plan pair may need (see _wedges): an n=20k graph of
# mean degree 12 bounds its pair at ~0.11 GB, a 400-node clique at 2.05 GB;
# sparse graphs of mean degree 12 are refused from about n = 197k. The
# walk's lookup table (see _lookup), 16-32 bytes per entry, is built after
# the check and not counted: 4.2 MB on that n=20k graph
PLAN_BUDGET_BYTES = 2 ** 30

# the most nodes a pattern may have: its keys row*n+col reach n*n - 1,
# which must fit in int64 for the canonical order and the lookup's hash
_MAX_NODES = 3_037_000_499  # math.isqrt(2**63 - 1)

# 2**64 over the golden ratio, rounded to odd: the multiplier of _home
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True, eq=False)
class ContractionPlan:
    """Triples (output slot, adjacency entry, input slot) of a masked product.

    Plans compare and hash by identity, so a matrix can keep per plan the
    weights a product over it reads (``SparseAdjacency.product_weights``).

    ``transpose`` is the adjacency pattern's ``transpose_permutation``, the
    cached array itself, not a copy: entry ``transpose[e]`` is entry ``e``
    transposed. The pattern is symmetric, so (input slot,
    ``transpose[entry]``, output slot) is a triple of the plan whenever
    (output slot, entry, input slot) is, and the forward reads the
    triples that way round (see ``edge_tensor.propagate_values``).
    """

    out_idx: np.ndarray
    adj_idx: np.ndarray
    slot_idx: np.ndarray
    transpose: np.ndarray
    num_slots: int
    num_adj: int


@dataclass(frozen=True, eq=False)
class SparseAdjacency:
    """An n x n sparse real matrix stored as sorted COO triplets.

    Any weights on a pattern: the raw adjacency A, its renormalized form,
    attention weights, the learned graph. The constructor takes plain
    arrays of an undirected graph; :meth:`with_weights` copies the
    validated pattern (the cached pattern properties computed so far are
    shared) with new weights, which may be asymmetric or an autodiff Var.
    Immutable.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: object  # plain float64 array, or a Var after with_weights

    def __post_init__(self):
        if (isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral)
                or self.n < 0):
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n > _MAX_NODES:
            raise ValueError(f"n = {self.n:,} is over {_MAX_NODES:,}, the most "
                             f"nodes whose row*n+col keys fit in int64")
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
        if not np.array_equal(weights, weights[self.transpose_permutation]):
            raise ValueError("adjacency weights are not symmetric")

    def _check_weights(self):
        """Shape for a Var; shape and finiteness for plain weights."""
        plain = not isinstance(self.weights, ad.Var)
        if plain:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        w = ad.value(self.weights)
        if w.shape != self.rows.shape:
            raise ValueError("rows, cols and weights must have equal length")
        if plain and not np.all(np.isfinite(w)):
            raise ValueError("adjacency weights must be finite")

    @classmethod
    def from_undirected_edges(cls, n, pairs, weights=None):
        """Build a symmetric matrix from undirected (i, j) pairs, i != j."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            i = pairs[loops][0, 0]
            raise ValueError(f"pair ({i}, {i}) joins a node to itself; an "
                             f"undirected edge (i, j) needs i != j")
        if weights is None:
            weights = np.ones(len(pairs))
        weights = np.asarray(weights, dtype=np.float64)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        return cls(n, rows, cols, np.concatenate([weights, weights]))

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
        return _offsets(np.bincount(self.rows, minlength=self.n))

    @cached_property
    def transpose_permutation(self):
        """Permutation p with (rows, cols)[p[k]] == (cols[k], rows[k])."""
        tkeys = self.cols * self.n + self.rows
        # keys are unique and sorted: the k-th smallest transposed key is
        # keys[k] exactly when the pattern is symmetric
        perm = np.empty(self.nnz, dtype=np.intp)
        perm[np.argsort(tkeys)] = np.arange(self.nnz)
        if not np.array_equal(self.keys[perm], tkeys):
            raise ValueError("entry pattern is not symmetric")
        return perm

    @cached_property
    def has_self_loops(self):
        """Whether every diagonal entry (i, i) is stored."""
        # entries are unique, so n diagonal entries are all of them
        return np.count_nonzero(self.rows == self.cols) == self.n

    def same_pattern(self, other):
        """Whether ``other`` stores exactly this matrix's entries.

        True at once for a ``with_weights`` copy, which shares ``keys``.
        """
        return self.n == other.n and (self.keys is other.keys
                                      or np.array_equal(self.keys, other.keys))

    @cached_property
    def plans(self):
        """(mode-1, mode-2) plans of an edge tensor on this pattern against
        a matrix on it, built on first use.

        One walk (``_plan_walk``) over the symmetric pattern finds each
        slot's wedges once and serves both modes: mode 2's ``out_idx`` is
        mode 1's, and its ``slot_idx`` is mode 1's ``adj_idx``. Raises
        ``ValueError`` if the pair could need more than
        ``PLAN_BUDGET_BYTES``.
        """
        return _plan_walk(self)

    @cached_property
    def node_plan(self):
        """Plan of the node product A·H: one triple (row, entry, col) per
        entry, in entry order. Built on first use or by the first
        :meth:`with_weights` copy, whichever comes first, so a matrix and
        all its copies share one. Its ``transpose`` is
        ``transpose_permutation``."""
        return ContractionPlan(self.rows, np.arange(self.nnz), self.cols,
                               self.transpose_permutation, self.n, self.nnz)

    @cached_property
    def _flat_ids(self):
        return {}

    def flat_ids(self, end, width):
        """``autodiff.flat_ids(ids, width)`` of this pattern's ``rows`` or
        ``cols`` (``end``), built on first use per end and width and kept.

        The adjoint of gathering (n x width) node rows to every entry's
        row or column node sums through them (``autodiff.gather_rows``).
        """
        key = (end, width)
        if key not in self._flat_ids:
            ids = ad.flat_ids(getattr(self, end), width)
            self._flat_ids[key] = _frozen(ids)
        return self._flat_ids[key]

    @cached_property
    def _product_weights(self):
        w = self.weights
        # a leaf Var is a parameter: its value is updated in place
        return None if isinstance(w, ad.Var) and not w._parents else {}

    @cached_property
    def _plain_symmetric(self):
        w = self.weights
        return not isinstance(w, ad.Var) and np.array_equal(
            w, np.take(w, self.transpose_permutation))

    def product_weights(self, plan):
        """``(forward, adjoint)``: the weight per triple that a product over
        ``plan`` reads, ``weights[transpose][adj_idx]`` in the forward and
        ``weights[adj_idx]`` in the tensor adjoint.

        The forward's array is gathered on first use per plan and kept,
        unless the weights are a leaf Var, which an optimizer updates in
        place and so is gathered per call. Plain weights and an op's Var
        result cannot change under the matrix. ``adjoint`` is the same
        array for plain symmetric weights, as the constructor requires
        them, since reading them transposed changes nothing; for any other
        weights it is None, and the adjoint gathers them per call. So the
        tape, which holds the adjoint's weights until the backward, holds
        no array kept for a per-forward copy.
        """
        kept = self._product_weights
        forward = None if kept is None else kept.get(plan)
        if forward is None:
            w = ad.value(self.weights)
            forward = np.take(np.take(w, plan.transpose), plan.adj_idx)
            if kept is not None:
                kept[plan] = _frozen(forward)
        return forward, forward if self._plain_symmetric else None

    @cached_property
    def renormalized(self):
        """``renormalize(self)``, computed on first read and kept.

        The result caches its own plan pair, so every run on this matrix
        reuses both. Like ``product_weights``, and unlike the other cached
        properties, this one depends on the weights, not only on the
        pattern: :meth:`with_weights` drops them from the copy.
        :func:`renormalize`'s checks run on every read until one succeeds,
        since an exception is not cached.
        """
        return renormalize(self)

    def with_weights(self, weights):
        """Same validated pattern, new (plain or Var) weights.

        The weights are checked for shape and, when plain, finiteness;
        not for symmetry, which only :func:`renormalize` needs and checks.
        The copy shares the pattern's cached properties computed so far,
        and ``node_plan``, which is built here if it is not yet; not
        ``renormalized`` and the kept ``product_weights``, which depend on
        the weights.
        """
        self.node_plan  # built once, so that every copy shares it
        # not copy.copy: it copies the state __getstate__ returns, which
        # leaves out the caches a twin must share
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        for name in ("renormalized", "_product_weights", "_plain_symmetric"):
            twin.__dict__.pop(name, None)
        object.__setattr__(twin, "weights", weights)
        twin._check_weights()
        return twin

    def __getstate__(self):
        """The matrix without its cached properties, which rebuild on demand,
        so a used matrix pickles to the bytes of a fresh one."""
        return {name: v for name, v in self.__dict__.items()
                if not isinstance(getattr(type(self), name, None), cached_property)}

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = ad.value(self.weights)
        return dense


def _frozen(array):
    """``array``, made read-only: a kept array is handed to every caller."""
    array.setflags(write=False)
    return array


def _offsets(counts):
    """Start of each segment of ``counts``, then the total."""
    ptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _plan_walk(pattern):
    """(mode-1, mode-2) plans of a symmetric pattern, from one walk.

    A triple closes a wedge x - c - y: output slot (x, y) and the stored
    entries P = (x, c) and Q = (y, c). Mode 1, out(x, y) = sum_c a(x, c) *
    s(c, y), reads entry P and slot (c, y), the mirror of Q; mode 2,
    out(x, y) = sum_c a(y, c) * s(x, c), reads entry Q and slot P. So the
    pair is ``(out, P, perm[Q])`` and ``(out, Q, P)``, sharing ``out`` and P.

    :func:`_wedges` walks only the slots with x <= y; the mirror slot
    (y, x) closes the same wedges with P and Q swapped. A slot's hits come
    in rising c, which orders both P and Q, so each segment is already in
    (output slot, entry) order for both modes: nothing is sorted. The
    wedges' entries are found by a hashed lookup (:func:`_lookup`) whose
    result is a binary search's, so the plans are a binary search's too.
    """
    nnz, perm = pattern.nnz, pattern.transpose_permutation
    upper = np.flatnonzero(pattern.rows <= pattern.cols)
    hits, p_hit, q_hit = _wedges(pattern, upper)
    mirror = perm[upper]
    seg = np.zeros(nnz, dtype=np.intp)
    seg[upper] = seg[mirror] = hits
    offsets = _offsets(seg)
    out = np.repeat(np.arange(nnz), seg)
    P, Q = np.empty_like(out), np.empty_like(out)
    # each hit's place in its slot's segment; the mirror's takes it swapped
    rank = np.arange(p_hit.size) - np.repeat(_offsets(hits)[:-1], hits)
    for slots, p, q in ((upper, p_hit, q_hit), (mirror, q_hit, p_hit)):
        dest = np.repeat(offsets[slots], hits)
        dest += rank
        P[dest], Q[dest] = p, q
    return (ContractionPlan(out, P, perm[Q], perm, nnz, nnz),
            ContractionPlan(out, Q, P, perm, nnz, nnz))


def _wedges(pattern, upper):
    """Common neighbours c of the ends of each slot ``upper[k]`` = (x, y).

    The c of the shorter of rows x and y are walked and the other row's
    entry is found by :func:`_lookup` in ``pattern.keys``, so a walk tests
    sum min(deg x, deg y) candidates. The walked entries are dropped
    while the candidates are looked up and rebuilt for the hits alone.
    Returns the hits per slot and, per hit in (slot, c) order, the entries
    P = (x, c) and Q = (y, c). A pattern whose plan pair could exceed
    ``PLAN_BUDGET_BYTES`` is refused before any candidate or lookup table
    is built.
    """
    n, ptr = pattern.n, pattern.indptr
    deg = np.diff(ptr)
    x, y = pattern.rows[upper], pattern.cols[upper]
    walk_x = deg[x] <= deg[y]
    walked = np.where(walk_x, x, y)
    count = deg[walked]
    candidates = int(count.sum())
    # a candidate is at most two triples, its slot's and the mirror's, and
    # a triple is one element of each of the pair's four index arrays
    need = candidates * 2 * 4 * np.dtype(np.intp).itemsize
    if need > PLAN_BUDGET_BYTES:
        raise ValueError(
            f"the plan pair of this pattern may need {need:,} bytes "
            f"({candidates:,} candidates), over its budget of "
            f"{PLAN_BUDGET_BYTES:,} bytes")
    starts = _offsets(count)
    # ragged ranges: candidate k of a slot walks slot index first + k
    first = ptr[walked] - starts[:-1]
    walked_slot = np.repeat(first, count)
    walked_slot += np.arange(candidates)
    looked = np.repeat(np.where(walk_x, y, x) * n, count)
    looked += pattern.cols[walked_slot]
    del walked_slot  # rebuilt for the hits alone, so the lookup holds less
    found, pos = _lookup(pattern.keys, looked)
    hits = np.diff(np.searchsorted(found, starts))
    walked_slot = np.repeat(first, hits)
    walked_slot += found
    walk_x = np.repeat(walk_x, hits)
    return (hits, np.where(walk_x, walked_slot, pos),
            np.where(walk_x, pos, walked_slot))


def _home(keys, bits):
    """Home slot of each key in a table of ``2**bits`` slots: the top
    ``bits`` bits of the key's product with the Fibonacci constant."""
    slot = keys.view(np.uint64) * _FIBONACCI
    slot >>= np.uint64(64 - bits)
    return slot.view(np.intp)


def _lookup(keys, looked):
    """``(found, pos)``: the indices of the ``looked`` keys that occur in the
    strictly increasing ``keys``, rising, and where each occurs.

    Each key owns one slot of a table of 4-8 slots per key (see
    :func:`_table`), so a needle is resolved by one gather from the table
    and one compare against ``keys``. Only the needles that land on a slot
    two or more keys share are searched for in ``keys``, so the result is
    exactly that of a binary search. ``keys`` may be empty only if
    ``looked`` is. The plan budget keeps a walked pattern's nnz under
    2**26, so an int32 table holds every entry's index.
    """
    nnz = keys.size
    bits = (4 * nnz - 1).bit_length()
    pos = _home(looked, bits)
    pos[...] = _table(keys, bits)[pos]  # the table is freed before the compare
    shared = np.flatnonzero(pos < 0)
    pos[shared] = np.minimum(np.searchsorted(keys, looked[shared]), nnz - 1)
    found = np.flatnonzero(keys[pos] == looked)
    return found, pos[found]


def _table(keys, bits):
    """int32 table of ``2**bits`` slots: each key's index at its home slot,
    -1 where two or more keys share one, and 0 where none has it home,
    which a needle that lands there cannot equal."""
    table = np.zeros(1 << bits, dtype=np.int32)
    home = _home(keys, bits)
    entry = np.arange(keys.size, dtype=np.int32)
    table[home] = entry
    table[home[table[home] != entry]] = -1
    return table


def _refuse_non_finite(block, what, row):
    """Raise a ValueError naming ``what`` and its first non-finite row."""
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        raise ValueError(f"{what} must be finite; {row} {bad[0][0]} holds "
                         f"{block[tuple(bad[0])]}")


def check_splits(splits, n):
    """``splits`` with each index set as an intp array, once it is checked.

    Each set must be a 1-d array of integer node ids in ``range(n)``, none
    repeated; an empty set may have any dtype. A bool mask, a float array,
    a negative id (which numpy would read from the end), an id of n or
    more and a repeated id (counted twice in a loss) are refused with a
    ``ValueError`` that names the split.
    """
    checked = {}
    for name, idx in splits.items():
        idx = np.asarray(idx)
        if idx.ndim != 1 or idx.size and (idx.dtype == bool
                                          or idx.dtype.kind not in "iu"):
            raise ValueError(f"split {name!r} must be a 1-d array of integer "
                             f"node ids, not {idx.dtype} of shape {idx.shape}")
        if idx.size and idx.min() < 0:
            raise ValueError(f"split {name!r} holds negative node id "
                             f"{idx.min()}")
        if idx.size and idx.max() >= n:
            raise ValueError(f"split {name!r} holds node id {idx.max()}, "
                             f"outside the graph's {n} nodes")
        idx = idx.astype(np.intp)
        ordered = np.sort(idx)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"split {name!r} repeats node id {repeated[0]}")
        checked[name] = idx
    return checked


@dataclass(frozen=True)
class LabeledGraph:
    """A graph with node features, class labels and train/val/test splits.

    ``labels[i] == -1`` marks an unlabeled node. Node features and edge
    channels must be finite. Split index sets pass :func:`check_splits`
    and are disjoint; any of them may be empty. ``edge_channels``, if
    given, is an (adjacency.nnz, p) block of observed edge features, one
    row per stored entry; a graph that has them stores no diagonal entry,
    and entry (j, i) carries the channels of (i, j).
    """

    adjacency: SparseAdjacency
    node_features: np.ndarray
    labels: np.ndarray
    splits: dict = field(default_factory=dict)
    edge_channels: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "node_features",
                           np.asarray(self.node_features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.intp))
        n = self.adjacency.n
        if self.node_features.shape[0] != n:
            raise ValueError("feature row count must equal node count")
        _refuse_non_finite(self.node_features, "node features", "node")
        if self.labels.shape != (n,):
            raise ValueError("labels must be a length-n vector")
        splits = check_splits(self.splits, n)
        object.__setattr__(self, "splits", splits)
        seen = set()
        for name, idx in splits.items():
            s = set(idx.tolist())
            if s & seen:
                raise ValueError(f"split {name!r} overlaps another split")
            seen |= s
        if self.edge_channels is None:
            return
        channels = np.asarray(self.edge_channels, dtype=np.float64)
        object.__setattr__(self, "edge_channels", channels)
        a = self.adjacency
        if channels.ndim != 2 or channels.shape[0] != a.nnz:
            raise ValueError(f"edge channels must have shape ({a.nnz}, p)")
        _refuse_non_finite(channels, "edge channels", "stored entry")
        if np.any(a.rows == a.cols):
            raise ValueError("a graph with edge channels may not store a "
                             "diagonal entry")
        if not np.array_equal(channels, channels[a.transpose_permutation]):
            raise ValueError("edge channels must be equal on (i, j) and (j, i)")

    @classmethod
    def from_views(cls, views, node_features, labels, splits=None):
        """The binary union of adjacency ``views``, one edge channel per view.

        The union stores an entry wherever any view does; channel k of an
        entry holds view k's weight there, or 0 where view k has none.
        """
        if not views:
            raise ValueError("from_views needs at least one view; the view "
                             "list is empty")
        n = views[0].n
        if any(v.n != n for v in views):
            raise ValueError("all views must share the node count")
        # np.unique would hash here, ~20x slower than sorting on numpy 2.4
        keys = np.sort(np.concatenate([v.keys for v in views]))
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        channels = np.zeros((keys.size, len(views)))
        for k, v in enumerate(views):
            channels[np.searchsorted(keys, v.keys), k] = v.weights
        union = SparseAdjacency(n, keys // n, keys % n, np.ones(keys.size))
        return cls(union, node_features, labels, splits or {}, channels)

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
    output support is support(A) union the diagonal. A's weights must be
    plain, symmetric and nonnegative, which a copy's may not be.
    """
    if isinstance(adjacency.weights, ad.Var):
        raise ValueError("renormalize needs plain weights; use "
                         "renormalize_weights on a fixed pattern for a Var")
    w = adjacency.weights
    if not np.array_equal(w, w[adjacency.transpose_permutation]):
        raise ValueError("renormalize requires symmetric weights")
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
