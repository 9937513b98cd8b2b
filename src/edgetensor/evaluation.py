"""Evaluation metrics and data splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import value
from .sparse_graph import SparseAdjacency


def accuracy(predictions, labels, idx):
    """Fraction of nodes in ``idx`` whose argmax prediction is correct."""
    predictions = value(predictions)
    idx = np.asarray(idx, dtype=np.intp)
    labels = np.asarray(labels, dtype=np.intp)
    if np.any(labels[idx] < 0):
        raise ValueError("idx selects an unlabeled node")
    return float(np.mean(predictions[idx].argmax(axis=1) == labels[idx]))


def _midranks(x):
    """Ranks starting at 1; ties get the average of their rank range."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    high = np.cumsum(counts)
    mid = (high + high - counts + 1) / 2.0
    return mid[inverse]


def roc_auc(scores, labels):
    """Area under ROC (midrank statistic), a float in [0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    num_pos = int((labels == 1).sum())
    num_neg = int((labels == 0).sum())
    if num_pos == 0 or num_neg == 0:
        raise ValueError("both classes must be present")
    ranks = _midranks(scores)
    return float((ranks[labels == 1].sum() - num_pos * (num_pos + 1) / 2.0)
                 / (num_pos * num_neg))


def auc_ap(scores, labels):
    """The pair (AUC, AP): :func:`roc_auc` and average precision, each a
    float in [0, 1]. AP uses step interpolation at each positive: the mean,
    over positives, of the precision at that positive's rank when scores
    are sorted descending (stable tie order)."""
    auc = roc_auc(scores, labels)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    order = np.argsort(-scores, kind="stable")
    hits = labels[order] == 1
    cum_hits = np.cumsum(hits)
    precision = cum_hits / np.arange(1, scores.size + 1)
    return auc, float(precision[hits].mean())


@dataclass(frozen=True)
class LabelPairs:
    """What :func:`homophily` reads of a pattern and its node labels.

    ``qualify`` lists the off-diagonal stored entries whose two ends are
    labeled, and ``same`` the positions in ``qualify`` whose ends share a
    label. A caller that scores many weightings of one pattern (a
    training run, every epoch) builds them once.
    """

    qualify: np.ndarray
    same: np.ndarray

    @classmethod
    def of(cls, adjacency, labels):
        rows, cols = adjacency.rows, adjacency.cols
        labels = np.asarray(labels, dtype=np.intp)
        li, lj = labels[rows], labels[cols]
        qualify = (rows != cols) & (li >= 0) & (lj >= 0)
        return cls(np.flatnonzero(qualify),
                   np.flatnonzero((li == lj)[qualify]))


def homophily(adjacency, labels):
    """Share of off-diagonal weight mass joining same-label nodes.

    Only pairs with both endpoints labeled count, each with its absolute
    weight; on unit weights this is the share of pairs. ``adjacency.weights``
    may be a Var. ``labels`` is a node label vector, or the
    :class:`LabelPairs` of ``adjacency``'s pattern under one, kept.
    """
    pairs = (labels if isinstance(labels, LabelPairs)
             else LabelPairs.of(adjacency, labels))
    if not pairs.qualify.size:
        raise ValueError("no off-diagonal edges between labeled nodes")
    mass = np.abs(np.take(value(adjacency.weights), pairs.qualify))
    total = mass.sum()
    if total <= 0:
        raise ValueError("no weight mass on qualifying edges")
    return float(np.take(mass, pairs.same).sum() / total)


def split_nodes(labels, train, val_fraction, seed):
    """Seeded disjoint train/val/test index sets over the labeled nodes.

    ``train`` is either a per-class node count (int) or a fraction of all
    labeled nodes (float). Every class must receive at least one training
    node. ``val_fraction`` is taken from the remaining labeled nodes.
    """
    labels = np.asarray(labels, dtype=np.intp)
    labeled = np.flatnonzero(labels >= 0)
    rng = np.random.default_rng(seed)
    classes = np.unique(labels[labeled])

    if isinstance(train, (int, np.integer)):
        train_idx = []
        for c in classes:
            members = labeled[labels[labeled] == c]
            if members.size < train:
                raise ValueError(f"class {c} has fewer than {train} labeled nodes")
            train_idx.append(rng.permutation(members)[:train])
        train_idx = np.sort(np.concatenate(train_idx))
    else:
        k = int(round(float(train) * labeled.size))
        train_idx = np.sort(rng.permutation(labeled)[:k])
        covered = np.unique(labels[train_idx])
        if covered.size < classes.size:
            raise ValueError("training fraction leaves some class empty")

    remaining = np.setdiff1d(labeled, train_idx)
    k_val = int(round(float(val_fraction) * labeled.size))
    if k_val > remaining.size:
        raise ValueError("train and validation fractions overflow the node set")
    perm = rng.permutation(remaining)
    val_idx = np.sort(perm[:k_val])
    test_idx = np.sort(perm[k_val:])
    return {"train": train_idx, "val": val_idx, "test": test_idx}


@dataclass(frozen=True)
class LinkSplit:
    train: SparseAdjacency
    val_pos: np.ndarray
    val_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray


def link_split(adjacency, test_fraction=0.10, val_fraction=0.05, seed=0):
    """Hold out edge fractions for link prediction, with sampled negatives.

    Removes the stated fractions of undirected edges from the graph and
    pairs each held-out set with an equal count of uniformly sampled
    non-edges. Deterministic per seed.
    """
    upper = adjacency.rows < adjacency.cols
    edges = np.stack([adjacency.rows[upper], adjacency.cols[upper]], axis=1)
    weights = adjacency.weights[upper]
    num_edges = edges.shape[0]
    n_test = int(round(test_fraction * num_edges))
    n_val = int(round(val_fraction * num_edges))
    if n_test + n_val >= num_edges:
        raise ValueError("not enough edges to hold out the requested fractions")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_edges)
    test_pos = edges[perm[:n_test]]
    val_pos = edges[perm[n_test:n_test + n_val]]
    keep = perm[n_test + n_val:]
    train = SparseAdjacency.from_undirected_edges(
        adjacency.n, edges[keep], weights[keep])

    edge_keys = adjacency.keys[upper]
    return LinkSplit(train, val_pos,
                     sample_non_edges(adjacency.n, edge_keys, n_val, rng),
                     test_pos,
                     sample_non_edges(adjacency.n, edge_keys, n_test, rng))


def _run_starts(ordered):
    """Positions in a sorted array where a run of equal values begins."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def sample_non_edges(n, edge_keys, count, rng):
    """Uniformly sample ``count`` distinct (i < j) pairs outside ``edge_keys``.

    ``edge_keys`` is an array of the keys ``i * n + j`` (i < j) of the
    excluded pairs. Pairs are drawn in batches and accepted in draw
    order, so the output is a function of ``rng``'s state.

    Each batch is sorted once. Runs of equal keys in that order give each
    key's first draw position (``np.minimum.reduceat`` over the sort
    permutation, which holds for any ``n``, unlike a packed
    ``key * size + position`` sort key), and the distinct keys, already
    sorted, are looked up in the sorted excluded array. The keys a batch
    accepts join the excluded array only when another batch follows.
    """
    edge_keys = np.sort(np.asarray(edge_keys, dtype=np.intp).reshape(-1))
    # excluded keys stay sorted and distinct; the sentinel n * n, above
    # every key, keeps each searchsorted position in range
    excluded = np.append(edge_keys[_run_starts(edge_keys)], n * n)
    available = n * (n - 1) // 2 - (excluded.size - 1)
    if count > available:
        raise ValueError(f"cannot sample {count} non-edges, "
                         f"only {available} exist")
    parts = [np.zeros(0, dtype=np.intp)]
    taken = 0
    while taken < count:
        draw = rng.integers(n, size=(max(2 * (count - taken), 8), 2))
        lo = np.minimum(draw[:, 0], draw[:, 1])
        hi = np.maximum(draw[:, 0], draw[:, 1])
        keys = (lo * n + hi)[lo != hi]
        order = np.argsort(keys)
        ordered = keys[order]
        starts = _run_starts(ordered)
        distinct = ordered[starts]
        fresh = excluded[np.searchsorted(excluded, distinct)] != distinct
        first = np.minimum.reduceat(order, starts)
        accepted = keys[np.sort(first[fresh])[:count - taken]]
        parts.append(accepted)
        taken += accepted.size
        if accepted.size and taken < count:
            # nothing was cut, so the batch accepted every fresh key
            new = distinct[fresh]
            excluded = np.insert(excluded, np.searchsorted(excluded, new), new)
    accepted = np.concatenate(parts)
    return np.stack([accepted // n, accepted % n], axis=1)
