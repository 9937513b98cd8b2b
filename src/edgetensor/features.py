"""Builders for the initial edge-feature tensor.

Two recipes pair reduced node features: concatenate them or subtract
them. Both run a trainable graph-convolution reducer first, so gradients
flow into its weights end to end. A multi-graph instead stacks its
adjacency views as channels; that fixed tensor belongs to its context.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .edge_tensor import EdgeFeatureTensor
from .layers import gc_forward
from .sparse_graph import SparseAdjacency

RECIPE_KINDS = ("concat", "subtract")


def _paired(h, a_tilde, reducer, combine):
    reduced = gc_forward(h, a_tilde, reducer)
    values = combine(ad.gather_rows(reduced, a_tilde.rows),
                     ad.gather_rows(reduced, a_tilde.cols))
    return EdgeFeatureTensor(a_tilde.support, values)


def build_concat_features(h, a_tilde, reducer):
    """Slot (i, j) holds [reduced_i || reduced_j] on support(a_tilde)."""
    return _paired(h, a_tilde, reducer, ad.concat_cols)


def build_subtract_features(h, a_tilde, reducer):
    """Slot (i, j) holds reduced_i - reduced_j; diagonal slots are zero."""
    return _paired(h, a_tilde, reducer, ad.sub)


def union_graph(graphs):
    """Binary graph with an edge wherever any input graph has one."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs must share the node count")
    keys = np.unique(np.concatenate([g.keys for g in graphs]))
    keys = keys[keys // n != keys % n]
    return SparseAdjacency(n, keys // n, keys % n, np.ones(keys.size))


def build_stacked_graph_features(graphs, support):
    """Channel v of slot (i, j) is the weight of edge (i, j) in graph v.

    Every graph's entries must lie on ``support`` (an :class:`EdgeSupport`
    with the graphs' node count).
    """
    values = np.zeros((support.num_slots, len(graphs)))
    for v, g in enumerate(graphs):
        if g.n != support.n:
            raise ValueError("all graphs must share the support's node count")
        # the support holds slot (n-1, n-1), the largest key, so pos is in range
        pos = np.searchsorted(support.keys, g.keys)
        if not np.array_equal(support.keys[pos], g.keys):
            raise ValueError(f"graph {v} has an entry outside the support")
        values[pos, v] = g.weights
    return EdgeFeatureTensor(support, values)
