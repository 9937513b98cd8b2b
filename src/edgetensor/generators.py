"""Synthetic stochastic block model graphs for desk-scale experiments."""

from __future__ import annotations

import numpy as np

from .sparse_graph import LabeledGraph, SparseAdjacency

FEATURE_NOISE = 0.1  # one-hot block features get uniform noise in +-0.1
_PAIR_BLOCK = 1 << 20  # node pairs whose uniforms are drawn at once


def _sample_pairs(labels, p_in, p_out, rng):
    """Pairs i < j, each kept with probability p_in within a block, else p_out.

    One uniform per pair in row-major order, drawn a block of whole rows
    (at most ``_PAIR_BLOCK`` pairs, or one row) at a time: ``Generator.random``
    yields the same stream in chunks as in one call, so the pairs kept and
    every later draw do not depend on the block size. Memory is
    O(n + _PAIR_BLOCK + edges), not O(n^2).
    """
    n = labels.size
    row = np.arange(n)
    before = np.zeros(n + 1, dtype=np.intp)  # pairs in the rows above each row
    np.cumsum(n - 1 - row, out=before[1:])
    kept = []
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(before, before[r0] + _PAIR_BLOCK, side="right")) - 1
        r1 = max(r1, r0 + 1)
        rows = row[r0:r1]
        count = n - 1 - rows
        iu = np.repeat(rows, count)
        # ragged ranges: columns i + 1 .. n - 1 of each row i
        shift = rows + 1 - (before[r0:r1] - before[r0])
        ju = np.arange(iu.size) + np.repeat(shift, count)
        prob = np.where(labels[iu] == labels[ju], p_in, p_out)
        keep = rng.random(iu.size) < prob
        kept.append(np.stack([iu[keep], ju[keep]], axis=1))
        r0 = r1
    return np.concatenate(kept)


def sbm_generate(block_sizes, p_in, p_out, seed):
    """Sample an undirected stochastic block model graph.

    Labels are block ids. Node features are the one-hot block id plus
    uniform noise in [-0.1, 0.1], so desk-scale classification is
    nontrivial but learnable. Deterministic per seed. Pairs are drawn in
    row blocks (see :func:`_sample_pairs`), so memory stays O(n + edges)
    apart from a fixed block.
    """
    block_sizes = [int(b) for b in block_sizes]
    if len(block_sizes) < 2:
        raise ValueError("need at least 2 blocks")
    if any(b <= 0 for b in block_sizes):
        raise ValueError("block sizes must be positive")
    for prob in (p_in, p_out):
        if not 0.0 <= prob <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")

    n = sum(block_sizes)
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)

    pairs = _sample_pairs(labels, p_in, p_out, rng)

    features = np.zeros((n, len(block_sizes)))
    features[np.arange(n), labels] = 1.0
    features += rng.uniform(-FEATURE_NOISE, FEATURE_NOISE, features.shape)

    if pairs.size:
        adjacency = SparseAdjacency.from_undirected_edges(n, pairs)
    else:
        adjacency = SparseAdjacency.from_entries(n, [])
    return LabeledGraph(adjacency, features, labels)
