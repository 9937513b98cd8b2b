"""Stochastic block model generator."""

import tracemalloc

import numpy as np
import pytest

from conftest import one_shot_sbm
from edgetensor import generators
from edgetensor.generators import sbm_generate


def test_degenerate_probabilities_force_single_edge():
    g = sbm_generate([1, 1], p_in=0.0, p_out=1.0, seed=42)
    assert g.n == 2
    assert np.array_equal(g.labels, [0, 1])
    assert g.adjacency.entries() == [(0, 1, 1.0), (1, 0, 1.0)]


def test_zero_probabilities_give_edgeless_graph():
    g = sbm_generate([3, 3], 0.0, 0.0, seed=0)
    assert g.adjacency.nnz == 0
    from edgetensor.sparse_graph import renormalize
    np.testing.assert_allclose(renormalize(g.adjacency).to_dense(), np.eye(6))


def test_within_block_fraction_exceeds_cross_block():
    g = sbm_generate([50, 50], 0.2, 0.02, seed=7)
    labels = g.labels
    upper = g.adjacency.rows < g.adjacency.cols
    same = labels[g.adjacency.rows[upper]] == labels[g.adjacency.cols[upper]]
    within = int(same.sum())
    cross = int((~same).sum())
    # 1225 within-pairs per block at 0.2 vs 2500 cross-pairs at 0.02
    within_rate = within / (2 * 50 * 49 / 2)
    cross_rate = cross / (50 * 50)
    assert within_rate > cross_rate


def test_deterministic_per_seed():
    g1 = sbm_generate([10, 10, 5], 0.4, 0.1, seed=11)
    g2 = sbm_generate([10, 10, 5], 0.4, 0.1, seed=11)
    assert g1.adjacency.entries() == g2.adjacency.entries()
    assert np.array_equal(g1.node_features, g2.node_features)
    g3 = sbm_generate([10, 10, 5], 0.4, 0.1, seed=12)
    assert g1.adjacency.entries() != g3.adjacency.entries()


def test_features_are_noisy_one_hot():
    g = sbm_generate([20, 20, 20], 0.3, 0.05, seed=0)
    assert g.node_features.shape == (60, 3)
    onehot = np.zeros((60, 3))
    onehot[np.arange(60), g.labels] = 1.0
    noise = g.node_features - onehot
    assert np.abs(noise).max() <= 0.1
    assert np.abs(noise).max() > 0.0


def test_labels_are_block_ids():
    g = sbm_generate([2, 3, 4], 1.0, 0.0, seed=0)
    assert np.array_equal(g.labels, [0, 0, 1, 1, 1, 2, 2, 2, 2])


def test_preconditions_enforced():
    with pytest.raises(ValueError, match="2 blocks"):
        sbm_generate([5], 0.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="positive"):
        sbm_generate([5, 0], 0.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="probabilities"):
        sbm_generate([2, 2], 1.5, 0.5, seed=0)


@pytest.mark.parametrize("block", [1, 7, 1000, generators._PAIR_BLOCK])
@pytest.mark.parametrize("block_sizes,p_in,p_out,seed", [
    ([2, 3], 0.5, 0.2, 0),
    ([13, 11, 9], 0.3, 0.05, 5),
    ([40, 40, 41, 40], 0.2, 0.02, 123),
    ([1000, 1000], 0.01, 0.002, 9),
])
def test_row_blocks_give_the_one_shot_graph(block, block_sizes, p_in, p_out,
                                            seed, monkeypatch):
    monkeypatch.setattr(generators, "_PAIR_BLOCK", block)
    g = sbm_generate(block_sizes, p_in, p_out, seed)
    pairs, features = one_shot_sbm(block_sizes, p_in, p_out, seed)
    upper = g.adjacency.rows < g.adjacency.cols
    assert np.array_equal(g.adjacency.rows[upper], pairs[:, 0])
    assert np.array_equal(g.adjacency.cols[upper], pairs[:, 1])
    assert np.array_equal(g.node_features, features)


def test_generator_memory_is_not_quadratic():
    """n = 6000 has 18M node pairs; drawing them at once needs over 500 MB."""
    tracemalloc.start()
    try:
        g = sbm_generate([1500] * 4, 0.006, 0.0007, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 6000 and g.adjacency.nnz > 0
    assert peak < 64 * 2 ** 20
