"""Metrics (accuracy, AUC/AP, homophily) and data splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import has_entry, loop_sample_non_edges
from edgetensor.autodiff import Var
from edgetensor.evaluation import (LinkSplit, accuracy, auc_ap, homophily,
                                   link_split, roc_auc, sample_non_edges,
                                   split_nodes)
from edgetensor.sparse_graph import SparseAdjacency


def test_accuracy_basic():
    pred = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    assert accuracy(pred, [0, 1, 1], [0, 1, 2]) == pytest.approx(2 / 3)
    assert accuracy(pred, [0, 1, 1], [0, 1]) == 1.0


def test_accuracy_unlabeled_node_in_idx_rejected():
    pred = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValueError, match="unlabeled"):
        accuracy(pred, [-1, 1], [0, 1])


def test_auc_ap_perfect_separation():
    auc, ap = auc_ap([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auc == 1.0 and ap == 1.0


def test_auc_ap_four_point_hand_case():
    # pairs (positive, negative) ordered correctly: (.9,.8), (.9,.1), (.7,.1)
    # out of 4 pairs -> AUC = 3/4; precision at positives: 1/1 and 2/3
    auc, ap = auc_ap([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
    assert auc == pytest.approx(0.75)
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_auc_counts_ties_as_half():
    auc, _ = auc_ap([0.5, 0.5], [1, 0])
    assert auc == pytest.approx(0.5)


def test_auc_near_half_for_independent_scores(rng):
    scores = rng.random(4000)
    labels = rng.integers(0, 2, size=4000)
    assert auc_ap(scores, labels)[0] == pytest.approx(0.5, abs=0.05)


def test_auc_ap_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        auc_ap([0.2, 0.4], [1, 1])


def test_roc_auc_is_the_auc_of_auc_ap(rng):
    """Per-epoch validation reads ``roc_auc``; the test metrics read
    ``auc_ap``. Both give the same AUC bits, and refuse one class alike."""
    scores = np.round(rng.random(200), 2)
    labels = rng.integers(0, 2, size=200)
    assert roc_auc(scores, labels) == auc_ap(scores, labels)[0]
    assert type(roc_auc(scores, labels)) is float
    with pytest.raises(ValueError, match="both classes"):
        roc_auc([0.2, 0.4], [0, 0])


def auc_pair_oracle(scores, labels):
    """All positive-negative pairs; ties count half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_auc_matches_pair_oracle(rng):
    for _ in range(20):
        m = int(rng.integers(4, 30))
        scores = np.round(rng.random(m), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = auc_ap(scores, labels)[0]
        assert got == pytest.approx(auc_pair_oracle(scores, labels), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["exp", "cube", "affine"]))
def test_auc_invariant_under_monotone_transforms(seed, kind):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 40))
    scores = rng.standard_normal(m)
    labels = rng.integers(0, 2, size=m)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    if kind == "exp":
        mapped = np.exp(scores)
    elif kind == "cube":
        mapped = scores ** 3
    else:
        mapped = 2.5 * scores + 7.0
    assert auc_ap(scores, labels)[0] == pytest.approx(
        auc_ap(mapped, labels)[0], abs=1e-12)


def test_homophily_all_same_label():
    a = SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert homophily(a, [0, 0, 0, 0]) == 1.0


def test_homophily_bipartite_zero():
    a = SparseAdjacency.from_undirected_edges(4, [(0, 2), (0, 3), (1, 2)])
    assert homophily(a, [0, 0, 1, 1]) == 0.0


def test_homophily_count_oracle(rng):
    n = 20
    labels = rng.integers(0, 3, size=n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.2]
    a = SparseAdjacency.from_undirected_edges(n, pairs)
    same = sum(1 for i, j in pairs if labels[i] == labels[j])
    assert homophily(a, labels) == pytest.approx(same / len(pairs))


def test_homophily_ignores_unlabeled_and_diagonal():
    a = SparseAdjacency(3, [0, 0, 1, 1, 2], [0, 1, 0, 2, 1], np.ones(5))
    # (1, 2) pairs with unlabeled node 2, the self-loop never counts
    assert homophily(a, [0, 0, -1]) == 1.0


def test_homophily_weighted_mass_ratio():
    a = SparseAdjacency(3, [0, 1, 1, 2], [1, 0, 2, 1], [3.0, 3.0, 1.0, 1.0])
    assert homophily(a, [0, 0, 1]) == pytest.approx(6 / 8)


def test_homophily_accepts_edge_weights_wrapper():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    learned = a.with_weights(Var(np.array([2.0, 2.0, 0.0, 0.0])))
    assert homophily(learned, [0, 0, 1]) == 1.0


def test_homophily_no_qualifying_edges_rejected():
    a = SparseAdjacency(2, [0], [0], [1.0])
    with pytest.raises(ValueError, match="no off-diagonal"):
        homophily(a, [0, 0])
    b = SparseAdjacency.from_undirected_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="mass"):
        homophily(b.with_weights(np.zeros(2)), [0, 0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_homophily_invariant_to_label_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    labels = rng.integers(0, 4, size=n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    if not pairs:
        return
    a = SparseAdjacency.from_undirected_edges(n, pairs)
    perm = rng.permutation(4)
    h = homophily(a, labels)
    assert 0.0 <= h <= 1.0
    assert homophily(a, perm[labels]) == pytest.approx(h)


def test_split_nodes_per_class_count():
    labels = np.array([0] * 10 + [1] * 10)
    splits = split_nodes(labels, 3, 0.3, seed=0)
    assert (labels[splits["train"]] == 0).sum() == 3
    assert (labels[splits["train"]] == 1).sum() == 3
    assert splits["val"].size == 6
    assert splits["test"].size == 20 - 6 - 6
    together = np.concatenate([splits["train"], splits["val"], splits["test"]])
    assert np.unique(together).size == together.size


def test_split_nodes_fraction_and_determinism():
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, -1, -1])
    s1 = split_nodes(labels, 0.5, 0.25, seed=9)
    s2 = split_nodes(labels, 0.5, 0.25, seed=9)
    for key in s1:
        assert np.array_equal(s1[key], s2[key])
        assert np.all(labels[s1[key]] >= 0)  # unlabeled nodes never selected
    assert s1["train"].size == 4


def test_split_nodes_errors():
    labels = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="fewer"):
        split_nodes(labels, 2, 0.2, seed=0)
    with pytest.raises(ValueError, match="overflow"):
        split_nodes(labels, 1, 0.9, seed=0)
    with pytest.raises(ValueError, match="empty"):
        split_nodes(np.array([0] * 10 + [1]), 0.1, 0.2, seed=1)


def test_link_split_holds_out_requested_fractions():
    rng = np.random.default_rng(4)
    pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)
             if rng.random() < 0.4]
    a = SparseAdjacency.from_undirected_edges(16, pairs)
    split = link_split(a, test_fraction=0.2, val_fraction=0.1, seed=0)
    assert isinstance(split, LinkSplit)
    assert split.test_pos.shape == (round(0.2 * len(pairs)), 2)
    assert split.val_pos.shape == (round(0.1 * len(pairs)), 2)
    assert len(split.test_neg) == len(split.test_pos)
    kept = split.train.nnz // 2
    assert kept + len(split.test_pos) + len(split.val_pos) == len(pairs)
    # held-out positives are gone from the training graph
    for i, j in split.test_pos:
        assert not has_entry(split.train, int(i), int(j))
    # negatives are honest non-edges of the original graph
    for i, j in np.concatenate([split.test_neg, split.val_neg]):
        assert not has_entry(a, int(i), int(j))


def test_link_split_zero_test_fraction_keeps_graph():
    a = SparseAdjacency.from_undirected_edges(6, [(0, 1), (1, 2), (2, 3),
                                                  (3, 4), (4, 5)])
    split = link_split(a, test_fraction=0.0, val_fraction=0.2, seed=1)
    assert split.test_pos.shape[0] == 0
    assert split.train.nnz == a.nnz - 2


def test_link_split_four_cycle_single_removal():
    a = SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 2), (2, 3),
                                                  (0, 3)])
    split = link_split(a, test_fraction=0.25, val_fraction=0.0, seed=3)
    assert split.train.nnz // 2 == 3
    i, j = split.test_pos[0]
    assert has_entry(a, int(i), int(j))
    assert not has_entry(split.train, int(i), int(j))


def test_link_split_deterministic():
    pairs = [(i, (i + 1) % 12) for i in range(12)]
    a = SparseAdjacency.from_undirected_edges(12, pairs)
    s1 = link_split(a, seed=5)
    s2 = link_split(a, seed=5)
    assert np.array_equal(s1.test_pos, s2.test_pos)
    assert np.array_equal(s1.val_neg, s2.val_neg)


def test_link_split_insufficient_edges_rejected():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="not enough"):
        link_split(a, test_fraction=0.6, val_fraction=0.5, seed=0)


def test_sample_non_edges_avoids_edges_and_duplicates():
    n = 8
    pairs = [(0, 1), (2, 3)]
    keys = np.array([i * n + j for i, j in pairs])
    out = sample_non_edges(n, keys, 10, np.random.default_rng(0))
    assert out.shape == (10, 2)
    seen = set()
    for i, j in out:
        assert i < j
        key = int(i) * n + int(j)
        assert key not in keys and key not in seen
        seen.add(key)


def _upper_keys(n, rng, density):
    """Keys i * n + j of a random set of (i < j) pairs."""
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < density
    return i[keep] * n + j[keep]


@pytest.mark.parametrize("n", [2, 5, 17, 60])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_non_edges_matches_loop_oracle(n, seed):
    keys = _upper_keys(n, np.random.default_rng(seed), 0.3)
    available = n * (n - 1) // 2 - keys.size
    for count in sorted({0, min(1, available), available // 3, available}):
        got_rng, want_rng = (np.random.default_rng(seed + 100) for _ in range(2))
        got = sample_non_edges(n, keys, count, got_rng)
        want = loop_sample_non_edges(n, keys, count, want_rng)
        assert got.dtype == want.dtype and got.shape == (count, 2)
        np.testing.assert_array_equal(got, want)
        # both consumed the same draws
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


def test_sample_non_edges_saturated_returns_every_non_edge():
    n = 12
    keys = _upper_keys(n, np.random.default_rng(4), 0.5)
    available = n * (n - 1) // 2 - keys.size
    # a repeated key is still one excluded pair
    got = sample_non_edges(n, np.concatenate([keys, keys[:3]]), available,
                           np.random.default_rng(9))
    want = loop_sample_non_edges(n, keys, available, np.random.default_rng(9))
    np.testing.assert_array_equal(got, want)
    i, j = np.triu_indices(n, 1)
    assert sorted((got[:, 0] * n + got[:, 1]).tolist()) == sorted(
        set((i * n + j).tolist()) - set(keys.tolist()))
    with pytest.raises(ValueError, match="cannot sample"):
        sample_non_edges(n, keys, available + 1, np.random.default_rng(9))


def test_sample_non_edges_calls_sharing_one_rng_match_loop_oracle():
    n = 40
    keys = _upper_keys(n, np.random.default_rng(5), 0.2)
    got_rng, want_rng = np.random.default_rng(6), np.random.default_rng(6)
    for count in (50, 120):
        np.testing.assert_array_equal(
            sample_non_edges(n, keys, count, got_rng),
            loop_sample_non_edges(n, keys, count, want_rng))


def test_sample_non_edges_at_link_prediction_scale_match_loop_oracle():
    # the lp workload's size: n=2000, ~10k edge keys, one rng over three calls
    n = 2000
    i, j = np.random.default_rng(7).integers(n, size=(2, 10_100))
    keep = i != j
    keys = np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep]
    assert keys.size >= 10_000
    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(3):
        np.testing.assert_array_equal(
            sample_non_edges(n, keys, keys.size, got_rng),
            loop_sample_non_edges(n, keys, keys.size, want_rng))
    assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


def test_sample_non_edges_huge_node_count_match_loop_oracle():
    # keys near n * n: any key packing that multiplies them again overflows;
    # count 5 draws a batch of 10, whose wrapped multiples lose the position
    n = 2_000_000_000
    keys = np.array([0 * n + 1, (n - 2) * n + (n - 1)])
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    for count in (3, 5):
        got = sample_non_edges(n, keys, count, got_rng)
        np.testing.assert_array_equal(
            got, loop_sample_non_edges(n, keys, count, want_rng))
        assert got.shape == (count, 2) and np.all(got[:, 0] < got[:, 1])
    assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)
