"""Sparse adjacency storage and degree renormalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import has_entry, random_adjacency, renormalize_oracle
from edgetensor.autodiff import Var, backward
from edgetensor import autodiff as ad
from edgetensor.sparse_graph import (LabeledGraph, SparseAdjacency,
                                     renormalize, renormalize_weights)


def test_entries_sorted_canonically():
    a = SparseAdjacency(3, [2, 0, 1, 1], [1, 1, 2, 0], [5.0, 2.0, 5.0, 2.0])
    assert a.rows.tolist() == [0, 1, 1, 2]
    assert a.cols.tolist() == [1, 0, 2, 1]
    assert a.weights.tolist() == [2.0, 2.0, 5.0, 5.0]


def test_duplicate_entry_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SparseAdjacency(3, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 1.0],
                        symmetric=False)


def test_asymmetric_values_rejected_when_flagged():
    with pytest.raises(ValueError, match="symmetric"):
        SparseAdjacency(2, [0, 1], [1, 0], [1.0, 2.0])


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match="out of range"):
        SparseAdjacency(2, [0], [5], [1.0], symmetric=False)


def test_index_of_and_transpose_permutation():
    a = SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 3)])
    assert has_entry(a, 1, 0)
    assert not has_entry(a, 0, 3)
    perm = a.transpose_permutation
    assert np.array_equal(a.rows[perm], a.cols)
    assert np.array_equal(a.cols[perm], a.rows)


def test_with_weights_shares_the_validated_pattern():
    a = renormalize(SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 3)]))
    before = a.weights.copy()
    perm, support = a.transpose_permutation, a.support
    for w in (np.full(a.nnz, 2.0), Var(np.arange(float(a.nnz)))):
        b = a.with_weights(w)
        assert np.array_equal(ad.value(b.weights), ad.value(w))
        assert b.rows is a.rows and b.cols is a.cols and b.plans is a.plans
        assert b.transpose_permutation is perm and b.support is support
    assert not a.with_weights(np.arange(float(a.nnz)), symmetric=False).symmetric
    assert np.array_equal(a.weights, before)


def test_with_weights_checks_plain_weights_only():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="finite"):
        a.with_weights(np.array([1.0, np.inf, np.inf, 1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        a.with_weights(np.arange(4.0))
    with pytest.raises(ValueError, match="equal length"):
        a.with_weights(np.ones(3))
    with pytest.raises(ValueError, match="equal length"):
        a.with_weights(Var(np.ones(3)))
    # a Var is checked for shape only: the values are a traced forward's
    a.with_weights(Var(np.array([1.0, np.inf, 2.0, 3.0])))


def test_equal_graphs_compare_and_hash_by_identity():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    b = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.with_weights(a.weights) != a


def test_indptr_is_csr_row_pointer():
    a = SparseAdjacency.from_undirected_edges(4, [(0, 1), (0, 2), (2, 3)])
    for i in range(4):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        assert np.all(a.rows[lo:hi] == i)
    assert a.indptr[-1] == a.nnz


def test_renormalize_two_node_single_edge():
    # A + I has every degree 2, so every stored entry becomes 1/2
    a = SparseAdjacency.from_undirected_edges(2, [(0, 1)])
    r = renormalize(a)
    np.testing.assert_allclose(r.to_dense(), np.full((2, 2), 0.5), atol=1e-15)


def test_renormalize_three_node_path():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    r = renormalize(a).to_dense()
    s6 = 1 / np.sqrt(6)
    expected = np.array([[0.5, s6, 0.0],
                         [s6, 1 / 3, s6],
                         [0.0, s6, 0.5]])
    np.testing.assert_allclose(r, expected, atol=1e-15)


def test_renormalize_matches_dense_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 15))
        a = random_adjacency(n, rng)
        off = a.rows != a.cols
        a = SparseAdjacency(n, a.rows[off], a.cols[off], a.weights[off])
        np.testing.assert_allclose(renormalize(a).to_dense(),
                                   renormalize_oracle(a.to_dense()),
                                   atol=1e-12)


def test_renormalize_exactly_symmetric(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        a = random_adjacency(n, rng)
        r = renormalize(a)
        # bitwise equality of mirrored entries, not just within tolerance
        assert np.array_equal(r.weights, r.weights[r.transpose_permutation])


def test_renormalize_spectral_bound(rng):
    for _ in range(10):
        n = int(rng.integers(2, 31))
        a = random_adjacency(n, rng)
        eig = np.linalg.eigvalsh(renormalize(a).to_dense())
        assert eig.min() >= -1.0 - 1e-10
        assert eig.max() <= 1.0 + 1e-10


def test_renormalize_existing_self_loops_summed():
    a = SparseAdjacency(2, [0, 0, 1], [0, 1, 0], [3.0, 1.0, 1.0])
    r = renormalize(a)
    # A_bar[0,0] = 3 + 1 = 4, degrees: d0 = 5, d1 = 2
    assert r.to_dense()[0, 0] == pytest.approx(4 / 5)
    assert r.to_dense()[0, 1] == pytest.approx(1 / np.sqrt(10))


def test_renormalize_edgeless_graph_is_identity_scaling():
    a = SparseAdjacency(3, [], [], [])
    np.testing.assert_allclose(renormalize(a).to_dense(), np.eye(3))


def test_renormalize_rejects_negative_weights():
    a = SparseAdjacency(2, [0, 1], [1, 0], [-1.0, -1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        renormalize(a)


def test_renormalize_rejects_traced_weights():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="plain weights"):
        renormalize(a.with_weights(Var(np.ones(a.nnz))))


def test_entries_read_traced_weights():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1)], weights=[2.0])
    traced = a.with_weights(Var(a.weights))
    assert traced.rows is a.rows and traced.cols is a.cols
    np.testing.assert_array_equal(traced.to_dense(), a.to_dense())


def test_renormalize_weights_matches_plain_renormalize(rng):
    a = random_adjacency(8, rng)
    off = a.rows != a.cols
    base = SparseAdjacency(8, a.rows[off], a.cols[off], a.weights[off])
    r = renormalize(base)
    # same computation on the augmented pattern with traced values
    vals = np.where(r.rows == r.cols, 0.0, base.to_dense()[r.rows, r.cols])
    traced = renormalize_weights(r.rows, r.cols, 8, Var(vals))
    np.testing.assert_allclose(traced.value, r.weights, atol=1e-12)


def test_renormalize_weights_gradient(rng):
    rows = np.array([0, 0, 1, 1, 2])
    cols = np.array([0, 1, 0, 1, 2])
    w0 = rng.random(5)
    coeff = rng.standard_normal(5)

    v = Var(w0.copy())
    backward(ad.total(ad.mul(renormalize_weights(rows, cols, 3, v),
                             Var(coeff))))
    step = 1e-6
    for k in range(5):
        delta = np.zeros(5)
        delta[k] = step
        hi = (renormalize_weights(rows, cols, 3, Var(w0 + delta)).value
              * coeff).sum()
        lo = (renormalize_weights(rows, cols, 3, Var(w0 - delta)).value
              * coeff).sum()
        assert v.grad[k] == pytest.approx((hi - lo) / (2 * step), abs=1e-6)


def test_labeled_graph_split_overlap_rejected():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="overlap"):
        LabeledGraph(a, np.zeros((3, 2)), [0, 1, -1],
                     {"train": [0, 1], "val": [1]})


def test_labeled_graph_num_classes():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    g = LabeledGraph(a, np.zeros((3, 2)), [2, -1, 0])
    assert g.num_classes == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_renormalize_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    a = random_adjacency(n, rng, density=float(rng.random()))
    r = renormalize(a).to_dense()
    assert np.abs(r - r.T).max() <= 1e-12
