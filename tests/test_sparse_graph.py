"""Sparse adjacency storage and degree renormalization."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import has_entry, random_adjacency, renormalize_oracle
from edgetensor.autodiff import Var, backward
from edgetensor import autodiff as ad
from edgetensor import sparse_graph
from edgetensor.generators import sbm_generate
from edgetensor.models import prepare_multigraph
from edgetensor.sparse_graph import (LabeledGraph, SparseAdjacency,
                                     check_splits, renormalize,
                                     renormalize_weights)


def test_entries_sorted_canonically():
    a = SparseAdjacency(3, [2, 0, 1, 1], [1, 1, 2, 0], [5.0, 2.0, 5.0, 2.0])
    assert a.rows.tolist() == [0, 1, 1, 2]
    assert a.cols.tolist() == [1, 0, 2, 1]
    assert a.weights.tolist() == [2.0, 2.0, 5.0, 5.0]


def test_duplicate_entry_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SparseAdjacency(3, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 1.0])


def test_constructor_refuses_asymmetric_weights_and_patterns():
    """The constructor builds an undirected graph, so no edge tensor can
    lie on an asymmetric pattern."""
    with pytest.raises(ValueError, match="weights are not symmetric"):
        SparseAdjacency(2, [0, 1], [1, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="pattern is not symmetric"):
        SparseAdjacency(2, [0, 0, 1], [0, 1, 1], np.ones(3))


def test_from_undirected_edges_refuses_a_pair_joining_a_node_to_itself():
    with pytest.raises(ValueError, match=r"pair \(1, 1\) joins a node to itself"):
        SparseAdjacency.from_undirected_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"pair \(2, 2\)"):
        SparseAdjacency.from_undirected_edges(3, [(0, 1), (2, 2)])


def test_a_node_count_whose_keys_overflow_int64_is_refused():
    """Keys row*n+col reach n*n - 1, which fits in int64 up to n =
    3,037,000,499. Neither the refusal nor the largest graph allocates an
    n-sized array."""
    tracemalloc.start()
    try:
        for n in (3_037_000_500, 2 ** 32):
            with pytest.raises(ValueError, match="3,037,000,499"):
                SparseAdjacency.from_undirected_edges(n, [(0, n - 1), (1, 2)])
        n = 3_037_000_499
        a = SparseAdjacency.from_undirected_edges(n, [(0, n - 1), (1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert a.rows.tolist() == [0, 1, 2, n - 1]
    assert a.keys.tolist() == [n - 1, n + 2, 2 * n + 1, n * n - n]
    assert np.all(np.diff(a.keys) > 0)


@pytest.mark.parametrize("n", [2.5, -1, True, np.bool_(True), "2", None])
def test_a_node_count_that_is_not_a_nonnegative_integer_is_refused(n):
    with pytest.raises(ValueError, match=f"n must be a nonnegative integer, "
                                         f"got {re.escape(repr(n))}"):
        SparseAdjacency(n, [], [], [])


@pytest.mark.parametrize("n", [np.int64(2), np.int32(2), np.uint64(2)])
def test_a_numpy_integer_node_count_is_accepted(n):
    a = SparseAdjacency(n, [0, 1], [1, 0], [1.0, 1.0])
    assert type(a.n) is int and a.n == 2
    assert a.keys.dtype == np.intp and a.keys.tolist() == [1, 2]
    assert a.indptr.tolist() == [0, 1, 2]


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match="col index out of range"):
        SparseAdjacency(2, [0], [5], [1.0])
    for row in (-1, 2):
        with pytest.raises(ValueError, match="row index out of range"):
            SparseAdjacency(2, [row], [0], [1.0])


def test_index_arrays_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="equal length"):
        SparseAdjacency(2, [0, 1], [1], [1.0, 1.0])


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
    perm, plans = a.transpose_permutation, a.plans
    for w in (np.full(a.nnz, 2.0), Var(np.arange(float(a.nnz)))):
        b = a.with_weights(w)
        assert np.array_equal(ad.value(b.weights), ad.value(w))
        assert b.rows is a.rows and b.cols is a.cols and b.plans is plans
        assert b.transpose_permutation is perm and b.same_pattern(a)
    assert np.array_equal(a.weights, before)


def test_with_weights_checks_plain_weights_only():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="finite"):
        a.with_weights(np.array([1.0, np.inf, np.inf, 1.0]))
    with pytest.raises(ValueError, match="equal length"):
        a.with_weights(np.ones(3))
    with pytest.raises(ValueError, match="equal length"):
        a.with_weights(Var(np.ones(3)))
    # plain weights are not checked for symmetry: attention is asymmetric
    assert a.with_weights(np.arange(4.0)).weights.tolist() == [0.0, 1.0, 2.0, 3.0]
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


def test_renormalize_rejects_an_asymmetric_copy():
    """``with_weights`` does not check symmetry; renormalize does."""
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="requires symmetric weights"):
        renormalize(a.with_weights(np.array([1.0, 2.0, 1.0, 1.0])))


def test_renormalized_is_computed_once_and_kept():
    a = SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 3), (2, 3)])
    r = a.renormalized
    assert a.renormalized is r
    np.testing.assert_array_equal(r.to_dense(), renormalize(a).to_dense())


def test_with_weights_twin_renormalizes_its_own_weights():
    pairs = [(0, 1), (1, 3), (2, 3)]
    a = SparseAdjacency.from_undirected_edges(4, pairs)
    before = a.renormalized
    fresh = SparseAdjacency.from_undirected_edges(4, pairs, [2.0, 3.0, 5.0])
    twin = a.with_weights(fresh.weights)
    assert twin.renormalized is not before and a.renormalized is before
    np.testing.assert_array_equal(twin.renormalized.to_dense(),
                                  renormalize(fresh).to_dense())


@pytest.mark.parametrize("bad, message", [
    (lambda a: a.with_weights(Var(np.ones(a.nnz))), "plain weights"),
    (lambda a: a.with_weights(np.arange(float(a.nnz))), "symmetric weights"),
    (lambda a: SparseAdjacency(2, [0, 1], [1, 0], [-1.0, -1.0]),
     "nonnegative"),
], ids=["var_twin", "asymmetric_twin", "negative"])
def test_renormalized_raises_on_every_read_of_a_bad_matrix(bad, message):
    """An exception is not cached, so every read runs the checks again."""
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1), (1, 2)])
    a.renormalized  # a twin must not inherit it
    matrix = bad(a)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            matrix.renormalized


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


BAD_SPLITS = [
    pytest.param([-1, 0], "negative node id -1", id="negative"),
    pytest.param([True, False, True], "integer node ids", id="bool-mask"),
    pytest.param([0.0, 1.0], "integer node ids", id="float"),
    pytest.param([[0, 1]], "1-d array", id="2-d"),
    pytest.param([3, 3], "repeats node id 3", id="repeated"),
    pytest.param([99], "node id 99, outside the graph's 10 nodes",
                 id="too-large"),
]


@pytest.mark.parametrize("train, message", BAD_SPLITS)
def test_check_splits_refuses_an_id_it_cannot_mean(train, message):
    """One check serves every caller: a graph's own splits are refused
    here, and ``tasks`` refuses the splits a run is given with it."""
    a = SparseAdjacency.from_undirected_edges(10, [(0, 1), (2, 3)])
    splits = {"val": [5], "train": train}
    with pytest.raises(ValueError, match=f"split 'train' .*{message}"):
        check_splits(splits, 10)
    with pytest.raises(ValueError, match=f"split 'train' .*{message}"):
        LabeledGraph(a, np.zeros((10, 2)), np.arange(10) % 2, splits)


def test_check_splits_keeps_good_ids_as_intp_arrays():
    splits = check_splits({"train": np.array([4, 0], dtype=np.uint8),
                           "val": [], "test": np.array([], dtype=float)}, 5)
    assert [idx.tolist() for idx in splits.values()] == [[4, 0], [], []]
    assert all(idx.dtype == np.intp for idx in splits.values())


def test_labeled_graph_rejects_features_or_labels_not_per_node():
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="feature row count"):
        LabeledGraph(a, np.zeros((2, 2)), [0, 1, 0])
    for labels in ([0, 1], [[0, 1, 0]]):
        with pytest.raises(ValueError, match="length-n vector"):
            LabeledGraph(a, np.zeros((3, 2)), labels)


def test_from_views_refuses_an_empty_view_list():
    with pytest.raises(ValueError, match="view list is empty"):
        LabeledGraph.from_views([], np.zeros((3, 2)), [0, 1, 0])


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


def searchsorted_lookup(keys, looked):
    """The lookup as a binary search: ``(found, pos)`` of the ``looked`` keys
    that occur in ``keys``."""
    pos = np.searchsorted(keys, looked)
    pos[pos == keys.size] = 0
    found = np.flatnonzero(keys[pos] == looked)
    return found, pos[found]


def hub_heavy(seed):
    """A 4-block SBM of 50-node blocks with three hubs joined to 60% of
    the nodes."""
    rng = np.random.default_rng(seed)
    a = sbm_generate([50] * 4, 0.1, 0.01, seed).adjacency
    pairs = {(int(i), int(j)) for i, j in zip(a.rows, a.cols) if i < j}
    for hub in rng.choice(a.n, 3, replace=False):
        for other in rng.choice(a.n, 120, replace=False):
            if other != hub:
                pairs.add((min(hub, other), max(hub, other)))
    return SparseAdjacency.from_undirected_edges(a.n, sorted(pairs))


def tiny_multigraph_union():
    """The union of two 4-block SBM views and a two-hub view of 40 links
    each on 120 nodes, as a multi-graph run renormalizes it."""
    views = [sbm_generate([30] * 4, 0.2, 0.02, seed).adjacency
             for seed in (1, 2)]
    rng = np.random.default_rng(3)
    hub_pairs = {(min(h, o), max(h, o)) for h in (7, 80)
                 for o in rng.choice(120, 41, replace=False).tolist() if o != h}
    views.append(SparseAdjacency.from_undirected_edges(120, sorted(hub_pairs)))
    return prepare_multigraph(views, np.eye(120), np.arange(120) % 4).a_tilde


LOOKUP_GRAPHS = [
    *(pytest.param(lambda seed=seed, b=b: renormalize(sbm_generate(
        [b] * 4, 0.15, 0.02, seed).adjacency), id=f"sbm-{b}-{seed}")
      for seed, b in ((0, 10), (1, 40), (2, 100))),
    pytest.param(lambda: sbm_generate([40] * 3, 0.2, 0.05, 4).adjacency,
                 id="sbm-no-diagonal"),
    *(pytest.param(lambda seed=seed: renormalize(hub_heavy(seed)),
                   id=f"hub-{seed}") for seed in (0, 1)),
    pytest.param(lambda: renormalize(SparseAdjacency(7, [], [], [])),
                 id="diagonal-only"),
    pytest.param(lambda: SparseAdjacency(1, [0], [0], [1.0]), id="n=1"),
    pytest.param(lambda: SparseAdjacency(1, [], [], []), id="n=1-empty"),
    pytest.param(lambda: SparseAdjacency(0, [], [], []), id="n=0"),
    pytest.param(tiny_multigraph_union, id="tiny-multigraph-union"),
]


@pytest.mark.parametrize("graph", LOOKUP_GRAPHS)
def test_plans_equal_a_binary_search_walk(graph, monkeypatch):
    """The hashed entry lookup finds exactly the entries a binary search
    over the keys finds, so both plans equal, array for array, those of a
    walk whose lookup is ``searchsorted``."""
    got = graph().plans
    with monkeypatch.context() as m:
        m.setattr(sparse_graph, "_lookup", searchsorted_lookup)
        expected = graph().plans
    for plan, ref in zip(got, expected):
        for name in ("out_idx", "adj_idx", "slot_idx", "transpose"):
            g, e = getattr(plan, name), getattr(ref, name)
            assert g.dtype == e.dtype and np.array_equal(g, e), name


def test_lookup_searches_the_needles_on_a_shared_slot():
    """Keys that share a table slot are found by the binary search the
    lookup falls back to. So are needles past the last key, needles that
    land on an empty slot and needles that land on a shared slot but are
    no key. 48 keys get a table of 2**8 slots: ten slots of four keys
    each, and eight keys alone on theirs."""
    bits = (4 * 48 - 1).bit_length()
    pool = np.arange(1, 4096, dtype=np.intp)
    home = sparse_graph._home(pool, bits)
    crowded = np.flatnonzero(np.bincount(home) >= 5)
    shared, alone = crowded[:10], np.setdiff1d(np.unique(home), crowded[:10])[:8]
    keys = np.sort(np.concatenate(
        [pool[home == slot][:4] for slot in shared]
        + [pool[home == slot][:1] for slot in alone]))
    assert keys.size == 48
    spare = np.setdiff1d(pool[np.isin(home, shared)], keys)
    looked = np.concatenate([keys, spare, keys[::-1],
                             [keys[-1] + 1, 9999, 0]])
    lands = sparse_graph._table(keys, bits)[sparse_graph._home(looked, bits)]
    assert np.count_nonzero(lands < 0) >= 80  # the fallback runs
    on_empty = ~np.isin(sparse_graph._home(looked, bits),
                        sparse_graph._home(keys, bits))
    assert on_empty.any()
    found, pos = sparse_graph._lookup(keys, looked)
    expected = searchsorted_lookup(keys, looked)
    assert np.array_equal(found, expected[0])
    assert np.array_equal(pos, expected[1])
    assert found.size == 2 * keys.size


def test_a_plan_build_holds_under_four_candidate_arrays():
    """The walk drops its walked entries while it looks the candidates up,
    and frees the lookup table before the compare, so a build's peak stays
    under four candidate-long index arrays (a binary search's walk held
    4.6 of them)."""
    b, degree = 1000, 12
    a = renormalize(sbm_generate([b] * 4, 0.75 * degree / (b - 1),
                                 0.25 * degree / (3 * b), 1).adjacency)
    a.keys, a.indptr, a.transpose_permutation  # cached before the trace
    deg = np.diff(a.indptr)
    upper = a.rows <= a.cols
    candidates = np.minimum(deg[a.rows[upper]], deg[a.cols[upper]]).sum()
    tracemalloc.start()
    try:
        a.plans
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * candidates * np.dtype(np.intp).itemsize
