"""Initial edge-feature construction: concat, subtract, stacked graphs."""

import numpy as np
import pytest

from edgetensor.edge_tensor import project_mode3
from edgetensor.features import (RECIPE_KINDS, build_concat_features,
                                 build_stacked_graph_features,
                                 build_subtract_features, union_graph)
from edgetensor.generators import sbm_generate
from edgetensor.layers import GraphConvLayer, gc_forward
from edgetensor.models import build_model, prepare
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import SparseAdjacency, renormalize


def setup_graph(rng, n=6, d=3):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    if not pairs:
        pairs = [(0, 1)]
    a = renormalize(SparseAdjacency.from_undirected_edges(n, pairs))
    h = rng.standard_normal((n, d))
    reducer = GraphConvLayer(rng.standard_normal((d, 2)), activation="relu")
    return a, h, reducer


def test_recipe_validation():
    assert RECIPE_KINDS == ("concat", "subtract")
    ctx = prepare(sbm_generate([3, 3], 0.6, 0.2, seed=0))
    build_model(ParamTape(), "et_gcn", ctx, 2, recipe_kind="subtract",
                reduce_dim=4)
    tape = ParamTape()
    with pytest.raises(ValueError, match="unknown recipe kind 'mystery'"):
        build_model(tape, "et_gcn", ctx, 2, recipe_kind="mystery")
    assert not tape.params
    with pytest.raises(ValueError, match="positive"):
        build_model(tape, "et_gcn", ctx, 2, reduce_dim=0)


def test_concat_features_match_hand_loop(rng):
    a, h, reducer = setup_graph(rng)
    reduced = gc_forward(h, a, reducer)
    t = build_concat_features(h, a, reducer)
    assert t.p == 4
    for k in range(t.num_slots):
        i, j = t.rows[k], t.cols[k]
        np.testing.assert_allclose(
            t.values[k], np.concatenate([reduced[i], reduced[j]]), atol=1e-12)


def test_subtract_features_match_hand_loop(rng):
    a, h, reducer = setup_graph(rng)
    reduced = gc_forward(h, a, reducer)
    t = build_subtract_features(h, a, reducer)
    assert t.p == 2
    for k in range(t.num_slots):
        i, j = t.rows[k], t.cols[k]
        np.testing.assert_allclose(t.values[k], reduced[i] - reduced[j],
                                   atol=1e-12)
    diag = t.rows == t.cols
    assert np.all(t.values[diag] == 0.0)


def test_concat_support_equals_renormalized_adjacency(rng):
    a, h, reducer = setup_graph(rng)
    t = build_concat_features(h, a, reducer)
    assert np.array_equal(t.rows, a.rows)
    assert np.array_equal(t.cols, a.cols)


def test_builders_and_projection_stay_on_the_adjacency_support(rng):
    a, h, reducer = setup_graph(rng)
    tensors = [build_concat_features(h, a, reducer),
               build_subtract_features(h, a, reducer)]
    graphs = [SparseAdjacency.from_undirected_edges(6, [(0, 1), (2, 3)]),
              SparseAdjacency.from_undirected_edges(6, [(1, 2)])]
    a_union = renormalize(union_graph(graphs))
    tensors.append(build_stacked_graph_features(graphs, a_union.support))
    tensors.append(project_mode3(tensors[0], rng.standard_normal((4, 3))))
    for t, a_tilde in zip(tensors, (a, a, a_union, a)):
        assert t.support is a_tilde.support
        assert t.p == t.values.shape[1]
    assert [t.p for t in tensors] == [4, 2, 2, 3]


def test_union_support_and_graph():
    g1 = SparseAdjacency.from_undirected_edges(4, [(0, 1)])
    g2 = SparseAdjacency.from_undirected_edges(4, [(1, 2), (0, 1)])
    u = union_graph([g1, g2])
    assert set(zip(u.rows.tolist(), u.cols.tolist())) == {
        (0, 1), (1, 0), (1, 2), (2, 1)}  # off-diagonal entries only
    assert np.all(u.weights == 1.0)
    support = renormalize(u).support
    got = set(zip(support.rows.tolist(), support.cols.tolist()))
    assert got == {(0, 0), (1, 1), (2, 2), (3, 3),
                   (0, 1), (1, 0), (1, 2), (2, 1)}


def test_union_graph_rejects_mismatched_node_counts():
    g1 = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    g2 = SparseAdjacency.from_undirected_edges(4, [(0, 1)])
    with pytest.raises(ValueError, match="node count"):
        union_graph([g1, g2])


def test_union_graph_drops_self_loops():
    g = SparseAdjacency(3, [0, 0, 1], [0, 1, 0], [2.0, 1.0, 1.0])
    u = union_graph([g])
    assert u.rows.tolist() == [0, 1] and u.cols.tolist() == [1, 0]


def stacked(graphs):
    return build_stacked_graph_features(
        graphs, renormalize(union_graph(graphs)).support)


def test_stacked_features_channels_are_graph_weights(rng):
    g1 = SparseAdjacency.from_undirected_edges(4, [(0, 1), (2, 3)],
                                               [2.0, 3.0])
    g2 = SparseAdjacency.from_undirected_edges(4, [(0, 1), (1, 2)])
    t = stacked([g1, g2])
    assert t.p == 2
    d1, d2 = g1.to_dense(), g2.to_dense()
    dense = t.to_dense()
    np.testing.assert_array_equal(dense[:, :, 0], d1)
    np.testing.assert_array_equal(dense[:, :, 1], d2)


def test_stacked_features_reject_mismatched_sizes():
    g1 = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    g2 = SparseAdjacency.from_undirected_edges(4, [(0, 1)])
    support = renormalize(g2).support
    with pytest.raises(ValueError, match="node count"):
        build_stacked_graph_features([g1, g2], support)


def test_stacked_features_reject_entries_outside_the_support():
    support = renormalize(
        SparseAdjacency.from_undirected_edges(4, [(0, 1)])).support
    # (1, 2) sorts just before slot (2, 2): a bare key search lands there
    outside = SparseAdjacency.from_undirected_edges(4, [(1, 2)])
    with pytest.raises(ValueError, match="outside the support"):
        build_stacked_graph_features([outside], support)
