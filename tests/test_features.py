"""Initial edge-feature construction: concat, subtract, stacked views."""

import numpy as np
import pytest

from conftest import slot_pair_features
from edgetensor import autodiff as ad
from edgetensor.autodiff import Var, backward
from edgetensor.edge_tensor import project_mode3
from edgetensor.features import (RECIPE_KINDS, build_concat_features,
                                 build_subtract_features)
from edgetensor.generators import sbm_generate
from edgetensor.layers import GraphConvLayer, gc_forward
from edgetensor.models import build_model, prepare
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import (LabeledGraph, SparseAdjacency,
                                     renormalize)


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
    build_model(ParamTape(), "et_gcn", ctx, 2, recipe="subtract",
                reduce_dim=4)
    tape = ParamTape()
    with pytest.raises(ValueError, match="unknown recipe kind 'mystery'"):
        build_model(tape, "et_gcn", ctx, 2, recipe="mystery")
    assert not tape.params
    with pytest.raises(ValueError, match="positive"):
        build_model(tape, "et_gcn", ctx, 2, reduce_dim=0)


def test_concat_features_match_hand_loop(rng):
    a, h, reducer = setup_graph(rng)
    reduced = gc_forward(h, a, reducer)
    t = build_concat_features(reduced, a, np.eye(4))
    w = rng.standard_normal((4, 3))
    projected = build_concat_features(reduced, a, w)
    assert t.p == 4 and projected.p == 3
    for k in range(t.num_slots):
        i, j = t.rows[k], t.cols[k]
        pair = np.concatenate([reduced[i], reduced[j]])
        np.testing.assert_allclose(t.values[k], pair, atol=1e-12)
        np.testing.assert_allclose(projected.values[k], pair @ w, atol=1e-12)


def test_subtract_features_match_hand_loop(rng):
    a, h, reducer = setup_graph(rng)
    reduced = gc_forward(h, a, reducer)
    t = build_subtract_features(reduced, a, np.eye(2))
    w = rng.standard_normal((2, 3))
    projected = build_subtract_features(reduced, a, w)
    assert t.p == 2 and projected.p == 3
    for k in range(t.num_slots):
        i, j = t.rows[k], t.cols[k]
        np.testing.assert_allclose(t.values[k], reduced[i] - reduced[j],
                                   atol=1e-12)
        np.testing.assert_allclose(projected.values[k],
                                   (reduced[i] - reduced[j]) @ w, atol=1e-12)
    diag = t.rows == t.cols
    assert np.all(t.values[diag] == 0.0)
    assert np.all(projected.values[diag] == 0.0)


# (recipe, output width of the first edge layer): the reducer gives
# width 2, so concat pairs have width 4 and subtract pairs width 2
FIRST_LAYERS = [pytest.param("concat", 3, id="concat-narrow"),
                pytest.param("concat", 4, id="concat-equal"),
                pytest.param("concat", 5, id="concat-widen"),
                pytest.param("subtract", 1, id="subtract-narrow"),
                pytest.param("subtract", 2, id="subtract-equal"),
                pytest.param("subtract", 3, id="subtract-widen")]
BUILDERS = {"concat": build_concat_features,
            "subtract": build_subtract_features}


@pytest.mark.parametrize("recipe, p_out", FIRST_LAYERS)
def test_node_level_builders_match_slot_level_oracle(recipe, p_out, rng):
    """Values and the reducer and weight gradients, within 1e-12."""
    a, h, reducer = setup_graph(rng, n=8)
    p = 4 if recipe == "concat" else 2
    w = rng.standard_normal((p, p_out))
    g = rng.standard_normal((a.nnz, p_out))
    results = []
    for build in (lambda h, a, reducer, w: BUILDERS[recipe](
                      gc_forward(h, a, reducer), a, w),
                  lambda *args: slot_pair_features(*args, recipe=recipe)):
        rw, ww = Var(reducer.weight.copy()), Var(w.copy())
        t = build(h, a, GraphConvLayer(rw, activation="relu"), ww)
        backward(ad.total(ad.mul(t.values, g)))
        results.append((t.values.value, rw.grad, ww.grad))
        assert t.pattern is a
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("build", [build_concat_features, build_subtract_features])
def test_builders_reject_a_weight_of_the_wrong_height(build, rng):
    a, h, reducer = setup_graph(rng)
    with pytest.raises(ValueError, match="pair feature width"):
        build(gc_forward(h, a, reducer), a, np.ones((3, 2)))


def test_concat_support_equals_renormalized_adjacency(rng):
    a, h, reducer = setup_graph(rng)
    t = build_concat_features(gc_forward(h, a, reducer), a, np.eye(4))
    assert np.array_equal(t.rows, a.rows)
    assert np.array_equal(t.cols, a.cols)


def test_builders_and_projection_stay_on_the_adjacency_support(rng):
    a, h, reducer = setup_graph(rng)
    reduced = gc_forward(h, a, reducer)
    tensors = [build_concat_features(reduced, a, np.eye(4)),
               build_subtract_features(reduced, a, np.eye(2))]
    graphs = [SparseAdjacency.from_undirected_edges(6, [(0, 1), (2, 3)]),
              SparseAdjacency.from_undirected_edges(6, [(1, 2)])]
    stacked_ctx = prepare(views(graphs))
    tensors.append(stacked_ctx.stacked)
    tensors.append(project_mode3(tensors[0], rng.standard_normal((4, 3))))
    for t, a_tilde in zip(tensors, (a, a, stacked_ctx.a_tilde, a)):
        assert t.pattern is a_tilde
        assert t.p == t.values.shape[1]
    assert [t.p for t in tensors] == [4, 2, 2, 3]


def views(graphs):
    return LabeledGraph.from_views(graphs, np.eye(graphs[0].n),
                                   np.zeros(graphs[0].n))


def test_union_support_and_graph():
    g1 = SparseAdjacency.from_undirected_edges(4, [(0, 1)])
    g2 = SparseAdjacency.from_undirected_edges(4, [(1, 2), (0, 1)])
    u = views([g1, g2]).adjacency
    assert set(zip(u.rows.tolist(), u.cols.tolist())) == {
        (0, 1), (1, 0), (1, 2), (2, 1)}  # off-diagonal entries only
    assert np.all(u.weights == 1.0)
    a_tilde = renormalize(u)
    got = set(zip(a_tilde.rows.tolist(), a_tilde.cols.tolist()))
    assert got == {(0, 0), (1, 1), (2, 2), (3, 3),
                   (0, 1), (1, 0), (1, 2), (2, 1)}


def test_from_views_rejects_mismatched_node_counts():
    g1 = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    g2 = SparseAdjacency.from_undirected_edges(4, [(0, 1)])
    with pytest.raises(ValueError, match="node count"):
        LabeledGraph.from_views([g1, g2], np.eye(3), np.zeros(3))


def test_from_views_rejects_a_view_with_a_self_loop():
    """The union is off-diagonal: a loop's weight would have no slot but
    the diagonal one, which renormalize fills with the identity."""
    g = SparseAdjacency(3, [0, 0, 1], [0, 1, 0], [2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="diagonal"):
        views([g])


def stacked(graphs):
    return prepare(views(graphs)).stacked


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
    """A channel block needs one row per stored entry, and (j, i) must
    carry the channels of (i, j)."""
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    for channels, message in ((np.ones((3, 2)), "shape"),
                              (np.ones(2), "shape"),
                              (np.array([[1.0], [2.0]]), "equal on")):
        with pytest.raises(ValueError, match=message):
            LabeledGraph(a, np.eye(3), np.zeros(3), edge_channels=channels)
