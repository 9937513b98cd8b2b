"""Full model forwards: learned-graph validity, decoders, determinism."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import check_learned_graph
from edgetensor.autodiff import Var, backward
from edgetensor import autodiff as ad
from edgetensor import edge_tensor
from edgetensor.edge_tensor import (axpy, project_mode3, propagate_mode1,
                                    propagate_mode2)
from edgetensor.features import build_concat_features, build_subtract_features
from edgetensor.generators import sbm_generate
from edgetensor.layers import (attention_forward, blend_edge_weights,
                               gc_forward, sparse_matmul, tpgc_forward)
from edgetensor.models import (GraphContext, build_model, etgnn_forward,
                               link_scores, prepare, prepare_multigraph)
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import (SparseAdjacency, renormalize,
                                     renormalize_weights)
from edgetensor.training import bce_from_scores, cross_entropy_masked


def small_context(seed=0):
    graph = sbm_generate([5, 5], 0.5, 0.2, seed=seed)
    return graph, prepare(graph)


def build_small(kind="et_gcn", seed=0, **kwargs):
    graph, ctx = small_context(seed)
    tape = ParamTape()
    defaults = dict(reduce_dim=2, edge_hidden=(3, 1), gc_hidden=(4,))
    defaults.update(kwargs)
    model = build_model(tape, kind, ctx, graph.num_classes, seed=seed,
                        **defaults)
    return graph, ctx, tape, model


@pytest.mark.parametrize("kind", ["et_gcn", "et_gat"])
def test_learned_graph_is_valid(kind):
    graph, ctx, tape, model = build_small(kind)
    result = etgnn_forward(model, ctx)
    assert check_learned_graph(result)
    w = result.edge_weights.weights.value
    assert np.all(w >= 0)
    perm = result.edge_weights.transpose_permutation
    np.testing.assert_allclose(w, w[perm], atol=1e-12)


def test_learned_graph_support_within_renormalized_adjacency():
    graph, ctx, tape, model = build_small()
    result = etgnn_forward(model, ctx)
    assert np.array_equal(result.edge_weights.keys, ctx.a_tilde.keys)


def test_forward_output_shape_and_softmax_rows():
    graph, ctx, tape, model = build_small()
    z = etgnn_forward(model, ctx).z.value
    assert z.shape == (graph.n, graph.num_classes)
    np.testing.assert_allclose(z.sum(axis=1), np.ones(graph.n), atol=1e-12)


def test_forward_deterministic_across_runs():
    graph, ctx, tape, model = build_small()
    z1 = etgnn_forward(model, ctx).z.value
    z2 = etgnn_forward(model, ctx).z.value
    assert np.array_equal(z1, z2)
    # a fresh identically-seeded build gives the identical forward
    graph2, ctx2, tape2, model2 = build_small()
    z3 = etgnn_forward(model2, ctx2).z.value
    assert np.array_equal(z1, z3)


def test_build_model_seed_changes_parameters():
    _, _, tape_a, _ = build_small(seed=0)
    _, _, tape_b, _ = build_small(seed=1)
    assert not np.array_equal(tape_a["gc_0"].value, tape_b["gc_0"].value)


def test_gcn_only_skips_edge_stack():
    graph, ctx, tape, model = build_small("gcn_only")
    assert "edge_0" not in tape.params
    result = etgnn_forward(model, ctx)
    assert result.edge_weights is None
    assert result.z.value.shape == (graph.n, graph.num_classes)


def test_abs_negative_mode_keeps_magnitudes():
    graph, ctx, tape, model = build_small(negative_mode="abs")
    w = etgnn_forward(model, ctx).edge_weights.weights.value
    assert np.all(w >= 0)


def test_build_model_rejects_bad_edge_stack():
    graph, ctx = small_context()
    tape = ParamTape()
    with pytest.raises(ValueError, match="dimension 1"):
        build_model(tape, "et_gcn", ctx, 2, edge_hidden=(3, 2))


def test_stack_recipe_requires_channel_count():
    # "stack" is not a recipe: the channel count comes from a multi-graph
    # context's stacked tensor, whatever recipe and reduce_dim are given
    graph, ctx = small_context()
    tape = ParamTape()
    with pytest.raises(ValueError, match="unknown recipe kind 'stack'"):
        build_model(tape, "et_gcn", ctx, 2, recipe_kind="stack")
    assert not tape.params
    views = [sbm_generate([4, 4], 0.6, 0.2, seed=s).adjacency for s in range(3)]
    multi = prepare_multigraph(views, np.eye(8), np.array([0] * 4 + [1] * 4))
    build_model(tape, "et_gcn", multi, 2, recipe_kind="subtract", reduce_dim=5,
                edge_hidden=(2, 1))
    assert tape["edge_0"].value.shape == (multi.stacked.p, 2) == (3, 2)


@pytest.mark.parametrize("kind, kwargs, message", [
    ("bogus", {}, "unknown model kind"),
    ("et_gcn", {"edge_hidden": ()}, "nonempty"),
    ("gcn_only", {"blend_attention": True}, "no edge stack"),
    ("et_gcn", {"gc_hidden": (0,)}, "positive"),
], ids=["kind", "empty_edge_hidden", "gcn_only_blend", "zero_width"])
def test_build_model_checks_before_registering(kind, kwargs, message):
    graph, ctx = small_context()
    tape = ParamTape()
    with pytest.raises(ValueError, match=message):
        build_model(tape, kind, ctx, 2, **kwargs)
    assert not tape.params


def test_model_holds_only_what_its_forward_reads():
    graph, ctx, tape, model = build_small("gcn_only")
    assert sorted(tape.params) == ["gc_0", "gc_1"]
    assert model.reducer is None and model.recipe is None
    assert model.edge_layers == [] and model.attention_head is None
    views = [sbm_generate([4, 4], 0.6, 0.2, seed=s).adjacency for s in range(2)]
    multi = prepare_multigraph(views, np.eye(8), np.array([0] * 4 + [1] * 4))
    tape = ParamTape()
    model = build_model(tape, "et_gat", multi, 2, edge_hidden=(2, 1))
    assert "reducer" not in tape.params and model.reducer is None
    # the reducer's seed is still drawn: later parameters keep theirs
    _, _, single_tape, _ = build_small("et_gat", edge_hidden=(2, 1),
                                       gc_hidden=(32,))
    np.testing.assert_array_equal(tape["edge_1"].value,
                                  single_tape["edge_1"].value)


def test_et_gat_requires_attention_parameters():
    graph, ctx, tape, model = build_small("et_gat")
    assert "theta" in tape.params
    assert model.attention_head is not None


def test_gradients_reach_every_parameter():
    graph, ctx, tape, model = build_small()
    z = etgnn_forward(model, ctx).z
    picked = ad.take_elems(z, np.arange(graph.n), graph.labels)
    backward(ad.total(picked))
    for name, p in tape.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def test_single_node_class_prediction_path():
    # graph with one dominant feature direction: forward stays finite and
    # rows remain probability vectors even for isolated-ish nodes
    a = SparseAdjacency.from_undirected_edges(3, [(0, 1)])
    from edgetensor.sparse_graph import LabeledGraph
    g = LabeledGraph(a, np.eye(3), [0, 1, 1])
    ctx = prepare(g)
    tape = ParamTape()
    model = build_model(tape, "et_gcn", ctx, 2, reduce_dim=2,
                        edge_hidden=(2, 1), gc_hidden=(3,), seed=0)
    z = etgnn_forward(model, ctx).z.value
    assert np.all(np.isfinite(z))
    np.testing.assert_allclose(z.sum(axis=1), np.ones(3), atol=1e-12)


def test_link_scores_orthonormal_rows_give_half():
    z = np.eye(4)
    scores = link_scores(z, [(0, 1), (2, 3)])
    np.testing.assert_allclose(scores, [0.5, 0.5], atol=1e-12)


def test_link_scores_match_dot_product_oracle(rng):
    z = rng.standard_normal((5, 3))
    pairs = [(0, 1), (2, 4), (3, 3)]
    scores = link_scores(z, pairs)
    for k, (i, j) in enumerate(pairs):
        expected = 1 / (1 + np.exp(-(z[i] @ z[j])))
        assert scores[k] == pytest.approx(expected, abs=1e-12)


def test_link_scores_identical_large_rows_near_one():
    z = np.full((2, 4), 10.0)
    assert link_scores(z, [(0, 1)])[0] == pytest.approx(1.0, abs=1e-10)


def test_link_scores_unknown_node_rejected(rng):
    with pytest.raises(ValueError, match="unknown node"):
        link_scores(rng.standard_normal((3, 2)), [(0, 5)])


def test_link_scores_negative_node_rejected(rng):
    with pytest.raises(ValueError, match="unknown node"):
        link_scores(rng.standard_normal((3, 2)), [(-1, 0)])


def test_prepare_multigraph_builds_union_context():
    g1 = sbm_generate([4, 4], 0.6, 0.2, seed=0).adjacency
    g2 = sbm_generate([4, 4], 0.6, 0.2, seed=1).adjacency
    feats = np.eye(8)
    labels = np.array([0] * 4 + [1] * 4)
    ctx = prepare_multigraph([g1, g2], feats, labels)
    assert ctx.stacked is not None
    assert ctx.stacked.p == 2
    assert np.array_equal(ctx.stacked.rows, ctx.a_tilde.rows)
    tape = ParamTape()
    model = build_model(tape, "et_gcn", ctx, 2, edge_hidden=(2, 1),
                        gc_hidden=(4,), seed=0)
    assert tape["edge_0"].value.shape == (ctx.stacked.p, 2)
    z = etgnn_forward(model, ctx).z.value
    assert z.shape == (8, 2)


def test_blend_attention_flag_adds_head():
    graph, ctx, tape, model = build_small(blend_attention=True)
    assert "theta" in tape.params
    assert check_learned_graph(etgnn_forward(model, ctx))


def _plain_copy(layer):
    """``layer`` with every Var field replaced by its plain value."""
    return dataclasses.replace(layer, **{
        f.name: getattr(layer, f.name).value for f in dataclasses.fields(layer)
        if isinstance(getattr(layer, f.name), Var)})


def _holds_var(out):
    if isinstance(out, Var):
        return True
    if dataclasses.is_dataclass(out):
        return any(_holds_var(getattr(out, f.name))
                   for f in dataclasses.fields(out))
    return False


@pytest.fixture(scope="module")
def plain_case():
    graph, ctx, _, model = build_small("et_gat", blend_attention=True)
    model = dataclasses.replace(
        model, reducer=_plain_copy(model.reducer),
        edge_layers=[_plain_copy(layer) for layer in model.edge_layers],
        gc_layers=[_plain_copy(layer) for layer in model.gc_layers],
        attention_head=_plain_copy(model.attention_head))
    h = ctx.features
    s = build_concat_features(h, ctx.a_tilde, model.reducer)
    alpha = attention_forward(h, ctx.a_tilde, model.attention_head)
    return SimpleNamespace(graph=graph, ctx=ctx, model=model, h=h, s=s,
                           alpha=alpha, a=ctx.a_tilde)


PLAIN_FORWARDS = {
    "sparse_matmul": lambda c: sparse_matmul(c.a, c.h),
    "gc_forward": lambda c: gc_forward(c.h, c.a, c.model.gc_layers[0]),
    "tpgc_forward": lambda c: tpgc_forward(c.s, c.a, c.model.edge_layers[0]),
    "tpgc_forward_attention": lambda c: tpgc_forward(
        c.s, c.alpha, c.model.edge_layers[0]),
    "attention_forward": lambda c: attention_forward(
        c.h, c.a, c.model.attention_head),
    "blend_edge_weights": lambda c: blend_edge_weights(c.a, c.alpha),
    "propagate_mode1": lambda c: propagate_mode1(c.s, c.a),
    "propagate_mode2": lambda c: propagate_mode2(c.s, c.a),
    "project_mode3": lambda c: project_mode3(c.s, c.model.edge_layers[0].weight),
    "axpy": lambda c: axpy(c.s, c.s, 0.2),
    "build_concat_features": lambda c: build_concat_features(
        c.h, c.a, c.model.reducer),
    "build_subtract_features": lambda c: build_subtract_features(
        c.h, c.a, c.model.reducer),
    "renormalize_weights": lambda c: renormalize_weights(
        c.a.rows, c.a.cols, c.a.n, c.a.weights),
    "etgnn_forward": lambda c: etgnn_forward(c.model, c.ctx),
    "link_scores": lambda c: link_scores(c.h, [[0, 1], [2, 3]]),
    "cross_entropy_masked": lambda c: cross_entropy_masked(
        etgnn_forward(c.model, c.ctx).z, c.graph.labels, [0, 1, 2]),
    "bce_from_scores": lambda c: bce_from_scores(np.array([0.9, 0.6]),
                                                 np.array([0.2])),
}


def test_plain_et_gat_forwards_reuse_their_plans(plain_case, monkeypatch):
    built = []
    build_plan = edge_tensor._build_plan

    def counting_build_plan(mode, support, adjacency):
        built.append(mode)
        return build_plan(mode, support, adjacency)

    monkeypatch.setattr(edge_tensor, "_build_plan", counting_build_plan)
    etgnn_forward(plain_case.model, plain_case.ctx)
    first = len(built)
    for _ in range(2):
        etgnn_forward(plain_case.model, plain_case.ctx)
    assert len(built) == first


@pytest.mark.parametrize("name", sorted(PLAIN_FORWARDS))
def test_plain_inputs_give_plain_outputs(name, plain_case):
    assert not _holds_var(PLAIN_FORWARDS[name](plain_case))
