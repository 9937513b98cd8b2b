"""Full model forwards: learned-graph validity, decoders, determinism."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (check_learned_graph, column_order_link_scores,
                      composed_link_scores, slot_pair_features)
from edgetensor.autodiff import Var, backward
from edgetensor import autodiff as ad
from edgetensor import layers, models, sparse_graph
from edgetensor.edge_tensor import (axpy, project_mode3, propagate_mode1,
                                    propagate_mode2)
from edgetensor.features import build_concat_features, build_subtract_features
from edgetensor.generators import sbm_generate
from edgetensor.layers import (attention_forward, gc_forward, sparse_matmul,
                               tpgc_forward, tpgc_propagate)
from edgetensor.models import (build_model, etgnn_forward, link_scores,
                               prepare, prepare_multigraph)
from edgetensor.params import ParamTape
from edgetensor.sparse_graph import SparseAdjacency, renormalize_weights
from edgetensor.training import bce_from_scores, cross_entropy_masked


def small_context(seed=0):
    graph = sbm_generate([5, 5], 0.5, 0.2, seed=seed)
    return graph, prepare(graph)


def build_small(kind="et_gcn", seed=0, **kwargs):
    """A model of small widths; gcn_only reads no edge-stack width."""
    graph, ctx = small_context(seed)
    tape = ParamTape()
    small = (dict(gc_hidden=(4,)) if kind == "gcn_only"
             else dict(reduce_dim=2, edge_hidden=(3, 1), gc_hidden=(4,)))
    model = build_model(tape, kind, ctx, graph.num_classes, seed=seed,
                        **{**small, **kwargs})
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
    assert not np.array_equal(tape_a.params["gc_0"].value, tape_b.params["gc_0"].value)


def test_gcn_only_skips_edge_stack():
    graph, ctx, tape, model = build_small("gcn_only")
    assert "edge_0" not in tape.params
    result = etgnn_forward(model, ctx)
    assert result.edge_weights is None
    assert result.z.value.shape == (graph.n, graph.num_classes)


def test_build_model_rejects_bad_edge_stack():
    graph, ctx = small_context()
    tape = ParamTape()
    with pytest.raises(ValueError, match="dimension 1"):
        build_model(tape, "et_gcn", ctx, 2, edge_hidden=(3, 2))


def test_stack_recipe_requires_channel_count():
    # "stack" is not a recipe: the channel count comes from a multi-graph
    # context's stacked tensor, which reads no recipe or reduce_dim, so a
    # changed one is refused there before anything is registered
    graph, ctx = small_context()
    tape = ParamTape()
    with pytest.raises(ValueError, match="unknown recipe kind 'stack'"):
        build_model(tape, "et_gcn", ctx, 2, recipe="stack")
    assert not tape.params
    views = [sbm_generate([4, 4], 0.6, 0.2, seed=s).adjacency for s in range(3)]
    multi = prepare_multigraph(views, np.eye(8), np.array([0] * 4 + [1] * 4))
    for setting in ({"recipe": "subtract"}, {"reduce_dim": 5},
                    {"recipe": "subtract", "reduce_dim": 5}):
        with pytest.raises(ValueError, match=r"edge channels replace the "
                                             r"recipe; leave \['"):
            build_model(tape, "et_gcn", multi, 2, edge_hidden=(2, 1),
                        **setting)
        assert not tape.params
    build_model(tape, "et_gcn", multi, 2, recipe="concat", reduce_dim=8,
                edge_hidden=(2, 1))
    assert tape.params["edge_0"].value.shape == (multi.stacked.p, 2) == (3, 2)


@pytest.mark.parametrize("kind, kwargs, message", [
    ("bogus", {}, "unknown model kind"),
    ("et_gcn", {"edge_hidden": ()}, "nonempty"),
    ("gcn_only", {"epsilon": 0.5, "reduce_dim": 3},
     r"gcn_only has no edge stack; leave \['reduce_dim', 'epsilon'\]"),
    ("gcn_only", {"edge_hidden": [8, 1], "recipe": "subtract"},
     r"leave \['recipe'\] at their defaults"),
    ("gcn_only", {"edge_hidden": np.array([8, 1]), "recipe": "subtract"},
     r"leave \['recipe'\] at their defaults"),
    ("et_gcn", {"gc_hidden": (0,)}, "positive"),
], ids=["kind", "empty_edge_hidden", "gcn_only_names_each_unread", "gcn_only_default_list_width",
        "gcn_only_default_array_width", "zero_width"])
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
    assert model.edge_layers == [] and model.theta is None
    views = [sbm_generate([4, 4], 0.6, 0.2, seed=s).adjacency for s in range(2)]
    multi = prepare_multigraph(views, np.eye(8), np.array([0] * 4 + [1] * 4))
    tape = ParamTape()
    model = build_model(tape, "et_gat", multi, 2, edge_hidden=(2, 1))
    assert "reducer" not in tape.params and model.reducer is None
    # the reducer's seed is still drawn: later parameters keep theirs
    _, _, single_tape, _ = build_small("et_gat", edge_hidden=(2, 1),
                                       gc_hidden=(32,))
    np.testing.assert_array_equal(tape.params["edge_1"].value,
                                  single_tape.params["edge_1"].value)


def test_et_gat_requires_attention_parameters():
    graph, ctx, tape, model = build_small("et_gat")
    assert "theta" in tape.params
    assert model.theta is not None


def test_gradients_reach_every_parameter():
    graph, ctx, tape, model = build_small()
    z = etgnn_forward(model, ctx).z
    width = z.value.shape[1]
    picked = ad.gather_rows(ad.reshape(z, (-1,)),
                            np.arange(graph.n) * width + graph.labels)
    backward(ad.total(picked))
    for name, p in tape.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def tape_nodes(root):
    """Every Var the forward of ``root`` traced, ``root`` included."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def keep_all_backward(root):
    """The reference walk: ``backward``'s order and arithmetic, but every
    node, intermediate or leaf, keeps its gradient. Returns them by id."""
    order, done, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in done:
            done.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in done)
    pending, grads = {id(root): np.ones_like(root.value)}, {}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        grads[id(node)] = g
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(g)
            key = id(parent)
            pending[key] = pending[key] + pg if key in pending else pg
    return grads


def model_loss(kind, graph):
    ctx = prepare(graph)
    tape = ParamTape()
    model = build_model(tape, kind, ctx, graph.num_classes, seed=0)
    z = etgnn_forward(model, ctx).z
    return tape, cross_entropy_masked(z, graph.labels, np.arange(graph.n))


@pytest.mark.parametrize("kind", ["et_gcn", "et_gat"])
def test_backward_keeps_gradients_only_on_parameters(kind):
    """Every non-leaf Var of a model's tape ends ``backward`` without a
    gradient, and each parameter's equals the keep-everything walk's on a
    fresh identical model, bit for bit."""
    graph = sbm_generate([10, 10], 0.5, 0.1, seed=0)
    tape, loss = model_loss(kind, graph)
    backward(loss)
    inner = [v for v in tape_nodes(loss) if v._parents]
    assert len(inner) > 20
    assert all(v.grad is None for v in inner)
    ref_tape, ref_loss = model_loss(kind, graph)
    ref_grads = keep_all_backward(ref_loss)
    assert all(id(v) in ref_grads for v in tape_nodes(ref_loss) if v._parents)
    for name, p in tape.params.items():
        ref = ref_tape.params[name]
        assert np.array_equal(p.grad, ref_grads[id(ref)]), name


# bytes a backward may leave alive besides the parameters' gradients: their
# array headers and interpreter bookkeeping; the intermediate gradients of
# the 300-node graph below hold ~1.4 MB
BACKWARD_SLACK_BYTES = 64 * 1024


@pytest.mark.parametrize("kind", ["et_gcn", "et_gat"])
def test_backward_leaves_only_parameter_gradients_alive(kind):
    graph = sbm_generate([100, 100, 100], 0.08, 0.01, seed=0)
    tape, loss = model_loss(kind, graph)
    grad_bytes = sum(p.value.nbytes for p in tape.params.values())
    tracemalloc.start()
    try:
        backward(loss)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in tape.params.values())
    assert kept <= grad_bytes + BACKWARD_SLACK_BYTES, (
        f"{kept} B alive after backward, {grad_bytes} B of them gradients")


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


def test_link_scores_of_no_pairs_are_empty(rng):
    z = Var(rng.standard_normal((4, 3)))
    scores = link_scores(z, np.empty((0, 2), dtype=np.intp))
    assert scores.value.shape == (0,) and scores.value.dtype == np.float64
    backward(ad.total(scores))
    assert np.array_equal(z.grad, np.zeros((4, 3)))
    assert link_scores(z.value, []).shape == (0,)


# a repeated pair, an i == j pair, and a z read by two calls
LINK_POS = [(0, 1), (2, 4), (0, 1), (3, 3), (6, 5)]
LINK_NEG = [(1, 6), (5, 5), (4, 0), (1, 6)]


def test_link_scores_bitwise_equal_to_column_order_oracle(rng):
    z = rng.standard_normal((7, 5))
    c_pos, c_neg = rng.standard_normal(len(LINK_POS)), rng.standard_normal(len(LINK_NEG))
    zv = Var(z.copy())
    pos, neg = link_scores(zv, LINK_POS), link_scores(zv, LINK_NEG)
    backward(ad.add(ad.total(ad.mul(pos, c_pos)), ad.total(ad.mul(neg, c_neg))))
    want_pos, grad_pos = column_order_link_scores(z, LINK_POS, c_pos)
    want_neg, grad_neg = column_order_link_scores(z, LINK_NEG, c_neg)
    assert np.array_equal(pos.value, want_pos)
    assert np.array_equal(neg.value, want_neg)
    assert np.array_equal(zv.grad, grad_pos + grad_neg)
    assert np.array_equal(link_scores(z, LINK_POS), want_pos)


def test_link_scores_match_the_composed_ops(rng):
    z = rng.standard_normal((7, 32))
    grads = []
    for score in (link_scores, composed_link_scores):
        zv = Var(z.copy())
        pos, neg = score(zv, LINK_POS), score(zv, LINK_NEG)
        backward(bce_from_scores(pos, neg))
        grads.append((pos.value, neg.value, zv.grad))
    for got, want in zip(*grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_link_scores_allocate_no_pairs_by_width_block():
    """Forward and backward at width 32 over 20k pairs never hold a
    (pairs x width) block: every temporary is pairs-long or n x width."""
    n, width, num_pairs = 300, 32, 20_000
    rng = np.random.default_rng(0)
    z = Var(rng.standard_normal((n, width)))
    pairs = rng.integers(n, size=(num_pairs, 2))
    block = num_pairs * width * 8
    tracemalloc.start()
    try:
        backward(ad.total(link_scores(z, pairs)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.grad is not None
    assert peak < block / 2, f"peak {peak} B against a {block} B block"


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
    assert tape.params["edge_0"].value.shape == (ctx.stacked.p, 2)
    z = etgnn_forward(model, ctx).z.value
    assert z.shape == (8, 2)


# (recipe, reduce_dim, first edge layer width): concat pairs are
# 2 * reduce_dim wide, subtract pairs reduce_dim
FIRST_LAYERS = [pytest.param("concat", 2, 3, id="narrow"),
                pytest.param("subtract", 3, 3, id="equal"),
                pytest.param("subtract", 2, 3, id="widen")]


def _pair_width(recipe, reduce_dim):
    return 2 * reduce_dim if recipe == "concat" else reduce_dim


@pytest.mark.parametrize("recipe, reduce_dim, p_out", FIRST_LAYERS)
def test_first_edge_layer_propagates_at_min_width(recipe, reduce_dim, p_out,
                                                  monkeypatch):
    graph, ctx, tape, model = build_small(
        recipe=recipe, reduce_dim=reduce_dim, edge_hidden=(p_out, 1))
    widths = []
    for name in ("propagate_mode1", "propagate_mode2"):
        def spy(s, adj, _inner=getattr(layers, name)):
            widths.append(s.p)
            return _inner(s, adj)
        monkeypatch.setattr(layers, name, spy)
    etgnn_forward(model, ctx)
    first = min(_pair_width(recipe, reduce_dim), p_out)
    assert widths == [first, first, 1, 1]


@pytest.mark.parametrize("kind", ["et_gcn", "et_gat"])
@pytest.mark.parametrize("recipe, reduce_dim, p_out", FIRST_LAYERS)
def test_first_edge_layer_matches_slot_level_tensor(kind, recipe, reduce_dim,
                                                    p_out):
    """The recipe's node-level input gives the layer a slot-level S gives."""
    graph, ctx, tape, model = build_small(
        kind, recipe=recipe, reduce_dim=reduce_dim,
        edge_hidden=(p_out, 1))
    h, first = ctx.features, model.edge_layers[0]
    prop = (ctx.a_tilde if model.theta is None
            else attention_forward(h, ctx.a_tilde, model.theta))
    s, rest = models._edge_input(model, ctx, prop)
    if len(rest) == len(model.edge_layers):
        s = tpgc_forward(s, prop, first)
    assert len(rest) == (2 if p_out > _pair_width(recipe, reduce_dim) else 1)
    pairs = slot_pair_features(h, ctx.a_tilde, model.reducer,
                               np.eye(_pair_width(recipe, reduce_dim)), recipe)
    want = tpgc_forward(pairs, prop, first)
    np.testing.assert_allclose(s.values.value, want.values.value, rtol=0,
                               atol=1e-12)


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
    graph, ctx, _, model = build_small("et_gat")
    model = dataclasses.replace(
        model, reducer=_plain_copy(model.reducer),
        edge_layers=[_plain_copy(layer) for layer in model.edge_layers],
        gc_layers=[_plain_copy(layer) for layer in model.gc_layers],
        theta=model.theta.value)
    h = ctx.features
    # the pair features themselves (identity projection), and as the first
    # edge layer reads them, projected by its weight
    reduced = gc_forward(h, ctx.a_tilde, model.reducer)
    s = build_concat_features(reduced, ctx.a_tilde, np.eye(4))
    projected = build_concat_features(reduced, ctx.a_tilde,
                                      model.edge_layers[0].weight)
    alpha = attention_forward(h, ctx.a_tilde, model.theta)
    return SimpleNamespace(graph=graph, ctx=ctx, model=model, h=h, s=s,
                           projected=projected, alpha=alpha, a=ctx.a_tilde)


PLAIN_FORWARDS = {
    "sparse_matmul": lambda c: sparse_matmul(c.a, c.h),
    "gc_forward": lambda c: gc_forward(c.h, c.a, c.model.gc_layers[0]),
    "tpgc_forward": lambda c: tpgc_forward(c.s, c.a, c.model.edge_layers[0]),
    "tpgc_forward_attention": lambda c: tpgc_forward(
        c.s, c.alpha, c.model.edge_layers[0]),
    "tpgc_propagate": lambda c: tpgc_propagate(
        c.projected, c.alpha, c.model.edge_layers[0]),
    "attention_forward": lambda c: attention_forward(
        c.h, c.a, c.model.theta),
    "propagate_mode1": lambda c: propagate_mode1(c.s, c.a),
    "propagate_mode2": lambda c: propagate_mode2(c.s, c.a),
    "project_mode3": lambda c: project_mode3(c.s, c.model.edge_layers[0].weight),
    "axpy": lambda c: axpy(c.s, c.s, 0.2),
    "build_concat_features": lambda c: build_concat_features(
        gc_forward(c.h, c.a, c.model.reducer), c.a,
        c.model.edge_layers[0].weight),
    "build_subtract_features": lambda c: build_subtract_features(
        gc_forward(c.h, c.a, c.model.reducer), c.a,
        c.model.edge_layers[0].weight[:2]),
    "renormalize_weights": lambda c: renormalize_weights(
        c.a.rows, c.a.cols, c.a.n, c.a.weights),
    "etgnn_forward": lambda c: etgnn_forward(c.model, c.ctx),
    "link_scores": lambda c: link_scores(c.h, [[0, 1], [2, 3]]),
    "cross_entropy_masked": lambda c: cross_entropy_masked(
        etgnn_forward(c.model, c.ctx).z, c.graph.labels, [0, 1, 2]),
    "bce_from_scores": lambda c: bce_from_scores(np.array([0.9, 0.6]),
                                                 np.array([0.2])),
}


@pytest.mark.parametrize("kind, width, reads", [
    ("et_gcn", dict(reduce_dim=1), False), ("et_gcn", dict(reduce_dim=2), True),
    ("gcn_only", dict(gc_hidden=(1,)), False),
    ("gcn_only", dict(gc_hidden=(4,)), True)],
    ids=["reducer-narrows", "reducer-keeps-width", "gc-narrows", "gc-widens"])
def test_context_computes_a_tilde_x_only_for_a_first_layer_that_reads_it(
        kind, width, reads, monkeypatch):
    """Â·X is computed once, by the first forward whose first layer on the
    context's features does not narrow (the features have width 2); a
    narrowing first layer multiplies A_hat (X W) and never computes it."""
    graph, ctx, _, model = build_small(kind, **width)
    products = []
    matmul = models.sparse_matmul

    def spy(a, h):
        products.append(h)
        return matmul(a, h)

    monkeypatch.setattr(models, "sparse_matmul", spy)
    for _ in range(3):
        etgnn_forward(model, ctx)
    assert ("a_tilde_x" in vars(ctx)) == reads
    assert [h is ctx.features for h in products] == ([True] if reads else [])
    if reads:
        assert np.array_equal(ctx.a_tilde_x,
                              sparse_matmul(ctx.a_tilde, ctx.features))


def test_plain_et_gat_forwards_reuse_their_plans(plain_case, monkeypatch):
    """One plan walk, on the context's pattern, over three forwards.

    Each forward propagates with a new ``with_weights`` copy of ``a_tilde``
    (the attention weights); plans are read from the tensor's pattern, so
    the copies never rebuild them. A second context of the same graph
    shares ``a_tilde`` and walks nothing.
    """
    walked = []
    walk = sparse_graph._plan_walk

    def counting_walk(pattern):
        walked.append(pattern)
        return walk(pattern)

    monkeypatch.setattr(sparse_graph, "_plan_walk", counting_walk)
    # a new graph equal to plain_case's, so no pattern with plans yet
    graph, ctx = small_context()
    for _ in range(3):
        etgnn_forward(plain_case.model, ctx)
    assert len(walked) == 1 and walked[0] is ctx.a_tilde
    again = prepare(graph)
    etgnn_forward(plain_case.model, again)
    assert again.a_tilde is ctx.a_tilde and len(walked) == 1


@pytest.mark.parametrize("name", sorted(PLAIN_FORWARDS))
def test_plain_inputs_give_plain_outputs(name, plain_case):
    assert not _holds_var(PLAIN_FORWARDS[name](plain_case))
