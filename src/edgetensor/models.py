"""End-to-end model: edge-tensor convolution stack feeding node convolutions.

The edge stack produces a scalar weight per stored edge slot; those weights
are symmetrized, clamped nonnegative, degree-renormalized and used as the
graph for the node-convolution stack. Everything is differentiable, so the
edge stack trains from the downstream task loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .edge_tensor import EdgeFeatureTensor
from .features import (RECIPE_KINDS, build_concat_features,
                       build_stacked_graph_features, build_subtract_features,
                       union_graph)
from .layers import (AttentionHead, EdgeConvLayer, GraphConvLayer,
                     attention_forward, blend_edge_weights, gc_forward,
                     tpgc_forward)
from .sparse_graph import renormalize, renormalize_weights

MODEL_KINDS = ("et_gcn", "et_gat", "gcn_only")
NEGATIVE_MODES = ("clamp", "abs")


@dataclass(frozen=True)
class EdgeTensorGnn:
    """Layer stack and parameters; the forward branches on what is present.

    No ``edge_layers``: node layers only. No ``reducer``: the context's
    stacked tensor is the edge input. No ``attention_head``: edges
    propagate with ``a_tilde``.
    """

    recipe: str  # one of RECIPE_KINDS; None without a reducer
    reducer: GraphConvLayer
    edge_layers: list
    gc_layers: list
    attention_head: AttentionHead = None
    negative_mode: str = "clamp"
    blend_attention: bool = False


@dataclass(frozen=True)
class GraphContext:
    """Precomputed per-graph state shared by every forward pass."""

    features: np.ndarray
    labels: np.ndarray
    a_tilde: object  # renormalized adjacency (SparseAdjacency)
    stacked: EdgeFeatureTensor = None  # fixed initial edge tensor, if any


def prepare(graph):
    """Context for a single-graph task."""
    return GraphContext(graph.node_features, graph.labels,
                        renormalize(graph.adjacency))


def prepare_multigraph(graphs, features, labels):
    """Context for multi-graph tasks: stacked edge tensor over the union graph.

    The companion adjacency used for propagation is the renormalized binary
    union of all views.
    """
    a_tilde = renormalize(union_graph(graphs))
    stacked = build_stacked_graph_features(graphs, support=a_tilde.support)
    return GraphContext(np.asarray(features, dtype=np.float64),
                        np.asarray(labels, dtype=np.intp), a_tilde, stacked)


def build_model(tape, kind, ctx, out_dim, *, recipe_kind="concat",
                reduce_dim=8, edge_hidden=(8, 1), gc_hidden=(32,),
                epsilon=0.2, negative_mode="clamp", blend_attention=False,
                final_activation="softmax", seed=0, hidden_activation="relu"):
    """Register the parameters the forward reads on ``tape``; return the model.

    The node-feature width is read from ``ctx.features``. A context with a
    stacked edge tensor feeds it to the edge stack; otherwise the recipe
    pairs node features reduced to ``reduce_dim`` (concat gives width
    2 * reduce_dim, subtract gives reduce_dim). ``edge_hidden`` lists
    edge-layer output dims and must end in 1; ``gc_hidden`` lists node-layer
    hidden dims (the output layer of size ``out_dim`` is appended).
    Every argument is checked before any parameter is registered.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if recipe_kind not in RECIPE_KINDS:
        raise ValueError(f"unknown recipe kind {recipe_kind!r}")
    if negative_mode not in NEGATIVE_MODES:
        raise ValueError(f"unknown negative mode {negative_mode!r}")
    edge_stack = kind != "gcn_only"
    if edge_stack and (not edge_hidden or edge_hidden[-1] != 1):
        raise ValueError("edge_hidden must be nonempty and end in output "
                         f"dimension 1, got {tuple(edge_hidden)}")
    if blend_attention and not edge_stack:
        raise ValueError("gcn_only has no edge stack to blend attention into")
    if min(reduce_dim, *edge_hidden, *gc_hidden, out_dim) <= 0:
        raise ValueError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)

    def child_seed():
        return int(rng.integers(2 ** 32))

    d_in = ctx.features.shape[1]
    reducer_seed = child_seed()  # drawn even if unused: later seeds stay put
    recipe = reducer = None
    if edge_stack and ctx.stacked is None:
        recipe = recipe_kind
        reducer = GraphConvLayer(
            tape.create("reducer", (d_in, reduce_dim), reducer_seed),
            activation=hidden_activation)
        p = 2 * reduce_dim if recipe_kind == "concat" else reduce_dim
    elif edge_stack:
        p = ctx.stacked.p

    edge_layers = []
    if edge_stack:
        dims = [p, *edge_hidden]
        for k in range(len(edge_hidden)):
            act = hidden_activation if k < len(edge_hidden) - 1 else "identity"
            w = tape.create(f"edge_{k}", (dims[k], dims[k + 1]), child_seed())
            if k == len(edge_hidden) - 1:
                # downstream clamp zeroes negative edge weights; a nonnegative
                # projection over the relu hidden keeps the initial graph alive
                np.abs(w.value, out=w.value)
            edge_layers.append(EdgeConvLayer(w, epsilon=epsilon, activation=act))

    gc_layers = []
    dims = [d_in, *gc_hidden, out_dim]
    for k in range(len(dims) - 1):
        act = hidden_activation if k < len(dims) - 2 else final_activation
        w = tape.create(f"gc_{k}", (dims[k], dims[k + 1]), child_seed())
        gc_layers.append(GraphConvLayer(w, activation=act))

    head = None
    if kind == "et_gat" or blend_attention:
        head = AttentionHead(tape.create("theta", (2 * d_in,), child_seed()))

    return EdgeTensorGnn(recipe, reducer, edge_layers, gc_layers,
                         attention_head=head, negative_mode=negative_mode,
                         blend_attention=blend_attention)


@dataclass
class ForwardResult:
    """Predictions plus the learned edge weights for diagnostics."""

    z: object                     # (n, out_dim) Var or ndarray
    edge_weights: object = None   # SparseAdjacency: clamped weights, pre-renorm


def _build_initial_tensor(model, ctx, h):
    if model.reducer is None:
        return ctx.stacked
    builder = (build_concat_features if model.recipe == "concat"
               else build_subtract_features)
    return builder(h, ctx.a_tilde, model.reducer)


def _propagation_weights(model, ctx, h):
    if model.attention_head is None:
        return ctx.a_tilde
    alpha = attention_forward(h, ctx.a_tilde, model.attention_head)
    if model.blend_attention:
        return blend_edge_weights(ctx.a_tilde, alpha)
    return alpha


def etgnn_forward(model, ctx, h=None):
    """Full forward pass; ``h`` defaults to the context's node features.

    Traced whenever the model parameters are Vars (they are, once built on
    a tape), so the result's ``z`` supports backpropagation.
    """
    h = ctx.features if h is None else h
    pattern = ctx.a_tilde
    if not model.edge_layers:
        out = h
        for layer in model.gc_layers:
            out = gc_forward(out, pattern, layer)
        return ForwardResult(out)

    s = _build_initial_tensor(model, ctx, h)
    prop = _propagation_weights(model, ctx, h)
    for layer in model.edge_layers:
        s = tpgc_forward(s, prop, layer)

    raw = ad.reshape(s.values, (-1,))
    sym = ad.scale(ad.add(raw, ad.gather_rows(raw, s.support.transpose_permutation)), 0.5)
    clamped = ad.relu(sym) if model.negative_mode == "clamp" else ad.absolute(sym)
    norm = renormalize_weights(pattern.rows, pattern.cols, pattern.n, clamped)
    learned = pattern.with_weights(norm)

    out = h
    for layer in model.gc_layers:
        out = gc_forward(out, learned, layer)
    return ForwardResult(out, pattern.with_weights(clamped))


def link_scores(z, pairs):
    """Inner-product decoder: sigmoid(z_i . z_j) for each requested pair."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= ad.value(z).shape[0]):
        raise ValueError("evaluation pair references unknown node")
    left = ad.gather_rows(z, pairs[:, 0])
    right = ad.gather_rows(z, pairs[:, 1])
    return ad.sigmoid(ad.sum_cols(ad.mul(left, right)))
