"""End-to-end model: edge-tensor convolution stack feeding node convolutions.

The edge stack produces a scalar weight per stored edge slot; those weights
are symmetrized, clamped nonnegative, degree-renormalized and used as the
graph for the node-convolution stack. Everything is differentiable, so the
edge stack trains from the downstream task loss. Its input is a recipe of
node features, or, for a graph with edge channels (a multi-graph's views),
the channels stacked by :func:`prepare`, the one context builder. Which
settings a model reads is decided here alone, by :func:`read_settings`.

The context keeps what an epoch would otherwise rebuild from the graph
alone: Â·X for a first layer on the features that does not narrow (the
reducer, or ``gcn_only``'s first node layer), and the label pairs
homophily reads. Â itself keeps its plans, gathered weights and flat
segment ids (see :mod:`edgetensor.sparse_graph`). Nothing derived from a
parameter's value is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .edge_tensor import EdgeFeatureTensor
from .evaluation import LabelPairs
from .features import (RECIPE_KINDS, build_concat_features,
                       build_subtract_features)
from .layers import (EdgeConvLayer, GraphConvLayer, attention_forward,
                     gc_forward, gc_project, sparse_matmul, tpgc_forward,
                     tpgc_propagate)
from .sparse_graph import LabeledGraph, renormalize_weights

MODEL_KINDS = ("et_gcn", "et_gat", "gcn_only")


@dataclass(frozen=True)
class EdgeTensorGnn:
    """Layer stack and parameters; the forward branches on what is present.

    No ``edge_layers``: node layers only. No ``reducer``: the context's
    stacked tensor is the edge input. No ``theta``: edges propagate with
    ``a_tilde``.
    """

    recipe: str  # one of RECIPE_KINDS; None without a reducer
    reducer: GraphConvLayer
    edge_layers: list
    gc_layers: list
    theta: object  # (2d,) attention vector (Var); None without attention


@dataclass(frozen=True)
class GraphContext:
    """Precomputed per-graph state shared by every forward pass.

    Two constants of the graph are built on first read and kept for every
    later epoch: ``a_tilde_x``, the product Â·X that a first layer on the
    features reads unless it narrows (n x d floats), and ``label_pairs``,
    the entries homophily scores (two index arrays of at most nnz
    entries). A run that never reads one never builds it.
    """

    features: np.ndarray
    labels: np.ndarray
    a_tilde: object  # renormalized adjacency (SparseAdjacency)
    stacked: EdgeFeatureTensor = None  # fixed initial edge tensor, if any

    @cached_property
    def a_tilde_x(self):
        """Â·X, the plain product of the context's two constants; read-only,
        since every epoch reads this one array."""
        ax = sparse_matmul(self.a_tilde, self.features)
        ax.setflags(write=False)
        return ax

    @cached_property
    def label_pairs(self):
        """``LabelPairs`` of ``a_tilde``'s pattern under ``labels``."""
        return LabelPairs.of(self.a_tilde, self.labels)

    def convolve_features(self, layer):
        """``gc_forward(features, a_tilde, layer)``: a first layer on Â.

        A weight that does not narrow runs (Â X) W from the kept Â·X.
        """
        d, d_out = ad.value(layer.weight).shape
        if d_out < d:
            return gc_forward(self.features, self.a_tilde, layer)
        return gc_project(self.a_tilde_x, layer)


def prepare(graph):
    """Context of a ``LabeledGraph``; its edge channels, if any, are stacked.

    ``a_tilde`` is ``graph.adjacency.renormalized``, which the matrix
    computes once and keeps with its plan pair, so a second context of the
    same graph (another seed, another run) renormalizes nothing and builds
    no plan. The stacked tensor lives on the pattern of ``a_tilde``: each
    entry's channels go to its slot, and the diagonal slots, which the
    graph does not store, are zero.
    """
    a_tilde = graph.adjacency.renormalized
    stacked = None
    if graph.edge_channels is not None:
        values = np.zeros((a_tilde.nnz, graph.edge_channels.shape[1]))
        slots = np.searchsorted(a_tilde.keys, graph.adjacency.keys)
        values[slots] = graph.edge_channels
        stacked = EdgeFeatureTensor(a_tilde, values)
    return GraphContext(graph.node_features, graph.labels, a_tilde, stacked)


def prepare_multigraph(graphs, features, labels):
    """Context of the union of adjacency views, one edge channel per view."""
    return prepare(LabeledGraph.from_views(graphs, features, labels))


# The settings build_model takes that a model may not read: gcn_only has no
# edge stack, and edge channels replace the recipe as the edge input.
EDGE_STACK_SETTINGS = ("recipe", "reduce_dim", "edge_hidden", "epsilon")
RECIPE_SETTINGS = ("recipe", "reduce_dim")


def read_settings(kind, channels, settings):
    """Those of ``settings`` a ``kind`` model reads, given edge ``channels``."""
    unread = (EDGE_STACK_SETTINGS if kind == "gcn_only"
              else RECIPE_SETTINGS if channels else ())
    return {k: v for k, v in settings.items() if k not in unread}


def check_settings(kind, channels, settings):
    """Refuse an unknown kind or recipe, or a non-default value of a
    setting the model never reads; an absent one is default."""
    settings = {k: tuple(v) if isinstance(v, (list, np.ndarray)) else v
                for k, v in {**MODEL_DEFAULTS, **settings}.items()}
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if settings["recipe"] not in RECIPE_KINDS:
        raise ValueError(f"unknown recipe kind {settings['recipe']!r}")
    read = read_settings(kind, channels, settings)
    changed = [k for k, v in settings.items()
               if k not in read and v != MODEL_DEFAULTS[k]]
    if changed:
        why = ("gcn_only has no edge stack" if kind == "gcn_only"
               else "edge channels replace the recipe")
        raise ValueError(f"{why}; leave {changed} at their defaults")


def build_model(tape, kind, ctx, out_dim, *, recipe="concat", reduce_dim=8,
                edge_hidden=(8, 1), gc_hidden=(32,), epsilon=0.2,
                final_activation="softmax", seed=0, hidden_activation="relu"):
    """Register the parameters the forward reads on ``tape``; return the model.

    The node-feature width is read from ``ctx.features``. A context with a
    stacked edge tensor feeds it to the edge stack; otherwise the recipe
    pairs node features reduced to ``reduce_dim`` (concat gives width
    2 * reduce_dim, subtract gives reduce_dim). ``edge_hidden`` lists
    edge-layer output dims and must end in 1; ``gc_hidden`` lists node-layer
    hidden dims (the output layer of size ``out_dim`` is appended).
    :func:`check_settings` refuses a model setting (``recipe`` to
    ``epsilon``) the model never reads. Every argument is checked
    before any parameter is registered.
    """
    check_settings(kind, ctx.stacked is not None, dict(
        recipe=recipe, reduce_dim=reduce_dim, edge_hidden=edge_hidden,
        gc_hidden=gc_hidden, epsilon=epsilon))
    edge_stack = kind != "gcn_only"
    if edge_stack and (not edge_hidden or edge_hidden[-1] != 1):
        raise ValueError("edge_hidden must be nonempty and end in output "
                         f"dimension 1, got {tuple(edge_hidden)}")
    if min(reduce_dim, *edge_hidden, *gc_hidden, out_dim) <= 0:
        raise ValueError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)

    def child_seed():
        return int(rng.integers(2 ** 32))

    d_in = ctx.features.shape[1]
    reducer_seed = child_seed()  # drawn even if unused: later seeds stay put
    reducer = None
    if edge_stack and ctx.stacked is None:
        reducer = GraphConvLayer(
            tape.create("reducer", (d_in, reduce_dim), reducer_seed),
            activation=hidden_activation)
        p = 2 * reduce_dim if recipe == "concat" else reduce_dim
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

    theta = None
    if kind == "et_gat":
        theta = tape.create("theta", (2 * d_in,), child_seed())

    return EdgeTensorGnn(recipe if reducer is not None else None, reducer,
                         edge_layers, gc_layers, theta)


# every model setting's default, as build_model declares it
MODEL_DEFAULTS = {name: build_model.__kwdefaults__[name]
                  for name in (*EDGE_STACK_SETTINGS, "gc_hidden")}


@dataclass
class ForwardResult:
    """Predictions plus the learned edge weights for diagnostics."""

    z: object                     # (n, out_dim) Var or ndarray
    edge_weights: object = None   # SparseAdjacency: clamped weights, pre-renorm


def _edge_input(model, ctx, prop):
    """An edge tensor and the edge layers still to run on it.

    Without a reducer that is the stacked tensor and every layer. A recipe
    pairs the rows of the reducer, a first layer on the context's
    features, and projects them by the first edge layer's weight at node
    level, so that layer runs only :func:`tpgc_propagate` here and the
    rest remain. A widening first layer instead gets the pair features
    themselves (an identity projection) and runs whole, so it still
    propagates at the narrower width.
    """
    layers = model.edge_layers
    if model.reducer is None:
        return ctx.stacked, layers
    builder = (build_concat_features if model.recipe == "concat"
               else build_subtract_features)
    reduced = ctx.convolve_features(model.reducer)
    first = layers[0]
    p, p_out = ad.value(first.weight).shape
    if p_out > p:
        return builder(reduced, ctx.a_tilde, np.eye(p)), layers
    s = builder(reduced, ctx.a_tilde, first.weight)
    return tpgc_propagate(s, prop, first), layers[1:]


def etgnn_forward(model, ctx):
    """Full forward pass on the context's node features.

    Traced whenever the model parameters are Vars (they are, once built on
    a tape), so the result's ``z`` supports backpropagation. Without an
    edge stack the first node layer runs on Â, through
    ``ctx.convolve_features``.
    """
    h = ctx.features
    pattern = ctx.a_tilde
    graph, edge_weights = pattern, None
    if model.edge_layers:
        prop = (ctx.a_tilde if model.theta is None
                else attention_forward(h, ctx.a_tilde, model.theta))
        s, layers = _edge_input(model, ctx, prop)
        for layer in layers:
            s = tpgc_forward(s, prop, layer)

        raw = ad.reshape(s.values, (-1,))
        sym = ad.mul(ad.add(raw, ad.gather_rows(raw, s.pattern.transpose_permutation)), 0.5)
        clamped = ad.relu(sym)
        norm = renormalize_weights(pattern.rows, pattern.cols, pattern.n, clamped)
        graph = pattern.with_weights(norm)
        edge_weights = pattern.with_weights(clamped)

    first, *rest = model.gc_layers
    out = (ctx.convolve_features(first) if graph is pattern
           else gc_forward(h, graph, first))
    for layer in rest:
        out = gc_forward(out, graph, layer)
    return ForwardResult(out, edge_weights)


def link_scores(z, pairs):
    """Inner-product decoder: sigmoid(z_i . z_j) for each requested pair.

    The dot products are one op: the forward is one
    :func:`autodiff.row_dots` call, and the adjoint scatters with
    :func:`autodiff.gather_scale_sum`, once per pair column. Neither
    direction builds a (pairs x width) block; the tape keeps an F-ordered
    copy of ``z`` and the index columns.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    zv = ad.value(z)
    n = zv.shape[0]
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("evaluation pair references unknown node")
    i, j = np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])
    # F-ordered, so each kernel's transpose of it is free
    z_f = np.asfortranarray(zv)
    dots = ad.row_dots(z_f, i, z_f, j)

    def vjp(g):
        return (ad.gather_scale_sum(z_f, j, g, i, n)
                + ad.gather_scale_sum(z_f, i, g, j, n))

    return ad.sigmoid(ad._node(dots, (z, vjp)))
