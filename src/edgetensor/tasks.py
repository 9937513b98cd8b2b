"""End-to-end training pipelines: node classification, on a graph with or
without edge channels, and link prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import (LinkSplit, accuracy, auc_ap, homophily, roc_auc,
                         sample_non_edges)
from .models import (build_model, etgnn_forward, link_scores, prepare,
                     read_settings)
from .params import ParamTape
from .sparse_graph import LabeledGraph, check_splits
from .training import bce_from_scores, cross_entropy_masked, train_loop

# layer widths of a run on edge channels, under any the caller sets
MULTI_GRAPH_WIDTHS = {"gc_hidden": (16,), "edge_hidden": (6, 1)}


@dataclass
class SeedRunResult:
    """Outcome of one seeded training run."""

    metrics: dict
    history: list
    best_epoch: int
    best_params: dict


def _learned_homophily(result, ctx):
    if result.edge_weights is None:
        return None
    try:
        return homophily(result.edge_weights, ctx.label_pairs)
    except ValueError:
        return None


def _run(tape, config, initial_params, step, evaluate):
    """Train with ``step`` and score the best epoch's outputs.

    ``evaluate(z, outcome)`` maps the predictions of the best epoch's own
    forward pass and the training outcome to the task's metrics, so no
    forward pass runs after training.
    """
    if initial_params is not None:
        tape.restore(initial_params)
    outcome = train_loop(tape, step, config)
    metrics = evaluate(outcome.best_outputs, outcome)
    return SeedRunResult(metrics, outcome.history, outcome.best_epoch,
                         outcome.best_params)


def run_node_classification(graph, splits, config, *, model_kind="et_gcn",
                            model_kwargs=None, initial_params=None):
    """Train on the labeled train split, early-stop on validation loss.

    A graph with edge channels feeds them to the edge stack in place of a
    recipe, with those of ``MULTI_GRAPH_WIDTHS`` that the model reads under
    the widths ``model_kwargs`` sets.
    """
    return _classify_nodes(prepare(graph), splits, config, model_kind,
                           model_kwargs, initial_params)


def _classify_nodes(ctx, splits, config, model_kind, model_kwargs,
                    initial_params):
    """Node classification on a prepared context; training reads only it.

    ``splits`` must pass ``check_splits`` on the context's nodes.
    """
    labels = ctx.labels
    splits = check_splits(splits, ctx.a_tilde.n)
    widths = (read_settings(model_kind, True, MULTI_GRAPH_WIDTHS)
              if ctx.stacked is not None else {})
    tape = ParamTape()
    model = build_model(tape, model_kind, ctx,
                        int(labels[labels >= 0].max()) + 1,
                        final_activation="softmax", seed=config.seed,
                        **{**widths, **(model_kwargs or {})})

    def step(epoch):
        result = etgnn_forward(model, ctx)
        z = result.z.value
        loss = cross_entropy_masked(result.z, labels, splits["train"])
        val_loss = cross_entropy_masked(z, labels, splits["val"])
        val_acc = accuracy(z, labels, splits["val"])
        extra = {"homophily": _learned_homophily(result, ctx)}
        return loss, val_loss, val_acc, extra, z

    def evaluate(z, outcome):
        return {
            "test_accuracy": accuracy(z, labels, splits["test"]),
            "val_accuracy": accuracy(z, labels, splits["val"]),
            "val_loss": outcome.best_val_loss,
            "homophily": outcome.history[outcome.best_epoch].extra["homophily"],
            "initial_homophily": outcome.history[0].extra["homophily"],
        }

    return _run(tape, config, initial_params, step, evaluate)


def run_link_prediction(graph, split, config, *, model_kind="et_gcn",
                        model_kwargs=None, embed_dim=32, initial_params=None):
    """Train an inner-product link decoder on the held-out edge split.

    The split carries no edge channels, so a graph with them is refused:
    the channels of a held-out edge would reach the model.
    """
    if not isinstance(split, LinkSplit):
        raise TypeError(f"split must be a LinkSplit, not {type(split).__name__}")
    if graph.edge_channels is not None:
        raise ValueError("link prediction takes a graph without edge channels")
    ctx = prepare(LabeledGraph(split.train, graph.node_features, graph.labels))
    tape = ParamTape()
    model = build_model(tape, model_kind, ctx, embed_dim,
                        final_activation="identity", seed=config.seed,
                        **{"gc_hidden": (64,), **(model_kwargs or {})})

    upper = split.train.rows < split.train.cols
    train_pos = np.stack([split.train.rows[upper], split.train.cols[upper]],
                         axis=1)
    train_keys = split.train.keys[upper]
    neg_rng = np.random.default_rng(config.seed + 0x5EED)

    def labeled_pairs(pos, neg):
        return (np.concatenate([pos, neg]),
                np.concatenate([np.ones(len(pos)), np.zeros(len(neg))]))

    val_pairs, val_labels = labeled_pairs(split.val_pos, split.val_neg)
    num_val_pos = len(split.val_pos)

    def step(epoch):
        result = etgnn_forward(model, ctx)
        z = result.z.value
        train_neg = sample_non_edges(graph.n, train_keys, len(train_pos),
                                     neg_rng)
        loss = bce_from_scores(link_scores(result.z, train_pos),
                               link_scores(result.z, train_neg))
        scores = link_scores(z, val_pairs)
        val_loss = bce_from_scores(scores[:num_val_pos], scores[num_val_pos:])
        return loss, float(val_loss), roc_auc(scores, val_labels), {}, z

    def evaluate(z, outcome):
        pairs, labels = labeled_pairs(split.test_pos, split.test_neg)
        auc, ap = auc_ap(link_scores(z, pairs), labels)
        return {"auc": auc, "ap": ap, "val_loss": outcome.best_val_loss}

    return _run(tape, config, initial_params, step, evaluate)


def run_multigraph_classification(graphs, features, labels, splits, config, *,
                                  model_kind="et_gcn", model_kwargs=None,
                                  initial_params=None):
    """Node classification on the union of adjacency views, one channel each.

    The union is an argument of ``prepare`` only, so it is freed once the
    context is built, before training starts.
    """
    return _classify_nodes(
        prepare(LabeledGraph.from_views(graphs, features, labels)), splits,
        config, model_kind, model_kwargs, initial_params)
