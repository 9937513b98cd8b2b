"""End-to-end training pipelines for the three supported tasks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import (LinkSplit, accuracy, auc_ap, homophily,
                         sample_non_edges)
from .models import (GraphContext, build_model, etgnn_forward, link_scores,
                     prepare, prepare_multigraph)
from .params import ParamTape
from .sparse_graph import renormalize
from .training import (TaskConfig, bce_from_scores, cross_entropy_masked,
                       train_loop)


@dataclass
class SeedRunResult:
    """Outcome of one seeded training run."""

    metrics: dict
    history: list
    best_epoch: int
    best_params: dict
    model: object
    context: object


def _learned_homophily(result, labels):
    if result.edge_weights is None:
        return None
    try:
        return homophily(result.edge_weights, labels, weighted=True)
    except ValueError:
        return None


def _run(tape, model, ctx, config, initial_params, step, evaluate):
    """Train with ``step`` and score the restored best parameters.

    ``evaluate(final, outcome)`` maps the final forward pass and the
    training outcome to the task's metrics.
    """
    if initial_params is not None:
        tape.restore(initial_params)
    outcome = train_loop(tape, step, config)
    metrics = evaluate(etgnn_forward(model, ctx), outcome)
    return SeedRunResult(metrics, outcome.history, outcome.best_epoch,
                         outcome.best_params, model, ctx)


def _classification_step(model, ctx, splits):
    """Epoch step of node classification on ``ctx.labels``."""
    labels = ctx.labels

    def step(epoch):
        result = etgnn_forward(model, ctx)
        train = cross_entropy_masked(result.z, labels, splits["train"])
        val = cross_entropy_masked(result.z.value, labels, splits["val"])
        val_acc = accuracy(result.z, labels, splits["val"])
        extra = {"homophily": _learned_homophily(result, labels)}
        return train.loss_var, val.loss, val_acc, extra

    return step


def run_node_classification(graph, splits, config, *, model_kind="et_gcn",
                            model_kwargs=None, initial_params=None):
    """Train on the labeled train split, early-stop on validation loss."""
    ctx = prepare(graph)
    labels = graph.labels
    tape = ParamTape()
    kwargs = dict(gc_hidden=(32,), edge_hidden=(8, 1))
    kwargs.update(model_kwargs or {})
    model = build_model(tape, model_kind, graph.node_features.shape[1],
                        graph.num_classes, epsilon=config.epsilon,
                        final_activation="softmax", seed=config.seed, **kwargs)

    def evaluate(final, outcome):
        return {
            "test_accuracy": accuracy(final.z, labels, splits["test"]),
            "val_accuracy": accuracy(final.z, labels, splits["val"]),
            "val_loss": outcome.best_val_loss,
            "homophily": _learned_homophily(final, labels),
            "initial_homophily": (outcome.history[0].extra.get("homophily")
                                  if outcome.history else None),
        }

    return _run(tape, model, ctx, config, initial_params,
                _classification_step(model, ctx, splits), evaluate)


def run_link_prediction(graph, split, config, *, model_kind="et_gcn",
                        model_kwargs=None, embed_dim=32, initial_params=None):
    """Train an inner-product link decoder on the held-out edge split."""
    if not isinstance(split, LinkSplit):
        raise TypeError(f"split must be a LinkSplit, not {type(split).__name__}")
    ctx = GraphContext(graph.node_features, graph.labels,
                       renormalize(split.train))
    tape = ParamTape()
    kwargs = dict(gc_hidden=(64,), edge_hidden=(8, 1))
    kwargs.update(model_kwargs or {})
    model = build_model(tape, model_kind, graph.node_features.shape[1],
                        embed_dim, epsilon=config.epsilon,
                        final_activation="identity", seed=config.seed, **kwargs)

    upper = split.train.rows < split.train.cols
    train_pos = np.stack([split.train.rows[upper], split.train.cols[upper]],
                         axis=1)
    train_keys = set((train_pos[:, 0] * graph.n + train_pos[:, 1]).tolist())
    neg_rng = np.random.default_rng(config.seed + 0x5EED)

    def pair_scores(z, pos, neg):
        labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        scores = link_scores(z, np.concatenate([pos, neg]))
        return scores, labels

    def step(epoch):
        result = etgnn_forward(model, ctx)
        train_neg = sample_non_edges(graph.n, train_keys, len(train_pos),
                                     neg_rng)
        loss = bce_from_scores(link_scores(result.z, train_pos),
                               link_scores(result.z, train_neg))
        val_loss = bce_from_scores(
            link_scores(result.z.value, split.val_pos),
            link_scores(result.z.value, split.val_neg))
        scores, lab = pair_scores(result.z.value, split.val_pos, split.val_neg)
        val_auc = auc_ap(scores, lab).auc
        return loss, float(val_loss), val_auc, {}

    def evaluate(final, outcome):
        scores, lab = pair_scores(final.z.value, split.test_pos, split.test_neg)
        report = auc_ap(scores, lab)
        return {"auc": report.auc, "ap": report.ap,
                "val_loss": outcome.best_val_loss}

    return _run(tape, model, ctx, config, initial_params, step, evaluate)


def run_multigraph_classification(graphs, features, labels, splits, config, *,
                                  model_kind="et_gcn", model_kwargs=None,
                                  initial_params=None):
    """Node classification over stacked adjacency views."""
    ctx = prepare_multigraph(graphs, features, labels)
    tape = ParamTape()
    kwargs = dict(gc_hidden=(16,), edge_hidden=(6, 1))
    kwargs.update(model_kwargs or {})
    num_classes = int(ctx.labels[ctx.labels >= 0].max()) + 1
    model = build_model(tape, model_kind, ctx.features.shape[1], num_classes,
                        recipe_kind="stack", stacked_channels=len(graphs),
                        epsilon=config.epsilon, final_activation="softmax",
                        seed=config.seed, **kwargs)

    def evaluate(final, outcome):
        return {
            "test_accuracy": accuracy(final.z, ctx.labels, splits["test"]),
            "val_loss": outcome.best_val_loss,
            "homophily": _learned_homophily(final, ctx.labels),
        }

    return _run(tape, model, ctx, config, initial_params,
                _classification_step(model, ctx, splits), evaluate)
