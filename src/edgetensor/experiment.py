"""Experiment configuration, multi-seed execution and result reporting."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .datasets import MultiGraphDataset, load_dataset
from .evaluation import link_split, split_nodes
from .features import RECIPE_KINDS
from .generators import sbm_generate
from .models import MODEL_KINDS, NEGATIVE_MODES
from .params import atomic_open, load_checkpoint, save_checkpoint
from .tasks import (run_link_prediction, run_multigraph_classification,
                    run_node_classification)
from .training import TaskConfig

TASKS = ("node_class", "link_pred", "multi_graph")
EDGE_STACK_FIELDS = ("edge_features", "reduce_dim", "edge_hidden", "epsilon",
                     "negative_mode", "blend_attention")  # gcn_only reads none


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    task: str = "node_class"
    model: str = "et_gcn"
    dataset: str = None          # dataset directory; None for synthetic
    synthetic: dict = None       # SBM spec: block_sizes, p_in, p_out, seed[, views]
    seeds: list = field(default_factory=lambda: [0])
    learning_rate: float = 0.01
    epsilon: float = 0.2
    max_epochs: int = 10000
    patience: int = 100
    edge_features: str = "concat"     # concat | subtract; not multi_graph
    reduce_dim: int = 8
    edge_hidden: list = None          # defaults per task
    gc_hidden: list = None
    embed_dim: int = 32               # link-prediction embedding size
    negative_mode: str = "clamp"
    blend_attention: bool = False
    train_per_class: int = None
    train_fraction: float = None
    val_fraction: float = 0.5
    split_seed: int = 0
    test_edge_fraction: float = 0.10
    val_edge_fraction: float = 0.05
    output_dir: str = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.edge_features not in RECIPE_KINDS:
            raise ValueError(f"unknown edge features {self.edge_features!r}")
        if self.task == "multi_graph" and self.edge_features != "concat":
            raise ValueError("multi_graph stacks its adjacency views as edge "
                             "features; leave edge_features at its default")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"unknown negative mode {self.negative_mode!r}")
        changed = [f.name for f in dataclasses.fields(self)
                   if f.name in EDGE_STACK_FIELDS
                   and getattr(self, f.name) != f.default]
        if self.model == "gcn_only" and changed:
            raise ValueError(f"gcn_only has no edge stack; leave {changed} "
                             "at their defaults")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.dataset is None and self.synthetic is None:
            raise ValueError("either a dataset path or a synthetic spec is required")
        if self.dataset is not None and not os.path.isdir(self.dataset):
            raise FileNotFoundError(f"dataset directory {self.dataset!r} not found")

    def semantic_dict(self):
        """All fields that affect results (output_dir is presentation only)."""
        d = dataclasses.asdict(self)
        d.pop("output_dir")
        return d

    def config_hash(self):
        blob = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_json(self, path):
        with atomic_open(path) as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls(**json.load(fh))


@dataclass
class ResultRecord:
    name: str
    config_hash: str
    per_seed: list
    summary: dict


def _summarize(per_seed):
    keys = sorted({k for m in per_seed for k, v in m.items()
                   if k != "seed" and isinstance(v, (int, float))
                   and v is not None})
    summary = {}
    for key in keys:
        vals = np.array([m[key] for m in per_seed
                         if m.get(key) is not None], dtype=np.float64)
        if vals.size:
            summary[key] = {"mean": float(vals.mean()),
                            "std": float(vals.std())}
    return summary


def _load_node_data(config):
    if config.dataset is not None:
        data = load_dataset(config.dataset)
    else:
        spec = dict(config.synthetic)
        spec.pop("views", None)
        data = sbm_generate(**spec)
    if isinstance(data, MultiGraphDataset):
        raise ValueError("node_class/link_pred need a single-graph dataset")
    return data


def _load_multi_data(config):
    if config.dataset is not None:
        data = load_dataset(config.dataset)
        if not isinstance(data, MultiGraphDataset):
            raise ValueError("multi_graph task needs a multi-graph dataset")
        return data
    spec = dict(config.synthetic)
    views = spec.pop("views", 3)
    base_seed = spec.pop("seed", 0)
    graphs = [sbm_generate(seed=base_seed + v, **spec) for v in range(views)]
    return MultiGraphDataset([g.adjacency for g in graphs],
                             graphs[0].node_features, graphs[0].labels)


def _node_splits(config, labels, splits_from_file):
    if splits_from_file:
        return splits_from_file
    train = (config.train_per_class if config.train_per_class is not None
             else config.train_fraction)
    if train is None:
        raise ValueError("set train_per_class or train_fraction")
    return split_nodes(labels, train, config.val_fraction, config.split_seed)


def _run_one_seed(config, data, splits_or_linksplit, seed, initial_params=None):
    task_cfg = TaskConfig(config.learning_rate, config.max_epochs,
                          config.patience, config.epsilon, seed)
    model_kwargs = {
        "recipe_kind": config.edge_features,
        "reduce_dim": config.reduce_dim,
        "negative_mode": config.negative_mode,
        "blend_attention": config.blend_attention,
    }
    if config.edge_hidden is not None:
        model_kwargs["edge_hidden"] = tuple(config.edge_hidden)
    if config.gc_hidden is not None:
        model_kwargs["gc_hidden"] = tuple(config.gc_hidden)

    if config.task == "node_class":
        return run_node_classification(data, splits_or_linksplit, task_cfg,
                                       model_kind=config.model,
                                       model_kwargs=model_kwargs,
                                       initial_params=initial_params)
    if config.task == "link_pred":
        return run_link_prediction(data, splits_or_linksplit, task_cfg,
                                   model_kind=config.model,
                                   model_kwargs=model_kwargs,
                                   embed_dim=config.embed_dim,
                                   initial_params=initial_params)
    return run_multigraph_classification(
        data.graphs, data.node_features, data.labels, splits_or_linksplit,
        task_cfg, model_kind=config.model, model_kwargs=model_kwargs,
        initial_params=initial_params)


def _prepare_task(config):
    if config.task == "multi_graph":
        data = _load_multi_data(config)
        splits = _node_splits(config, data.labels, data.splits)
        return data, splits
    data = _load_node_data(config)
    if config.task == "link_pred":
        return data, link_split(data.adjacency, config.test_edge_fraction,
                                config.val_edge_fraction, config.split_seed)
    return data, _node_splits(config, data.labels, data.splits)


def run_experiment(config):
    """Train over all configured seeds, aggregate, and persist artifacts."""
    data, splits = _prepare_task(config)
    per_seed = []
    runs = []
    for seed in config.seeds:
        run = _run_one_seed(config, data, splits, seed)
        runs.append(run)
        per_seed.append({"seed": seed, **run.metrics})

    record = ResultRecord(f"{config.task}:{config.model}",
                          config.config_hash(), per_seed,
                          _summarize(per_seed))
    if config.output_dir:
        _write_artifacts(config, record, runs)
    return record


def _write_artifacts(config, record, runs):
    os.makedirs(config.output_dir, exist_ok=True)
    config.to_json(os.path.join(config.output_dir, "config.json"))
    with atomic_open(os.path.join(config.output_dir, "result.json")) as fh:
        json.dump({"config": config.semantic_dict(),
                   "record": dataclasses.asdict(record)}, fh, indent=2,
                  sort_keys=True)
    for seed, run in zip(config.seeds, runs):
        path = os.path.join(config.output_dir, f"history_seed{seed}.csv")
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "val_metric",
                             "homophily"])
            for rec in run.history:
                writer.writerow([rec.epoch, rec.train_loss, rec.val_loss,
                                 rec.val_metric, rec.extra.get("homophily")])
    best = min(range(len(runs)),
               key=lambda k: runs[k].metrics.get("val_loss", np.inf))
    save_checkpoint(runs[best].best_params,
                    os.path.join(config.output_dir, "checkpoint"),
                    manifest={"seed": config.seeds[best],
                              "epoch": runs[best].best_epoch,
                              "config_hash": record.config_hash})


def evaluate_checkpoint(config, checkpoint_dir):
    """Metrics of saved parameters, without any training."""
    values, manifest = load_checkpoint(checkpoint_dir)
    data, splits = _prepare_task(config)
    frozen = dataclasses.replace(config, max_epochs=0)
    run = _run_one_seed(frozen, data, splits, manifest.get("seed", 0),
                        initial_params=values)
    return run.metrics


def format_mean_std(mean, std):
    """Render like '80.8±0.7' (one decimal, the usual table style)."""
    return f"{mean:.1f}±{std:.1f}"


def report(records):
    """Aligned comparison table of mean±std per configuration (percent)."""
    if not records:
        raise ValueError("need at least one record")
    records = sorted(records, key=lambda r: r.name)
    keys = sorted({k for r in records for k in r.summary})
    header = ["config", *keys]
    rows = [header]
    for r in records:
        row = [r.name]
        for key in keys:
            s = r.summary.get(key)
            row.append(format_mean_std(100 * s["mean"], 100 * s["std"])
                       if s else "-")
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
