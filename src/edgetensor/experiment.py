"""Experiment configuration, multi-seed execution and result reporting.

A graph with edge channels, from synthetic ``views`` or ``edges_k.tsv``, is
classified by ``node_class`` like any other."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .datasets import load_dataset
from .evaluation import link_split, split_nodes
from .generators import sbm_generate
from .models import MODEL_DEFAULTS, check_settings
from .params import atomic_open, load_checkpoint, save_checkpoint
from .sparse_graph import LabeledGraph
from .tasks import run_link_prediction, run_node_classification
from .training import TaskConfig

TASKS = ("node_class", "link_pred")
# the split and decoder settings each task reads, with their defaults; a
# config refuses a changed setting that its task never reads
TASK_SETTINGS = {
    "node_class": {"train_per_class": None, "train_fraction": None,
                   "val_fraction": 0.5},
    "link_pred": {"embed_dim": 32, "test_edge_fraction": 0.10,
                  "val_edge_fraction": 0.05},
}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment. The model settings
    are ``build_model``'s keywords and defaults (a None width is the
    task's); ``models.check_settings`` decides which a model reads, and
    ``TASK_SETTINGS`` which split and decoder settings a task reads."""

    task: str = "node_class"
    model: str = "et_gcn"
    dataset: str = None          # dataset directory; None for synthetic
    synthetic: dict = None       # SBM spec: block_sizes, p_in, p_out, seed[, views]
    seeds: list = field(default_factory=lambda: [0])
    learning_rate: float = 0.01
    epsilon: float = MODEL_DEFAULTS["epsilon"]
    max_epochs: int = 10000
    patience: int = 100
    recipe: str = MODEL_DEFAULTS["recipe"]  # concat | subtract
    reduce_dim: int = MODEL_DEFAULTS["reduce_dim"]
    edge_hidden: list = None          # None: the task's widths
    gc_hidden: list = None
    embed_dim: int = TASK_SETTINGS["link_pred"]["embed_dim"]
    train_per_class: int = TASK_SETTINGS["node_class"]["train_per_class"]
    train_fraction: float = TASK_SETTINGS["node_class"]["train_fraction"]
    val_fraction: float = TASK_SETTINGS["node_class"]["val_fraction"]
    split_seed: int = 0
    test_edge_fraction: float = TASK_SETTINGS["link_pred"]["test_edge_fraction"]
    val_edge_fraction: float = TASK_SETTINGS["link_pred"]["val_edge_fraction"]
    output_dir: str = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; tasks are "
                             f"{', '.join(TASKS)} (a graph with edge channels "
                             "is node_class)")
        # edge channels are known once the graph loads: build_model refuses
        # recipe settings then, and this refuses what no graph's model reads
        check_settings(self.model, False, _model_settings(self))
        unread = [name for task, settings in TASK_SETTINGS.items()
                  if task != self.task for name, default in settings.items()
                  if getattr(self, name) != default]
        if unread:
            raise ValueError(f"{self.task} never reads {unread}; leave them "
                             "at their defaults")
        if self.train_per_class is not None and self.train_fraction is not None:
            raise ValueError("set train_per_class or train_fraction, not both")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        # a bool would train as 0 or 1 under another hash, and a float, a
        # negative or a string would fail inside numpy, naming no field
        bad = [s for s in self.seeds
               if isinstance(s, bool) or not isinstance(s, int) or s < 0]
        if bad:
            raise ValueError(f"seeds must be nonnegative integers, got {bad!r}")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ValueError(f"seeds {repeated} are repeated; each seed "
                             "trains one run")
        # the learning rate and epoch settings follow TaskConfig's rules
        TaskConfig(self.learning_rate, self.max_epochs, self.patience)
        if (self.dataset is None) == (self.synthetic is None):
            raise ValueError("exactly one of a dataset path or a synthetic "
                             "spec is required")
        if self.task == "link_pred" and "views" in (self.synthetic or {}):
            raise ValueError("link_pred takes a graph without edge "
                             "channels; synthetic views are for node_class")
        views = (self.synthetic or {}).get("views", 1)
        if (isinstance(views, bool) or not isinstance(views, numbers.Integral)
                or views < 1):
            raise ValueError("synthetic views must be a positive integer, "
                             f"got {views!r}")
        if self.dataset is not None and not os.path.isdir(self.dataset):
            raise FileNotFoundError(f"dataset directory {self.dataset!r} not found")

    def semantic_dict(self):
        """All fields that affect results (output_dir is presentation only)."""
        d = dataclasses.asdict(self)
        d.pop("output_dir")
        return d

    def config_hash(self):
        """Hash of :meth:`semantic_dict`, with the dataset keyed by its
        resolved path, so every spelling of one directory hashes alike."""
        semantics = self.semantic_dict()
        if self.dataset is not None:
            semantics["dataset"] = os.path.realpath(self.dataset)
        blob = json.dumps(semantics, sort_keys=True)
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
                   if k != "seed" and isinstance(v, (int, float))})
    summary = {}
    for key in keys:
        vals = np.array([m[key] for m in per_seed
                         if m.get(key) is not None], dtype=np.float64)
        if vals.size:
            summary[key] = {"mean": float(vals.mean()),
                            "std": float(vals.std())}
    return summary


def _model_settings(config):
    """The model settings by ``build_model`` keyword; a None width is not."""
    return {name: getattr(config, name) for name in MODEL_DEFAULTS
            if getattr(config, name) is not None}


def _load_data(config):
    """The configured graph: a dataset, synthetic ``views`` stacked as edge
    channels, or one synthetic graph."""
    if config.dataset is not None:
        return load_dataset(config.dataset)
    if "views" not in config.synthetic:
        return sbm_generate(**config.synthetic)
    spec = dict(config.synthetic)
    views, base_seed = spec.pop("views"), spec.pop("seed", 0)
    graphs = [sbm_generate(seed=base_seed + v, **spec) for v in range(views)]
    return LabeledGraph.from_views([g.adjacency for g in graphs],
                                   graphs[0].node_features, graphs[0].labels)


def _node_splits(config, labels, splits_from_file):
    """The dataset's own splits, which leave every split setting unread,
    or a split drawn by the config's settings."""
    if splits_from_file:
        changed = [f.name for f in dataclasses.fields(config)
                   if f.name in (*TASK_SETTINGS["node_class"], "split_seed")
                   and getattr(config, f.name) != f.default]
        if changed:
            raise ValueError(f"the dataset carries its own splits, so it "
                             f"never reads {changed}; leave them at their "
                             "defaults")
        return splits_from_file
    train = (config.train_per_class if config.train_per_class is not None
             else config.train_fraction)
    if train is None:
        raise ValueError("set train_per_class or train_fraction")
    return split_nodes(labels, train, config.val_fraction, config.split_seed)


def _run_one_seed(config, data, splits_or_linksplit, seed, initial_params=None):
    task_cfg = TaskConfig(config.learning_rate, config.max_epochs,
                          config.patience, seed)
    shared = dict(model_kind=config.model, initial_params=initial_params,
                  model_kwargs=_model_settings(config))
    if config.task == "link_pred":
        return run_link_prediction(data, splits_or_linksplit, task_cfg,
                                   embed_dim=config.embed_dim, **shared)
    return run_node_classification(data, splits_or_linksplit, task_cfg,
                                   **shared)


def _prepare_task(config):
    data = _load_data(config)
    if config.task == "link_pred":
        return data, link_split(data.adjacency, config.test_edge_fraction,
                                config.val_edge_fraction, config.split_seed)
    return data, _node_splits(config, data.labels, data.splits)


def run_experiment(config):
    """Train over all configured seeds, aggregate, and persist artifacts."""
    data, splits = _prepare_task(config)
    runs = [_run_one_seed(config, data, splits, seed) for seed in config.seeds]
    per_seed = [{"seed": seed, **run.metrics}
                for seed, run in zip(config.seeds, runs)]

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
    """Metrics of saved parameters, without any training: one epoch, which
    as the last updates nothing, scores them. The ``checkpoint.json`` in
    ``checkpoint_dir`` must be saved under ``config``: its hash is checked."""
    values, manifest = load_checkpoint(checkpoint_dir)
    saved, expected = manifest.get("config_hash"), config.config_hash()
    if saved != expected:
        raise ValueError(f"checkpoint was saved under config hash {saved}, "
                         f"not this config's {expected}")
    data, splits = _prepare_task(config)
    frozen = dataclasses.replace(config, max_epochs=1)
    return _run_one_seed(frozen, data, splits, manifest.get("seed", 0),
                         initial_params=values).metrics


def format_mean_std(mean, std):
    """Render like '80.8±0.7' (one decimal, the usual table style)."""
    return f"{mean:.1f}±{std:.1f}"


def report(records):
    """Aligned comparison table of mean±std per configuration (percent)."""
    if not records:
        raise ValueError("need at least one record")
    records = sorted(records, key=lambda r: r.name)
    keys = sorted({k for r in records for k in r.summary})
    rows = [["config", *keys]]
    for r in records:
        stats = [r.summary.get(key) for key in keys]
        rows.append([r.name, *(format_mean_std(100 * s["mean"], 100 * s["std"])
                               if s else "-" for s in stats)])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)
