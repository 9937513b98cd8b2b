"""Experiment configs, artifact persistence, reporting, and the CLI."""

import csv
import dataclasses
import inspect
import json
import os
import re

import numpy as np
import pytest

from edgetensor import cli, experiment, sparse_graph, tasks
from edgetensor.cli import main
from edgetensor.experiment import (ExperimentConfig, ResultRecord,
                                   evaluate_checkpoint, format_mean_std,
                                   report, run_experiment)
from edgetensor.datasets import save_dataset
from edgetensor.generators import sbm_generate
from edgetensor.params import load_checkpoint, save_checkpoint
from edgetensor.evaluation import split_nodes
from edgetensor.models import MODEL_DEFAULTS, build_model
from edgetensor.sparse_graph import LabeledGraph
from edgetensor.tasks import run_multigraph_classification
from edgetensor.training import TaskConfig

SBM = {"block_sizes": [12, 12], "p_in": 0.4, "p_out": 0.05, "seed": 0}


def quick_config(**overrides):
    """A small config; node_class splits only where the task reads them."""
    base = dict(task="node_class", synthetic=dict(SBM), seeds=[0, 1],
                max_epochs=12, patience=12, reduce_dim=2, edge_hidden=[2, 1],
                gc_hidden=[4])
    if overrides.get("task", "node_class") == "node_class":
        base.update(train_per_class=3, val_fraction=0.3)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    # a config naming a retired task is pointed at the valid ones
    with pytest.raises(ValueError, match="unknown task 'multi_graph'; tasks "
                                         "are node_class, link_pred"):
        quick_config(task="multi_graph")
    with pytest.raises(ValueError, match="seeds"):
        quick_config(seeds=[])
    # a repeated seed would train one run again, overwrite its history CSV
    # and report a std over copies; the error names each repeated seed
    with pytest.raises(ValueError, match=r"seeds \[1\] are repeated"):
        quick_config(seeds=[1, 1, 1])
    with pytest.raises(ValueError, match=r"seeds \[0, 2\] are repeated"):
        quick_config(seeds=[2, 0, 2, 1, 0])
    with pytest.raises(ValueError, match="dataset path or a synthetic"):
        ExperimentConfig(task="node_class", synthetic=None)
    with pytest.raises(FileNotFoundError):
        quick_config(dataset="/nonexistent/path", synthetic=None)


@pytest.mark.parametrize("seed", [True, 1.5, -1, "3"])
def test_config_refuses_a_seed_that_is_not_a_nonnegative_int(seed):
    with pytest.raises(ValueError, match=r"seeds must be nonnegative "
                                         r"integers, got \[" + re.escape(repr(seed))):
        quick_config(seeds=[0, seed])


def test_config_json_refuses_a_bool_seed(tmp_path):
    """JSON's ``true`` is a bool, not the seed 1."""
    path = tmp_path / "config.json"
    quick_config().to_json(path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "seeds": [True]}))
    with pytest.raises(ValueError, match=r"seeds must be nonnegative "
                                         r"integers, got \[True\]"):
        ExperimentConfig.from_json(path)


def test_config_takes_exactly_one_graph_source(tmp_path):
    """A dataset and a synthetic spec together are refused: the loader
    would read the dataset, and the spec would change only the hash."""
    data_dir = tmp_path / "data"
    save_dataset(sbm_generate(**SBM), data_dir)
    quick_config(dataset=str(data_dir), synthetic=None)
    with pytest.raises(ValueError, match="exactly one of a dataset path or "
                                         "a synthetic spec"):
        quick_config(dataset=str(data_dir))


@pytest.mark.parametrize("field, value, message", [
    ("recipe", "bogus", "recipe kind"),
    ("recipe", "stack", "recipe kind"),
], ids=["recipe", "recipe_stack"])
def test_config_rejects_unknown_model_options(field, value, message):
    with pytest.raises(ValueError, match=f"unknown {message} '{value}'"):
        quick_config(**{field: value})


@pytest.mark.parametrize("key, value", [("negative_mode", "clamp"),
                                        ("blend_attention", False)])
def test_config_json_naming_a_removed_model_option_is_refused(tmp_path, key,
                                                              value):
    """A model has no negative mode or attention blend: a config.json that
    names either, even at its old default, is refused, naming the key."""
    path = tmp_path / "config.json"
    quick_config().to_json(path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, key: value}))
    with pytest.raises(TypeError, match=key):
        ExperimentConfig.from_json(path)


def save_views(root, count=2):
    """A dataset of ``count`` SBM views, one edges_k.tsv each."""
    graph = sbm_generate(**SBM)
    save_dataset(LabeledGraph.from_views(
        [sbm_generate(**{**SBM, "seed": s}).adjacency for s in range(count)],
        graph.node_features, graph.labels), root)
    return str(root)


@pytest.mark.parametrize("source", ["synthetic", "dataset"])
@pytest.mark.parametrize("field, value", [("recipe", "subtract"),
                                          ("reduce_dim", 4)])
def test_channel_graph_refuses_recipe_fields_before_training(
        tmp_path, monkeypatch, source, field, value):
    """The channels are the edge tensor, so no recipe or reducer reads
    these fields; build_model refuses a changed value once the graph has
    loaded, before any training."""
    trained, train_loop = [], tasks.train_loop

    def recording_train_loop(*args):
        trained.append(args)
        return train_loop(*args)

    monkeypatch.setattr(tasks, "train_loop", recording_train_loop)
    where = (dict(synthetic={**SBM, "views": 2}) if source == "synthetic"
             else dict(synthetic=None, dataset=save_views(tmp_path / "data")))
    config = quick_config(**where, reduce_dim=8, seeds=[0])
    run_experiment(dataclasses.replace(config, max_epochs=1))
    assert len(trained) == 1  # the defaults train
    trained.clear()
    with pytest.raises(ValueError, match=rf"edge channels replace the recipe; "
                                         rf"leave \['{field}'\]"):
        run_experiment(dataclasses.replace(config, **{field: value}))
    assert trained == []


@pytest.mark.parametrize("views", [0, -2, 1.5, True, "2"])
def test_config_rejects_views_that_are_not_positive_integers(views):
    with pytest.raises(ValueError, match="views must be a positive integer"):
        ExperimentConfig(task="node_class", synthetic={**SBM, "views": views},
                         train_per_class=3)


@pytest.mark.parametrize("task", ["link_pred"])
def test_config_rejects_views_on_single_graph_tasks(task):
    # link prediction refuses edge channels, which views would make
    for views in (5, 1):
        with pytest.raises(ValueError, match="link_pred takes a graph "
                                             "without edge channels"):
            ExperimentConfig(task=task, synthetic={**SBM, "views": views})


@pytest.mark.parametrize("field, value", [
    ("max_epochs", 0), ("max_epochs", -1), ("patience", -2),
    ("learning_rate", 0.0),
])
def test_config_rejects_bad_training_settings(field, value):
    # TaskConfig's rule: zero epochs leave no best epoch to score, and a
    # negative patience would silently act as 1
    quick_config(max_epochs=1, patience=0)
    with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
        quick_config(**{field: value})


@pytest.mark.parametrize("task, field, value", [
    ("node_class", "embed_dim", 4),
    ("node_class", "test_edge_fraction", 0.3),
    ("node_class", "val_edge_fraction", 0.1),
    ("link_pred", "train_per_class", 5),
    ("link_pred", "train_fraction", 0.2),
    ("link_pred", "val_fraction", 0.1),
])
def test_config_rejects_task_settings_its_task_never_reads(task, field,
                                                           value):
    """A setting of the other task would change only the config hash."""
    quick_config(task=task)
    quick_config(task=task, **{field: experiment.TASK_SETTINGS[
        "link_pred" if task == "node_class" else "node_class"][field]})
    with pytest.raises(ValueError, match=rf"{task} never reads "
                                         rf"\['{field}'\]"):
        quick_config(task=task, **{field: value})


def test_config_refuses_train_per_class_with_train_fraction():
    """The split would read train_per_class, and the fraction would change
    only the config hash."""
    quick_config(train_per_class=None, train_fraction=0.5)
    with pytest.raises(ValueError, match="train_per_class or train_fraction, "
                                         "not both"):
        quick_config(train_fraction=0.5)


@pytest.mark.parametrize("field, value", [
    ("train_per_class", 5), ("train_fraction", 0.4), ("val_fraction", 0.1),
    ("split_seed", 7),
])
def test_dataset_with_splits_refuses_changed_split_settings(tmp_path, capsys,
                                                            field, value):
    """A dataset's own splits leave every split setting unread, so a
    changed one is refused once the dataset has loaded, before training."""
    data_dir = str(tmp_path / "data")
    assert main(["gen-sbm", "--blocks", "12,12", "--train-per-class", "3",
                 "--out", data_dir]) == 0
    capsys.readouterr()
    config = ExperimentConfig(dataset=data_dir, **{field: value})
    with pytest.raises(ValueError, match=rf"never reads \['{field}'\]"):
        run_experiment(config)


@pytest.mark.parametrize("field, value", [
    ("recipe", "subtract"), ("reduce_dim", 4), ("edge_hidden", [4, 1]),
    ("epsilon", 0.3),
], ids=["recipe", "reduce_dim", "edge_hidden", "epsilon"])
def test_config_rejects_edge_stack_fields_for_gcn_only(field, value):
    # gcn_only never reads them, so a changed value would only change the
    # hash; build_model's rule refuses it at construction
    base = dict(model="gcn_only", synthetic=dict(SBM), train_per_class=3)
    ExperimentConfig(**base)
    ExperimentConfig(**base, edge_hidden=list(MODEL_DEFAULTS["edge_hidden"]))
    with pytest.raises(ValueError, match=rf"no edge stack; leave \['{field}'\]"):
        ExperimentConfig(**base, **{field: value})


def test_config_model_defaults_are_build_models():
    """Each model field is named for its build_model keyword and defaults
    to that keyword's default; a width defaults to None, the task's."""
    keywords = inspect.signature(build_model).parameters
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    assert set(MODEL_DEFAULTS) == {"recipe", "reduce_dim", "edge_hidden",
                                   "gc_hidden", "epsilon"}
    for name in MODEL_DEFAULTS:
        assert MODEL_DEFAULTS[name] == keywords[name].default, name
        expected = (None if name in ("edge_hidden", "gc_hidden")
                    else keywords[name].default)
        assert defaults[name] == expected, name


def test_node_class_without_a_train_setting_is_refused():
    """A dataset without its own splits needs a train setting to draw them."""
    with pytest.raises(ValueError, match="set train_per_class or "
                                         "train_fraction"):
        run_experiment(quick_config(train_per_class=None))


def test_config_hash_tracks_semantics(tmp_path):
    c1 = quick_config()
    c2 = quick_config(output_dir=str(tmp_path))  # presentation only
    c3 = quick_config(epsilon=0.3)
    assert c1.config_hash() == c2.config_hash()
    assert c1.config_hash() != c3.config_hash()


def dataset_spellings(tmp_path, monkeypatch):
    """One saved dataset named three ways from the working directory
    ``tmp_path``: bare, dot-prefixed and absolute."""
    save_dataset(sbm_generate(**SBM), tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    return ["data", "./data", str(tmp_path / "data")]


def test_config_hash_keys_the_dataset_by_its_resolved_path(tmp_path,
                                                           monkeypatch):
    configs = [quick_config(dataset=path, synthetic=None)
               for path in dataset_spellings(tmp_path, monkeypatch)]
    assert len({c.config_hash() for c in configs}) == 1
    # the config keeps the path as written
    assert [c.semantic_dict()["dataset"] for c in configs] == [
        c.dataset for c in configs]


def test_eval_accepts_a_checkpoint_across_dataset_spellings(tmp_path,
                                                            monkeypatch):
    bare, dotted, absolute = dataset_spellings(tmp_path, monkeypatch)
    config = quick_config(dataset=bare, synthetic=None, seeds=[0],
                          max_epochs=2, output_dir="out")
    record = run_experiment(config)
    with open(tmp_path / "out" / "config.json") as fh:
        assert json.load(fh)["dataset"] == bare
    for path in (dotted, absolute):
        other = dataclasses.replace(config, dataset=path)
        other.to_json(tmp_path / "other.json")
        assert main(["eval", "--config", "other.json",
                     "--checkpoint", "out/checkpoint"]) == 0
        metrics = evaluate_checkpoint(other, "out/checkpoint")
        assert metrics["test_accuracy"] == pytest.approx(
            record.per_seed[0]["test_accuracy"])


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_config_epsilon_reaches_every_edge_layer(built_models, epsilon):
    run_experiment(quick_config(epsilon=epsilon, seeds=[0], max_epochs=1))
    model, = built_models
    assert [layer.epsilon for layer in model.edge_layers] == [epsilon] * 2


def test_config_json_round_trip(tmp_path):
    c = quick_config(output_dir=str(tmp_path))
    path = tmp_path / "config.json"
    c.to_json(path)
    back = ExperimentConfig.from_json(path)
    assert back == c
    assert back.config_hash() == c.config_hash()


def test_run_experiment_aggregates_seeds(tmp_path):
    record = run_experiment(quick_config(output_dir=str(tmp_path / "out")))
    assert record.name == "node_class:et_gcn"
    assert len(record.per_seed) == 2
    assert {m["seed"] for m in record.per_seed} == {0, 1}
    assert "test_accuracy" in record.summary
    assert "seed" not in record.summary
    stats = record.summary["test_accuracy"]
    accs = [m["test_accuracy"] for m in record.per_seed]
    assert stats["mean"] == pytest.approx(np.mean(accs))
    assert stats["std"] == pytest.approx(np.std(accs))


def test_run_experiment_writes_reloadable_artifacts(tmp_path):
    out = tmp_path / "out"
    config = quick_config(output_dir=str(out))
    record = run_experiment(config)

    with open(out / "result.json") as fh:
        payload = json.load(fh)
    assert payload["record"]["config_hash"] == config.config_hash()
    ResultRecord(**payload["record"])  # reloads cleanly

    for seed in config.seeds:
        with open(out / f"history_seed{seed}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"epoch", "train_loss", "val_loss",
                                "val_metric", "homophily"}
    assert os.listdir(out / "checkpoint") == ["checkpoint.json"]


def test_interrupted_artifact_write_keeps_previous_result(tmp_path,
                                                         monkeypatch):
    out = tmp_path / "out"
    config = quick_config(output_dir=str(out), seeds=[0])
    run_experiment(config)
    before = (out / "result.json").read_bytes()
    # an unserializable summary makes json.dump raise partway through
    monkeypatch.setattr(experiment, "_summarize",
                        lambda per_seed: {"test_accuracy": object()})
    with pytest.raises(TypeError):
        run_experiment(config)
    assert (out / "result.json").read_bytes() == before
    assert sorted(os.listdir(out)) == ["checkpoint", "config.json",
                                       "history_seed0.csv", "result.json"]


def test_determinism_across_reruns():
    config = quick_config()
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert r1 == r2


def test_evaluate_checkpoint_matches_training_metrics(tmp_path):
    out = tmp_path / "out"
    config = quick_config(output_dir=str(out))
    record = run_experiment(config)
    metrics = evaluate_checkpoint(config, str(out / "checkpoint"))
    seed = load_checkpoint(out / "checkpoint")[1]["seed"]
    stored = next(m for m in record.per_seed if m["seed"] == seed)
    assert metrics["test_accuracy"] == pytest.approx(stored["test_accuracy"])


def test_evaluate_checkpoint_rejects_parameters_the_model_lacks(tmp_path):
    out = tmp_path / "out"
    config = quick_config(model="gcn_only", reduce_dim=8, edge_hidden=None,
                          seeds=[0], max_epochs=2, output_dir=str(out))
    run_experiment(config)
    values, manifest = load_checkpoint(out / "checkpoint")
    # gcn_only never reads a reducer, so its model has none to restore into
    values["reducer"] = np.zeros((2, 8))
    save_checkpoint(values, out / "stale", manifest)
    with pytest.raises(ValueError, match="reducer"):
        evaluate_checkpoint(config, str(out / "stale"))


def test_eval_names_the_file_a_two_file_checkpoint_lacks(tmp_path, capsys):
    """A directory in the retired params.txt + manifest.json layout is not
    a checkpoint: eval exits 1 with a JSON error naming checkpoint.json."""
    config = quick_config(seeds=[0], max_epochs=2)
    config.to_json(tmp_path / "config.json")
    old = tmp_path / "old"
    old.mkdir()
    (old / "params.txt").write_text("w 1 2\n0.5 0.25\n")
    (old / "manifest.json").write_text(json.dumps(
        {"config_hash": config.config_hash(), "seed": 0,
         "shapes": {"w": [1, 2]}}))
    assert main(["eval", "--config", str(tmp_path / "config.json"),
                 "--checkpoint", str(old)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "checkpoint.json" in json.loads(err)["error"]


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "minus_inf"])
def test_eval_refuses_a_checkpoint_holding_a_non_finite_value(tmp_path,
                                                              capsys, bad):
    """json reads NaN and Infinity tokens, which no save writes: eval of a
    checkpoint holding one exits 1 naming the token, and scores nothing."""
    out = tmp_path / "out"
    config = quick_config(model="et_gat", seeds=[0], max_epochs=2,
                          output_dir=str(out))
    run_experiment(config)
    path = out / "checkpoint" / "checkpoint.json"
    doc = json.loads(path.read_text())
    doc["params"]["theta"][0] = bad
    path.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(out / "config.json"),
                 "--checkpoint", str(out / "checkpoint")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.dumps(bad) in json.loads(captured.err)["error"]


def test_evaluate_checkpoint_refuses_a_checkpoint_of_another_config(
        tmp_path, capsys):
    """A checkpoint saved under one config is not scored under another;
    the error names both hashes. The CLI reports it as JSON."""
    out = tmp_path / "out"
    config = quick_config(seeds=[0], max_epochs=2, output_dir=str(out))
    run_experiment(config)
    other = dataclasses.replace(config, epsilon=0.9)
    with pytest.raises(ValueError, match=f"{config.config_hash()}.*"
                                         f"{other.config_hash()}"):
        evaluate_checkpoint(other, str(out / "checkpoint"))
    other.to_json(tmp_path / "other.json")
    assert main(["eval", "--config", str(tmp_path / "other.json"),
                 "--checkpoint", str(out / "checkpoint")]) == 1
    assert other.config_hash() in json.loads(capsys.readouterr().err)["error"]


def test_format_mean_std_rendering():
    assert format_mean_std(80.83, 0.71) == "80.8±0.7"
    assert format_mean_std(93.75, 1.25) == "93.8±1.2"


def test_report_single_and_multiple_records():
    r1 = ResultRecord("node_class:et_gcn", "h1", [],
                      {"test_accuracy": {"mean": 0.8083, "std": 0.0071}})
    table = report([r1])
    lines = table.splitlines()
    assert len(lines) == 2
    assert "80.8±0.7" in lines[1]

    r2 = ResultRecord("node_class:et_gat", "h2", [],
                      {"test_accuracy": {"mean": 0.75, "std": 0.01},
                       "val_loss": {"mean": 0.5, "std": 0.1}})
    table = report([r2, r1])
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("node_class:et_gat")  # sorted by name
    assert "-" in lines[2]  # missing metric rendered as dash
    with pytest.raises(ValueError):
        report([])


def test_multigraph_experiment_runs():
    """A node_class config with synthetic views runs each seed exactly as
    run_multigraph_classification on the same views and splits."""
    config = quick_config(synthetic={**SBM, "views": 2}, reduce_dim=8,
                          edge_hidden=None, gc_hidden=None)
    record = run_experiment(config)
    graphs = [sbm_generate(**{**SBM, "seed": s}) for s in range(2)]
    splits = split_nodes(graphs[0].labels, config.train_per_class,
                         config.val_fraction, config.split_seed)
    for seed_metrics in record.per_seed:
        run = run_multigraph_classification(
            [g.adjacency for g in graphs], graphs[0].node_features,
            graphs[0].labels, splits,
            TaskConfig(config.learning_rate, config.max_epochs,
                       config.patience, seed_metrics["seed"]))
        assert seed_metrics == {"seed": seed_metrics["seed"], **run.metrics}


def test_channel_dataset_trains_as_node_class_and_evals(tmp_path, capsys):
    """An edges_k.tsv dataset is a node_class graph; eval on the checkpoint
    reproduces the metrics of the seed that wrote it."""
    data_dir = save_views(tmp_path / "data")
    out_dir = tmp_path / "run"
    assert main(["train", "--dataset", data_dir, "--train-per-class", "3",
                 "--val-fraction", "0.3", "--max-epochs", "8", "--patience",
                 "8", "--seeds", "0,1", "--output", str(out_dir)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["name"] == "node_class:et_gcn"
    seed = load_checkpoint(out_dir / "checkpoint")[1]["seed"]
    trained = next(m for m in record["per_seed"] if m["seed"] == seed)

    assert main(["eval", "--config", str(out_dir / "config.json"),
                 "--checkpoint", str(out_dir / "checkpoint")]) == 0
    metrics = json.loads(capsys.readouterr().out)
    for key in ("test_accuracy", "val_accuracy", "homophily"):
        assert metrics[key] == trained[key], key


@pytest.mark.parametrize("task, views", [("link_pred", 2)])
def test_dataset_layout_must_fit_the_task(tmp_path, task, views):
    """Link prediction refuses a dataset of edge views (edges_k.tsv): the
    channels of a held-out edge would reach the model."""
    config = ExperimentConfig(task=task,
                              dataset=save_views(tmp_path / "data", views),
                              max_epochs=1, patience=1)
    with pytest.raises(ValueError, match="link prediction takes a graph "
                                         "without edge channels"):
        run_experiment(config)


TRAFFIC_CONFIGS = {
    "node_class": dict(model="et_gcn"),
    "link_pred": dict(task="link_pred", embed_dim=4),
    # a multi-graph: views as edge channels, which refuse quick_config's
    # reduce_dim, since no reducer reads it
    "multi_graph": dict(synthetic={**SBM, "views": 2}, reduce_dim=8),
}


@pytest.mark.parametrize("task", sorted(TRAFFIC_CONFIGS))
def test_experiment_renormalizes_and_plans_once_for_all_seeds(task,
                                                              monkeypatch):
    """Every seed trains on one graph, so the experiment renormalizes it
    once and walks its plans at most once; each seed's metrics equal that
    seed run alone."""
    renormalized, walked = [], []
    renormalize, walk = sparse_graph.renormalize, sparse_graph._plan_walk

    def counting_renormalize(adjacency):
        renormalized.append(adjacency)
        return renormalize(adjacency)

    def counting_walk(pattern):
        walked.append(pattern)
        return walk(pattern)

    monkeypatch.setattr(sparse_graph, "renormalize", counting_renormalize)
    monkeypatch.setattr(sparse_graph, "_plan_walk", counting_walk)
    record = run_experiment(quick_config(seeds=[0, 1, 2],
                                         **TRAFFIC_CONFIGS[task]))
    assert len(renormalized) == 1 and len(walked) <= 1
    for seed_metrics in record.per_seed:
        alone = run_experiment(quick_config(seeds=[seed_metrics["seed"]],
                                            **TRAFFIC_CONFIGS[task]))
        assert alone.per_seed == [seed_metrics]


def test_link_experiment_runs():
    config = ExperimentConfig(
        task="link_pred",
        synthetic={"block_sizes": [15, 15], "p_in": 0.5, "p_out": 0.1,
                   "seed": 0},
        seeds=[0], max_epochs=8, patience=8, reduce_dim=2,
        edge_hidden=[2, 1], gc_hidden=[8], embed_dim=4)
    record = run_experiment(config)
    assert "auc" in record.summary and "ap" in record.summary


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_gen_sbm_then_train(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = main(["gen-sbm", "--blocks", "12,12", "--p-in", "0.4",
               "--p-out", "0.05", "--seed", "0", "--train-per-class", "3",
               "--val-fraction", "0.3", "--out", str(data_dir)])
    assert rc == 0
    info = json.loads(capsys.readouterr().out)
    assert info["nodes"] == 24

    out_dir = tmp_path / "run"
    rc = main(["train", "--dataset", str(data_dir), "--max-epochs", "10",
               "--patience", "10", "--seeds", "0",
               "--output", str(out_dir)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "node_class:et_gcn"
    assert (out_dir / "result.json").exists()


def test_cli_train_eval_report_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    config = quick_config(output_dir=str(out_dir))
    config_path = tmp_path / "config.json"
    run_experiment(config)
    config.to_json(config_path)

    rc = main(["eval", "--config", str(config_path),
               "--checkpoint", str(out_dir / "checkpoint")])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert "test_accuracy" in metrics

    rc = main(["report", str(out_dir / "result.json")])
    assert rc == 0
    table = capsys.readouterr().out
    assert "node_class:et_gcn" in table


def test_cli_eval_reads_the_config_train_wrote(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["train", "--blocks", "12,12", "--p-in", "0.4", "--p-out",
               "0.05", "--train-per-class", "3", "--val-fraction", "0.3",
               "--max-epochs", "8", "--patience", "8", "--seeds", "0",
               "--output", str(out_dir)])
    assert rc == 0
    trained = json.loads(capsys.readouterr().out)["per_seed"][0]

    rc = main(["eval", "--config", str(out_dir / "config.json"),
               "--checkpoint", str(out_dir / "checkpoint")])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["test_accuracy"] == pytest.approx(trained["test_accuracy"])


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("task", ["node_class", "link_pred"])
def test_cli_eval_prints_the_checkpoint_metrics_as_json(tmp_path, capsys,
                                                         task):
    """eval scores the checkpoint with one epoch, which updates nothing:
    its output is strict JSON, and its val_loss is the trained seed's."""
    out_dir = tmp_path / "run"
    config = quick_config(task=task, max_epochs=6, patience=6,
                          output_dir=str(out_dir))
    record = run_experiment(config)
    seed = load_checkpoint(out_dir / "checkpoint")[1]["seed"]
    trained = next(m for m in record.per_seed if m["seed"] == seed)

    assert main(["eval", "--config", str(out_dir / "config.json"),
                 "--checkpoint", str(out_dir / "checkpoint")]) == 0
    metrics = json.loads(capsys.readouterr().out,
                         parse_constant=_refuse_constant)
    assert metrics["val_loss"] == trained["val_loss"]
    expected = {k: v for k, v in trained.items() if k != "seed"}
    if task == "node_class":
        # the single epoch starts from the checkpoint's learned graph
        expected["initial_homophily"] = trained["homophily"]
    assert metrics == expected


def test_cli_seed_count_expansion(tmp_path, capsys):
    rc = main(["train", "--blocks", "10,10", "--p-in", "0.5", "--p-out",
               "0.05", "--train-per-class", "3", "--val-fraction", "0.3",
               "--max-epochs", "5", "--patience", "5", "--seed-count", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [m["seed"] for m in payload["per_seed"]] == [0, 1]


def test_cli_gradcheck_command(capsys):
    rc = main(["gradcheck", "--models", "et_gcn", "--nodes-per-block", "8"])
    assert rc == 0
    assert "PASSED" in capsys.readouterr().out


def test_cli_gradcheck_passes_block_size_through(monkeypatch):
    seen = []

    def spy(**kwargs):
        seen.append(kwargs)
        return True, {}

    monkeypatch.setattr(cli, "model_gradcheck", spy)
    assert main(["gradcheck", "--models", "et_gcn", "--nodes-per-block",
                 "8"]) == 0
    assert main(["gradcheck", "--models", "et_gcn"]) == 0
    assert [kw["n_per_block"] for kw in seen] == [8, 8, 5, 5]
    assert [kw["recipe"] for kw in seen] == ["concat", "subtract"] * 2


def test_cli_gradcheck_fails_on_a_wrong_gradient(monkeypatch, capsys):
    monkeypatch.setattr(cli, "model_gradcheck",
                        lambda **kwargs: (False, {"edge_0": 0.5}))
    monkeypatch.setattr(cli, "link_gradcheck",
                        lambda **kwargs: (True, {"edge_0": 0.0}))
    assert main(["gradcheck", "--models", "et_gcn"]) == 1
    captured = capsys.readouterr()
    assert "gradcheck FAILED (worst 5.000e-01)" in captured.out
    assert json.loads(captured.err) == {"error": "gradient check failed",
                                        "type": "RuntimeError"}


def test_cli_train_config_file_and_its_output_override(tmp_path,
                                                       monkeypatch):
    """``--config`` gives the whole config; ``--output`` alone may replace
    its output directory."""
    seen = []

    def spy(config):
        seen.append(config)
        return ResultRecord("spy", config.config_hash(), [], {})

    monkeypatch.setattr(cli, "run_experiment", spy)
    config = quick_config(output_dir=str(tmp_path / "out"))
    config.to_json(tmp_path / "config.json")
    path = str(tmp_path / "config.json")
    assert main(["train", "--config", path]) == 0
    assert main(["train", "--config", path, "--output", "elsewhere"]) == 0
    assert seen == [config, dataclasses.replace(config,
                                                output_dir="elsewhere")]


@pytest.mark.parametrize("flags, named", [
    (["--config", "CONFIG", "--seeds", "5,6", "--max-epochs", "7"],
     "--max-epochs, --seeds"),
    (["--config", "CONFIG", "--lr", "0.1", "--output", "elsewhere"],
     "--learning-rate"),
    (["--config", "CONFIG", "--p-in", "0.3"], "--p-in"),
    (["--dataset", "DATA", "--p-in", "0.3", "--sbm-seed", "2"],
     "--p-in, --sbm-seed"),
    (["--dataset", "DATA", "--p-out", "0.1"], "--p-out"),
    (["--blocks", "6,6", "--seeds", "4", "--seed-count", "3"],
     "--seed-count would be ignored: --seeds lists the seeds itself"),
], ids=["config_seeds_epochs", "config_lr", "config_p_in",
        "no_blocks_p_in_sbm_seed", "no_blocks_p_out", "seeds_seed_count"])
def test_cli_train_refuses_flags_it_would_ignore(tmp_path, capsys,
                                                 monkeypatch, flags, named):
    """``--config`` takes no config flag but ``--output``, the SBM flags
    need ``--blocks``, and ``--seed-count`` is read only without
    ``--seeds``: an ignored flag exits 1 naming it, before any run."""
    monkeypatch.setattr(cli, "run_experiment", pytest.fail)
    quick_config().to_json(tmp_path / "config.json")
    data_dir = tmp_path / "data"
    save_dataset(sbm_generate(**SBM), data_dir)
    names = {"CONFIG": str(tmp_path / "config.json"), "DATA": str(data_dir)}
    assert main(["train", *(names.get(f, f) for f in flags)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["type"] == "ValueError"
    assert named in error["error"]


def test_cli_train_sbm_flags_shape_the_blocks_graph(monkeypatch):
    """With ``--blocks``, an SBM flag left unset takes its default."""
    seen = []

    def spy(config):
        seen.append(config)
        return ResultRecord("spy", config.config_hash(), [], {})

    monkeypatch.setattr(cli, "run_experiment", spy)
    assert main(["train", "--blocks", "6,6", "--p-out", "0.1"]) == 0
    assert main(["train", "--blocks", "6,6", "--p-in", "0.3", "--p-out",
                 "0.05", "--sbm-seed", "4"]) == 0
    assert [c.synthetic for c in seen] == [
        {"block_sizes": [6, 6], "p_in": 0.2, "p_out": 0.1, "seed": 0},
        {"block_sizes": [6, 6], "p_in": 0.3, "p_out": 0.05, "seed": 4}]


def test_cli_gradcheck_covers_every_recipe(capsys):
    rc = main(["gradcheck", "--models", "et_gcn,et_gat,gcn_only"])
    assert rc == 0
    out = capsys.readouterr().out
    for label in ("et_gcn/concat", "et_gcn/subtract", "et_gat/concat",
                  "et_gat/subtract", "et_gcn/link", "et_gat/link"):
        assert f"{label} edge_0: max rel err" in out
    assert "gcn_only gc_0: max rel err" in out
    assert "gcn_only/link gc_0: max rel err" in out


def test_cli_unset_flags_take_the_config_defaults(monkeypatch):
    """A train flag left unset never reaches ExperimentConfig, so each
    field keeps the config's default; a flag that is set wins."""
    seen = []

    def spy(config):
        seen.append(config)
        return ResultRecord("spy", config.config_hash(), [], {})

    monkeypatch.setattr(cli, "run_experiment", spy)
    assert main(["train", "--blocks", "5,5"]) == 0
    config, = seen
    assert config.synthetic == {"block_sizes": [5, 5], "p_in": 0.2,
                                "p_out": 0.02, "seed": 0}
    assert config == ExperimentConfig(synthetic=config.synthetic)
    assert main(["train", "--blocks", "5,5", "--lr", "0.5", "--recipe",
                 "subtract", "--max-epochs", "3", "--task", "link_pred",
                 "--seed-count", "2", "--output", "out"]) == 0
    assert seen[1] == ExperimentConfig(
        synthetic=config.synthetic, learning_rate=0.5, recipe="subtract",
        max_epochs=3, task="link_pred", seeds=[0, 1], output_dir="out")


def test_cli_reports_errors_as_json(capsys):
    rc = main(["train", "--dataset", "/does/not/exist"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "FileNotFoundError"
