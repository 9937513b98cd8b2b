"""Experiment configs, artifact persistence, reporting, and the CLI."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from edgetensor import cli, experiment
from edgetensor.cli import main
from edgetensor.experiment import (ExperimentConfig, ResultRecord,
                                   evaluate_checkpoint, format_mean_std,
                                   report, run_experiment)
from edgetensor.params import load_checkpoint, save_checkpoint

SBM = {"block_sizes": [12, 12], "p_in": 0.4, "p_out": 0.05, "seed": 0}


def quick_config(**overrides):
    base = dict(task="node_class", synthetic=dict(SBM), seeds=[0, 1],
                max_epochs=12, patience=12, train_per_class=3,
                val_fraction=0.3, reduce_dim=2, edge_hidden=[2, 1],
                gc_hidden=[4])
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="task"):
        quick_config(task="nope")
    with pytest.raises(ValueError, match="seeds"):
        quick_config(seeds=[])
    with pytest.raises(ValueError, match="dataset path or a synthetic"):
        ExperimentConfig(task="node_class", synthetic=None)
    with pytest.raises(FileNotFoundError):
        quick_config(dataset="/nonexistent/path", synthetic=None)


@pytest.mark.parametrize("field, value, message", [
    ("edge_features", "bogus", "edge features"),
    ("edge_features", "stack", "edge features"),
    ("negative_mode", "nope", "negative mode"),
], ids=["edge_features", "edge_features_stack", "negative_mode"])
def test_config_rejects_unknown_model_options(field, value, message):
    with pytest.raises(ValueError, match=f"unknown {message} '{value}'"):
        quick_config(**{field: value})


def test_config_rejects_edge_features_for_multi_graph():
    with pytest.raises(ValueError, match="multi_graph stacks its adjacency"):
        quick_config(task="multi_graph", edge_features="subtract")


@pytest.mark.parametrize("field, value", [
    ("edge_features", "subtract"), ("reduce_dim", 4), ("edge_hidden", [4, 1]),
    ("epsilon", 0.3), ("negative_mode", "abs"), ("blend_attention", True),
], ids=["edge_features", "reduce_dim", "edge_hidden", "epsilon",
        "negative_mode", "blend_attention"])
def test_config_rejects_edge_stack_fields_for_gcn_only(field, value):
    # gcn_only never reads them, so a changed value would only change the hash
    base = dict(model="gcn_only", synthetic=dict(SBM), train_per_class=3)
    ExperimentConfig(**base)
    with pytest.raises(ValueError, match=rf"no edge stack; leave \['{field}'\]"):
        ExperimentConfig(**base, **{field: value})


def test_config_hash_tracks_semantics(tmp_path):
    c1 = quick_config()
    c2 = quick_config(output_dir=str(tmp_path))  # presentation only
    c3 = quick_config(epsilon=0.3)
    assert c1.config_hash() == c2.config_hash()
    assert c1.config_hash() != c3.config_hash()


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
    assert os.path.exists(out / "checkpoint" / "params.txt")
    assert os.path.exists(out / "checkpoint" / "manifest.json")


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
    with open(out / "checkpoint" / "manifest.json") as fh:
        seed = json.load(fh)["seed"]
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


def test_multigraph_experiment_runs(tmp_path):
    config = ExperimentConfig(
        task="multi_graph", synthetic={**SBM, "views": 2}, seeds=[0],
        max_epochs=8, patience=8, train_per_class=3, val_fraction=0.3,
        reduce_dim=2, edge_hidden=[2, 1], gc_hidden=[4])
    record = run_experiment(config)
    assert "test_accuracy" in record.summary


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
    assert [kw["n_per_block"] for kw in seen] == [8, 5]


def test_cli_reports_errors_as_json(capsys):
    rc = main(["train", "--dataset", "/does/not/exist"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "FileNotFoundError"
