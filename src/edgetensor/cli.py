"""Command-line entry point.

Verbs: ``train``, ``eval``, ``report``, ``gen-sbm``, ``gradcheck``. Errors
are emitted as machine-readable JSON on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .datasets import save_dataset
from .evaluation import split_nodes
from .experiment import (TASKS, ExperimentConfig, ResultRecord,
                         evaluate_checkpoint, report, run_experiment)
from .features import RECIPE_KINDS
from .generators import sbm_generate
from .gradcheck import link_gradcheck, model_gradcheck
from .models import MODEL_KINDS
from .sparse_graph import LabeledGraph


def _config_from_args(args):
    if args.config:
        config = ExperimentConfig.from_json(args.config)
        if getattr(args, "output", None):
            config = dataclasses.replace(config, output_dir=args.output)
        return config
    synthetic = None
    if args.blocks:
        synthetic = {"block_sizes": [int(b) for b in args.blocks.split(",")],
                     "p_in": args.p_in, "p_out": args.p_out,
                     "seed": args.sbm_seed}
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(args.seed_count)))
    return ExperimentConfig(
        task=args.task, model=args.model, dataset=args.dataset,
        synthetic=synthetic, seeds=seeds, learning_rate=args.lr,
        epsilon=args.epsilon, max_epochs=args.max_epochs,
        patience=args.patience, edge_features=args.edge_features,
        train_per_class=args.train_per_class,
        train_fraction=args.train_fraction, val_fraction=args.val_fraction,
        split_seed=args.split_seed, output_dir=args.output,
    )


def _add_config_flags(p):
    p.add_argument("--config", help="JSON experiment config (overrides flags)")
    p.add_argument("--task", default="node_class", choices=TASKS)
    p.add_argument("--model", default="et_gcn", choices=MODEL_KINDS)
    p.add_argument("--dataset", help="dataset directory")
    p.add_argument("--blocks", help="synthetic SBM block sizes, e.g. 50,50")
    p.add_argument("--p-in", type=float, default=0.2)
    p.add_argument("--p-out", type=float, default=0.02)
    p.add_argument("--sbm-seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--max-epochs", type=int, default=10000)
    p.add_argument("--patience", type=int, default=100)
    p.add_argument("--edge-features", default="concat", choices=RECIPE_KINDS,
                   help="initial edge tensor recipe; a graph's edge "
                        "channels replace it, so it takes only the default")
    p.add_argument("--train-per-class", type=int)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--val-fraction", type=float, default=0.5)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--seed-count", type=int, default=1,
                   help="expands to seeds 0..k-1 when --seeds is absent")
    p.add_argument("--output", help="output directory for artifacts")


def _cmd_train(args):
    config = _config_from_args(args)
    record = run_experiment(config)
    print(json.dumps(dataclasses.asdict(record), indent=2, sort_keys=True))


def _cmd_eval(args):
    config = ExperimentConfig.from_json(args.config)
    metrics = evaluate_checkpoint(config, args.checkpoint)
    print(json.dumps(metrics, indent=2, sort_keys=True))


def _cmd_report(args):
    records = []
    for path in args.results:
        with open(path) as fh:
            payload = json.load(fh)
        records.append(ResultRecord(**payload["record"]))
    print(report(records))


def _cmd_gen_sbm(args):
    graph = sbm_generate([int(b) for b in args.blocks.split(",")],
                         args.p_in, args.p_out, args.seed)
    if args.train_per_class:
        splits = split_nodes(graph.labels, args.train_per_class,
                             args.val_fraction, args.split_seed)
        graph = LabeledGraph(graph.adjacency, graph.node_features,
                             graph.labels, splits)
    save_dataset(graph, args.out)
    print(json.dumps({"nodes": graph.n,
                      "edges": int(graph.adjacency.nnz // 2),
                      "out": args.out}))


def _cmd_gradcheck(args):
    checks = []
    for kind in args.models.split(","):
        # gcn_only has no edge stack, so no recipe to vary
        recipes = ("concat",) if kind == "gcn_only" else RECIPE_KINDS
        for recipe in recipes:
            label = kind if kind == "gcn_only" else f"{kind}/{recipe}"
            checks.append((label, model_gradcheck(
                model_kind=kind, seed=args.seed,
                n_per_block=args.nodes_per_block, recipe_kind=recipe)))
        checks.append((f"{kind}/link", link_gradcheck(
            model_kind=kind, seed=args.seed,
            n_per_block=args.nodes_per_block)))
    worst_overall = 0.0
    for label, (_, rep) in checks:
        for name, worst in sorted(rep.items()):
            print(f"{label} {name}: max rel err {worst:.3e}")
            worst_overall = max(worst_overall, worst)
    all_ok = all(ok for _, (ok, _) in checks)
    print(f"gradcheck {'PASSED' if all_ok else 'FAILED'} "
          f"(worst {worst_overall:.3e})")
    if not all_ok:
        raise RuntimeError("gradient check failed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgetensor",
        description="Edge-feature graph convolution experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run an experiment over seeds")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="tabulate result.json files")
    p.add_argument("results", nargs="+")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gen-sbm", help="write a synthetic dataset directory")
    p.add_argument("--blocks", required=True)
    p.add_argument("--p-in", type=float, default=0.2)
    p.add_argument("--p-out", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-per-class", type=int)
    p.add_argument("--val-fraction", type=float, default=0.5)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_sbm)

    p = sub.add_parser("gradcheck",
                       help="finite-difference suite at reduced size, every "
                       "recipe of each edge-stack kind")
    p.add_argument("--models", default="et_gcn,et_gat")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes-per-block", type=int, default=5)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        json.dump({"error": str(exc), "type": type(exc).__name__},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
