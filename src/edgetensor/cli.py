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


def _config_from_args(args):
    """The ``train`` flags' config; an unset flag is absent from ``args``,
    and a set one the config would ignore is refused."""
    given = vars(args)
    if "config" in given:
        checks = [(given.keys() - {"command", "func", "config", "output_dir"},
                   "--config takes no other flag but --output")]
    else:
        checks = [(given.keys() & ({"p_in", "p_out", "sbm_seed"}
                                   if "blocks" not in given else set()),
                   "the SBM flags shape the graph of --blocks"),
                  (given.keys() & ({"seed_count"} if "seeds" in given
                                   else set()),
                   "--seeds lists the seeds itself")]
    for ignored, rule in checks:
        if ignored:
            flags = ", ".join(sorted("--" + n.replace("_", "-")
                                     for n in ignored))
            raise ValueError(f"{flags} would be ignored: {rule}")
    if "config" in given:
        config = ExperimentConfig.from_json(args.config)
        if "output_dir" in given:
            config = dataclasses.replace(config, output_dir=args.output_dir)
        return config
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {name: value for name, value in given.items() if name in fields}
    if "blocks" in given:
        kwargs["synthetic"] = {
            "block_sizes": [int(b) for b in args.blocks.split(",")],
            "p_in": given.get("p_in", 0.2), "p_out": given.get("p_out", 0.02),
            "seed": given.get("sbm_seed", 0)}
    if "seeds" in given:
        kwargs["seeds"] = [int(s) for s in args.seeds.split(",")]
    elif "seed_count" in given:
        kwargs["seeds"] = list(range(args.seed_count))
    return ExperimentConfig(**kwargs)


def _add_config_flags(p):
    """The ``train`` flags, unset unless given; most name a config field."""
    p.add_argument("--config", help="JSON experiment config, the whole "
                   "config: it takes no other flag but --output")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--dataset", help="dataset directory")
    p.add_argument("--blocks", help="synthetic SBM block sizes, e.g. 50,50")
    p.add_argument("--p-in", type=float, help="default 0.2")
    p.add_argument("--p-out", type=float, help="default 0.02")
    p.add_argument("--sbm-seed", type=int, help="default 0")
    p.add_argument("--lr", "--learning-rate", dest="learning_rate",
                   type=float, metavar="LR")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--recipe", choices=RECIPE_KINDS, help="edge tensor "
                   "recipe; a graph with edge channels reads none")
    p.add_argument("--train-per-class", type=int)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--seed-count", type=int,
                   help="seeds 0..k-1; refused beside --seeds")
    p.add_argument("--output", dest="output_dir", metavar="DIR",
                   help="output directory for artifacts")


def _cmd_train(args):
    record = run_experiment(_config_from_args(args))
    print(json.dumps(dataclasses.asdict(record), indent=2, sort_keys=True))


def _cmd_eval(args):
    config = ExperimentConfig.from_json(args.config)
    metrics = evaluate_checkpoint(config, args.checkpoint)
    print(json.dumps(metrics, indent=2, sort_keys=True))


def _cmd_report(args):
    records = []
    for path in args.results:
        with open(path) as fh:
            records.append(ResultRecord(**json.load(fh)["record"]))
    print(report(records))


def _cmd_gen_sbm(args):
    graph = sbm_generate([int(b) for b in args.blocks.split(",")],
                         args.p_in, args.p_out, args.seed)
    if args.train_per_class:
        graph = dataclasses.replace(graph, splits=split_nodes(
            graph.labels, args.train_per_class, args.val_fraction,
            args.split_seed))
    save_dataset(graph, args.out)
    print(json.dumps({"nodes": graph.n, "edges": int(graph.adjacency.nnz // 2),
                      "out": args.out}))


def _cmd_gradcheck(args):
    checks = []
    size = dict(seed=args.seed, n_per_block=args.nodes_per_block)
    for kind in args.models.split(","):
        # gcn_only has no edge stack, so no recipe to vary
        for recipe in ("concat",) if kind == "gcn_only" else RECIPE_KINDS:
            label = kind if kind == "gcn_only" else f"{kind}/{recipe}"
            checks.append((label, model_gradcheck(model_kind=kind,
                                                  recipe=recipe, **size)))
        checks.append((f"{kind}/link", link_gradcheck(model_kind=kind,
                                                      **size)))
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

    p = sub.add_parser("train", help="run an experiment over seeds",
                       description="Run an experiment over seeds. A config "
                       "flag left unset takes ExperimentConfig's default.",
                       argument_default=argparse.SUPPRESS)
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
