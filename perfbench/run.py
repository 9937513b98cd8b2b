"""End-to-end training benchmark with per-layer timing.

Usage (from the repository root):

    python3 perfbench/run.py --workload nc_etgcn_sbm2k --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from ``--seed``, checks correctness, then
runs the task entry point in a fresh worker process (``worker.py``) for
``--seconds``, one call at a time, with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics, with times scaled to the
reference kernel's nominal speed (``reference.py``). ``--trace 1`` splits the time
between an untraced worker and a traced one and reports the per-layer
metrics. Human-readable lines come first; the last stdout line is the JSON
result. Full results (environment, sample counts, per-call outcomes, and
with tracing the spans) are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the workers
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170


def _import_program():
    src = ROOT / "src"
    if not (src / "edgetensor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no edgetensor sources under {src}")
    sys.path.insert(0, str(src))


_import_program()

import numpy as np  # noqa: E402

from edgetensor.edge_tensor import (mode_k_product_dense, propagate_mode1,  # noqa: E402
                                    propagate_mode2)
from edgetensor.gradcheck import model_gradcheck  # noqa: E402

from spans import LAYER_METRICS, Timeline, layer_metrics, tail  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class Gate:
    """Correctness checks; each failing check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _oracle_checks(gate, workload, seed):
    """Masked mode-1/2 products against the dense oracle on a small graph."""
    rng = np.random.default_rng(seed)
    tensor, adjacency = workload.oracle_case(
        workload.generate(seed, SIZES["tiny"]), rng)
    dense_s, dense_a = tensor.to_dense(), adjacency.to_dense()
    for mode, product in ((1, propagate_mode1), (2, propagate_mode2)):
        sparse = product(tensor, adjacency).values
        dense = mode_k_product_dense(dense_s, dense_a, mode)
        gate.check(f"propagate_mode{mode} matches the dense oracle",
                   np.allclose(sparse, dense[tensor.rows, tensor.cols],
                               rtol=1e-12, atol=1e-12))


def _call_checks(gate, workload, calls):
    """Quality floor, finite loss and bitwise-repeated loss for every task call."""
    first = calls[0].get("final_loss")
    for k, call in enumerate(calls):
        if call.get("error"):
            gate.check(f"task call {k} raised", False)
            continue
        gate.check(f"call {k}: {workload.quality_key} {call['quality']:.4f} "
                   f">= {workload.quality_floor}",
                   call["quality"] >= workload.quality_floor)
        gate.check(f"call {k}: final train loss is finite",
                   math.isfinite(call["final_loss"]))
        gate.check(f"call {k}: final train loss repeats the first call's bitwise",
                   call["final_loss"] == first)
        gate.check(f"call {k}: ran {call['epochs']} of {workload.epochs} epochs",
                   call["epochs"] == workload.epochs)


def _run_worker(inputs_path, name, seed, seconds, traced):
    cmd = [sys.executable, str(HERE / "worker.py"), str(inputs_path), name,
           str(seed), repr(seconds), "1" if traced else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment():
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def end_to_end(worker, percentile):
    """End-to-end metrics of an untraced worker: ``{name: (value, samples, note)}``.

    Times are scaled to the reference kernel's nominal speed (``reference.py``);
    each note gives the unscaled value.
    """
    tl = Timeline(worker["spans"])
    med = statistics.median
    epochs, raw_epochs = tl.steady_ms(scaled=True), tl.steady_ms()
    tail_ms, beyond = tail(epochs, percentile)
    setups, runs = tl.setup_s(scaled=True), tl.run_s(scaled=True)
    return {
        "setup_s": (med(setups), len(setups),
                    f"median of task calls; unscaled {med(tl.setup_s()):.4g}"),
        "epoch_ms_p50": (med(epochs), len(epochs),
                         f"median of steady epochs; unscaled {med(raw_epochs):.4g}"),
        "epoch_ms_tail": (tail_ms, len(epochs),
                          f"p{percentile}, {beyond} epochs beyond; "
                          f"unscaled {tail(raw_epochs, percentile)[0]:.4g}"),
        "run_s": (med(runs), len(runs),
                  f"median of task calls; unscaled {med(tl.run_s()):.4g} "
                  f"with the reference kernel"),
        "peak_rss_mb": (worker["peak_rss_mb"], 1, "worker process"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny is for the self-test")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    started = perf_counter()

    gate = Gate()
    _oracle_checks(gate, workload, args.seed)
    gate.check(f"gradcheck of {workload.model_kind}",
               model_gradcheck(workload.model_kind, seed=args.seed)[0])

    OUT.mkdir(exist_ok=True)
    inputs = workload.generate(args.seed, SIZES[args.size])
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs_path = Path(tmp) / "inputs.pkl"
        with open(inputs_path, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        del inputs
        run = functools.partial(_run_worker, inputs_path, workload.name, args.seed)
        if args.trace:
            # the tracing overhead compares scaled epoch times, so drift in
            # machine speed between the two workers does not show as overhead
            workers = [run(args.seconds / 2, traced) for traced in (False, True)]
        else:
            workers = [run(args.seconds, False)]
    calls = [c for w in workers for c in w["calls"]]
    _call_checks(gate, workload, calls)

    if args.trace:
        untraced, traced = workers[0]["spans"], workers[1]["spans"]
        values = layer_metrics(traced, Timeline(untraced).steady_ms(scaled=True),
                               workers[1]["missing"])
        seen = {s[0] for s in traced}
        metrics = {}
        for m in LAYER_METRICS:
            if m.name in values:
                absent = m.spans and not seen.intersection(m.spans)
                metrics[m.name] = (*values[m.name], UNITS[m.name],
                                   "absent: not called" if absent else "")
        missing = [m.name for m in LAYER_METRICS if m.name not in values]
    else:
        values = end_to_end(workers[0], workload.tail_percentile)
        metrics = {name: (value, n, UNITS[name], note)
                   for name, (value, n, note) in values.items()}
        missing = []

    env = environment()
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        label += f"-{args.size}"
    print(f"{label}: {WHY[workload.name]}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, n, unit, note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n:<5d} {note}")
    for name in missing:
        print(f"  {name:40s} missing: its functions are gone")
    losses = sorted({c["final_loss"] for c in calls if "final_loss" in c})
    print(f"checks: {gate.attempted} attempted, {len(gate.failures)} failed; "
          f"final train loss {', '.join(float.hex(x) for x in losses)}")
    for what in gate.failures:
        print(f"  FAILED {what}")

    record = {"workload": workload.name, "why": WHY[workload.name], "seed": args.seed,
              "size": args.size, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "calls": calls,
              "checks": {"attempted": gate.attempted, "failed": gate.failures},
              "metrics": {name: {"value": v, "unit": u, "samples": n, "note": note}
                          for name, (v, n, u, note) in metrics.items()},
              "missing": missing,
              "predictions": {m.name: m.should_move for m in LAYER_METRICS},
              "wall_s": perf_counter() - started}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{label}-spans.json").write_text(json.dumps(traced))

    print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                      "failed": len(gate.failures),
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, n, u, note) in metrics.items()}}))


if __name__ == "__main__":
    main()
