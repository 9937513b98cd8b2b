"""One measured process of the benchmark: repeated task calls on one workload.

Usage: python3 perfbench/worker.py INPUTS.pkl WORKLOAD SEED SECONDS TRACED

Loads the inputs ``run.py`` generated, then calls the workload's task entry
point with a fixed epoch count until ``SECONDS`` are used (at least twice).
With TRACED=1 the layer wrappers are installed first. Prints one JSON object:
per-call outcomes, the recorded spans and the process's peak RSS.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edgetensor.training import TaskConfig  # noqa: E402

from spans import Tracer, install, stamp_epochs  # noqa: E402
from workloads import LEARNING_RATE, WORKLOADS  # noqa: E402

MIN_CALLS = 2  # the bitwise-repeat check needs two calls


def main(inputs_path, name, seed, seconds, traced):
    with open(inputs_path, "rb") as fh:
        inputs = pickle.load(fh)
    workload = WORKLOADS[name]
    tracer = Tracer()
    stamp_epochs(tracer)
    missing = install(tracer) if traced else []

    calls = []
    start = perf_counter()
    while True:
        config = TaskConfig(learning_rate=LEARNING_RATE, seed=seed,
                            max_epochs=workload.epochs, patience=workload.epochs)
        task = tracer.open("task")
        try:
            result = workload.call(inputs, config)
        except Exception:  # a failed call is reported as a failed operation
            traceback.print_exc()
            calls.append({"error": True})
            break
        finally:
            tracer.close(task)
        calls.append({"quality": float(result.metrics[workload.quality_key]),
                      "final_loss": float(result.history[-1].train_loss),
                      "epochs": len(result.history)})
        elapsed = perf_counter() - start
        # stop before a call that would run past the budget
        if len(calls) >= MIN_CALLS and elapsed * (1 + 1 / len(calls)) > seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"calls": calls, "spans": tracer.spans,
                      "missing": missing, "peak_rss_mb": peak_kb / 1024}))


if __name__ == "__main__":
    path, name, seed, seconds, traced = sys.argv[1:]
    main(path, name, int(seed), float(seconds), traced == "1")
