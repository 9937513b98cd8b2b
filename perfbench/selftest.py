"""Fast self-test of the benchmark: every workload at tiny size, both modes.

Run from the repository root:  python3 perfbench/selftest.py

Checks that each run exits 0, passes its correctness gate and prints, as its
last line, every metric BENCHMARK.json names with that metric's unit; that
the link-prediction workload reports no edge-stack time; and that the
benchmark fails without printing a result when the program's sources are
absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
TIMEOUT_S = 170


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=TIMEOUT_S)


def check_workload(bench, name, trace):
    proc = _run([str(RUN), "--workload", name, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    if proc.returncode != 0:
        raise AssertionError(f"{name} trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, \
        set(result["metrics"]) ^ {m["name"] for m in expected}
    text = "\n".join(lines[:-1])
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got == {"value": got["value"], "unit": m["unit"]}, (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert f" {m['name']} " in f" {text} " and f" {m['unit']} " in text, m
    if trace and name.startswith("lp_"):
        edge = [k for k in result["metrics"] if k.startswith("edge_tensor.")]
        assert edge and all(result["metrics"][k]["value"] == 0 for k in edge)


def check_fails_without_program(out):
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    bare = out / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run([f"{HERE.name}/run.py", "--workload", "nc_etgcn_sbm2k",
                     "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_workload(bench, workload["name"], trace)
            print(f"ok  {workload['name']} trace {trace}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    check_fails_without_program(out)
    print("ok  fails without the program's sources")


if __name__ == "__main__":
    main()
