"""Smoke test: the quick demos run to completion from a checkout.

Demo 03 trains two models for up to 300 epochs each and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_edge_tensor_basics.py", "02_gradient_check.py",
               "04_link_prediction.py", "05_multigraph_stacking.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
