"""The benchmark's workload process (``benchmark/child.py``) cuts each CLI
command into as many timed operations as ``benchmark/reference.json``
records values for: the hooks it patches into the package must still be
the names each command calls."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"

with open(BENCH / "reference.json") as fh:
    REFERENCE = json.load(fh)


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_child_times_one_operation_per_reference_value(workload, tmp_path):
    result_path = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--cli-seed", "0", "--out", str(tmp_path / "out"),
         "--result", str(result_path), "--spawned", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(result_path) as fh:
        result = json.load(fh)
    assert result["ok"], result["error"]
    want = len(REFERENCE[workload]["0"]["op_values"])
    assert len(result["op_latencies"]) == want
