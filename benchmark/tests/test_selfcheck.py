"""Self-checks of the benchmark itself (not part of the tier-1 suite).

Run from the checkout root:

    python3 -m pytest benchmark/tests -q

The count test runs two traced runs per workload (about two minutes in all).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER, WORK_COUNTS  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import POOL, WORKLOADS, load_reference  # noqa: E402


def test_benchmark_json_matches_the_metric_lists():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_pool_dataset_has_a_reference():
    reference = load_reference()
    for name in WORKLOADS:
        assert sorted(reference[name], key=int) == [str(s) for s in range(POOL)]


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_work_counts_repeat_exactly(workload):
    first = _traced_run(workload, 3)
    second = _traced_run(workload, 3)
    assert {k: first[k] for k in WORK_COUNTS} == {k: second[k] for k in WORK_COUNTS}
    assert first["solver.train.calls"] > 0
    assert first["solver.train.failed"] == 0
