"""Record a baseline: every workload over ten seeds untraced, once traced.

Run from the checkout root:

    python3 benchmark/record_baseline.py

Runs ``run.py`` exactly as the benchmark command does, with the run length
from ``BENCHMARK.json``. For each workload and end-to-end metric it
reports the median, the quartiles and the quartile spread as a share of the
median, next to the metric's bound. It also reports the per-layer metrics
of one traced run with seed 0. The result goes to
``benchmark/results/BENCH_<commit>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(10)
TRACED_SEED = 0


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result, lines = run_once(name, seed, bench["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                               "median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": bound,
                               "values": values}
            print(f"  {metric:12s} median {med:.4g}  spread {(q3 - q1) / med:.3f}"
                  f"  (bound {bound})", flush=True)
        traced, traced_lines = run_once(name, TRACED_SEED, bench["run_seconds"], 1)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_header": [l for l in traced_lines if l.startswith("#")],
        }
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or "unknown"
    out = HERE / "results" / f"BENCH_{commit}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
