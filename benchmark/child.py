"""One workload process: run one localsvm CLI command and report on it.

Started by run.py from the checkout root with ``src`` on PYTHONPATH:

    python3 benchmark/child.py --workload NAME --cli-seed N --out DIR \
        --result FILE --spawned MONOTONIC_TIME [--trace]

Untraced, it adds only a marker at the first workload call (end of set-up)
and timers at operation boundaries. With --trace it also wraps every layer
boundary (layers.py) and writes the spans next to the result. After the
command returns it extracts the values the output checks compare with the
reference; that work is outside every timing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Recorder
from workloads import WORKLOADS


class OpClock:
    """Operation latencies, from boundary marks or from timed calls."""

    def __init__(self):
        self.latencies = []
        self.values = []
        self._open = None

    def boundary(self):
        now = time.perf_counter()
        if self._open is not None:
            self.latencies.append(now - self._open)
        self._open = now

    def close(self):
        if self._open is not None:
            self.latencies.append(time.perf_counter() - self._open)
            self._open = None

    def timed(self, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.latencies.append(time.perf_counter() - t0)
            return result
        return call


def _around(fn, before=None, after=None):
    def call(*args, **kwargs):
        if before:
            before()
        try:
            return fn(*args, **kwargs)
        finally:
            if after:
                after()
    return call


def install_hooks(workload, cli, clock, marks):
    """Set-up end marker and operation timers, patched where each is looked up."""
    from localsvm import composer, experiments, robustness

    def first_call():
        if "work_start" not in marks:
            marks["work_start_cpu"] = time.process_time()
            marks["work_start_mono"] = time.monotonic()
            marks["work_start"] = time.perf_counter()

    if workload == "audit-grid":
        # one op per z (finite_diff_if to the next z or to the maxbias
        # probe) and one for the maxbias probe over all Q; its per-Q shifts
        # are the probe's checked value
        maxbias_probe = robustness.maxbias_probe

        def probe(*args, **kwargs):
            clock.close()
            report = clock.timed(maxbias_probe)(*args, **kwargs)
            clock.values.append(report.empirical["per_q_shifts"])
            return report

        robustness.finite_diff_if = _around(robustness.finite_diff_if, clock.boundary)
        robustness.maxbias_probe = probe
        cli.run_audit = _around(cli.run_audit, first_call, clock.close)
    elif workload == "consistency-ladder":
        # one op per rung: each rung starts with its own regionalize call
        experiments.regionalize = _around(experiments.regionalize, clock.boundary)
        cli.consistency_trend = _around(cli.consistency_trend, first_call, clock.close)
    else:
        composer.train = clock.timed(composer.train)
        cli.fit_composed = _around(cli.fit_composed, first_call)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def extract_outputs(workload, out_dir: Path, clock):
    """Values the output checks need, read from the command's output files."""
    if workload == "audit-grid":
        raw = (out_dir / "audit.json").read_bytes()
        rep = json.loads(raw)
        per_z = rep["per_z"]
        return {
            "digest": _digest([raw]),
            "n_z": len(per_z),
            "op_values": [z["if_sup"] for z in per_z] + clock.values,
            "if_bound_rough": rep["if_bound_rough"],
            "lambdas": [t["lambda"] for t in rep["per_region_terms"]],
            "satisfied": rep["satisfied"],
            "z_satisfied": [z["satisfied"] for z in per_z],
            "if_sup": rep["empirical"]["if_sup"],
            "maxbias_sup": rep["empirical"]["maxbias_sup"],
            "decomposition_residual": rep["empirical"]["decomposition_residual"],
        }
    if workload == "consistency-ladder":
        raw = (out_dir / "consistency.json").read_bytes()
        rows = json.loads(raw)["rows"]
        keep = ("n", "lambda", "risk", "global_risk", "mc_stderr")
        return {
            "digest": _digest([raw]),
            "op_values": [r["risk"] for r in rows],
            "rows": [{k: r[k] for k in keep} for r in rows],
        }
    # train-large: every local model predicts on a fixed grid
    import numpy as np
    from localsvm.composer import ComposedModel

    with open(out_dir / "model.json") as fh:
        model = ComposedModel.from_dict(json.load(fh))
    gx, gy = np.meshgrid(np.linspace(-1.5, 2.5, 8), np.linspace(-1.0, 1.5, 8))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    locals_ = [model.locals[b] for b in sorted(model.locals)]
    return {
        "digest": _digest([m.alpha.tobytes() for m in locals_]),
        "region_sizes": [m.n_anchors for m in locals_],
        "op_values": [m.predict(grid).tolist() for m in locals_],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--cli-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"ok": False, "exit_code": None, "error": None}

    t0 = time.perf_counter()
    import localsvm.cli as cli
    result["import_s"] = time.perf_counter() - t0

    recorder = None
    if args.trace:
        from layers import instrument

        recorder = Recorder()
        instrument(recorder)
    clock = OpClock()
    marks = {}
    install_hooks(w.name, cli, clock, marks)

    config = Path(__file__).resolve().parent / "configs" / w.config
    cli_argv = [w.command, "--config", str(config), "--out", str(out_dir),
                "--threads", str(w.threads), "--seed", str(args.cli_seed)]
    try:
        with open(out_dir / "stdout.txt", "w") as log, contextlib.redirect_stdout(log):
            result["exit_code"] = cli.main(cli_argv)
    except Exception:
        result["error"] = traceback.format_exc()
    work_end = time.perf_counter()
    work_end_cpu = time.process_time()
    spans = list(recorder.spans) if recorder else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if "work_start" in marks:
        result["setup_s"] = marks["work_start_mono"] - args.spawned
        result["wall_s"] = work_end - marks["work_start"]
        result["cpu_s"] = work_end_cpu - marks["work_start_cpu"]
    result["op_latencies"] = clock.latencies
    if result["error"] is None and result["exit_code"] == 0 and "work_start" in marks:
        try:
            result["outputs"] = extract_outputs(w.name, out_dir, clock)
            result["ok"] = True
        except (OSError, ValueError, KeyError) as exc:
            result["error"] = f"cannot read outputs: {exc!r}"

    if recorder is not None:
        from layers import layer_metrics

        recorder.spans = spans
        recorder.write(out_dir / "spans.jsonl")
        if "work_start" in marks:
            with open(out_dir / "spans.jsonl") as fh:
                span_dicts = [json.loads(line) for line in fh]
            result["layers"] = layer_metrics(span_dicts, marks["work_start"], work_end)
            result["layers"]["cli.import_s"] = result["import_s"]

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
