"""localsvm benchmark: one workload, timed over its dataset pool, outputs checked.

Run from the root of a checkout (the directory holding ``src/``):

    python3 benchmark/run.py --workload audit-grid --seed 3 --seconds 30 --trace 0

Each repetition is a fresh ``python3 benchmark/child.py`` process that calls
``localsvm.cli.main`` on the workload's config. With ``--trace 0`` the
repetitions are untraced, make whole passes over the workload's dataset
pool, and the end-to-end metrics are reported; with ``--trace 1`` untraced
and traced repetitions alternate in pairs and the per-layer metrics are
reported, with the tracing overhead. See METRICS.md. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
(provenance, every repetition, the output checks) is written under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, WORK_COUNTS
from workloads import (BLAS_THREADS, MIN_REPS, POOL, WORKLOADS, check_outputs,
                       load_reference)

HERE = Path(__file__).resolve().parent
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
TAIL_SAMPLES = 10       # samples beyond the reported tail percentile
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0     # no repetition starts that could end after this


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with TAIL_SAMPLES samples beyond it among the
    operations every run makes, so runs of any length report the same
    percentile; the median when there are fewer than 2 * TAIL_SAMPLES."""
    return max(50, math.floor(100 * (min_samples - TAIL_SAMPLES) / min_samples))


def percentile(values, pct):
    """Percentile of a non-empty list, interpolated between closest ranks.

    Interpolation keeps the median of a pass with a gap in the middle, such
    as the small and large regions of train-large, from jumping across it.
    """
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def provenance(w, seed, trace, cli_seeds):
    import numpy as np

    commit = None
    if Path(".git").exists():  # a plain checkout records only the source digest
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src.update(str(path).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "threads": w.threads,
        "workload": w.name,
        "seed": seed,
        "cli_seeds": cli_seeds,
        "trace": trace,
    }


def rep_seed(seed, index, trace):
    """CLI seed of repetition ``index``: untraced runs make passes over the
    workload's dataset pool starting at ``seed``; traced runs give each
    untraced/traced pair one dataset."""
    return (seed + (index // 2 if trace else index)) % POOL


def run_child(w, dataset_seed, work, index, traced, timeout):
    """One workload process on CLI seed ``dataset_seed``; returns its result."""
    out = work / f"rep{index}"
    result_path = work / f"rep{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", w.name,
           "--cli-seed", str(dataset_seed), "--out", str(out),
           "--result", str(result_path), "--spawned", repr(time.monotonic())]
    if traced:
        cmd.append("--trace")
    with open(work / f"rep{index}.stderr", "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                  env=env, timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"ok": False, "error": f"child exited {code} without a result"}
    if code != 0:
        result["ok"] = False
        result["error"] = result.get("error") or f"child exited {code}"
    result["traced"] = traced
    result["cli_seed"] = dataset_seed
    return result


def check_reps(w, reps, references):
    """Count failed operations; every failure is described in the notes."""
    attempted = failed = 0
    notes = []
    digests = {}
    for i, rep in enumerate(reps):
        ref = references[str(rep["cli_seed"])]
        n_ops = len(ref["op_values"])
        attempted += n_ops
        if not rep["ok"]:
            failed += n_ops
            err = (rep.get("error") or "").strip().splitlines()
            notes.append(f"rep {i}: failed (exit {rep.get('exit_code')}): "
                         f"{err[-1] if err else 'no error text'}")
            continue
        out = rep["outputs"]
        ops_ok, problems = check_outputs(w.name, out, ref)
        first = digests.setdefault(rep["cli_seed"], out["digest"])
        if out["digest"] != first:
            problems.append("outputs differ bitwise from an earlier repetition "
                            "with the same seed")
        if problems:
            failed += n_ops
            notes.extend(f"rep {i}: {p}" for p in problems)
        else:
            bad = ops_ok.count(False)
            failed += bad
            if bad:
                notes.append(f"rep {i}: {bad} of {n_ops} operations differ from "
                             "the reference")
    matches = {seed: d == references[str(seed)]["digest"] for seed, d in digests.items()}
    return attempted, failed, notes, matches


def end_to_end(reps, min_samples):
    good = [r for r in reps if r["ok"]]
    latencies = [x for r in good for x in r["op_latencies"]]
    if not good or not latencies:
        return None, None
    pct = tail_percentile(min_samples)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "ops_per_s": statistics.median(len(r["op_latencies"]) / r["wall_s"] for r in good),
        "op_p50_ms": 1000.0 * percentile(latencies, 50),
        "op_tail_ms": 1000.0 * percentile(latencies, pct),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    return metrics, {"tail_percentile": pct, "samples": len(latencies)}


def per_layer(reps):
    """Work counts from the first traced process (the run seed's dataset),
    times as medians over traced processes, overhead per same-seed pair."""
    pairs = [(reps[i], reps[i + 1]) for i in range(0, len(reps) - 1, 2)]
    pairs = [(p, t) for p, t in pairs if p["ok"] and t["ok"] and "layers" in t]
    if not pairs:
        return None
    traced = [t["layers"] for _, t in pairs]
    metrics = {}
    for name, _ in PER_LAYER:
        if name in WORK_COUNTS:
            metrics[name] = traced[0][name]
        elif name != "trace.overhead_s":
            metrics[name] = statistics.median(layers[name] for layers in traced)
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/localsvm/cli.py").is_file():
        print("benchmark: run from a localsvm checkout (no src/localsvm here)",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    references = load_reference()[w.name]
    work = Path(".bench_work") / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    # whole passes over the pool (pairs when traced), at least MIN_REPS
    # processes (one pair), then more while the next is expected to end
    # within --seconds
    unit, minimum = (2, 2) if args.trace else (POOL, MIN_REPS)
    start = time.monotonic()
    reps = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if (len(reps) >= minimum and len(reps) % unit == 0
                and elapsed + unit * longest > args.seconds):
            break
        if reps and elapsed + longest > RUN_LIMIT_S:
            break
        t0 = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_child(w, rep_seed(args.seed, len(reps), args.trace), work,
                              len(reps), traced,
                              min(CHILD_TIMEOUT_S, RUN_LIMIT_S - elapsed)))
        longest = max(longest, time.monotonic() - t0)

    attempted, failed, notes, digest_matches = check_reps(w, reps, references)
    if args.trace:
        metrics, extra = per_layer(reps), {}
        units = dict(PER_LAYER)
    else:
        pool_ops = sum(len(references[str(i)]["op_values"]) for i in range(POOL))
        metrics, extra = end_to_end(reps, pool_ops * MIN_REPS // POOL)
        units = dict(END_TO_END)
    correct = failed == 0 and not notes and metrics is not None

    seeds = sorted({r["cli_seed"] for r in reps})
    record = {"provenance": provenance(w, args.seed, args.trace, seeds),
              "op": w.op, "correct": correct, "attempted": attempted,
              "failed": failed, "failed_ratio": failed / attempted,
              "notes": notes, "metrics": metrics, "extra": extra,
              "digest_matches_reference": digest_matches,
              "repetitions": [{k: v for k, v in r.items()
                               if k not in ("outputs", "op_latencies")} for r in reps]}
    with open(work / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"# {w.name} seed={args.seed} (cli --seed {seeds}) "
          f"trace={args.trace} reps={len(reps)} commit={prov['commit']} "
          f"nproc={prov['nproc']} threads={w.threads} blas_threads={BLAS_THREADS}")
    print(f"# {prov['cpu_model']}; python {prov['python']}, numpy {prov['numpy']}, "
          f"{prov['blas']}")
    for note in notes:
        print(f"# check: {note}")
    if metrics is None:
        print("# no successful repetition; metrics unavailable", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        suffix = ""
        if name == "op_tail_ms":
            suffix = f"  (p{extra['tail_percentile']} of {extra['samples']} ops)"
        print(f"{name:40s} {value:16.6f} {units[name]}{suffix}")
    print(f"{'failed_ratio':40s} {failed / attempted:16.6f} ratio  "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
