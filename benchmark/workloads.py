"""Workload definitions and output checks shared by the runner and its tools.

Each workload is one ``localsvm`` CLI command on a checked-in config, run
over a fixed pool of datasets: CLI ``--seed`` values ``0 .. POOL - 1``, each
with a reference output recorded in ``reference.json``. The cost of one
dataset differs from the next by up to about 20 % (region sizes follow the
k-means partition), so a run makes whole passes over the pool and two runs
measure the same work; the workload seed only rotates the order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# acceptance-suite tolerances (tests/test_acceptance.py) and reference
# tolerances; a reference mismatch fails the operation it belongs to
DECOMPOSITION_TOL = 1e-10      # criterion 3
IF_SUP_RTOL = 1e-6             # finite-difference quotients, per z and overall
MAXBIAS_RTOL = 1e-8            # full-level shifts, per Q and overall
RISK_STDERRS = 2.0             # consistency risks against the reference
GLOBAL_RISK_FACTOR = 1.25      # criterion 9: risk(n_max) <= 1.25 x global risk
PREDICTION_RTOL = 1e-6         # train-large local predictions on the check grid

POOL = 2          # datasets per workload; processes per pass
MIN_REPS = 4      # processes an untraced run makes at least: two passes
BLAS_THREADS = 1  # OPENBLAS/OMP/MKL thread count in every workload process


@dataclass(frozen=True)
class Workload:
    name: str
    command: str       # CLI subcommand
    config: str        # file under configs/
    threads: int       # --threads
    op: str            # what one operation is


WORKLOADS = {
    w.name: w for w in (
        Workload("audit-grid", "audit", "audit-grid.json", 1,
                 "one z spec audited (25), or the maxbias probe over 11 Q"),
        Workload("consistency-ladder", "experiment", "consistency-ladder.json", 1,
                 "one ladder rung fitted and evaluated"),
        Workload("train-large", "train", "train-large.json", 2,
                 "one region trained"),
    )
}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(value, ref, rtol, scale_floor=1.0):
    return abs(value - ref) <= rtol * max(scale_floor, abs(ref))


def check_outputs(workload: str, out: dict, ref: dict):
    """Compare one process's extracted outputs with the reference.

    Returns (per-operation ok flags, list of whole-run problems).
    """
    problems = []
    values = out["op_values"]
    ref_values = ref["op_values"]
    if len(values) != len(ref_values):
        problems.append(f"{len(values)} operations, reference has {len(ref_values)}")
        return [False] * len(ref_values), problems

    if workload == "audit-grid":
        n_z = ref["n_z"]
        ops_ok = [_close(v, r, IF_SUP_RTOL) for v, r in zip(values[:n_z], ref_values[:n_z])]
        shifts, ref_shifts = values[n_z], ref_values[n_z]  # the maxbias probe, per Q
        ops_ok.append(len(shifts) == len(ref_shifts) and all(
            _close(v, r, MAXBIAS_RTOL) for v, r in zip(shifts, ref_shifts)))
        expected = 2.0 * sum(1.0 / lam for lam in out["lambdas"])
        if out["if_bound_rough"] != expected or out["if_bound_rough"] != ref["if_bound_rough"]:
            problems.append(f"if_bound_rough {out['if_bound_rough']!r} != "
                            f"2 sum 1/lambda_b = {expected!r} (reference "
                            f"{ref['if_bound_rough']!r})")
        if not all(out["satisfied"].values()) or not all(out["z_satisfied"]):
            problems.append(f"satisfied flags not all true: {out['satisfied']}")
        if not _close(out["if_sup"], ref["if_sup"], IF_SUP_RTOL):
            problems.append(f"if_sup {out['if_sup']!r} vs reference {ref['if_sup']!r}")
        if not _close(out["maxbias_sup"], ref["maxbias_sup"], MAXBIAS_RTOL):
            problems.append(f"maxbias_sup {out['maxbias_sup']!r} vs reference "
                            f"{ref['maxbias_sup']!r}")
        if not out["decomposition_residual"] <= DECOMPOSITION_TOL:
            problems.append(f"decomposition residual {out['decomposition_residual']:.3e}")
    elif workload == "consistency-ladder":
        ops_ok = []
        for row, ref_row in zip(out["rows"], ref["rows"]):
            tol = RISK_STDERRS * ref_row["mc_stderr"]
            ops_ok.append(row["n"] == ref_row["n"] and row["lambda"] == ref_row["lambda"]
                          and abs(row["risk"] - ref_row["risk"]) <= tol
                          and abs(row["global_risk"] - ref_row["global_risk"]) <= tol)
        first, last = out["rows"][0], out["rows"][-1]
        if not last["risk"] < first["risk"]:
            problems.append(f"risk({last['n']})={last['risk']} not below "
                            f"risk({first['n']})={first['risk']}")
        if not last["risk"] <= GLOBAL_RISK_FACTOR * last["global_risk"]:
            problems.append(f"risk({last['n']}) above {GLOBAL_RISK_FACTOR} x global risk")
    else:  # train-large: per-region predictions on the check grid
        ops_ok = []
        for n_b, preds, ref_n_b, ref_preds in zip(out["region_sizes"], values,
                                                  ref["region_sizes"], ref_values):
            ops_ok.append(n_b == ref_n_b and len(preds) == len(ref_preds) and all(
                _close(p, r, PREDICTION_RTOL) for p, r in zip(preds, ref_preds)))
        if not all(math.isfinite(p) for preds in values for p in preds):
            problems.append("non-finite predictions")
    return ops_ok, problems
