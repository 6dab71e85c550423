"""Command-line front end: train, audit and experiment subcommands.

Exit codes: 0 success, 1 a robustness bound was violated, 2 input or
config error (or a non-finite output value, or a file that cannot be read
or written), 3 solver non-convergence (the message names the region).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .composer import ComposedModel, fit_composed
from .config import (load_config, model_config_from_config,
                     partition_from_config, setup_from_config, task_from_config)
from .data import WeightedSample
from .errors import ConvergenceError, InputError, LocalSvmError
from .experiments import LambdaSchedule, consistency_trend, tradeoff_sweep
from .kernels import sup_sqrt_diag
from .robustness import (DEFAULT_EXTRA_PROBES, default_probes, extreme_labels,
                         run_audit)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3

# largest audit.z_grid ** dim accepted; each grid point costs one
# finite-difference audit, so a larger grid is a config error
MAX_Z_GRID_POINTS = 10_000


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localsvm",
        description="Localized kernel learning with robustness audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("train", "fit a composed model and write it as JSON"),
                      ("audit", "estimate influence functions and certify bounds"),
                      ("experiment", "consistency trend or lambda trade-off sweep")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="max parallel trainings")
        p.add_argument("--seed", type=_non_negative_int, default=None,
                       help="override the config's dataset/partition seeds")
        if name == "audit":
            p.add_argument("--model", default=None,
                           help="trained model JSON (default: retrain from config)")
    return parser


def _out_dir(args, raw) -> Path:
    """The output directory; a command creates it only once its outputs
    are ready to write, so a failed run leaves no new directory."""
    return Path(args.out or raw.get("output", {}).get("dir", "."))


def _prepare(args):
    raw = load_config(args.config)
    data, pc = setup_from_config(raw, seed_override=args.seed)
    config = model_config_from_config(raw, data.dim)
    config.loss._check_labels(data.y)  # before any computation on the data
    return raw, data, pc, config, _out_dir(args, raw)


def _build_scheme(pc, data, config):
    """The run's weight scheme; every model.per_region entry must name
    one of its regions."""
    scheme = pc.build(data.X)
    unknown = sorted({*config.region_kernels, *config.region_lambdas}
                     - set(range(1, scheme.B + 1)))
    if unknown:
        raise InputError(f"model.per_region names region(s) {unknown}, but the "
                         f"partition has regions 1..{scheme.B}")
    return scheme


def _json_text(obj, name: str) -> str:
    """Strict JSON of one output; made before any file is opened."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise LocalSvmError(f"{name} would hold a non-finite value ({exc}); "
                            "no output written") from None


def _train_summary(model: ComposedModel) -> str:
    lines = [f"regions: {model.partition.B}"]
    for b in sorted(model.locals):
        local = model.locals[b]
        n_b = local.n_anchors  # a local model is anchored at its region's sample
        if b in model.null_region_ids:
            lines.append(f"  region {b}: n_b={n_b} null measure, zero predictor")
            continue
        h = local.h_norm()
        cap = local.h_norm_bound(sup_sqrt_diag(local.kernel, local.anchors))
        lines.append(
            f"  region {b}: n_b={n_b} lambda={local.lam:g} "
            f"|f|_H={h:.6g} bound={cap:.6g} margin={cap - h:.3g}"
        )
    return "\n".join(lines)


def cmd_train(args) -> int:
    _, data, pc, config, out_dir = _prepare(args)
    model = fit_composed(data, _build_scheme(pc, data, config), config,
                         threads=args.threads)
    model_path = out_dir / "model.json"
    text = _json_text(model.to_dict(), model_path.name)
    summary = _train_summary(model)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path.write_text(text)
    (out_dir / "train_summary.txt").write_text(summary + "\n")
    print(f"wrote {model_path}")
    print(summary)
    return EXIT_OK


def _contaminations_from_config(raw, data, loss):
    audit = raw.get("audit", {})
    if "z" in audit:
        z = audit["z"]
        z_x = np.asarray(z["x"], dtype=float)
        if z_x.shape != (data.dim,):
            raise InputError(f"audit.z.x has {z_x.size} coordinates, but the "
                             f"data has dimension {data.dim}")
        try:
            loss._check_labels(z["y"])
        except InputError as exc:
            raise InputError(f"audit.z.y: {exc}") from None
        return [WeightedSample.dirac(z_x, float(z["y"]))]
    # grid of Dirac points over the data bounding box with extreme labels
    per_dim = int(audit.get("z_grid", 5))
    if per_dim ** data.dim > MAX_Z_GRID_POINTS:
        raise InputError(
            f"audit.z_grid {per_dim} in dimension {data.dim} gives "
            f"{per_dim ** data.dim} contamination points, more than "
            f"{MAX_Z_GRID_POINTS}; lower z_grid or set audit.z")
    lo, hi = data.bounding_box()
    axes = [np.linspace(lo[j], hi[j], per_dim) for j in range(data.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    y_lo, y_hi = extreme_labels(data, loss.is_classification)
    return [WeightedSample.dirac(x, y_hi if i % 2 == 0 else y_lo)
            for i, x in enumerate(grid)]


def cmd_audit(args) -> int:
    raw, data, pc, config, out_dir = _prepare(args)
    audit_cfg = raw.get("audit", {})
    # every input is checked before the partition is built
    qs = _contaminations_from_config(raw, data, config.loss)
    probes = default_probes(data,
                            int(audit_cfg.get("extra_probes", DEFAULT_EXTRA_PROBES)))
    base = None
    if args.model is not None:
        try:
            with open(args.model) as fh:
                base = ComposedModel.from_dict(json.load(fh))
        except FileNotFoundError:
            raise InputError(f"model file not found: {args.model}") from None
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot parse model {args.model}: {exc}") from None

    scheme = _build_scheme(pc, data, config)
    if base is not None:
        if ((base.partition.to_dict(), base.scheme.to_dict())
                != (scheme.partition.to_dict(), scheme.to_dict())):
            raise InputError("model partition does not match the config partition")
        scheme = base.scheme

    # only the keys the config sets: run_audit holds the defaults
    settings = {k: audit_cfg[k] for k in ("maxbias_eps", "eps_ladder")
                if k in audit_cfg}
    if audit_cfg.get("q_family") == "none":
        settings["maxbias_eps"] = None
    report = run_audit(data, scheme, config, qs,
                       probes=probes, base=base, threads=args.threads,
                       **settings)

    audit_path = out_dir / "audit.json"
    text = _json_text(report.to_dict(), audit_path.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    audit_path.write_text(text)
    print(f"wrote {audit_path}")
    print(f"if_bound_rough = {report.if_bound_rough:.6g}  "
          f"empirical if_sup = {report.empirical['if_sup']:.6g}")
    if report.maxbias_bound is not None:
        print(f"maxbias_bound  = {report.maxbias_bound:.6g}  "
              f"empirical maxbias = {report.empirical['maxbias_sup']:.6g}")
    for key, ok in report.satisfied.items():
        print(f"satisfied[{key}] = {ok}")
    return EXIT_OK if report.all_satisfied else EXIT_BOUND_VIOLATION


def cmd_experiment(args) -> int:
    # each experiment draws its own samples, so the config's dataset block
    # gives only the task and the training-sample size; nothing is drawn here
    raw = load_config(args.config)
    exp = raw.get("experiment")
    if exp is None:
        raise InputError("config has no experiment section")
    task = task_from_config(raw, seed_override=args.seed)
    if task is None:
        raise InputError("experiments need a synthetic dataset (risk oracle)")
    pc = partition_from_config(raw, seed_override=args.seed)
    config = model_config_from_config(raw, task.dim)
    # experiments build each rung's partition in the library, of at most
    # b_target regions, and set every lambda from their schedule or grid
    beyond = sorted(b for b in {*config.region_kernels, *config.region_lambdas}
                    if b > pc.b_target)
    if beyond:
        raise InputError(f"model.per_region names region(s) {beyond}, but the "
                         f"partition has at most b_target = {pc.b_target} regions")
    if config.region_lambdas:
        raise InputError("model.per_region sets lambda, which experiments do not "
                         "use: they take lambda from the schedule or lambda_grid")
    out_dir = _out_dir(args, raw)
    # only the keys the config sets: the library holds the defaults
    eval_n = {"eval_n": int(exp["eval_n"])} if "eval_n" in exp else {}
    if exp["kind"] == "consistency":
        report = consistency_trend(
            task, exp["n_ladder"], LambdaSchedule(**exp.get("schedule", {})),
            pc, config, threads=args.threads, **eval_n)
        stem = "consistency"
    else:
        report = tradeoff_sweep(
            task, int(raw["dataset"]["n"]), exp["lambda_grid"], pc, config,
            threads=args.threads, **eval_n)
        stem = "tradeoff"
    text = _json_text(report.to_dict(), f"{stem}.json")
    csv_path = out_dir / f"{stem}.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(csv_path)
    (out_dir / f"{stem}.json").write_text(text)
    print(f"wrote {csv_path}")
    for row in report.rows:
        print(json.dumps(row, allow_nan=False))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "audit": cmd_audit,
                "experiment": cmd_experiment}
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (LocalSvmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
