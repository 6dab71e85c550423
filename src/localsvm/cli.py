"""Command-line front end: train, audit and experiment subcommands.

Exit codes: 0 success, 1 a robustness bound was violated, 2 input or
config error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .composer import ComposedModel, RegionTrainingError, fit_composed
from .config import (load_config, model_config_from_config, setup_from_config)
from .errors import ConvergenceError, InputError, LocalSvmError
from .experiments import (LambdaSchedule, consistency_trend, tradeoff_sweep)
from .regions import WeightScheme, regionalize, restrict
from .robustness import (ContaminationSpec, default_probes, extreme_labels,
                         run_audit)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's dataset/partition seeds")
        if name == "audit":
            p.add_argument("--model", default=None,
                           help="trained model JSON (default: retrain from config)")
    return parser


def _prepare(args):
    raw = load_config(args.config)
    setup = setup_from_config(raw, seed_override=args.seed)
    config = model_config_from_config(raw, setup.data.dim)
    pc = setup.partition_cfg
    partition = regionalize(setup.data.X, pc.b_target, pc.tau,
                            pc.min_region_size, pc.seed)
    scheme = WeightScheme(setup.scheme_kind, partition, h=setup.scheme_h)
    out_dir = Path(args.out or raw.get("output", {}).get("dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return raw, setup, config, partition, scheme, out_dir


def _train_summary(model: ComposedModel, data, config) -> str:
    lines = [f"regions: {model.partition.B}"]
    for b in sorted(model.locals):
        local = model.locals[b]
        sample_b = restrict(data, model.partition, b)
        n_b = 0 if sample_b is None else sample_b.n
        if b in model.null_region_ids:
            lines.append(f"  region {b}: n_b={n_b} null measure, zero predictor")
            continue
        h = local.h_norm()
        cap = local.h_norm_bound(1.0 if local.kernel.family == "gaussian-rbf"
                                 else float(np.sqrt(np.maximum(
                                     local.kernel.diag(local.anchors), 0.0)).max()))
        lines.append(
            f"  region {b}: n_b={n_b} lambda={local.lam:g} "
            f"|f|_H={h:.6g} bound={cap:.6g} margin={cap - h:.3g}"
        )
    return "\n".join(lines)


def cmd_train(args) -> int:
    raw, setup, config, partition, scheme, out_dir = _prepare(args)
    model = fit_composed(setup.data, partition, scheme, config,
                         threads=args.threads)
    model_path = out_dir / "model.json"
    with open(model_path, "w") as fh:
        json.dump(model.to_dict(), fh)
    summary = _train_summary(model, setup.data, config)
    (out_dir / "train_summary.txt").write_text(summary + "\n")
    print(f"wrote {model_path}")
    print(summary)
    return EXIT_OK


def _z_specs_from_config(raw, data, ladder, classification):
    audit = raw.get("audit", {})
    if "z" in audit:
        z = audit["z"]
        return [ContaminationSpec.dirac(np.asarray(z["x"], dtype=float),
                                        float(z["y"]), ladder)]
    # grid of Dirac points over the data bounding box with extreme labels
    per_dim = int(audit.get("z_grid", 5))
    lo, hi = data.bounding_box()
    axes = [np.linspace(lo[j], hi[j], per_dim) for j in range(data.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.column_stack([m.ravel() for m in mesh])
    y_lo, y_hi = extreme_labels(data, classification)
    return [ContaminationSpec.dirac(x, y_hi if i % 2 == 0 else y_lo, ladder)
            for i, x in enumerate(grid)]


def cmd_audit(args) -> int:
    raw, setup, config, partition, scheme, out_dir = _prepare(args)
    audit_cfg = raw.get("audit", {})
    ladder = tuple(audit_cfg.get("eps_ladder", (1e-2, 5e-3, 2.5e-3, 1.25e-3)))
    probes = default_probes(setup.data, int(audit_cfg.get("extra_probes", 512)))

    base = None
    if args.model is not None:
        try:
            with open(args.model) as fh:
                base = ComposedModel.from_dict(json.load(fh))
        except FileNotFoundError:
            raise InputError(f"model file not found: {args.model}") from None
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot parse model {args.model}: {exc}") from None
        if base.partition.B != partition.B:
            raise InputError("model partition does not match the config partition")
        for b, local in base.locals.items():
            if b not in base.null_region_ids and local.lam != config.lam_for(b):
                raise InputError(
                    f"model lambda {local.lam} in region {b} does not match "
                    f"the config's {config.lam_for(b)}; audit with the training config"
                )
        partition = base.partition
        if partition.points is None:
            # fit-time training points back the weight sup-norm estimates
            partition.attach_points(setup.data.X)
        scheme = base.scheme

    z_specs = _z_specs_from_config(raw, setup.data, ladder,
                                   config.loss.is_classification)
    maxbias_eps = audit_cfg.get("maxbias_eps", 0.1)
    q_family = audit_cfg.get("q_family", "corners-center-flip")
    maxbias_specs = None
    if q_family == "none":
        maxbias_eps = None
    report = run_audit(setup.data, partition, scheme, config, z_specs,
                       maxbias_eps=maxbias_eps, maxbias_specs=maxbias_specs,
                       probes=probes, base=base, threads=args.threads)

    audit_path = out_dir / "audit.json"
    with open(audit_path, "w") as fh:
        json.dump(report.to_dict(), fh)
    print(f"wrote {audit_path}")
    print(f"if_bound_rough = {report.if_bound_rough:.6g}  "
          f"empirical if_sup = {report.empirical['if_sup']:.6g}")
    if report.maxbias_bound is not None:
        print(f"maxbias_bound  = {report.maxbias_bound:.6g}  "
              f"empirical maxbias = {report.empirical['maxbias_sup']:.6g}")
    for note in report.notes:
        print(f"note: {note}")
    for key, ok in report.satisfied.items():
        print(f"satisfied[{key}] = {ok}")
    return EXIT_OK if report.all_satisfied else EXIT_BOUND_VIOLATION


def cmd_experiment(args) -> int:
    raw, setup, config, partition, scheme, out_dir = _prepare(args)
    exp = raw.get("experiment")
    if exp is None:
        raise InputError("config has no experiment section")
    if setup.task is None:
        raise InputError("experiments need a synthetic dataset (risk oracle)")
    if exp["kind"] == "consistency":
        sched_cfg = exp.get("schedule", {})
        schedule = LambdaSchedule(c=sched_cfg.get("c", 1.0),
                                  beta=sched_cfg.get("beta", 0.25))
        report = consistency_trend(
            setup.task, exp["n_ladder"], schedule, setup.partition_cfg, config,
            scheme_kind=setup.scheme_kind, h=setup.scheme_h,
            eval_n=int(exp.get("eval_n", 100_000)))
        stem = "consistency"
    else:
        report = tradeoff_sweep(
            setup.task, setup.data.n, exp["lambda_grid"], setup.partition_cfg,
            config, scheme_kind=setup.scheme_kind, h=setup.scheme_h,
            eval_n=int(exp.get("eval_n", 100_000)))
        stem = "tradeoff"
    csv_path = out_dir / f"{stem}.csv"
    report.write_csv(csv_path)
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(report.to_dict(), fh)
    print(f"wrote {csv_path}")
    for row in report.rows:
        print(json.dumps(row.to_dict()))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "audit": cmd_audit,
                "experiment": cmd_experiment}
    try:
        return handlers[args.command](args)
    except (InputError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RegionTrainingError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except LocalSvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
