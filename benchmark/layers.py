"""Per-layer tracing of the localsvm modules, from outside the package.

``instrument`` wraps the public functions and methods of each
``src/localsvm`` module with spans. A function imported by name into other
modules (``train`` into composer, robustness and experiments;
``fit_composed`` into experiments and cli) is replaced in every module
namespace that holds it, because that is where the call looks it up.
Methods are replaced on the class that defines them.

``layer_metrics`` turns one process's spans into the per-layer metrics
listed in ``PER_LAYER``.
"""

from __future__ import annotations

import json
import types
from collections import defaultdict

from spans import ancestors, content_hash, covered_time, self_times

# (name, unit) in report order; BENCHMARK.json lists the same names
PER_LAYER = (
    ("kernels.matrix.calls", "count"),
    ("kernels.matrix.entries", "count"),
    ("kernels.matrix.self_s", "s"),
    ("kernels.matrix.bytes_computed", "bytes"),
    ("kernels.gram.calls", "count"),
    ("kernels.gram.entries", "count"),
    ("kernels.gram.self_s", "s"),
    ("kernels.gram.distinct_ratio", "ratio"),
    ("kernels.self_s", "s"),
    ("losses.calls", "count"),
    ("losses.self_s", "s"),
    ("solver.train.calls", "count"),
    ("solver.train.anchors", "count"),
    ("solver.train.self_s", "s"),
    ("solver.train.newton_iters", "count"),
    ("solver.train.failed", "count"),
    ("solver.predict.rows", "count"),
    ("solver.self_s", "s"),
    ("regions.regionalize.self_s", "s"),
    ("regions.weights_many.rows", "count"),
    ("regions.weights_many.self_s", "s"),
    ("regions.restrict.calls", "count"),
    ("regions.restrict.self_s", "s"),
    ("regions.self_s", "s"),
    ("composer.fit_composed.self_s", "s"),
    ("composer.fit_composed.concurrency", "ratio"),
    ("composer.predict.rows", "count"),
    ("composer.predict.self_s", "s"),
    ("composer.self_s", "s"),
    ("robustness.finite_diff_if.calls", "count"),
    ("robustness.finite_diff_if.self_s", "s"),
    ("robustness.maxbias_probe.self_s", "s"),
    ("robustness.retrains", "count"),
    ("robustness.h_norm.calls", "count"),
    ("robustness.h_norm.self_s", "s"),
    ("robustness.tv_refined_if_bound.calls", "count"),
    ("robustness.tv_refined_if_bound.self_s", "s"),
    ("robustness.self_s", "s"),
    ("experiments.generate.self_s", "s"),
    ("experiments.eval_rows", "count"),
    ("experiments.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.write_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
)

# work counts that must repeat exactly across traced runs of one commit
WORK_COUNTS = tuple(name for name, _ in PER_LAYER
                    if name.endswith((".calls", ".entries", ".rows", ".anchors",
                                      ".bytes_computed", ".newton_iters",
                                      ".retrains", ".eval_rows", ".failed",
                                      ".distinct_ratio")))

LAYERS = ("kernels", "losses", "solver", "regions", "composer", "robustness",
          "experiments")


def _rows(index):
    import numpy as np

    return lambda args, kwargs: {"rows": int(np.shape(args[index])[0])}


def _matrix_attrs(args, kwargs):
    import numpy as np

    kernel, X, Z = args[0], args[1], args[2]
    entries = int(np.shape(X)[0]) * int(np.shape(Z)[0])
    return {"entries": entries, "bytes": entries * kernel.input_dim * 8}


def _gram_attrs(args, kwargs):
    import numpy as np

    points = np.ascontiguousarray(np.asarray(args[1], dtype=float))
    return {"entries": points.shape[0] ** 2, "hash": content_hash(points)}


def _train_attrs(args, kwargs):
    sample = args[0] if args else kwargs["sample"]
    return {"anchors": int(sample.n)}


def instrument(recorder):
    """Replace the library's layer boundaries with span-recording wrappers."""
    import localsvm
    from localsvm import (cli, composer, config, data, experiments, kernels,
                          losses, regions, robustness, solver)

    namespaces = (localsvm, cli, composer, config, data, experiments, kernels,
                  losses, regions, robustness, solver)
    functions = (
        (kernels, "sup_norm_on_region", None),
        (solver, "train", _train_attrs),
        (solver, "objective", None),
        (solver, "audit_model_bounds", None),
        (solver, "shifted_unshifted_identity_check", None),
        (regions, "regionalize", None),
        (regions, "restrict", None),
        (regions, "weight_sup_norm", None),
        (composer, "fit_composed", None),
        (composer, "empirical_risk", None),
        (composer, "predict_composed", None),
        (robustness, "run_audit", None),
        (robustness, "finite_diff_if", None),
        (robustness, "maxbias_probe", None),
        (robustness, "if_bound", None),
        (robustness, "tv_refined_if_bound", None),
        (robustness, "decomposition_check", None),
        (robustness, "default_probes", None),
        (robustness, "adversarial_q_specs", None),
        (robustness, "contaminate_region", None),
        (experiments, "generate", None),
        (experiments, "consistency_trend", None),
        (experiments, "tradeoff_sweep", None),
        (config, "load_config", None),
        (config, "setup_from_config", None),
        (config, "model_config_from_config", None),
    )
    for module, attr, attrs in functions:
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        wrapped = recorder.wrap(original, f"{layer}.{attr}", attrs)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapped)

    methods = [
        (kernels.Kernel, "matrix", "kernels.matrix", _matrix_attrs),
        (kernels.Kernel, "gram", "kernels.gram", _gram_attrs),
        (solver.LocalModel, "predict", "solver.predict", _rows(1)),
        (solver.LocalModel, "h_norm", "solver.h_norm", None),
        (regions.WeightScheme, "weights_many", "regions.weights_many", _rows(1)),
        (composer.ComposedModel, "predict_with_coverage", "composer.predict", _rows(1)),
        (robustness.LocalQuotient, "h_norm", "robustness.h_norm", None),
        (experiments.TrendReport, "write_csv", "cli.write", None),
        (experiments.SweepReport, "write_csv", "cli.write", None),
    ]
    for cls in vars(losses).values():
        if isinstance(cls, type) and cls.__module__ == losses.__name__:
            for attr in ("value", "shifted_value", "dt", "dtt"):
                if attr in vars(cls):
                    methods.append((cls, attr, f"losses.{attr}", None))
    for cls, attr, name, attrs in methods:
        setattr(cls, attr, recorder.wrap(vars(cls)[attr], name, attrs))

    # the CLI writes its output files with json.dump from its own namespace
    cli.json = types.SimpleNamespace(**vars(json))
    cli.json.dump = recorder.wrap(json.dump, "cli.write")


def layer_metrics(spans, work_start, work_end):
    """Per-layer metrics of one process; spans are dicts as written by Recorder."""
    selfs = self_times(spans)
    by_id = {sp["id"]: sp for sp in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur = defaultdict(float)
    attr_sum = defaultdict(int)
    layer_self = defaultdict(float)
    gram_hashes = set()
    newton_iters = retrains = eval_rows = train_failed = 0
    fit_children = 0.0

    for sp in spans:
        name = sp["name"]
        calls[name] += 1
        self_s[name] += selfs[sp["id"]]
        dur[name] += sp["end"] - sp["start"]
        layer_self[name.split(".", 1)[0]] += selfs[sp["id"]]
        for key, value in (sp["attrs"] or {}).items():
            if key == "hash":
                gram_hashes.add(value)
            else:
                attr_sum[(name, key)] += value
        up = list(ancestors(sp, by_id))
        up_names = {a["name"] for a in up}
        if name == "losses.dtt" and "solver.train" in up_names:
            newton_iters += 1
        if name == "solver.train":
            train_failed += sp["failed"]
            if up_names & {"robustness.finite_diff_if", "robustness.maxbias_probe"}:
                retrains += 1
            if up and up[0]["name"] == "composer.fit_composed":
                fit_children += sp["end"] - sp["start"]
        if (name in ("composer.predict", "solver.predict")
                and not (up and up[0]["name"] == "composer.predict")
                and up_names & {"experiments.consistency_trend",
                                "experiments.tradeoff_sweep"}):
            eval_rows += sp["attrs"]["rows"]

    work = [sp for sp in spans if work_start <= sp["start"] <= work_end]
    wall = work_end - work_start
    m = {
        "kernels.matrix.calls": calls["kernels.matrix"],
        "kernels.matrix.entries": attr_sum[("kernels.matrix", "entries")],
        "kernels.matrix.self_s": self_s["kernels.matrix"],
        "kernels.matrix.bytes_computed": attr_sum[("kernels.matrix", "bytes")],
        "kernels.gram.calls": calls["kernels.gram"],
        "kernels.gram.entries": attr_sum[("kernels.gram", "entries")],
        "kernels.gram.self_s": self_s["kernels.gram"],
        "kernels.gram.distinct_ratio": (len(gram_hashes) / calls["kernels.gram"]
                                        if calls["kernels.gram"] else 0.0),
        "losses.calls": sum(c for n, c in calls.items() if n.startswith("losses.")),
        "solver.train.calls": calls["solver.train"],
        "solver.train.anchors": attr_sum[("solver.train", "anchors")],
        "solver.train.self_s": self_s["solver.train"],
        "solver.train.newton_iters": newton_iters,
        "solver.train.failed": train_failed,
        "solver.predict.rows": attr_sum[("solver.predict", "rows")],
        "regions.regionalize.self_s": self_s["regions.regionalize"],
        "regions.weights_many.rows": attr_sum[("regions.weights_many", "rows")],
        "regions.weights_many.self_s": self_s["regions.weights_many"],
        "regions.restrict.calls": calls["regions.restrict"],
        "regions.restrict.self_s": self_s["regions.restrict"],
        "composer.fit_composed.self_s": self_s["composer.fit_composed"],
        "composer.fit_composed.concurrency": (fit_children / dur["composer.fit_composed"]
                                              if dur["composer.fit_composed"] else 0.0),
        "composer.predict.rows": attr_sum[("composer.predict", "rows")],
        "composer.predict.self_s": self_s["composer.predict"],
        "robustness.finite_diff_if.calls": calls["robustness.finite_diff_if"],
        "robustness.finite_diff_if.self_s": self_s["robustness.finite_diff_if"],
        "robustness.maxbias_probe.self_s": self_s["robustness.maxbias_probe"],
        "robustness.retrains": retrains,
        "robustness.h_norm.calls": calls["robustness.h_norm"],
        "robustness.h_norm.self_s": self_s["robustness.h_norm"],
        "robustness.tv_refined_if_bound.calls": calls["robustness.tv_refined_if_bound"],
        "robustness.tv_refined_if_bound.self_s": self_s["robustness.tv_refined_if_bound"],
        "experiments.generate.self_s": self_s["experiments.generate"],
        "experiments.eval_rows": eval_rows,
        "config.load_config.self_s": self_s["config.load_config"],
        "cli.write_s": dur["cli.write"],
        "trace.wall_s": wall,
        "trace.attributed_s": sum(selfs[sp["id"]] for sp in work),
        "trace.unattributed_s": wall - covered_time(work, work_start, work_end),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
