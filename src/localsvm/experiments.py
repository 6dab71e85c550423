"""Synthetic tasks, consistency-trend experiments and lambda sweeps.

Each task has a closed-form optimal predictor so Monte-Carlo risks can be
compared against a Bayes proxy. The consistency experiment follows the
schedule conditions lam -> 0 and lam^2 n -> infinity (power schedules
c n^-beta with 0 < beta < 1/2) and reports the risk trend of the composed
predictor next to the unregionalized one; it checks a finite-sample trend,
not the asymptotic statement itself.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .composer import ModelConfig, compose, fit_composed
from .data import WeightedSample
from .errors import InputError
from .regions import KIND_INDICATOR, WeightScheme, regionalize
from .robustness import if_bound
from .solver import train

TASK_SINE = "sine-regression"
TASK_MOONS = "two-moons"
TASK_PIECEWISE = "piecewise-regression"
_TASKS = (TASK_SINE, TASK_MOONS, TASK_PIECEWISE)

#: offset added to the task seed for evaluation samples, so train and
#: evaluation draws never reuse a stream
EVAL_SEED_OFFSET = 988_001


@dataclass(frozen=True)
class SyntheticTask:
    """Reproducible generator with a known optimal predictor.

    sine-regression:      x ~ U[-pi, pi]^d, y = sin(sum_j x_j) + noise * N(0, 1).
    two-moons:            d = 2, points on two interleaved arcs, labels in
                          {-1, +1}; ``noise`` is the label-flip probability.
    piecewise-regression: x ~ U[0, 1]^d, y alternates between +1 and -1 at
                          the breakpoints of x_1, plus noise * N(0, 1).
    """

    kind: str
    dim: int = 2
    noise: float = 0.25
    seed: int = 0
    breakpoints: tuple = (0.5,)

    def __post_init__(self):
        if self.kind not in _TASKS:
            raise InputError(f"unknown task {self.kind!r}; expected one of {_TASKS}")
        if self.dim < 1:
            raise InputError(f"dim must be positive, got {self.dim}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.kind == TASK_MOONS:
            if self.dim != 2:
                raise InputError("two-moons is a 2-d task")
            if not 0.0 <= self.noise < 0.5:
                raise InputError(
                    f"two-moons noise is a label-flip probability in [0, 1/2), "
                    f"got {self.noise}"
                )
        if self.kind == TASK_PIECEWISE and not self.breakpoints:
            raise InputError("piecewise-regression needs at least one breakpoint")


def _moon_logit(flip: float) -> float:
    # optimal logistic score ln((1-p)/p); capped when flip = 0 so the
    # proxy stays finite (loss at the cap is ~1e-16)
    p = max(flip, 1e-16)
    return min(math.log((1.0 - p) / p), 36.0)


def generate(task: SyntheticTask, n: int, with_oracle: bool = False):
    """Draw n i.i.d. points as their empirical measure; optionally also
    return the optimal predictions."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(task.seed)
    if task.kind == TASK_SINE:
        X = rng.uniform(-np.pi, np.pi, size=(n, task.dim))
        t_star = np.sin(X.sum(axis=1))
        y = t_star + task.noise * rng.standard_normal(n)
    elif task.kind == TASK_PIECEWISE:
        X = rng.uniform(0.0, 1.0, size=(n, task.dim))
        levels = np.searchsorted(np.sort(np.asarray(task.breakpoints)), X[:, 0])
        t_star = np.where(levels % 2 == 0, 1.0, -1.0)
        y = t_star + task.noise * rng.standard_normal(n)
    else:  # two moons
        moon = rng.integers(0, 2, size=n)
        theta = rng.uniform(0.0, np.pi, size=n)
        X = np.where(
            moon[:, None] == 0,
            np.column_stack([np.cos(theta), np.sin(theta)]),
            np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)]),
        )
        clean = np.where(moon == 0, 1.0, -1.0)
        flips = rng.random(n) < task.noise
        y = np.where(flips, -clean, clean)
        t_star = clean * _moon_logit(task.noise)
    data = WeightedSample.uniform(X, y)
    if with_oracle:
        return data, t_star
    return data


@dataclass(frozen=True)
class LambdaSchedule:
    """lam(n) = c * n^-beta; consistency requires 0 < beta < 1/2, c > 0."""

    c: float = 1.0
    beta: float = 0.25

    def __post_init__(self):
        if not self.c > 0:
            raise InputError(f"schedule needs c > 0, got {self.c}")
        if not 0.0 < self.beta < 0.5:
            raise InputError(
                f"schedule needs beta in (0, 1/2) so that lambda -> 0 and "
                f"lambda^2 n -> infinity, got beta = {self.beta}"
            )

    def __call__(self, n: int) -> float:
        if n < 1:
            raise InputError(f"schedule evaluated at n = {n}")
        return self.c * float(n) ** (-self.beta)


@dataclass(frozen=True)
class PartitionConfig:
    """A run's partition recipe: the ``regionalize`` parameters and the
    weight scheme (kind and smooth-bump bandwidth ``h``) composed over it."""

    b_target: int
    tau: float = 0.0
    min_region_size: int = 1
    seed: int = 0
    scheme: str = KIND_INDICATOR
    h: Optional[float] = None

    def build(self, X) -> WeightScheme:
        """Regionalize the points X; the scheme over them holds the regions."""
        partition = regionalize(X, self.b_target, self.tau,
                                self.min_region_size, self.seed)
        return WeightScheme(self.scheme, partition, h=self.h)


def _sample_size(name: str, n) -> int:
    """n as an int; an InputError unless it is an integer (numpy integers
    are, bools are not), so that no sample size is silently truncated."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {n!r}")
    return int(n)


def _eval_sample(task: SyntheticTask, eval_n: int, with_oracle: bool = False):
    """The task's evaluation sample, drawn from its own stream (seed offset
    by ``EVAL_SEED_OFFSET``) so it never reuses a training draw."""
    return generate(replace(task, seed=task.seed + EVAL_SEED_OFFSET), eval_n,
                    with_oracle=with_oracle)


def _mc_risk(preds: np.ndarray, eval_data: WeightedSample,
             loss) -> tuple[float, float]:
    """Monte-Carlo risk of predictions at the evaluation sample's points,
    with its standard error. The points are an i.i.d. draw, so the risk is
    the plain mean of their losses (``np.mean``), not ``empirical_risk``'s
    weighted sum, which differs from it by rounding."""
    vals = loss.value(eval_data.y, preds)
    return float(np.mean(vals)), float(np.std(vals) / np.sqrt(eval_data.n))


def _model_columns(sets, X: np.ndarray) -> list:
    """Predictions at the rows of X of sets of models over shared anchors:
    for each set ``(anchors, columns)``, the (len(X), len(columns)) matrix
    whose column j is the j-th model's prediction.

    ``columns`` lists ``(model, rows)``: the model's anchors are
    ``anchors[rows]``, as ``fit_composed`` trains region b on the rows that
    ``partition.members`` lists for b. So each model is a column of
    one coefficient block over the set's anchors, its alpha scattered onto
    its rows (a zero column for a null region). A set whose
    anchors are exactly the leading rows of the largest set's anchors (a
    nested prefix, checked with ``np.array_equal``) shares that set's pass;
    any other set has its own. Each pass is one ``Kernel.apply`` per
    distinct kernel, with one coefficient block per set.
    """
    largest = max((anchors for anchors, _ in sets), key=len)
    passes = {}  # (id of anchors, kernel) -> (anchors, kernel, [(set, cols, block)])
    out = []
    for i, (anchors, columns) in enumerate(sets):
        C = np.zeros((anchors.shape[0], len(columns)))
        for j, (model, rows) in enumerate(columns):
            C[rows, j] = model.alpha
        nested = np.array_equal(anchors, largest[:anchors.shape[0]])
        Z = largest if nested else anchors
        for kernel in dict.fromkeys(model.kernel for model, _ in columns):
            cols = [j for j, (model, _) in enumerate(columns) if model.kernel == kernel]
            passes.setdefault((id(Z), kernel), (Z, kernel, []))[2].append(
                (i, cols, C[:, cols]))
        out.append(np.empty((X.shape[0], len(columns))))
    for Z, kernel, blocks in passes.values():
        preds = kernel.apply(X, Z, [C for _, _, C in blocks])
        for (i, cols, _), P in zip(blocks, preds):
            out[i][:, cols] = P
    return out


def _write_csv(report, path):
    """The report's rows as CSV under the header ``COLUMNS``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=report.COLUMNS)
        writer.writeheader()
        writer.writerows(report.rows)


@dataclass
class TrendReport:
    """Consistency-trend rows: dicts keyed, in order, by ``COLUMNS``."""

    COLUMNS = ("n", "lambda", "risk", "bayes_proxy", "global_risk", "mc_stderr")
    #: the composed-vs-global comparison is an engineering target of the
    #: harness, not a consequence of the consistency theory
    NOTES = ("global_risk comparison is an engineering target, not a "
             "theoretical guarantee",)

    rows: list
    eval_n: int

    def to_dict(self) -> dict:
        return {"kind": "consistency", "eval_n": self.eval_n, "rows": self.rows,
                "notes": list(self.NOTES)}

    write_csv = _write_csv


def consistency_trend(task: SyntheticTask, n_ladder, schedule: LambdaSchedule,
                      pc: PartitionConfig, config: ModelConfig,
                      eval_n: int = 100_000, threads: int = 1) -> TrendReport:
    """Risk of the composed predictor along an increasing sample ladder.

    Each ladder point gets its own partition and the per-region schedule
    lam_b = schedule(n_b); risks are Monte-Carlo estimates on one fresh
    evaluation sample shared across the ladder, reported next to the Bayes
    proxy (the known optimal predictor's risk) and the unregionalized
    model's risk at lam = schedule(n). Every rung is fitted first, then all
    are scored together (``_model_columns``): rungs whose samples are
    nested prefixes of the largest rung's (sine and piecewise draws are)
    share one cross-kernel pass over the evaluation sample, and any other
    rung gets its own. ``threads`` caps the parallel region trainings of
    each fit, as in ``fit_composed``.
    """
    n_ladder = [_sample_size("n_ladder entry", n) for n in n_ladder]
    eval_n = _sample_size("eval_n", eval_n)
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise InputError(f"n ladder must be increasing, got {n_ladder}")
    eval_data, t_star = _eval_sample(task, eval_n, with_oracle=True)
    bayes, _ = _mc_risk(t_star, eval_data, config.loss)

    def fit(n: int):
        data = generate(task, n)
        scheme = pc.build(data.X)
        members = scheme.partition.members(data.X)
        lam = schedule(n)
        cfg = replace(config, train=replace(config.train, lam=lam),
                      region_lambdas={b: schedule(max(rows.size, 1))
                                      for b, rows in enumerate(members, start=1)})
        model = fit_composed(data, scheme, cfg, threads=threads)
        global_model = train(data, config.kernel, config.loss,
                             replace(config.train, lam=lam))
        columns = [(global_model, slice(None)),
                   *zip(model.locals.values(), members)]
        return lam, scheme, (data.X, columns)

    fits = [fit(n) for n in n_ladder]
    preds = _model_columns([model_set for _, _, model_set in fits], eval_data.X)
    report_rows = []
    for n, (lam, scheme, _), P in zip(n_ladder, fits, preds):
        weights, _ = scheme.weights_many(eval_data.X)
        composed = compose(weights, eval_data.n, lambda b, rows: P[rows, b])
        risk, stderr = _mc_risk(composed, eval_data, config.loss)
        global_risk, _ = _mc_risk(P[:, 0], eval_data, config.loss)
        report_rows.append(dict(zip(TrendReport.COLUMNS,
                                    (n, lam, risk, bayes, global_risk, stderr))))
    return TrendReport(rows=report_rows, eval_n=eval_n)


@dataclass
class SweepReport:
    """Lambda-sweep rows: dicts keyed, in order, by ``COLUMNS``."""

    COLUMNS = ("lambda", "risk", "if_bound_rough", "mc_stderr")

    rows: list
    n: int
    eval_n: int

    def to_dict(self) -> dict:
        return {"kind": "tradeoff", "n": self.n, "eval_n": self.eval_n,
                "rows": self.rows}

    write_csv = _write_csv


def tradeoff_sweep(task: SyntheticTask, n: int, lambda_grid,
                   pc: PartitionConfig, config: ModelConfig,
                   eval_n: int = 100_000, threads: int = 1) -> SweepReport:
    """Monte-Carlo risk and influence bound across a lambda grid.

    The bound is exactly inversely linear in lambda; the risk column shows
    the consistency-vs-robustness trade-off on one fixed partition, whose
    balls alone give the bound's sup-norm factors. Every lambda's model is
    fitted on the same data and scheme, so all are scored from one
    cross-kernel pass over the evaluation sample (``_model_columns``) and
    one set of weights. ``threads`` caps the parallel region trainings of
    each fit, as in ``fit_composed``.
    """
    n = _sample_size("n", n)
    eval_n = _sample_size("eval_n", eval_n)
    lambda_grid = [float(l) for l in lambda_grid]
    if any(l <= 0 for l in lambda_grid):
        raise InputError(f"lambda grid must be positive, got {lambda_grid}")
    data = generate(task, n)
    scheme = pc.build(data.X)
    members = scheme.partition.members(data.X)
    eval_data = _eval_sample(task, eval_n)
    bounds, sets = [], []
    for lam in lambda_grid:
        # no per-region lambdas: the bound stays exactly inversely linear
        # in the grid's lambda
        cfg = replace(config, train=replace(config.train, lam=lam),
                      region_lambdas={})
        model = fit_composed(data, scheme, cfg, threads=threads)
        bounds.append(if_bound(scheme, cfg).if_bound_rough)
        sets.append((data.X, list(zip(model.locals.values(), members))))
    weights, _ = scheme.weights_many(eval_data.X)
    report_rows = []
    for lam, bound, P in zip(lambda_grid, bounds, _model_columns(sets, eval_data.X)):
        composed = compose(weights, eval_data.n, lambda b, rows: P[rows, b - 1])
        risk, stderr = _mc_risk(composed, eval_data, config.loss)
        report_rows.append(dict(zip(SweepReport.COLUMNS, (lam, risk, bound, stderr))))
    return SweepReport(rows=report_rows, n=n, eval_n=eval_n)
