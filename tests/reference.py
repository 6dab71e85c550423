"""The slow, dense references that differential tests check production
code against.

Each function is a form a faster path replaced, written for clarity, not
speed: ball membership and weights on dense (n, B) matrices, a Newton step
through one Cholesky solve, a Newton fit through ridged LU solves,
derivative-free minimizers, an audit that rebuilds every retrain from the
contaminated sample, and the consistency trend scored rung by rung. A new
fast path adds a comparison against a function here, not another copy of
the slow form.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from localsvm import (ComposedModel, contaminate_region, fit_composed,
                      generate, restrict, train)
from localsvm.composer import compose
from localsvm.experiments import EVAL_SEED_OFFSET
from localsvm.robustness import DEFAULT_EPS_LADDER


# -- regions: ball geometry and weights on dense matrices --------------------

def sq_dists(X, centers):
    """The broadcast form of every squared distance before the column sums."""
    return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)


def _dists(partition, X):
    return np.column_stack([np.sqrt(((X - r.center) ** 2).sum(axis=1))
                            for r in partition.regions])


def _radii(partition):
    return np.array([r.radius for r in partition.regions])


def membership(partition, X):
    """RegionPartition.members before the per-region row lists: the dense
    (n, B) boolean matrix."""
    return _dists(partition, X) <= _radii(partition)


def weights_many(scheme, X):
    """WeightScheme.weights_many before the per-region row lists, with the
    broadcast distances and numpy's reductions over the short region axis:
    the membership after the nearest-region fallback, the dense (n, B)
    weights and the covered mask."""
    partition = scheme.partition
    M = membership(partition, X)
    covered = M.any(axis=1)
    gaps = np.maximum(0.0, _dists(partition, X[~covered]) - _radii(partition))
    M[np.flatnonzero(~covered), gaps.argmin(axis=1)] = True
    if scheme.kind == "normalized-indicator":
        raw = M.astype(float)
    else:
        centers = np.stack([r.center for r in partition.regions])
        raw = np.exp(-sq_dists(X, centers) / scheme.h**2)
        raw[~M] = 0.0
        dead = raw.sum(axis=1) == 0.0
        raw[dead] = M[dead].astype(float)
    W = raw / raw.sum(axis=1, keepdims=True)
    W[~M] = 0.0
    return M, W, covered


# -- solver: oracles independent of the Newton path ---------------------------

def objective(alpha, K, sample, loss, lam):
    """The shifted objective at ``alpha`` on the sample's Gram ``K``."""
    f = K @ alpha
    return float(sample.weights @ loss.shifted_value(sample.y, f)
                 + lam * (alpha @ f))


def golden_section_min(fun, lo, hi, tol=1e-12):
    """Derivative-free 1-d minimizer."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if fun(c) < fun(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2.0


def nelder_mead(fun, starts, **options):
    """The least value scipy's Nelder-Mead reaches from any of ``starts``."""
    return min(float(minimize(fun, x0, method="Nelder-Mead",
                              options=options).fun) for x0 in starts)


def cholesky_step(K, g, grad, D, lam, eta=0.0):
    """The Newton step ``train`` took before conjugate gradients: one
    Cholesky solve of A = D^1/2 K D^1/2 + 2 lam I formed in full, and K s
    as the product K @ s. It ignores ``eta``, as an exact solve meets every
    forcing target."""
    sqrt_d = np.sqrt(D)
    A = sqrt_d[:, None] * K * sqrt_d
    A[np.diag_indices_from(A)] += 2.0 * lam
    r = cho_solve(cho_factor(A, lower=True), -sqrt_d * grad)
    step = -(g + sqrt_d * r) / (2.0 * lam)
    return step, K @ step, 0, 0.0


def ridged_lu_fit(sample, kernel, loss, cfg):
    """The Newton loop ``train`` used before its IRLS step: the system
    K (D K) + 2 lam K with a trace-scaled ridge, solved by LU. Kept as the
    reference the IRLS step is compared against."""
    K = kernel.gram(sample.X)
    y, w, lam = sample.y, sample.weights, cfg.lam
    alpha = np.zeros(sample.n)
    f = K @ alpha
    for _ in range(cfg.max_iter):
        grad = K @ (w * loss.dt(y, f) + 2.0 * lam * alpha)
        if np.max(np.abs(grad)) <= cfg.grad_tol:
            return alpha
        D = w * loss.dtt(y, f)
        H = K @ (D[:, None] * K) + 2.0 * lam * K
        H[np.diag_indices_from(H)] += 1e-10 * float(np.trace(H))
        step = np.linalg.solve(H, -grad)
        descent = float(grad @ step)
        assert descent < 0
        Ks = K @ step
        t = 1.0
        if np.max(np.abs(grad)) > 1e-6:
            J0 = float(w @ loss.shifted_value(y, f) + lam * (alpha @ f))
            aKs, sKs = float(alpha @ Ks), float(step @ Ks)
            while t >= 1e-16:
                J_try = float(w @ loss.shifted_value(y, f + t * Ks)
                              + lam * (alpha @ f + 2.0 * t * aKs + t * t * sKs))
                if J_try <= J0 + 1e-4 * t * descent:
                    break
                t *= 0.5
        alpha = alpha + t * step
        f = f + t * Ks
    raise AssertionError("reference Newton loop did not converge")


# -- robustness: the audit before AuditContext --------------------------------
# Every retrain rebuilds its Gram from the contaminated sample, every quotient
# evaluates full composed predictors, and every H-norm builds the Gram of the
# stacked base and contaminated anchors. Retrains start as the audit's do: a
# maxbias retrain and the top ladder rung from pad(alpha), each lower rung
# from the secant through the rung above (``secant_start``).

def conditioned(part, measure, b):
    """The measure conditioned on region b, at the rows ``members`` lists."""
    return restrict(measure, part.members(measure.X)[b - 1])


def secant_start(pad, above, eps):
    """pad(alpha) + (eps / eps_above) (alpha_above - pad(alpha)), the start of
    the rung below the rung ``above`` = (eps_above, alpha_above)."""
    eps_above, alpha_above = above
    return pad + (eps / eps_above) * (alpha_above - pad)


def retrain(data, part, config, base, q, b, eps, above=None):
    """Retrain from pad(alpha), or from the secant start below ``above``."""
    contaminated = contaminate_region(conditioned(part, data, b), q,
                                      part.region(b), eps)
    extra = contaminated.n - base.locals[b].n_anchors
    pad = np.concatenate([base.locals[b].alpha, np.zeros(extra)])
    return train(contaminated, config.kernel_for(b), config.loss,
                 config.train_for(b),
                 warm_start=pad if above is None else secant_start(pad, above, eps),
                 region_id=b)


def h_norm(tilde, base, eps):
    anchors = np.vstack([base.anchors, tilde.anchors])
    coef = np.concatenate([-base.alpha, tilde.alpha]) / eps
    G = tilde.kernel.gram(anchors)
    return float(np.sqrt(max(0.0, float(coef @ (G @ coef)))))


def touches(q, sample, region):
    return contaminate_region(sample, q, region, 0.01) is not sample


def touched(data, part, q):
    return [b for b in range(1, part.B + 1)
            if conditioned(part, data, b) is not None
            and touches(q, conditioned(part, data, b), part.region(b))]


def _retrained(data, part, scheme, config, base, q, eps_of, above_of):
    """The composed model with each region Q touches retrained at
    ``eps_of(b)`` from below ``above_of(b)`` (a region at eps 0 keeps its
    model), and the retrained local models by region id."""
    locals_b, tildes = dict(base.locals), {}
    for b in touched(data, part, q):
        if eps_of(b) != 0.0:
            tildes[b] = locals_b[b] = retrain(data, part, config, base, q, b,
                                              eps_of(b), above_of(b))
    return ComposedModel(locals_b, scheme), tildes


def finite_diff_if(data, part, scheme, config, q, probes, base):
    """Per rung: (eps, sup, {b: h_norm}, {b: alpha})."""
    base_preds = base.predict(probes)
    rungs = []
    for eps in DEFAULT_EPS_LADDER:
        composed, tildes = _retrained(
            data, part, scheme, config, base, q, lambda b: eps,
            lambda b: (rungs[-1][0], rungs[-1][3][b]) if rungs else None)
        values = (composed.predict(probes) - base_preds) / eps
        rungs.append((eps, float(np.max(np.abs(values))),
                      {b: h_norm(t, base.locals[b], eps) for b, t in tildes.items()},
                      {b: t.alpha for b, t in tildes.items()}))
    return rungs


def maxbias_shifts(data, part, scheme, config, eps, qs, probes, base):
    """Per Q, the sup over the probes of the composed predictor's shift."""
    base_preds = base.predict(probes)
    shifts = []
    for q in qs:
        composed, _ = _retrained(data, part, scheme, config, base, q,
                                 lambda b: eps[b - 1], lambda b: None)
        shifts.append(float(np.abs(composed.predict(probes) - base_preds).max()))
    return shifts


# -- experiments: the consistency trend rung by rung --------------------------

def trend_rows(task, n_ladder, schedule, pc, config, eval_n, score):
    """consistency_trend's rows and its evaluation sample, each rung fitted
    on its own. ``score="models"`` scores each model on its own with
    ComposedModel.predict and LocalModel.predict, no shared kernel pass;
    ``score="rung"`` scores one rung at a time, as before the rungs shared a
    pass: the rung's models are columns of one coefficient matrix over its
    own sample, multiplied by one Kernel.apply per distinct kernel."""
    eval_data, t_star = generate(replace(task, seed=task.seed + EVAL_SEED_OFFSET),
                                 eval_n, with_oracle=True)
    loss = config.loss
    bayes = float(np.mean(loss.value(eval_data.y, t_star)))
    rows = []
    for n in n_ladder:
        data = generate(task, n)
        scheme = pc.build(data.X)
        members = scheme.partition.members(data.X)
        lam = schedule(n)
        cfg = replace(config, train=replace(config.train, lam=lam),
                      region_lambdas={b: schedule(max(rows.size, 1))
                                      for b, rows in enumerate(members, start=1)})
        global_model = train(data, config.kernel, loss, replace(config.train, lam=lam))
        composed = fit_composed(data, scheme, cfg)
        if score == "models":
            preds = composed.predict(eval_data.X)
            global_preds = global_model.predict(eval_data.X)
        else:
            models = [global_model, *composed.locals.values()]
            C = np.zeros((n, len(models)))
            C[:, 0] = models[0].alpha
            for b in range(1, len(models)):
                C[members[b - 1], b] = models[b].alpha
            P = np.empty((eval_n, len(models)))
            for kernel in dict.fromkeys(m.kernel for m in models):
                cols = [j for j, m in enumerate(models) if m.kernel == kernel]
                P[:, cols] = kernel.apply(eval_data.X, data.X, C[:, cols])
            weights, _ = scheme.weights_many(eval_data.X)
            preds = compose(weights, eval_n, lambda b, rows: P[rows, b])
            global_preds = P[:, 0]
        vals = loss.value(eval_data.y, preds)
        rows.append({"n": n, "lambda": lam, "risk": float(np.mean(vals)),
                     "bayes_proxy": bayes,
                     "global_risk": float(np.mean(loss.value(eval_data.y, global_preds))),
                     "mc_stderr": float(np.std(vals) / np.sqrt(eval_n))})
    return rows, eval_data
