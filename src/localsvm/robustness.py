"""Influence-function estimation, closed-form robustness bounds, maxbias probes.

The influence function of the composed predictor toward a contamination
point z is estimated by finite differences: every region whose ball
contains z is retrained on the mixture (1 - eps) D_b + eps delta_z for a
decreasing ladder of eps values, and the difference quotient
(f_tilde - f) / eps is evaluated on a probe grid. Regions not containing z
keep their model, so their local influence estimate is identically zero.

The closed-form certificates are

    IF bound:      2 |L|_1 sum_b ||w_b||  lam_b^-1 ||k_b||^2
    maxbias bound: 2 |L|_1 sum_b ||w_b|| (eps_b / lam_b) ||k_b||^2

with region sup-norms of the weights and kernels. A refinement replaces
the rough total-variation constant 2 by the exact discrete TV distance
between the regional empirical measure and delta_z.

Sup-norms of influence estimates are empirical sups over the probe grid
(training points plus a deterministic low-discrepancy fill of the data
bounding box) and therefore lower bounds of the essential sup.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .composer import ComposedModel, ModelConfig, fit_composed
from .data import Dataset, WeightedSample, as_points
from .errors import InputError
from .kernels import sup_norm_on_region
from .regions import RegionPartition, WeightScheme, restrict, weight_sup_norm
from .solver import LocalModel, train

DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
#: ladder residual ratio above which the limit is flagged as not converging
LADDER_RATIO_MAX = 0.9
DEFAULT_EXTRA_PROBES = 512


class LadderConvergenceWarning(UserWarning):
    """Finite-difference ladder residuals are not contracting."""


@dataclass(frozen=True)
class ContaminationSpec:
    """Dirac point contamination or a general mixture distribution Q.

    ``eps_ladder`` must be strictly decreasing with every entry in
    (0, 1/2); the bottom rung is the reported estimate.
    """

    eps_ladder: tuple = DEFAULT_EPS_LADDER
    z_x: Optional[np.ndarray] = None
    z_y: Optional[float] = None
    q: Optional[WeightedSample] = None

    def __post_init__(self):
        ladder = tuple(float(e) for e in self.eps_ladder)
        object.__setattr__(self, "eps_ladder", ladder)
        for eps in ladder:
            if not 0.0 < eps < 0.5:
                raise InputError(f"contamination eps must lie in (0, 1/2), got {eps}")
        if any(a <= b for a, b in zip(ladder, ladder[1:])):
            raise InputError(f"eps ladder must be strictly decreasing, got {ladder}")
        has_z = self.z_x is not None
        if has_z == (self.q is not None):
            raise InputError("specify exactly one of a Dirac point z or a mixture Q")
        if has_z:
            object.__setattr__(self, "z_x", np.asarray(self.z_x, dtype=float).reshape(-1))
            object.__setattr__(self, "z_y", float(self.z_y))

    @property
    def kind(self) -> str:
        return "dirac" if self.z_x is not None else "mixture"

    @classmethod
    def dirac(cls, x, y, eps_ladder=DEFAULT_EPS_LADDER) -> "ContaminationSpec":
        return cls(eps_ladder=tuple(eps_ladder), z_x=np.asarray(x, dtype=float),
                   z_y=float(y))

    @classmethod
    def mixture(cls, q: WeightedSample, eps_ladder=DEFAULT_EPS_LADDER) -> "ContaminationSpec":
        return cls(eps_ladder=tuple(eps_ladder), q=q)


def _q_restricted(q: WeightedSample, region) -> Optional[WeightedSample]:
    """Q conditioned on a region; None when Q puts no mass there."""
    mask = region.contains_many(q.X)
    mass = float(q.weights[mask].sum())
    if mass <= 0.0:
        return None
    return WeightedSample(q.X[mask], q.y[mask], q.weights[mask] / mass)


def spec_touches_region(spec: ContaminationSpec, region) -> bool:
    """Whether the contaminated regional measure differs from the original."""
    if spec.kind == "dirac":
        return region.contains(spec.z_x)
    return _q_restricted(spec.q, region) is not None


def contaminate_region(sample_b: WeightedSample, spec: ContaminationSpec,
                       region, eps: float) -> WeightedSample:
    """The mixture (1 - eps) D_b + eps (delta_z or Q_b) on region b.

    Returns ``sample_b`` unchanged when the contamination does not touch
    the region (Dirac outside the ball, or Q with no mass in it).
    Contamination atoms are appended after the original ones, so warm
    starts can zero-pad existing coefficients.
    """
    if sample_b is None:
        raise InputError("cannot contaminate a null measure")
    if not 0.0 < eps < 0.5:
        raise InputError(f"contamination eps must lie in (0, 1/2), got {eps}")
    if spec.kind == "dirac":
        if not region.contains(spec.z_x):
            return sample_b
        X = np.vstack([sample_b.X, spec.z_x[None, :]])
        y = np.append(sample_b.y, spec.z_y)
        w = np.append(sample_b.weights * (1.0 - eps), eps)
        return WeightedSample(X, y, w)
    q_b = _q_restricted(spec.q, region)
    if q_b is None:
        return sample_b
    X = np.vstack([sample_b.X, q_b.X])
    y = np.concatenate([sample_b.y, q_b.y])
    w = np.concatenate([sample_b.weights * (1.0 - eps), q_b.weights * eps])
    return WeightedSample(X, y, w)


class ZeroFunction:
    """The identically-zero influence estimate of an untouched region."""

    def __call__(self, X) -> np.ndarray:
        return np.zeros(as_points(X).shape[0])

    def h_norm(self) -> float:
        return 0.0


class LocalQuotient:
    """(f_tilde - f) / eps for one region's local models."""

    def __init__(self, tilde: LocalModel, base: LocalModel, eps: float):
        self.tilde = tilde
        self.base = base
        self.eps = float(eps)

    def __call__(self, X) -> np.ndarray:
        return (self.tilde.predict(X) - self.base.predict(X)) / self.eps

    def h_norm(self) -> float:
        """RKHS norm of the difference quotient (exact quadratic form)."""
        anchors = np.vstack([self.base.anchors, self.tilde.anchors])
        coef = np.concatenate([-self.base.alpha, self.tilde.alpha]) / self.eps
        if anchors.shape[0] == 0:
            return 0.0
        G = self.tilde.kernel.gram(anchors)
        return float(np.sqrt(max(0.0, float(coef @ (G @ coef)))))


class ComposedQuotient:
    """(f_comp_tilde - f_comp) / eps assembled from full composed models."""

    def __init__(self, tilde: ComposedModel, base: ComposedModel, eps: float):
        self.tilde = tilde
        self.base = base
        self.eps = float(eps)

    def __call__(self, X) -> np.ndarray:
        return (self.tilde.predict(X) - self.base.predict(X)) / self.eps


@dataclass(frozen=True)
class LadderRung:
    eps: float
    sup: float
    h_norms: dict

    def to_dict(self) -> dict:
        return {"eps": self.eps, "sup": self.sup,
                "h_norms": {str(b): v for b, v in self.h_norms.items()}}


@dataclass
class InfluenceEstimate:
    """Finite-difference influence estimate at the bottom of the eps ladder."""

    per_region: dict
    composed: ComposedQuotient
    eps_used: float
    sup_norm_estimate: float
    h_norms: dict
    ladder: list
    residuals: list
    ratios: list
    curvature: float
    richardson_sup: float
    converged: bool
    touched_region_ids: frozenset


def default_probes(data: Dataset, n_extra: int = DEFAULT_EXTRA_PROBES) -> np.ndarray:
    """Training inputs plus a deterministic Sobol fill of their bounding box."""
    lo, hi = data.bounding_box()
    if n_extra <= 0:
        return data.X.copy()
    sampler = qmc.Sobol(d=data.dim, scramble=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non power-of-two counts
        unit = sampler.random(n_extra)
    return np.vstack([data.X, lo + unit * (hi - lo)])


@dataclass(frozen=True)
class PerRegionTerm:
    region_id: int
    w_sup: float
    lam: float
    k_sup: float
    k_sup_method: str
    term: float

    def to_dict(self) -> dict:
        return {"region_id": self.region_id, "w_sup": self.w_sup,
                "lambda": self.lam, "k_sup": self.k_sup,
                "k_sup_method": self.k_sup_method, "term": self.term}


@dataclass
class BoundReport:
    """Closed-form bound values with their per-region decomposition."""

    if_bound_rough: Optional[float] = None
    if_bound_tv: Optional[float] = None
    maxbias_bound: Optional[float] = None
    per_region_terms: list = field(default_factory=list)
    empirical: dict = field(default_factory=dict)
    satisfied: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "if_bound_rough": self.if_bound_rough,
            "if_bound_tv": self.if_bound_tv,
            "maxbias_bound": self.maxbias_bound,
            "per_region_terms": [t.to_dict() for t in self.per_region_terms],
            "empirical": self.empirical,
            "satisfied": self.satisfied,
            "notes": self.notes,
        }


def _region_factors(scheme: WeightScheme, config: ModelConfig, probes):
    """(w_sup, lam, kernel sup-norm) per region, plus caveat notes."""
    partition = scheme.partition
    factors = []
    notes = []
    for b in range(1, partition.B + 1):
        region = partition.region(b)
        w_sup = weight_sup_norm(scheme, b, probes)
        ks = sup_norm_on_region(config.kernel_for(b), region, probes)
        if not ks.is_exact:
            notes.append(
                f"region {b}: kernel sup-norm is an empirical lower bound of "
                "||k||, hence the bound's RHS may be underestimated"
            )
        if not config.kernel_for(b).continuous:
            notes.append(
                f"region {b}: kernel is not continuous; the existence theory "
                "behind the influence-function bound is not verified"
            )
        factors.append((b, w_sup, config.lam_for(b), ks))
    return factors, notes


def if_bound(scheme: WeightScheme, config: ModelConfig,
             partition: Optional[RegionPartition] = None, probes=None) -> BoundReport:
    """Rough influence-function sup-norm bound 2 |L|_1 sum_b ||w_b|| ||k_b||^2 / lam_b."""
    if partition is not None and partition is not scheme.partition:
        raise InputError("partition does not match the weight scheme")
    lip = float(config.loss.lipschitz)
    factors, notes = _region_factors(scheme, config, probes)
    terms = []
    total = 0.0
    for b, w_sup, lam, ks in factors:
        term = 2.0 * lip * w_sup * ks.value**2 / lam
        terms.append(PerRegionTerm(b, w_sup, lam, ks.value, ks.method, term))
        total += term
    return BoundReport(if_bound_rough=total, per_region_terms=terms, notes=notes)


def tv_refined_if_bound(data: Dataset, partition: RegionPartition,
                        scheme: WeightScheme, config: ModelConfig,
                        z_x, z_y: float, probes=None) -> float:
    """IF bound with the exact discrete TV distance instead of the constant 2.

    TV_b = 2 (1 - D_b({z})) when z's input lies in region b (0 otherwise,
    because the contaminated regional measure then equals the original and
    the local influence function vanishes). Never exceeds the rough bound.
    """
    z_x = np.asarray(z_x, dtype=float).reshape(-1)
    lip = float(config.loss.lipschitz)
    factors, _ = _region_factors(scheme, config, probes)
    total = 0.0
    for b, w_sup, lam, ks in factors:
        region = partition.region(b)
        sample_b = restrict(data, partition, b)
        if sample_b is None or not region.contains(z_x):
            continue
        tv_b = 2.0 * (1.0 - sample_b.atom_mass(z_x, z_y))
        total += w_sup * ks.value**2 * lip * tv_b / lam
    return total


def _pad_warm(base_model: LocalModel, contaminated: WeightedSample) -> np.ndarray:
    extra = contaminated.n - base_model.n_anchors
    return np.concatenate([base_model.alpha, np.zeros(extra)])


def _map_tasks(fn, tasks, threads):
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def finite_diff_if(data: Dataset, partition: RegionPartition, scheme: WeightScheme,
                   config: ModelConfig, spec: ContaminationSpec, probes=None,
                   base: Optional[ComposedModel] = None,
                   threads: int = 1) -> InfluenceEstimate:
    """Finite-difference influence estimate along the eps ladder.

    Every touched region is retrained per rung on the contaminated mixture
    (warm-started from the uncontaminated coefficients); untouched regions
    contribute exactly zero. The reported estimate is the bottom-rung
    quotient; consecutive-rung residuals serve as the convergence
    diagnostic for the existence of the defining limit, and a linear
    extrapolation to eps -> 0 is reported alongside as a diagnostic.
    """
    if len(spec.eps_ladder) < 2:
        raise InputError("the eps ladder needs at least two rungs")
    if base is None:
        base = fit_composed(data, partition, scheme, config, threads=threads)
    if probes is None:
        probes = default_probes(data)
    probes = as_points(probes)

    ids = list(range(1, partition.B + 1))
    samples = {b: restrict(data, partition, b) for b in ids}
    touched = frozenset(
        b for b in ids
        if samples[b] is not None and spec_touches_region(spec, partition.region(b))
    )

    tasks = [(eps, b) for eps in spec.eps_ladder for b in sorted(touched)]

    def _train_one(task):
        eps, b = task
        contaminated = contaminate_region(samples[b], spec, partition.region(b), eps)
        model = train(contaminated, config.kernel_for(b), config.loss,
                      config.train_for(b), warm_start=_pad_warm(base.locals[b], contaminated),
                      region_id=b)
        return (eps, b), model

    tilde_models = dict(_map_tasks(_train_one, tasks, threads))

    base_probe_preds = base.predict(probes)
    rungs = []
    rung_values = []
    bottom = None
    for eps in spec.eps_ladder:
        locals_b = {}
        quotients = {}
        h_norms = {}
        for b in ids:
            if b in touched:
                tilde = tilde_models[(eps, b)]
                locals_b[b] = tilde
                q = LocalQuotient(tilde, base.locals[b], eps)
                quotients[b] = q
                h_norms[b] = q.h_norm()
            else:
                locals_b[b] = base.locals[b]
                quotients[b] = ZeroFunction()
                h_norms[b] = 0.0
        tilde_composed = ComposedModel(locals_b, scheme,
                                       null_region_ids=base.null_region_ids)
        composed_q = ComposedQuotient(tilde_composed, base, eps)
        values = (tilde_composed.predict(probes) - base_probe_preds) / eps
        sup = float(np.max(np.abs(values))) if values.size else 0.0
        rungs.append(LadderRung(eps=eps, sup=sup, h_norms=h_norms))
        rung_values.append(values)
        bottom = (quotients, composed_q, h_norms)

    residuals = []
    ratios = []
    for i in range(len(rungs) - 1):
        r = float(np.max(np.abs(rung_values[i] - rung_values[i + 1])))
        residuals.append((rungs[i].eps, r))
    for i in range(len(residuals) - 1):
        prev, cur = residuals[i][1], residuals[i + 1][1]
        ratios.append(cur / prev if prev > 0 else np.nan)

    eps_lo = spec.eps_ladder[-1]
    eps_hi = spec.eps_ladder[-2]
    curvature = residuals[-1][1] / (eps_hi - eps_lo) if residuals else 0.0
    slope = (rung_values[-2] - rung_values[-1]) / (eps_hi - eps_lo)
    extrapolated = rung_values[-1] - eps_lo * slope
    richardson_sup = float(np.max(np.abs(extrapolated))) if extrapolated.size else 0.0

    finite_ratios = [r for r in ratios if np.isfinite(r)]
    converged = all(r <= LADDER_RATIO_MAX for r in finite_ratios)
    if not converged:
        warnings.warn(
            f"ladder residual ratios {ratios} exceed {LADDER_RATIO_MAX}; the "
            "difference quotients are not contracting toward a limit",
            LadderConvergenceWarning,
        )

    quotients, composed_q, h_norms = bottom
    return InfluenceEstimate(
        per_region=quotients,
        composed=composed_q,
        eps_used=eps_lo,
        sup_norm_estimate=rungs[-1].sup,
        h_norms=h_norms,
        ladder=rungs,
        residuals=residuals,
        ratios=ratios,
        curvature=float(curvature),
        richardson_sup=richardson_sup,
        converged=converged,
        touched_region_ids=touched,
    )


def decomposition_check(estimate: InfluenceEstimate, probes) -> float:
    """Max |composed - sum_b w_b per_region_b| over the probes.

    The composed quotient is assembled from full composed predictors while
    the right-hand side recombines the local quotients, so the residual
    measures only floating-point association.
    """
    probes = as_points(probes)
    scheme = estimate.composed.base.scheme
    W, _ = scheme.weights_many(probes, on_uncovered="nearest")
    recombined = np.zeros(probes.shape[0])
    for b, q in estimate.per_region.items():
        active = W[:, b - 1] != 0.0
        if active.any():
            recombined[active] += W[active, b - 1] * q(probes[active])
    direct = estimate.composed(probes)
    return float(np.max(np.abs(direct - recombined))) if probes.shape[0] else 0.0


def _as_eps_vector(eps_by_region, B: int) -> np.ndarray:
    eps = np.asarray(eps_by_region, dtype=float)
    if eps.ndim == 0:
        eps = np.full(B, float(eps))
    if eps.shape != (B,):
        raise InputError(f"need one eps per region ({B}), got shape {eps.shape}")
    for e in eps:
        if not 0.0 <= e < 0.5:
            raise InputError(f"maxbias eps must lie in [0, 1/2), got {e}")
    return eps


def maxbias_probe(data: Dataset, partition: RegionPartition, scheme: WeightScheme,
                  config: ModelConfig, eps_by_region, probe_specs,
                  probes=None, base: Optional[ComposedModel] = None,
                  threads: int = 1) -> BoundReport:
    """Empirical worst-case predictor shift under full-level contamination.

    For each candidate contaminating distribution Q the per-region models
    are retrained on (1 - eps_b) D_b + eps_b Q_b at the full contamination
    level (no limit), and the sup-norm shift of the composed predictor is
    measured over the probes. The closed-form bound
    2 |L|_1 sum_b ||w_b|| (eps_b / lam_b) ||k_b||^2 must dominate the
    empirical maximum; regions with eps_b = 0 keep their model bit-exactly.
    """
    if base is None:
        base = fit_composed(data, partition, scheme, config, threads=threads)
    if probes is None:
        probes = default_probes(data)
    probes = as_points(probes)
    eps = _as_eps_vector(eps_by_region, partition.B)

    lip = float(config.loss.lipschitz)
    factors, notes = _region_factors(scheme, config, probes)
    terms = []
    bound = 0.0
    for (b, w_sup, lam, ks) in factors:
        term = 2.0 * lip * w_sup * (eps[b - 1] / lam) * ks.value**2
        terms.append(PerRegionTerm(b, w_sup, lam, ks.value, ks.method, term))
        bound += term

    ids = list(range(1, partition.B + 1))
    samples = {b: restrict(data, partition, b) for b in ids}
    base_probe_preds = base.predict(probes)

    def _shift_for(spec: ContaminationSpec) -> float:
        locals_b = {}
        for b in ids:
            e = eps[b - 1]
            region = partition.region(b)
            if e == 0.0 or samples[b] is None or not spec_touches_region(spec, region):
                locals_b[b] = base.locals[b]
                continue
            contaminated = contaminate_region(samples[b], spec, region, e)
            locals_b[b] = train(contaminated, config.kernel_for(b), config.loss,
                                config.train_for(b),
                                warm_start=_pad_warm(base.locals[b], contaminated),
                                region_id=b)
        tilde = ComposedModel(locals_b, scheme, null_region_ids=base.null_region_ids)
        shift = np.abs(tilde.predict(probes) - base_probe_preds)
        return float(shift.max()) if shift.size else 0.0

    shifts = _map_tasks(_shift_for, list(probe_specs), threads)
    empirical = max(shifts) if shifts else 0.0

    return BoundReport(
        maxbias_bound=bound,
        per_region_terms=terms,
        empirical={"maxbias_sup": empirical,
                   "per_q_shifts": [float(s) for s in shifts],
                   "eps_by_region": eps.tolist()},
        satisfied={"maxbias": bool(empirical <= bound)},
        notes=notes,
    )


@dataclass
class AuditReport:
    """Full robustness audit: bounds, empirical sups and satisfaction flags."""

    if_bound_rough: float
    if_bound_tv: Optional[float]
    maxbias_bound: Optional[float]
    per_region_terms: list
    per_z: list
    empirical: dict
    satisfied: dict
    notes: list

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())

    def to_dict(self) -> dict:
        return {
            "if_bound_rough": self.if_bound_rough,
            "if_bound_tv": self.if_bound_tv,
            "maxbias_bound": self.maxbias_bound,
            "per_region_terms": [t.to_dict() for t in self.per_region_terms],
            "per_z": self.per_z,
            "empirical": self.empirical,
            "satisfied": self.satisfied,
            "notes": self.notes,
        }


def run_audit(data: Dataset, partition: RegionPartition, scheme: WeightScheme,
              config: ModelConfig, z_specs, maxbias_eps=0.1,
              maxbias_specs=None, probes=None, base: Optional[ComposedModel] = None,
              threads: int = 1, h_norm_slack: float = 1e-3) -> AuditReport:
    """Audit the composed predictor against the closed-form certificates.

    For every contamination spec the finite-difference influence estimate,
    its decomposition residual and (for Dirac specs) the TV-refined bound
    are computed; the sup-norm certificate allows the numerically justified
    slack 10 (grad_tol / eps + eps * curvature). A maxbias probe at the
    given full contamination level runs against ``maxbias_specs``
    (defaulting to the adversarial corner/label-flip family).
    """
    if base is None:
        base = fit_composed(data, partition, scheme, config, threads=threads)
    if probes is None:
        probes = default_probes(data)
    probes = as_points(probes)

    rough = if_bound(scheme, config, probes=probes)
    grad_tol = config.train.grad_tol
    lip = float(config.loss.lipschitz)
    factor_by_id = {t.region_id: t for t in rough.per_region_terms}

    per_z = []
    if_ok = True
    worst = None
    for spec in z_specs:
        est = finite_diff_if(data, partition, scheme, config, spec,
                             probes=probes, base=base, threads=threads)
        resid = decomposition_check(est, probes)
        slack = 10.0 * (grad_tol / est.eps_used + est.eps_used * est.curvature)
        sup_ok = est.sup_norm_estimate <= rough.if_bound_rough + slack

        tv_bound = None
        h_checks = {}
        if spec.kind == "dirac":
            tv_bound = tv_refined_if_bound(data, partition, scheme, config,
                                           spec.z_x, spec.z_y, probes=probes)
        for b, h in est.h_norms.items():
            t = factor_by_id[b]
            if spec.kind == "dirac":
                sample_b = restrict(data, partition, b)
                in_region = partition.region(b).contains(spec.z_x)
                if sample_b is None or not in_region:
                    tv_b = 0.0
                else:
                    tv_b = 2.0 * (1.0 - sample_b.atom_mass(spec.z_x, spec.z_y))
            else:
                tv_b = 2.0  # rough TV bound for general mixtures
            cap = t.k_sup * lip * tv_b / t.lam
            h_checks[b] = {"h_norm": h, "cap": cap,
                           "ok": bool(h <= cap + h_norm_slack)}
        z_ok = bool(sup_ok and all(c["ok"] for c in h_checks.values()))
        if_ok = if_ok and z_ok

        entry = {
            "kind": spec.kind,
            "eps": est.eps_used,
            "if_sup": est.sup_norm_estimate,
            "slack": slack,
            "richardson_sup": est.richardson_sup,
            "curvature": est.curvature,
            "ratios": [float(r) for r in est.ratios],
            "converged": est.converged,
            "decomposition_residual": resid,
            "tv_refined_bound": tv_bound,
            "h_norms": {str(b): c for b, c in h_checks.items()},
            "ladder": [r.to_dict() for r in est.ladder],
            "satisfied": z_ok,
        }
        if spec.kind == "dirac":
            entry["z"] = {"x": spec.z_x.tolist(), "y": spec.z_y}
        per_z.append(entry)
        if worst is None or est.sup_norm_estimate > worst[0]:
            worst = (est.sup_norm_estimate, entry)

    mb_report = None
    if maxbias_eps is not None:
        if maxbias_specs is None:
            maxbias_specs = adversarial_q_specs(
                data, classification=config.loss.is_classification)
        mb_report = maxbias_probe(data, partition, scheme, config, maxbias_eps,
                                  maxbias_specs, probes=probes, base=base,
                                  threads=threads)

    covered = scheme.weights_many(probes, on_uncovered="nearest")[1]
    empirical = {
        "if_sup": max((e["if_sup"] for e in per_z), default=0.0),
        "maxbias_sup": (mb_report.empirical["maxbias_sup"] if mb_report else None),
        "decomposition_residual": max(
            (e["decomposition_residual"] for e in per_z), default=0.0),
        "ladder": worst[1]["ladder"] if worst else [],
        "coverage_violations": int((~covered).sum()),
    }
    satisfied = {"if": bool(if_ok)}
    if mb_report is not None:
        satisfied["maxbias"] = mb_report.satisfied["maxbias"]

    tv_values = [e["tv_refined_bound"] for e in per_z
                 if e.get("tv_refined_bound") is not None]
    return AuditReport(
        if_bound_rough=rough.if_bound_rough,
        if_bound_tv=max(tv_values) if tv_values else None,
        maxbias_bound=mb_report.maxbias_bound if mb_report else None,
        per_region_terms=rough.per_region_terms,
        per_z=per_z,
        empirical=empirical,
        satisfied=satisfied,
        notes=rough.notes + (mb_report.notes if mb_report else []),
    )


def extreme_labels(data: Dataset, classification: bool) -> tuple[float, float]:
    """(low, high) contamination labels: -1 and +1 for classification,
    otherwise three label spreads beyond the sample's label range."""
    if classification:
        return -1.0, 1.0
    y_lo, y_hi = float(data.y.min()), float(data.y.max())
    spread = y_hi - y_lo
    return y_lo - 3.0 * spread, y_hi + 3.0 * spread


def adversarial_q_specs(data: Dataset, classification: bool,
                        eps_ladder=DEFAULT_EPS_LADDER, max_corners: int = 8):
    """Adversarial candidates: box corners and center with extreme labels,
    plus a uniform label-flip mixture of the sample itself."""
    lo, hi = data.bounding_box()
    d = data.dim
    corners = []
    n_corners = min(2**d, max_corners) if d < 30 else max_corners
    for i in range(n_corners):
        bits = [(i >> j) & 1 for j in range(d)]
        corners.append(np.where(np.asarray(bits, dtype=bool), hi, lo))
    xs = corners + [(lo + hi) / 2.0]

    if classification:
        flipped = -data.y
    else:
        flipped = float(data.y.min()) + float(data.y.max()) - data.y

    specs = [ContaminationSpec.dirac(x, y, eps_ladder)
             for x in xs for y in extreme_labels(data, classification)]
    flip_mixture = WeightedSample(data.X, flipped, np.full(data.n, 1.0 / data.n))
    specs.append(ContaminationSpec.mixture(flip_mixture, eps_ladder))
    return specs
