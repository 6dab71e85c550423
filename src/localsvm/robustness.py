"""Influence-function estimation, closed-form robustness bounds, maxbias probes.

The influence function of the composed predictor toward a contamination
point z is estimated by finite differences: every region whose ball
contains z is retrained on the mixture (1 - eps) D_b + eps delta_z for a
decreasing ladder of eps values, and the difference quotient
(f_tilde - f) / eps is evaluated on a probe grid. A region's rungs are
retrained as one chain down the ladder (``_chains``). Regions not
containing z keep their model, so their local influence estimate is
identically zero.

The closed-form certificates are

    IF bound:      2 |L|_1 sum_b ||w_b||  lam_b^-1 ||k_b||^2
    maxbias bound: 2 |L|_1 sum_b ||w_b|| (eps_b / lam_b) ||k_b||^2

with region sup-norms of the weights and kernels. A refinement replaces
the rough total-variation constant 2 by the exact discrete TV distance
between the regional empirical measure and delta_z.

Sup-norms of influence estimates are empirical sups over the probe grid
(training points plus a deterministic low-discrepancy fill of the data
bounding box) and therefore lower bounds of the essential sup. The
certificate's factors need no points: ||w_b|| is bounded by 1, because
both weight schemes take values in [0, 1], and ||k_b|| is the exact sup of
sqrt(k(x, x)) over region b's ball (``sup_norm_on_region``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .composer import ComposedModel, ModelConfig, compose, fit_composed
from .data import WeightedSample, _reject_non_finite, as_points
from .errors import InputError
from .kernels import sup_norm_on_region
from .regions import WeightScheme, regional_measures, restrict, weight_sup_norm
from .solver import LocalModel, grad_scale, train

DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
#: ladder residual ratio above which the limit is flagged as not converging
LADDER_RATIO_MAX = 0.9
DEFAULT_EXTRA_PROBES = 512
#: absolute slack of the audit's local H-norm checks against their caps
H_NORM_SLACK = 1e-3
#: most bounding-box corners in the adversarial maxbias family
MAX_CORNERS = 8
#: Sobol points are multiples of 2^-_SOBOL_BITS, so at most 2^_SOBOL_BITS differ
_SOBOL_BITS = 30


class LadderConvergenceWarning(UserWarning):
    """Finite-difference ladder residuals are not contracting."""


def _check_ladder(eps_ladder) -> tuple:
    """The eps ladder as floats; its bottom rung is the reported estimate."""
    ladder = tuple(float(e) for e in eps_ladder)
    if (len(ladder) < 2 or not all(0.0 < e < 0.5 for e in ladder)
            or any(a <= b for a, b in zip(ladder, ladder[1:]))):
        raise InputError(f"the eps ladder needs at least two strictly decreasing "
                         f"rungs in (0, 1/2), got {ladder}")
    return ladder


def _check_q(q, dim: int) -> WeightedSample:
    """A contamination Q: a WeightedSample on inputs of dimension ``dim``."""
    if not isinstance(q, WeightedSample):
        raise InputError(f"contamination Q must be a WeightedSample, got "
                         f"{type(q).__name__}")
    if q.dim != dim:
        raise InputError(f"contamination Q has dimension {q.dim}, but the data "
                         f"has dimension {dim}")
    return q


def _mix(sample_b: WeightedSample, atoms: WeightedSample, eps: float) -> WeightedSample:
    """(1 - eps) sample_b + eps atoms, with the atoms appended last."""
    return WeightedSample(np.vstack([sample_b.X, atoms.X]),
                          np.concatenate([sample_b.y, atoms.y]),
                          np.concatenate([sample_b.weights * (1.0 - eps),
                                          atoms.weights * eps]))


def contaminate_region(sample_b: WeightedSample, q: WeightedSample,
                       region, eps: float) -> WeightedSample:
    """The mixture (1 - eps) D_b + eps Q_b on region b, Q_b being Q
    conditioned on the region.

    Returns ``sample_b`` unchanged when Q puts no mass in the region.
    Contamination atoms are appended after the original ones, so warm
    starts can zero-pad existing coefficients.
    """
    if sample_b is None:
        raise InputError("cannot contaminate a null measure")
    _check_q(q, sample_b.dim)
    if not 0.0 < eps < 0.5:
        raise InputError(f"contamination eps must lie in (0, 1/2), got {eps}")
    rows = np.flatnonzero(region.contains_many(q.X))
    atoms = restrict(q, rows) if rows.size else None
    return sample_b if atoms is None else _mix(sample_b, atoms, eps)


@dataclass
class LocalQuotient:
    """(f_tilde - f) / eps for one region's local models.

    The contaminated model's anchors are the base anchors followed by the
    contamination atoms, and ``gram`` is their (bordered) Gram matrix.
    ``values`` holds the quotient on the region's probe rows of the audit.
    """

    tilde: LocalModel
    base: LocalModel
    eps: float
    gram: np.ndarray
    values: np.ndarray

    def h_norm(self) -> float:
        """RKHS norm sqrt(c' G c) of the difference quotient, exact over the
        contaminated anchors with c = (alpha_tilde - pad(alpha)) / eps."""
        coef = self.tilde.alpha.copy()
        coef[:self.base.n_anchors] -= self.base.alpha
        coef /= self.eps
        return float(np.sqrt(max(0.0, float(coef @ (self.gram @ coef)))))


@dataclass
class InfluenceEstimate:
    """Finite-difference influence estimate at the bottom of the eps ladder.

    ``values`` is the composed quotient on the context's probes and
    ``per_region`` maps each touched region to its local quotient; the
    influence estimate of an untouched region is identically zero.
    ``ladder`` holds one ``{"eps", "sup", "h_norms"}`` dict per rung, with
    ``h_norms`` keyed by region id.
    """

    context: AuditContext
    per_region: dict
    values: np.ndarray
    eps_used: float
    sup_norm_estimate: float
    h_norms: dict
    ladder: list
    ratios: list
    curvature: float
    richardson_sup: float
    converged: bool


#: Primitive polynomials (bit-encoded, leading and constant terms included)
#: and initial direction numbers m_1..m_deg of the first 64 Sobol
#: dimensions: the new-joe-kuo-6.21201 table of S. Joe and F. Y. Kuo,
#: "Constructing Sobol sequences with better two-dimensional projections",
#: SIAM J. Sci. Comput. 30(5), 2635-2654 (2008). Dimension 0 is van der
#: Corput's, with every direction number 1.
_SOBOL_DIRECTIONS = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)), (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)), (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)),
    (333, (1, 3, 1, 11, 27, 43, 71, 9)), (351, (1, 1, 7, 15, 21, 11, 81, 45)),
    (355, (1, 3, 7, 3, 25, 31, 65, 79)), (357, (1, 3, 1, 1, 19, 11, 3, 205)),
    (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)),
    (425, (1, 1, 3, 1, 11, 31, 97, 225)),
    (451, (1, 1, 1, 3, 23, 43, 57, 177)), (463, (1, 3, 7, 7, 17, 17, 37, 71)),
    (487, (1, 3, 1, 5, 27, 63, 123, 213)),
    (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)


def _sobol(n: int, dim: int) -> np.ndarray:
    """The first n points of the unscrambled Sobol sequence in [0, 1)^dim,
    bitwise equal to scipy's ``qmc.Sobol(dim, scramble=False).random(n)``."""
    if n > 2 ** _SOBOL_BITS:
        raise InputError(f"at most 2^{_SOBOL_BITS} Sobol probes, got {n}")
    if dim > len(_SOBOL_DIRECTIONS):
        raise InputError(f"Sobol probes support at most {len(_SOBOL_DIRECTIONS)} "
                         f"dimensions, got {dim}; an audit with "
                         f"extra_probes 0 needs none")
    bits = max(1, (n - 1).bit_length())  # direction columns n points use
    v = np.ones((dim, bits), dtype=np.int64)
    for d in range(1, dim):  # recurrence of Bratley & Fox (1988)
        p, init = _SOBOL_DIRECTIONS[d]
        m = p.bit_length() - 1
        row = list(init)
        for j in range(m, bits):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row[:bits]
    v <<= np.arange(_SOBOL_BITS - 1, _SOBOL_BITS - 1 - bits, -1)
    # point i is the XOR of the columns its Gray code i ^ (i >> 1) selects
    i = np.arange(n, dtype=np.int64)
    gray = i ^ (i >> 1)
    x = np.zeros((n, dim), dtype=np.int64)
    for j in range(bits):
        x[(gray >> j) & 1 == 1] ^= v[:, j]
    return x * 2.0 ** -_SOBOL_BITS


def default_probes(data: WeightedSample, n_extra: int = DEFAULT_EXTRA_PROBES) -> np.ndarray:
    """Training inputs plus a deterministic Sobol fill of their bounding box."""
    lo, hi = data.bounding_box()
    if n_extra <= 0:
        return data.X.copy()
    return np.vstack([data.X, lo + _sobol(n_extra, data.dim) * (hi - lo)])


@dataclass
class AuditReport:
    """Certificate values with their per-region decomposition (one
    ``{"region_id", "w_sup", "lambda", "k_sup", "term"}`` dict per region),
    the per-z audit entries, empirical sups and satisfaction flags.
    ``if_bound`` and ``maxbias_probe`` fill the fields they compute;
    ``run_audit`` all."""

    if_bound_rough: Optional[float] = None
    if_bound_tv: Optional[float] = None
    maxbias_bound: Optional[float] = None
    per_region_terms: list = field(default_factory=list)
    per_z: list = field(default_factory=list)
    empirical: dict = field(default_factory=dict)
    satisfied: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())

    def to_dict(self) -> dict:
        # shallow, unlike dataclasses.asdict: the nested lists and dicts are
        # already JSON values, and a deep copy costs milliseconds per audit
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _region_factors(scheme: WeightScheme, config: ModelConfig):
    """(b, w_sup, lam_b, k_sup) per region, from the balls alone."""
    return [(b, weight_sup_norm(scheme, b), config.lam_for(b),
             sup_norm_on_region(config.kernel_for(b), scheme.partition.region(b)))
            for b in range(1, scheme.B + 1)]


@dataclass(frozen=True)
class RegionBlocks:
    """One region's share of an AuditContext.

    ``points`` are the probes where w_b != 0, ``probe_block`` is
    k(points, X_b) and ``base_preds`` the base local model at the points.
    ``sample``, ``gram`` (K_b) and ``probe_block`` are None for a
    null-measure region.
    """

    sample: Optional[WeightedSample]
    gram: Optional[np.ndarray]
    points: np.ndarray
    probe_block: Optional[np.ndarray]
    base_preds: np.ndarray


@dataclass(frozen=True)
class BorderedRegion:
    """A region's sample, Gram and probe block extended by the atoms of one
    contamination Q, which follow the n_b sample atoms: the Gram is
    [[K_b, k(X_b, A)], [k(A, X_b), k(A, A)]], the probe block
    [probe_block | atom_block], the region's cached k(P_b, X_b) and
    k(P_b, A) kept side by side, not copied into one. Every eps rung
    retrains on this one Gram. ``warm_start`` is pad(alpha), the base
    coefficients zero-padded over the atoms: the start of a chain's top
    rung and the origin of the secant that starts each lower rung."""

    region_id: int
    sample: WeightedSample
    atoms: WeightedSample
    gram: np.ndarray
    probe_block: np.ndarray
    atom_block: np.ndarray
    warm_start: np.ndarray

    def contaminated(self, eps: float) -> WeightedSample:
        return _mix(self.sample, self.atoms, eps)

    def predict(self, alpha: np.ndarray) -> np.ndarray:
        """The bordered expansion at region b's probe points."""
        n = self.sample.n
        return self.probe_block @ alpha[:n] + self.atom_block @ alpha[n:]


class AuditContext:
    """Per-audit state shared by every contamination Q.

    Built once per audit: the base composed model, the probes and their
    ``weights`` (``WeightScheme.weights_many``'s per-region probe rows and
    weights), the bound factors (w_sup, lam_b, ||k_b||) of the regions'
    balls, and per region b a ``RegionBlocks`` on the data's regional
    measure, from one ball test of the data (``regional_measures``). The
    probes serve the influence estimates only, not the bound. ``border``
    extends a region by Q_b, a Q conditioned on it, so a retrain forms only
    the new Gram columns and a probe prediction is one matrix-vector product;
    ``retrain`` starts from pad(alpha) unless given a start, such as the
    secant start of a lower ladder rung; ``compose`` sums the regional
    predictions over the probes with ``composer.compose``, in the region
    order of ``ComposedModel.predict``. A regional prediction here is one
    product with the probe block, while ``LocalModel.predict`` sums the
    same kernel entries in row chunks, so ``base_preds`` agrees with
    ``base.predict(probes)`` to rounding, not bitwise.
    Memory per region: n_b^2 for K_b plus |P_b| n_b for the probe block; a
    bordered region adds its bordered Gram and the |P_b| x |A| atom block,
    not a bordered copy of the probe block.
    The context is read-only after construction.

    Every input check runs before any Gram or probe block is built. Empty
    probes, a nan or inf probe, or probes of another dimension than the
    data's are input errors, raised before the base fit. So is a given base
    not composed under ``scheme`` (equal balls, tau and weights), not
    anchored at the regional samples of ``data``, or not holding the config's
    kernel, loss and lambda in a region that is not null. ``threads`` is the
    base fit's worker count; the audit's retrains run in sequence.
    """

    def __init__(self, data: WeightedSample, scheme: WeightScheme, config: ModelConfig,
                 probes=None, base: Optional[ComposedModel] = None,
                 threads: int = 1):
        self.probes = as_points(default_probes(data) if probes is None else probes)
        if self.probes.shape[0] == 0:
            raise InputError("the probe set is empty; the audit's sups range "
                             "over the probes")
        _reject_non_finite("probe", self.probes)
        if self.probes.shape[1] != data.dim:
            raise InputError(f"the probes have dimension {self.probes.shape[1]}, "
                             f"but the data has dimension {data.dim}")
        if base is None:
            base = fit_composed(data, scheme, config, threads=threads)
        elif ((base.partition.to_dict(), base.scheme.to_dict())
              != (scheme.partition.to_dict(), scheme.to_dict())):
            raise InputError("model partition does not match the config partition")
        self.data = data
        self.scheme = scheme
        self.config = config
        self.base = base
        self.weights, self.covered = scheme.weights_many(self.probes)
        samples = regional_measures(scheme.partition, data)
        for b, sample in enumerate(samples, 1):
            local = base.locals[b]
            anchors = np.zeros((0, data.dim)) if sample is None else sample.X
            if not np.array_equal(local.anchors, anchors):
                raise InputError(
                    f"region {b}: the model's {local.n_anchors} anchors differ from "
                    f"the {anchors.shape[0]} training points in the region; audit a "
                    "model with the data it was trained on")
            if sample is None:
                continue
            for what, got, want in (("lambda", local.lam, config.lam_for(b)),
                                    ("kernel", local.kernel, config.kernel_for(b)),
                                    ("loss", local.loss.name, config.loss.name)):
                if got != want:
                    raise InputError(
                        f"region {b}: the model's {what} {got} does not match the "
                        f"config's {want}; audit with the training config")
        self.factors = _region_factors(scheme, config)
        self.regions = {b: self._blocks(b, sample)
                        for b, sample in enumerate(samples, 1)}
        self.base_preds = self.compose({})

    def _blocks(self, b: int, sample: Optional[WeightedSample]) -> RegionBlocks:
        points = self.probes[self.weights[b - 1][0]]
        if sample is None:
            return RegionBlocks(None, None, points, None, np.zeros(points.shape[0]))
        kernel = self.config.kernel_for(b)
        block = kernel.matrix(points, sample.X)
        return RegionBlocks(sample, kernel.gram(sample.X), points, block,
                            block @ self.base.locals[b].alpha)

    def compose(self, preds_by_region) -> np.ndarray:
        """sum_b w_b f_b over the probes, f_b given on region b's probe rows
        by ``preds_by_region`` or else the base local model."""
        return compose(self.weights, len(self.probes), lambda b, rows:
                       preds_by_region.get(b, self.regions[b].base_preds))

    def border(self, b: int, atoms: WeightedSample) -> Optional[BorderedRegion]:
        """Region b bordered by Q_b, the ``atoms`` of a Q conditioned on the
        region (``regional_measures``); None when the region is null."""
        blocks = self.regions[b]
        if blocks.sample is None:
            return None
        n, m = blocks.sample.n, blocks.sample.n + atoms.n
        if atoms.n == n and np.array_equal(atoms.X, blocks.sample.X):
            # the atoms are the region's own points (the label-flip
            # mixture): every new block is a cached one
            cross = atom_gram = blocks.gram
            atom_block = blocks.probe_block
        else:
            kernel = self.config.kernel_for(b)
            # one cross-kernel pass for the sample's and the probes' columns
            columns = kernel.matrix(np.vstack([blocks.sample.X, blocks.points]),
                                    atoms.X)
            cross, atom_block = columns[:n], columns[n:]
            atom_gram = kernel.gram(atoms.X)
        gram = np.empty((m, m))
        gram[:n, :n] = blocks.gram
        gram[:n, n:] = cross
        gram[n:, :n] = cross.T
        gram[n:, n:] = atom_gram
        warm = np.concatenate([self.base.locals[b].alpha, np.zeros(atoms.n)])
        return BorderedRegion(b, blocks.sample, atoms, gram, blocks.probe_block,
                              atom_block, warm)

    def retrain(self, bordered: BorderedRegion, eps: float,
                start: Optional[np.ndarray] = None) -> LocalModel:
        """Train region b on (1 - eps) D_b + eps A on the bordered Gram,
        warm-started from ``start`` (over the bordered anchors), by default
        the zero-padded base coefficients ``bordered.warm_start``."""
        b = bordered.region_id
        return train(bordered.contaminated(eps), self.config.kernel_for(b),
                     self.config.loss, self.config.train_for(b),
                     warm_start=bordered.warm_start if start is None else start,
                     region_id=b, gram=bordered.gram)


def _certificate_terms(factors, lip: float, tv_by_region):
    """The certificate's per-region terms ||w_b|| ||k_b|| cap_b and their
    total, where cap_b = ||k_b|| |L|_1 TV_b / lam_b also caps the H-norm of
    region b's local influence function. Returns (terms, caps, total)."""
    terms = []
    caps = {}
    total = 0.0
    for b, w_sup, lam, k_sup in factors:
        cap = k_sup * lip * tv_by_region[b] / lam
        term = w_sup * k_sup * cap
        terms.append({"region_id": b, "w_sup": w_sup, "lambda": lam,
                      "k_sup": k_sup, "term": term})
        caps[b] = cap
        total += term
    return terms, caps, total


def if_bound(scheme: WeightScheme, config: ModelConfig) -> AuditReport:
    """Rough influence-function sup-norm bound 2 |L|_1 sum_b ||w_b|| ||k_b||^2 / lam_b,
    with the sup-norms of the regions' balls."""
    factors = _region_factors(scheme, config)
    terms, _, total = _certificate_terms(factors, float(config.loss.lipschitz),
                                         {b: 2.0 for b, *_ in factors})
    return AuditReport(if_bound_rough=total, per_region_terms=terms)


def _tv_by_region(samples, inside, z: WeightedSample) -> dict:
    """Exact TV distance 2 (1 - D_b({z})) between each region b's empirical
    measure ``samples[b]`` and its contamination by the one-atom ``z``; 0
    for a null region and for a region outside ``inside`` (the ids of the
    balls that hold z), whose contaminated regional measure is the original."""
    z_x, z_y = z.X[0], z.y[0]
    return {b: 0.0 if sample is None or b not in inside
            else 2.0 * (1.0 - sample.atom_mass(z_x, z_y))
            for b, sample in samples.items()}


def tv_refined_if_bound(data: WeightedSample, scheme: WeightScheme, config: ModelConfig,
                        z_x, z_y: float) -> float:
    """IF bound with the exact discrete TV distance instead of the constant 2.

    TV_b = 2 (1 - D_b({z})) when z's input lies in region b (0 otherwise,
    because the contaminated regional measure then equals the original and
    the local influence function vanishes). Never exceeds the rough bound.
    The sup-norm factors are those of ``if_bound``; ``data`` enters only
    through the regional measures D_b.
    """
    z = _check_q(WeightedSample.dirac(z_x, z_y), data.dim)
    samples = dict(enumerate(regional_measures(scheme.partition, data), 1))
    inside = [b for b, rows in enumerate(scheme.partition.members(z.X), 1)
              if rows.size]
    return _certificate_terms(_region_factors(scheme, config),
                              float(config.loss.lipschitz),
                              _tv_by_region(samples, inside, z))[2]


def _chains(context: AuditContext, q: WeightedSample, ladder_of):
    """Each region Q touches, bordered once, with its retrains down its ladder.

    One ball test of Q's atoms (``regional_measures``) conditions Q on
    every region. For each region b that is not null, holds atoms of Q and
    has a non-empty eps ladder ``ladder_of(b)`` this yields, in region-id
    order, (b, the bordered Gram, the retrained models in ladder order,
    their predictions at the region's probe points).
    The top rung starts from pad(alpha). The retrained coefficients move
    smoothly away from pad(alpha) as eps grows, so each lower rung k starts
    from the secant through pad(alpha) and the rung above,
    pad(alpha) + (eps_k / eps_{k-1}) (alpha~_{k-1} - pad(alpha)), which is
    O(eps^2) from its answer (a secant predictor of numerical continuation).
    The ``BorderedRegion`` stays here and is let go before the next region
    is bordered, so one is alive at a time.
    """
    for b, atoms in enumerate(regional_measures(context.scheme.partition, q), 1):
        ladder = () if atoms is None else ladder_of(b)
        region = context.border(b, atoms) if ladder else None
        if region is None:
            continue
        pad = region.warm_start
        models = [context.retrain(region, ladder[0])]
        for eps_above, eps in zip(ladder, ladder[1:]):
            start = pad + (eps / eps_above) * (models[-1].alpha - pad)
            models.append(context.retrain(region, eps, start))
        yield b, region.gram, models, [region.predict(m.alpha) for m in models]
        del region


def finite_diff_if(context: AuditContext, q: WeightedSample,
                   eps_ladder=DEFAULT_EPS_LADDER) -> InfluenceEstimate:
    """Finite-difference influence estimate toward Q along the eps ladder
    (at least two strictly decreasing rungs in (0, 1/2)).

    Each region Q touches is bordered once and retrained per rung on the
    contaminated mixture, as one chain down the ladder (``_chains``);
    untouched regions contribute exactly zero. The reported estimate is
    the bottom-rung quotient; consecutive-rung residuals serve as the
    convergence diagnostic for the existence of the defining limit, and a
    linear extrapolation to eps -> 0 is reported alongside as a diagnostic.
    The probes and the base model are the context's.
    """
    ladder = _check_ladder(eps_ladder)
    _check_q(q, context.data.dim)
    preds = [{} for _ in ladder]
    h_norms = [dict.fromkeys(context.regions, 0.0) for _ in ladder]
    quotients = {}
    for b, gram, models, region_preds in _chains(context, q, lambda b: ladder):
        for k, (eps, tilde, pred) in enumerate(zip(ladder, models, region_preds)):
            preds[k][b] = pred
            quotients[b] = LocalQuotient(
                tilde, context.base.locals[b], eps, gram,
                (pred - context.regions[b].base_preds) / eps)
            h_norms[k][b] = quotients[b].h_norm()
    rung_values = [(context.compose(p) - context.base_preds) / eps
                   for p, eps in zip(preds, ladder)]
    rungs = [{"eps": eps, "sup": float(np.max(np.abs(v))), "h_norms": h}
             for eps, v, h in zip(ladder, rung_values, h_norms)]

    residuals = [float(np.max(np.abs(upper - lower)))
                 for upper, lower in zip(rung_values, rung_values[1:])]
    ratios = [cur / prev if prev > 0 else np.nan
              for prev, cur in zip(residuals, residuals[1:])]

    eps_lo = ladder[-1]
    eps_hi = ladder[-2]
    curvature = residuals[-1] / (eps_hi - eps_lo)
    slope = (rung_values[-2] - rung_values[-1]) / (eps_hi - eps_lo)
    extrapolated = rung_values[-1] - eps_lo * slope
    richardson_sup = float(np.max(np.abs(extrapolated)))

    finite_ratios = [r for r in ratios if np.isfinite(r)]
    converged = all(r <= LADDER_RATIO_MAX for r in finite_ratios)
    if not converged:
        warnings.warn(
            f"ladder residual ratios {ratios} exceed {LADDER_RATIO_MAX}; the "
            "difference quotients are not contracting toward a limit",
            LadderConvergenceWarning,
        )

    return InfluenceEstimate(
        context=context,
        per_region=quotients,
        values=rung_values[-1],
        eps_used=eps_lo,
        sup_norm_estimate=rungs[-1]["sup"],
        h_norms=rungs[-1]["h_norms"],
        ladder=rungs,
        ratios=ratios,
        curvature=float(curvature),
        richardson_sup=richardson_sup,
        converged=converged,
    )


def decomposition_check(estimate: InfluenceEstimate) -> float:
    """Max |composed - sum_b w_b per_region_b| over the estimate's probes.

    The composed quotient is assembled from the regional predictions while
    the right-hand side recombines the local quotients (zero in an
    untouched region) with the context's probe weights, so the residual
    measures only floating-point association.
    """
    per_region = estimate.per_region
    context = estimate.context
    recombined = compose(context.weights, len(context.probes), lambda b, rows: (
        per_region[b].values if b in per_region else 0.0))
    return float(np.max(np.abs(estimate.values - recombined)))


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


def maxbias_probe(context: AuditContext, eps_by_region, qs) -> AuditReport:
    """Empirical worst-case predictor shift under full-level contamination.

    For each candidate contaminating distribution Q in ``qs`` the per-region
    models are retrained on (1 - eps_b) D_b + eps_b Q_b at the full
    contamination level (no limit), and the sup-norm shift of the composed
    predictor is measured over the probes. The closed-form bound
    2 |L|_1 sum_b ||w_b|| (eps_b / lam_b) ||k_b||^2 must dominate the
    empirical maximum; regions with eps_b = 0 keep their model bit-exactly.
    The probes and the base model are the context's.
    """
    eps = _as_eps_vector(eps_by_region, context.scheme.B)
    qs = [_check_q(q, context.data.dim) for q in qs]
    terms, _, bound = _certificate_terms(
        context.factors, float(context.config.loss.lipschitz),
        {b: 2.0 * eps[b - 1] for b, *_ in context.factors})

    shifts = []
    for q in qs:
        preds = {b: pred for b, _, _, (pred,) in _chains(
            context, q, lambda b: (eps[b - 1],) if eps[b - 1] else ())}
        shifts.append(float(np.abs(context.compose(preds) - context.base_preds).max()))
    empirical = max(shifts) if shifts else 0.0

    return AuditReport(
        maxbias_bound=bound,
        per_region_terms=terms,
        empirical={"maxbias_sup": empirical,
                   "per_q_shifts": [float(s) for s in shifts],
                   "eps_by_region": eps.tolist()},
        satisfied={"maxbias": bool(empirical <= bound)},
    )


def run_audit(data: WeightedSample, scheme: WeightScheme, config: ModelConfig,
              qs, maxbias_eps=0.1, probes=None,
              base: Optional[ComposedModel] = None, threads: int = 1,
              eps_ladder=DEFAULT_EPS_LADDER) -> AuditReport:
    """Audit the composed predictor against the closed-form certificates.

    For every contamination Q in ``qs`` the finite-difference influence
    estimate along ``eps_ladder``, its decomposition residual and (for a
    one-atom Q, the Dirac point z) the TV-refined bound are computed; the
    sup-norm certificate allows the numerically justified slack
    10 (grad_tol / eps + eps * curvature), with grad_tol scaled as the
    retrains scaled it (the largest ``grad_scale`` of the touched regions'
    bordered Grams, 1 for Gaussian RBF), and each local H-norm its
    cap with slack ``H_NORM_SLACK``. A maxbias probe at the given full
    contamination level runs against the adversarial corner/label-flip
    family of ``adversarial_q_specs``. Once the ladder, every Q and
    ``maxbias_eps`` pass their checks, one AuditContext, which checks the
    probes and a given ``base``, holds the per-run state every Q shares.
    ``threads`` reaches only the base fit; the retrains run in sequence.
    """
    ladder = _check_ladder(eps_ladder)
    qs = [_check_q(q, data.dim) for q in qs]
    mb_eps = None if maxbias_eps is None else _as_eps_vector(maxbias_eps, scheme.B)
    ctx = AuditContext(data, scheme, config, probes=probes, base=base,
                       threads=threads)
    grad_tol = config.train.grad_tol
    lip = float(config.loss.lipschitz)
    rough_tv = {b: 2.0 for b in ctx.regions}
    rough_terms, _, rough = _certificate_terms(ctx.factors, lip, rough_tv)
    samples = {b: blocks.sample for b, blocks in ctx.regions.items()}

    per_z = []
    for q in qs:
        dirac = q.n == 1
        est = finite_diff_if(ctx, q, ladder)
        tol = grad_tol * max((grad_scale(local.gram)
                              for local in est.per_region.values()), default=1.0)
        slack = 10.0 * (tol / est.eps_used + est.eps_used * est.curvature)
        # the regions whose balls hold z are those the estimate retrained;
        # a mixture keeps the rough TV bound
        tvs = _tv_by_region(samples, est.per_region, q) if dirac else rough_tv
        _, caps, refined = _certificate_terms(ctx.factors, lip, tvs)
        h_checks = {b: {"h_norm": h, "cap": caps[b],
                        "ok": bool(h <= caps[b] + H_NORM_SLACK)}
                    for b, h in est.h_norms.items()}
        entry = {
            "kind": "dirac" if dirac else "mixture",
            "eps": est.eps_used,
            "if_sup": est.sup_norm_estimate,
            "slack": slack,
            "richardson_sup": est.richardson_sup,
            "curvature": est.curvature,
            # a ratio over a zero residual is undefined: null, not NaN
            "ratios": [float(r) if np.isfinite(r) else None for r in est.ratios],
            "converged": est.converged,
            "decomposition_residual": decomposition_check(est),
            "tv_refined_bound": refined if dirac else None,
            "h_norms": {str(b): c for b, c in h_checks.items()},
            "ladder": est.ladder,
            "satisfied": bool(est.sup_norm_estimate <= rough + slack
                              and all(c["ok"] for c in h_checks.values())),
        }
        if dirac:
            entry["z"] = {"x": q.X[0].tolist(), "y": float(q.y[0])}
        per_z.append(entry)

    mb_report = None
    if mb_eps is not None:
        family = adversarial_q_specs(data, config.loss.is_classification)
        mb_report = maxbias_probe(ctx, mb_eps, family)

    empirical = {
        "if_sup": max((e["if_sup"] for e in per_z), default=0.0),
        "maxbias_sup": (mb_report.empirical["maxbias_sup"] if mb_report else None),
        "decomposition_residual": max(
            (e["decomposition_residual"] for e in per_z), default=0.0),
        # the first z with the largest estimate
        "ladder": max(per_z, key=lambda e: e["if_sup"])["ladder"] if per_z else [],
        "coverage_violations": int((~ctx.covered).sum()),
    }
    satisfied = {"if": all(e["satisfied"] for e in per_z)}
    if mb_report is not None:
        satisfied["maxbias"] = mb_report.satisfied["maxbias"]

    return AuditReport(
        if_bound_rough=rough,
        if_bound_tv=max((e["tv_refined_bound"] for e in per_z
                         if e["kind"] == "dirac"), default=None),
        maxbias_bound=mb_report.maxbias_bound if mb_report else None,
        per_region_terms=rough_terms,
        per_z=per_z,
        empirical=empirical,
        satisfied=satisfied,
    )


def extreme_labels(data: WeightedSample, classification: bool) -> tuple[float, float]:
    """(low, high) contamination labels: -1 and +1 for classification,
    otherwise three label spreads beyond the sample's label range."""
    if classification:
        return -1.0, 1.0
    y_lo, y_hi = float(data.y.min()), float(data.y.max())
    spread = y_hi - y_lo
    return y_lo - 3.0 * spread, y_hi + 3.0 * spread


def adversarial_q_specs(data: WeightedSample, classification: bool) -> list:
    """Adversarial contaminations Q: the Dirac points at the box corners (in
    bit order) and then its center, each with the low and then the high
    extreme label, and last the label flip of the measure: its atoms, with
    their weights, under flipped labels."""
    lo, hi = data.bounding_box()
    d = data.dim
    corners = []
    for i in range(min(2 ** d, MAX_CORNERS)):
        bits = [(i >> j) & 1 for j in range(d)]
        corners.append(np.where(np.asarray(bits, dtype=bool), hi, lo))
    xs = corners + [(lo + hi) / 2.0]

    if classification:
        flipped = -data.y
    else:
        flipped = float(data.y.min()) + float(data.y.max()) - data.y

    return ([WeightedSample.dirac(x, y)
             for x in xs for y in extreme_labels(data, classification)]
            + [WeightedSample(data.X, flipped, data.weights)])
