"""Regularized empirical risk minimization over the representer expansion.

The minimizer of

    J(alpha) = sum_i w_i L*(y_i, (K alpha)_i) + lam * alpha' K alpha

is found by damped Newton iteration with Armijo backtracking. Training with
the unshifted loss L adds only the constant sum_i w_i L(y_i, 0) to J, so the
gradient, the Hessian and hence the minimizer are identical; both variants
are exposed so the identity can be audited.

With g = w . L'(y, K alpha) + 2 lam alpha and D = w . L''(y, K alpha) >= 0,
the gradient in alpha-coordinates is K g and the Hessian is K (D K + 2 lam I).
Any step s with (D K + 2 lam I) s = -g therefore solves the Newton system.
It is found in the kernel-IRLS form (Zhu & Hastie, JCGS 2005): conjugate
gradients (Hestenes & Stiefel, 1952) solve A r = -D^1/2 K g, applying
A = D^1/2 K D^1/2 + 2 lam I through one product with K per iteration, and
s = -(g + D^1/2 r) / (2 lam). The line search and the update of K alpha
need K s = -(K g + K D^1/2 r) / (2 lam); CG accumulates K D^1/2 r from the
products it already makes, so a Newton step costs one product for the
gradient K g plus one per CG iteration. As the weights sum to 1, the
eigenvalues of A lie in [2 lam, 2 lam + sum_i D_i K_ii], so kappa(A) <=
1 + L''_max ||k||_inf^2 / (2 lam) for any data, even a singular K: a few
iterations reach the stopping residual. Only for lam near 1e-4 and below can CG cost
more than a Cholesky factorization of A would.

Steps are solved inexactly while the fit is far from its end (Dembo,
Eisenstat & Steihaug, SINUM 1982): step k stops its CG solve once the
Newton residual (D K + 2 lam I) s + g, which equals D^1/2 res / (2 lam)
for the CG residual res, is at most eta_k |g|_2 with the forcing term
eta_k = min(1/2, |grad|_inf / grad_scale(K)). The rate stays quadratic
because eta_k shrinks with the gradient. The step expected to close the
fit is solved to _CG_RTOL, so the returned coefficients are those of an
exact Newton finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .data import WeightedSample, _reject_non_finite, as_points
from .errors import ConvergenceError, InputError
from .kernels import Kernel, sup_sqrt_diag
from .losses import SmoothLoss

ARMIJO_C = 1e-4
_MIN_STEP = 1e-16
# below this gradient norm, times grad_scale(K), the iteration is in Newton's
# quadratic phase and the Armijo decrease would drown in objective rounding
# noise; take the full step (damping is a globalization device only)
_FULL_STEP_GNORM = 1e-6
_CG_RTOL = 1e-13  # relative residual at which conjugate gradients stop
# conjugate gradients stop after _CG_CAP * n iterations at the latest: in
# floating point, CG on an ill-conditioned n x n system can need more than n
_CG_CAP = 3
# a Newton step is solved to the relative Newton residual
# eta = min(_FORCING_MAX, gnorm / grad_scale(K)), except the one expected to
# close the fit, eta * gnorm <= _CLOSING_FACTOR * grad_tol, solved exactly
_FORCING_MAX = 0.5
_CLOSING_FACTOR = 100.0
# absolute slacks of audit_model_bounds' sup-norm and H-norm checks
_SUP_SLACK = 1e-12
_H_SLACK = 1e-9


def grad_scale(K) -> float:
    """max(1, max_i K_ii): the gradient K g scales with the kernel diagonal,
    so ``train`` multiplies its gradient thresholds by this factor."""
    return float(np.max(K.diagonal(), initial=1.0))


@dataclass(frozen=True)
class TrainConfig:
    """Solver settings; ``lam`` is the regularization parameter (> 0) and
    ``grad_tol`` the gradient sup-norm at which ``train`` stops, relative
    to ``grad_scale`` of the Gram matrix (1 for Gaussian RBF)."""

    lam: float
    grad_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise InputError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 < self.grad_tol < np.inf:
            raise InputError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolveInfo:
    """How ``train`` reached its solution: Newton steps taken, conjugate
    gradient iterations (total and the most in one step), Armijo halvings,
    steepest-descent fallbacks, the final gradient sup-norm and the largest
    ratio of a CG solve's final residual to the residual at which it was
    set to stop, in the norm of the stopping test it came closest to
    meeting (above 1 only where CG stopped at its iteration cap)."""

    newton_iters: int
    cg_iters: int
    cg_iters_max: int
    backtracks: int
    fallbacks: int
    grad_norm: float
    cg_residual_ratio_max: float


@dataclass(frozen=True)
class LocalModel:
    """Kernel expansion f(x) = sum_i alpha_i k(x, anchor_i).

    ``region_id`` is the region the model was trained for, or "global".
    ``h_norm_sq`` is alpha' K alpha as ``train`` already computed it, and
    ``solve_info`` how it got there; both are None on hand-built and
    deserialized models, whose H-norm comes from the Gram.
    """

    alpha: np.ndarray
    anchors: np.ndarray
    kernel: Kernel
    loss: SmoothLoss
    lam: float
    region_id: Union[int, str] = "global"
    h_norm_sq: Optional[float] = None
    solve_info: Optional[SolveInfo] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        anchors = as_points(self.anchors)
        if anchors.size == 0:
            anchors = anchors.reshape(0, self.kernel.input_dim)
        object.__setattr__(self, "anchors", anchors)
        if self.alpha.shape[0] != self.anchors.shape[0]:
            raise InputError("alpha and anchors must have equal length")
        if not 0 < self.lam < np.inf:
            raise InputError(f"local model {self.region_id}: lambda must be "
                             f"positive and finite, got {self.lam}")
        _reject_non_finite(f"local model {self.region_id}: anchor", self.anchors,
                           self.alpha)

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    def predict(self, X) -> np.ndarray:
        """Evaluate the expansion at the rows of X with ``Kernel.apply``,
        so the full cross-kernel matrix is never held."""
        return self.kernel.apply(X, self.anchors, self.alpha)

    def h_norm(self) -> float:
        """RKHS norm sqrt(alpha' G alpha) over the anchor Gram matrix; the
        Gram (``Kernel.gram_rows``, as in ``train``) is built only when
        ``train`` recorded no ``h_norm_sq``."""
        if self.n_anchors == 0:
            return 0.0
        sq = self.h_norm_sq
        if sq is None:
            sq = float(self.alpha @ (self.kernel.gram_rows(self.anchors) @ self.alpha))
        return float(np.sqrt(max(0.0, sq)))

    def h_norm_bound(self, k_sup: float) -> float:
        """The a-priori bound lam^-1 |L|_1 ||k||_inf on the H-norm."""
        return float(self.loss.lipschitz) * k_sup / self.lam

    @classmethod
    def zero(cls, kernel: Kernel, loss: SmoothLoss, lam: float,
             region_id: Union[int, str]) -> "LocalModel":
        """The zero function, used for null-measure regions."""
        return cls(alpha=np.zeros(0), anchors=np.zeros((0, kernel.input_dim)),
                   kernel=kernel, loss=loss, lam=lam, region_id=region_id)

    def to_dict(self) -> dict:
        return {
            "region_id": self.region_id,
            "lambda": self.lam,
            "kernel": self.kernel.to_dict(),
            "loss": self.loss.name,
            "anchors": self.anchors.tolist(),
            "alpha": self.alpha.tolist(),
        }


def objective(alpha, sample: WeightedSample, kernel: Kernel, loss: SmoothLoss,
              cfg: TrainConfig, shifted: bool = True) -> float:
    """Objective value at a coefficient vector anchored at the sample points."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != sample.n:
        raise InputError("alpha length must equal the sample size")
    K = kernel.gram(sample.X)
    f = K @ alpha
    terms = loss.shifted_value(sample.y, f) if shifted else loss.value(sample.y, f)
    return float(sample.weights @ terms + cfg.lam * (alpha @ f))


def _irls_solve(K, sqrt_d, b, lam, target=0.0):
    """Conjugate gradients on (D^1/2 K D^1/2 + 2 lam I) r = b. Stops at
    |res| <= _CG_RTOL |b|, at |D^1/2 res| <= target if target > 0, or after
    _CG_CAP * n steps. Returns r, K D^1/2 r (carried along the iteration
    from the products it makes, not by one more), the iteration count and
    the final residual over its stopping residual in the test it came
    closest to meeting (0 for b = 0; above 1 only at the iteration cap)."""
    r, Kr, res = np.zeros_like(b), np.zeros_like(b), b.copy()
    p, rr = res.copy(), float(res @ res)
    rr_b, it = rr, 0
    stop, forced = _CG_RTOL ** 2 * rr, target ** 2
    dd = _sq_norm(sqrt_d * res) if forced > 0 else np.inf
    # the plain recurrence's products, in its order and bits, into two work vectors
    u, Ap = np.empty_like(b), np.empty_like(b)
    while it < _CG_CAP * b.shape[0] and rr > stop and dd > forced:
        np.multiply(sqrt_d, p, out=u)
        Kp = K @ u
        np.multiply(sqrt_d, Kp, out=Ap)
        Ap += np.multiply(2.0 * lam, p, out=u)
        a = rr / float(p @ Ap)
        r += np.multiply(a, p, out=u)
        Kr += np.multiply(a, Kp, out=u)
        res -= np.multiply(a, Ap, out=u)
        rr, rr_old = float(res @ res), rr
        if forced > 0:
            dd = _sq_norm(np.multiply(sqrt_d, res, out=u))
        p *= rr / rr_old
        p += res
        it += 1
    if rr_b == 0:
        return r, Kr, it, 0.0
    ratio = float(np.sqrt(rr / rr_b)) / _CG_RTOL
    if forced > 0:
        ratio = min(ratio, float(np.sqrt(dd)) / target)
    return r, Kr, it, ratio


def _sq_norm(v):
    return float(v @ v)


def _newton_step(K, g, grad, D, lam, eta=0.0):
    """A step s with |(D K + 2 lam I) s + g|_2 <= eta |g|_2, solving
    K (D K + 2 lam I) s = -grad (grad = K g) exactly for eta = 0, with
    K s, the CG iteration count and residual ratio (see ``_irls_solve``).
    K s = -(grad + K D^1/2 r) / (2 lam) needs no product, but its rounding
    grows with the cancellation |grad|_inf / |grad + K D^1/2 r|_inf (at most
    2.3 on the benchmark configs); above 1e3, where a small lam meets a
    large kernel, K s is the product K @ s. A non-finite D gives an all-NaN
    step and K s without any arithmetic on them (and no CG solve, ratio 0),
    which ``train`` replaces by steepest descent."""
    if not np.isfinite(D).all():
        nan = np.full_like(g, np.nan)
        return nan, nan, 0, 0.0
    sqrt_d = np.sqrt(D)
    # the Newton residual is D^1/2 res / (2 lam) for the CG residual res
    target = 2.0 * lam * eta * float(np.sqrt(g @ g))
    r, Kr, iters, ratio = _irls_solve(K, sqrt_d, -sqrt_d * grad, lam, target)
    step = -(g + sqrt_d * r) / (2.0 * lam)
    u = grad + Kr
    if np.abs(grad).max() > 1e3 * np.abs(u).max():
        return step, K @ step, iters, ratio
    return step, -u / (2.0 * lam), iters, ratio


def train(sample: WeightedSample, kernel: Kernel, loss: SmoothLoss,
          cfg: TrainConfig, warm_start: Optional[np.ndarray] = None,
          shifted: bool = True, region_id: Union[int, str] = "global",
          gram=None) -> LocalModel:
    """Damped Newton minimization of the (shifted) regularized risk.

    The solver only multiplies vectors by the Gram matrix K of
    ``sample.X`` and reads its diagonal. Without ``gram`` it builds
    ``kernel.gram_rows(sample.X)``: the dense Gram for at most
    ``kernels._GRAM_ROWS`` points, else its upper block rows, about
    n (n + _GRAM_ROWS) / 2 entries. ``gram`` is an optional precomputed K,
    for callers that retrain on one sample under several weightings:
    anything with ``@`` on vectors, ``.shape`` and ``.diagonal()``, such as
    a dense array; it is read, never written. Deterministic at a fixed BLAS
    thread count:
    identical inputs give bitwise-identical coefficients (a different
    thread count may change the last bits). Raises ConvergenceError (with
    ``region_id`` and the best iterate attached) if the gradient turns
    non-finite or the gradient tolerance is not reached within
    ``cfg.max_iter`` iterations.
    """
    y, w, lam = sample.y, sample.weights, cfg.lam
    n = sample.n
    if gram is None:
        K = kernel.gram_rows(sample.X)
    else:
        K = gram
        if K.shape != (n, n):
            raise InputError(f"gram has shape {K.shape}, expected ({n}, {n})")

    if warm_start is not None:
        alpha = np.asarray(warm_start, dtype=float).copy()
        if alpha.shape[0] != n:
            raise InputError("warm start length must equal the sample size")
        f = K @ alpha
    else:
        alpha, f = np.zeros(n), np.zeros(n)

    scale = grad_scale(K)
    full_step_gnorm = _FULL_STEP_GNORM * scale
    grad_tol = cfg.grad_tol * scale
    closing_gnorm = _CLOSING_FACTOR * grad_tol
    steps = cg_total = cg_max = backtracks = fallbacks = 0
    cg_ratio_max = 0.0

    def fitted(alpha, f, gnorm):
        info = SolveInfo(steps, cg_total, cg_max, backtracks, fallbacks, gnorm,
                         cg_ratio_max)
        return LocalModel(alpha=alpha, anchors=sample.X, kernel=kernel,
                          loss=loss, lam=lam, region_id=region_id,
                          h_norm_sq=float(alpha @ f), solve_info=info)

    best_alpha, best_gnorm = alpha.copy(), np.inf
    zero = None  # L(y, 0) of the shifted loss (0 unshifted), at the first line search
    for _ in range(cfg.max_iter + 1):
        g = w * loss.dt(y, f) + 2.0 * lam * alpha
        grad = K @ g
        gnorm = float(np.abs(grad).max()) if n else 0.0
        if not np.isfinite(gnorm):
            raise ConvergenceError(f"non-finite gradient after {steps} iterations",
                                   best_alpha=best_alpha, grad_norm=gnorm,
                                   iterations=steps, region_id=region_id)
        if gnorm < best_gnorm:
            best_alpha, best_gnorm = alpha.copy(), gnorm
        if gnorm <= grad_tol:
            return fitted(alpha, f, gnorm)
        if steps == cfg.max_iter:
            break

        eta = min(_FORCING_MAX, gnorm / scale)
        if eta * gnorm <= closing_gnorm:
            eta = 0.0  # the step expected to close the fit is solved exactly
        step, Ks, cg, cg_ratio = _newton_step(K, g, grad, w * loss.dtt(y, f),
                                              lam, eta)
        cg_total, cg_max = cg_total + cg, max(cg_max, cg)
        cg_ratio_max = max(cg_ratio_max, cg_ratio)
        descent = float(grad @ step)
        newton = descent < 0
        if not newton:
            fallbacks += 1
            step = -grad
            descent = float(grad @ step)
            Ks = K @ step

        # only a Newton step may skip the line search: a full steepest-descent
        # step -grad has no natural length and can throw f far off
        if newton and gnorm <= full_step_gnorm:
            t = 1.0
        else:
            # backtracking line search on the objective (Armijo, c = 1e-4)
            if zero is None:
                zero = loss.value(y, np.zeros_like(y)) if shifted else 0.0
            J0 = float(w @ (loss.value(y, f) - zero) + lam * (alpha @ f))
            aKs = float(alpha @ Ks)
            sKs = float(step @ Ks)
            t = 1.0
            while t >= _MIN_STEP:
                f_try = f + t * Ks
                J_try = float(w @ (loss.value(y, f_try) - zero)
                              + lam * (alpha @ f + 2.0 * t * aKs + t * t * sKs))
                if J_try <= J0 + ARMIJO_C * t * descent:
                    break
                t *= 0.5
                backtracks += 1
        alpha = alpha + t * step
        f = f + t * Ks
        steps += 1

    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(grad norm {best_gnorm:.3e} > tol {grad_tol:.3e})",
        best_alpha=best_alpha, grad_norm=best_gnorm, iterations=cfg.max_iter,
        region_id=region_id)


@dataclass(frozen=True)
class IdentityReport:
    """Result of training with base and shifted loss on the same sample."""

    alpha_diff_inf: float
    model_shifted: LocalModel
    model_base: LocalModel


def shifted_unshifted_identity_check(sample: WeightedSample, kernel: Kernel,
                                     loss: SmoothLoss, cfg: TrainConfig) -> IdentityReport:
    """Train twice (shifted / unshifted objective) and compare coefficients.

    The minimizers agree exactly; the report's sup-norm difference measures
    only solver tolerance.
    """
    m_shift = train(sample, kernel, loss, cfg, shifted=True)
    m_base = train(sample, kernel, loss, cfg, shifted=False)
    diff = float(np.max(np.abs(m_shift.alpha - m_base.alpha))) if sample.n else 0.0
    return IdentityReport(alpha_diff_inf=diff, model_shifted=m_shift, model_base=m_base)


@dataclass(frozen=True)
class ModelBoundCheck:
    """Empirical audit of the sup-norm and H-norm inequalities."""

    sup_abs_f: float
    h_norm: float
    k_sup: float
    h_norm_cap: float
    sup_bound_ok: bool
    h_norm_ok: bool


def audit_model_bounds(model: LocalModel, probes) -> ModelBoundCheck:
    """Check |f(x)| <= ||f||_H ||k||_inf on probes and ||f||_H <= lam^-1 |L|_1 ||k||_inf,
    up to the absolute slacks 1e-12 and 1e-9.

    ||k||_inf is the empirical sup of sqrt(k(x, x)) over probes and anchors
    (exact 1 for Gaussian RBF).
    """
    probes = as_points(probes)
    pts = probes if model.n_anchors == 0 else np.vstack([probes, model.anchors])
    k_sup = sup_sqrt_diag(model.kernel, pts)
    h = model.h_norm()
    sup_f = float(np.max(np.abs(model.predict(probes)))) if probes.shape[0] else 0.0
    cap = model.h_norm_bound(k_sup)
    return ModelBoundCheck(
        sup_abs_f=sup_f, h_norm=h, k_sup=k_sup, h_norm_cap=cap,
        sup_bound_ok=bool(sup_f <= h * k_sup + _SUP_SLACK),
        h_norm_ok=bool(h <= cap + _H_SLACK),
    )
