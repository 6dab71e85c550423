"""Regularized empirical risk minimization over the representer expansion.

The minimizer of

    J(alpha) = sum_i w_i L*(y_i, (K alpha)_i) + lam * alpha' K alpha

is found by damped Newton iteration with Armijo backtracking. Training with
the unshifted loss L adds only the constant sum_i w_i L(y_i, 0) to J, so the
gradient, the Hessian and hence the minimizer are identical; both variants
are exposed so the identity can be audited.

The gradient in alpha-coordinates is K (w . L'(y, K alpha) + 2 lam alpha)
and the Hessian K diag(w . L''(y, K alpha)) K + 2 lam K; a relative ridge is
added to the Hessian (never to reported quantities) to keep solves stable
when duplicated points make K singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .data import WeightedSample, as_points
from .errors import ConvergenceError, InputError
from .kernels import Kernel, chunk_rows, kernel_from_dict
from .losses import SmoothLoss, loss_from_name

ARMIJO_C = 1e-4
_MIN_STEP = 1e-16
# below this gradient norm the iteration is in Newton's quadratic phase and
# the Armijo decrease would drown in objective rounding noise; take the full
# step (damping is a globalization device only)
_FULL_STEP_GNORM = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """Solver settings; ``lam`` is the regularization parameter (> 0)."""

    lam: float
    grad_tol: float = 1e-10
    max_iter: int = 200
    ridge: float = 1e-10

    def __post_init__(self):
        if not self.lam > 0:
            raise InputError(f"lambda must be positive, got {self.lam}")
        if not self.grad_tol > 0:
            raise InputError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.ridge < 0:
            raise InputError(f"ridge must be nonnegative, got {self.ridge}")

    def with_lam(self, lam: float) -> "TrainConfig":
        return TrainConfig(lam=lam, grad_tol=self.grad_tol,
                           max_iter=self.max_iter, ridge=self.ridge)


@dataclass(frozen=True)
class LocalModel:
    """Kernel expansion f(x) = sum_i alpha_i k(x, anchor_i).

    ``region_id`` is the region the model was trained for, or "global".
    ``anchor_weights`` are the training weights; they are not needed for
    prediction and may be None on deserialized models.
    """

    alpha: np.ndarray
    anchors: np.ndarray
    kernel: Kernel
    loss: SmoothLoss
    lam: float
    region_id: Union[int, str] = "global"
    anchor_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        anchors = np.asarray(self.anchors, dtype=float)
        if anchors.size == 0:
            anchors = anchors.reshape(0, self.kernel.input_dim)
        object.__setattr__(self, "anchors", as_points(anchors))
        if self.alpha.shape[0] != self.anchors.shape[0]:
            raise InputError("alpha and anchors must have equal length")

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    def predict(self, X) -> np.ndarray:
        """Evaluate the expansion at the rows of X, one row chunk at a time,
        so the full cross-kernel matrix is never held."""
        X = as_points(X)
        if self.n_anchors == 0:
            return np.zeros(X.shape[0])
        rows = chunk_rows(self.n_anchors)
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], rows):
            K = self.kernel.matrix(X[start:start + rows], self.anchors)
            out[start:start + rows] = K @ self.alpha
        return out

    def predict_one(self, x) -> float:
        return float(self.predict(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def h_norm(self) -> float:
        """RKHS norm sqrt(alpha' G alpha) over the anchor Gram matrix."""
        if self.n_anchors == 0:
            return 0.0
        G = self.kernel.gram(self.anchors)
        return float(np.sqrt(max(0.0, float(self.alpha @ (G @ self.alpha)))))

    def h_norm_bound(self, k_sup: float) -> float:
        """The a-priori bound lam^-1 |L|_1 ||k||_inf on the H-norm."""
        return float(self.loss.lipschitz) * k_sup / self.lam

    @classmethod
    def zero(cls, kernel: Kernel, loss: SmoothLoss, lam: float,
             region_id: Union[int, str]) -> "LocalModel":
        """The zero function, used for null-measure regions."""
        return cls(alpha=np.zeros(0), anchors=np.zeros((0, kernel.input_dim)),
                   kernel=kernel, loss=loss, lam=lam, region_id=region_id,
                   anchor_weights=np.zeros(0))

    def to_dict(self) -> dict:
        return {
            "region_id": self.region_id,
            "lambda": self.lam,
            "kernel": self.kernel.to_dict(),
            "loss": self.loss.name,
            "anchors": self.anchors.tolist(),
            "alpha": self.alpha.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LocalModel":
        kernel = kernel_from_dict(d["kernel"])
        anchors = np.asarray(d["anchors"], dtype=float)
        if anchors.size == 0:
            anchors = np.zeros((0, kernel.input_dim))
        return cls(alpha=np.asarray(d["alpha"], dtype=float),
                   anchors=anchors,
                   kernel=kernel,
                   loss=loss_from_name(d["loss"]),
                   lam=float(d["lambda"]),
                   region_id=d["region_id"])


def objective(alpha, sample: WeightedSample, kernel: Kernel, loss: SmoothLoss,
              cfg: TrainConfig, shifted: bool = True) -> float:
    """Objective value at a coefficient vector anchored at the sample points."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != sample.n:
        raise InputError("alpha length must equal the sample size")
    K = kernel.gram(sample.X)
    f = K @ alpha
    vals = loss.shifted_value(sample.y, f) if shifted else loss.value(sample.y, f)
    return float(sample.weights @ vals + cfg.lam * (alpha @ f))


def _loss_terms(loss, y, f, shifted):
    return loss.shifted_value(y, f) if shifted else loss.value(y, f)


def train(sample: WeightedSample, kernel: Kernel, loss: SmoothLoss,
          cfg: TrainConfig, warm_start: Optional[np.ndarray] = None,
          shifted: bool = True, region_id: Union[int, str] = "global") -> LocalModel:
    """Damped Newton minimization of the (shifted) regularized risk.

    Deterministic: identical inputs give bitwise-identical coefficients.
    Raises ConvergenceError (with the best iterate attached) if the gradient
    tolerance is not reached within ``cfg.max_iter`` iterations.
    """
    K = kernel.gram(sample.X)
    y, w, lam = sample.y, sample.weights, cfg.lam
    n = sample.n

    if warm_start is not None:
        alpha = np.asarray(warm_start, dtype=float).copy()
        if alpha.shape[0] != n:
            raise InputError("warm start length must equal the sample size")
    else:
        alpha = np.zeros(n)

    f = K @ alpha
    best_alpha, best_gnorm = alpha.copy(), np.inf
    for _ in range(cfg.max_iter):
        grad = K @ (w * loss.dt(y, f) + 2.0 * lam * alpha)
        gnorm = float(np.max(np.abs(grad))) if n else 0.0
        if gnorm < best_gnorm:
            best_alpha, best_gnorm = alpha.copy(), gnorm
        if gnorm <= cfg.grad_tol:
            return LocalModel(alpha=alpha, anchors=sample.X, kernel=kernel,
                              loss=loss, lam=lam, region_id=region_id,
                              anchor_weights=sample.weights)

        D = w * loss.dtt(y, f)
        H = K @ (D[:, None] * K) + 2.0 * lam * K
        ridge = cfg.ridge * float(np.trace(H))
        H[np.diag_indices_from(H)] += ridge
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        descent = float(grad @ step)
        if not descent < 0:
            step = -grad
            descent = float(grad @ step)
            if not descent < 0:  # grad == 0 exactly
                return LocalModel(alpha=alpha, anchors=sample.X, kernel=kernel,
                                  loss=loss, lam=lam, region_id=region_id,
                                  anchor_weights=sample.weights)

        Ks = K @ step
        if gnorm <= _FULL_STEP_GNORM:
            t = 1.0
        else:
            # backtracking line search on the objective (Armijo, c = 1e-4)
            J0 = float(w @ _loss_terms(loss, y, f, shifted) + lam * (alpha @ f))
            aKs = float(alpha @ Ks)
            sKs = float(step @ Ks)
            t = 1.0
            while t >= _MIN_STEP:
                f_try = f + t * Ks
                J_try = float(w @ _loss_terms(loss, y, f_try, shifted)
                              + lam * (alpha @ f + 2.0 * t * aKs + t * t * sKs))
                if J_try <= J0 + ARMIJO_C * t * descent:
                    break
                t *= 0.5
        alpha = alpha + t * step
        f = f + t * Ks

    grad = K @ (w * loss.dt(y, f) + 2.0 * lam * alpha)
    gnorm = float(np.max(np.abs(grad)))
    if gnorm <= cfg.grad_tol:
        return LocalModel(alpha=alpha, anchors=sample.X, kernel=kernel,
                          loss=loss, lam=lam, region_id=region_id,
                          anchor_weights=sample.weights)
    if gnorm < best_gnorm:
        best_alpha, best_gnorm = alpha, gnorm
    raise ConvergenceError(
        f"no convergence after {cfg.max_iter} iterations "
        f"(grad norm {best_gnorm:.3e} > tol {cfg.grad_tol:.3e})",
        best_alpha=best_alpha, grad_norm=best_gnorm, iterations=cfg.max_iter)


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


def audit_model_bounds(model: LocalModel, probes, k_sup: float = None,
                       sup_slack: float = 1e-12, h_slack: float = 1e-9) -> ModelBoundCheck:
    """Check |f(x)| <= ||f||_H ||k||_inf on probes and ||f||_H <= lam^-1 |L|_1 ||k||_inf.

    ``k_sup`` defaults to the empirical sup of sqrt(k(x, x)) over probes and
    anchors (exact 1 for Gaussian RBF).
    """
    probes = as_points(probes)
    if k_sup is None:
        if model.kernel.family == "gaussian-rbf":
            k_sup = 1.0
        else:
            pts = probes if model.n_anchors == 0 else np.vstack([probes, model.anchors])
            k_sup = float(np.sqrt(np.maximum(model.kernel.diag(pts), 0.0)).max())
    h = model.h_norm()
    sup_f = float(np.max(np.abs(model.predict(probes)))) if probes.shape[0] else 0.0
    cap = float(model.loss.lipschitz) * k_sup / model.lam
    return ModelBoundCheck(
        sup_abs_f=sup_f, h_norm=h, k_sup=k_sup, h_norm_cap=cap,
        sup_bound_ok=bool(sup_f <= h * k_sup + sup_slack),
        h_norm_ok=bool(h <= cap + h_slack),
    )
