"""Positive-definite kernels, Gram matrices and region-restricted sup-norms.

All shipped families are continuous and bounded on bounded sets; the
Gaussian RBF family is bounded globally with sup_x sqrt(k(x, x)) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_points
from .errors import InputError, InsufficientDataError

# entries per chunk when forming cross-kernel matrices, keeps memory flat
_CHUNK_BUDGET = 4_000_000


def chunk_rows(m: int) -> int:
    """Rows per chunk so that a chunk against m columns stays within budget."""
    return max(1, _CHUNK_BUDGET // max(1, m))


class Kernel:
    """Base class; subclasses implement ``_cross`` on (n, d) x (m, d) arrays."""

    input_dim: int
    family: str = "abstract"
    continuous: bool = True  # all shipped families; audits note exceptions

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = as_points(X)
        if X.shape[1] != self.input_dim:
            raise InputError(
                f"kernel expects dim {self.input_dim}, got {X.shape[1]}"
            )
        return X

    def _cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, x, xp) -> float:
        """Evaluate k(x, x') for two single points."""
        X = self._check(np.atleast_2d(np.asarray(x, dtype=float)))
        Z = self._check(np.atleast_2d(np.asarray(xp, dtype=float)))
        if X.shape[0] != 1 or Z.shape[0] != 1:
            raise InputError("eval takes single points; use matrix() for batches")
        return float(self._cross(X, Z)[0, 0])

    def matrix(self, X, Z) -> np.ndarray:
        """Cross-kernel matrix K[i, j] = k(X[i], Z[j]), chunked over rows."""
        X = self._check(X)
        Z = self._check(Z)
        if Z.shape[0] == 0 or X.shape[0] == 0:
            return np.zeros((X.shape[0], Z.shape[0]))
        rows = chunk_rows(Z.shape[0])
        if X.shape[0] <= rows:
            return self._cross(X, Z)
        out = np.empty((X.shape[0], Z.shape[0]))
        for start in range(0, X.shape[0], rows):
            out[start:start + rows] = self._cross(X[start:start + rows], Z)
        return out

    def gram(self, points) -> np.ndarray:
        """Symmetric Gram matrix: the full matrix is computed, then its upper
        triangle is mirrored onto the lower one so symmetry is exact."""
        X = self._check(points)
        if X.shape[0] == 0:
            raise InputError("gram of an empty point list")
        G = self._cross(X, X)
        iu = np.triu_indices(X.shape[0], k=1)
        G[(iu[1], iu[0])] = G[iu]
        return G

    def diag(self, X) -> np.ndarray:
        """Vector of k(x, x) values."""
        X = self._check(X)
        return self._diag(X)

    def _diag(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        d = {"family": self.family, "input_dim": self.input_dim}
        if isinstance(self, GaussianRBF):
            d["gamma"] = self.gamma
        elif isinstance(self, Polynomial):
            d["degree"] = self.degree
            d["offset"] = self.offset
        return d


@dataclass(frozen=True)
class GaussianRBF(Kernel):
    """k(x, x') = exp(-gamma^-2 ||x - x'||_2^2); k(x, x) = 1 exactly."""

    gamma: float
    input_dim: int
    family = "gaussian-rbf"

    def __post_init__(self):
        if not self.gamma > 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")

    def _cross(self, X, Z):
        # direct differences, one coordinate at a time into one (n, m) buffer:
        # exactly symmetric, exactly 1 on the diagonal, no (n, m, d) temporary
        d2 = np.subtract.outer(X[:, 0], Z[:, 0])
        np.square(d2, out=d2)
        if X.shape[1] > 1:
            diff = np.empty_like(d2)
            for j in range(1, X.shape[1]):
                np.subtract.outer(X[:, j], Z[:, j], out=diff)
                np.square(diff, out=diff)
                d2 += diff
        np.negative(d2, out=d2)
        d2 /= self.gamma**2
        return np.exp(d2, out=d2)

    def _diag(self, X):
        return np.ones(X.shape[0])


@dataclass(frozen=True)
class Linear(Kernel):
    """k(x, x') = <x, x'>."""

    input_dim: int
    family = "linear"

    def _cross(self, X, Z):
        return X @ Z.T

    def _diag(self, X):
        return (X * X).sum(axis=1)


@dataclass(frozen=True)
class Polynomial(Kernel):
    """k(x, x') = (<x, x'> + offset)^degree."""

    degree: int
    offset: float
    input_dim: int
    family = "polynomial"

    def __post_init__(self):
        if not (isinstance(self.degree, int) and self.degree >= 1):
            raise InputError(f"degree must be a positive integer, got {self.degree}")
        if self.offset < 0:
            raise InputError(f"offset must be nonnegative, got {self.offset}")

    def _cross(self, X, Z):
        return (X @ Z.T + self.offset) ** self.degree

    def _diag(self, X):
        return ((X * X).sum(axis=1) + self.offset) ** self.degree


def kernel_from_dict(d: dict) -> Kernel:
    """Build a kernel from its JSON/config form."""
    family = d.get("family")
    dim = int(d.get("input_dim", 0))
    if dim < 1:
        raise InputError(f"kernel input_dim must be positive, got {d.get('input_dim')}")
    if family == "gaussian-rbf":
        return GaussianRBF(gamma=float(d["gamma"]), input_dim=dim)
    if family == "linear":
        return Linear(input_dim=dim)
    if family == "polynomial":
        return Polynomial(degree=int(d["degree"]), offset=float(d.get("offset", 0.0)),
                          input_dim=dim)
    raise InputError(f"unknown kernel family {family!r}")


METHOD_EXACT = "exact"
METHOD_EMPIRICAL = "empirical-sup"


@dataclass(frozen=True)
class KernelSupNorm:
    """sup over a region of sqrt(k(x, x)).

    ``empirical-sup`` values are maxima over probe points and therefore lower
    bounds of the true sup; reports must flag bounds computed from them as
    possibly underestimated.
    """

    value: float
    region_id: int
    method: str

    @property
    def is_exact(self) -> bool:
        return self.method == METHOD_EXACT


def sup_norm_on_region(kernel: Kernel, region, probes=None) -> KernelSupNorm:
    """Region sup-norm of a kernel.

    Exact for families with constant sqrt(k(x, x)) (Gaussian RBF). Otherwise
    an empirical sup over the probe points that fall inside the region.
    """
    region_id = getattr(region, "id", 0)
    if isinstance(kernel, GaussianRBF):
        return KernelSupNorm(1.0, region_id, METHOD_EXACT)
    if probes is None or len(probes) == 0:
        raise InsufficientDataError(
            f"kernel family {kernel.family!r} has no exact region sup-norm; "
            "probe points are required"
        )
    P = as_points(probes)
    if region is not None and hasattr(region, "contains_many"):
        inside = region.contains_many(P)
        P = P[inside]
        if P.shape[0] == 0:
            raise InsufficientDataError(
                f"no probes inside region {region_id}; cannot estimate kernel sup-norm"
            )
    vals = np.sqrt(np.maximum(kernel.diag(P), 0.0))
    return KernelSupNorm(float(vals.max()), region_id, METHOD_EMPIRICAL)
