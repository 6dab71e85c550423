"""Samples and discrete (weighted) empirical measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

WEIGHT_TOL = 1e-12


def as_points(X) -> np.ndarray:
    """Coerce to a float64 (n, d) array; 1-d input is treated as n points in R^1.
    Ragged rows, or entries that are not numbers, are an InputError."""
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"points must form a 2-d array of numbers: {exc}") from None
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InputError(f"points must form a 2-d array, got shape {X.shape}")
    return X


def _reject_non_finite(what: str, X: np.ndarray, *columns) -> None:
    """InputError naming the first row of X, or of the aligned 1-d columns,
    that holds a nan or inf."""
    bad = ~np.isfinite(X).all(axis=1)
    for column in columns:
        bad |= ~np.isfinite(column)
    if bad.any():
        raise InputError(f"{what} {int(np.argmax(bad))} has a non-finite value "
                         "(nan or inf)")


def as_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InputError(f"labels must form a 1-d array, got shape {y.shape}")
    return y


@dataclass(frozen=True)
class WeightedSample:
    """Discrete probability measure on (x, y) atoms.

    A sample of data is its empirical measure, uniform weights 1/n
    (``uniform``); non-uniform weights represent mixtures such as
    (1 - eps) * D + eps * delta_z, or a sample with repeated points.
    """

    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", as_points(self.X))
        object.__setattr__(self, "y", as_labels(self.y))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        n = self.X.shape[0]
        if n == 0:
            raise InputError("a weighted sample must contain at least one atom")
        if self.y.shape[0] != n or w.shape[0] != n:
            raise InputError("points, labels and weights must have equal length")
        _reject_non_finite("weighted sample atom", self.X, self.y, w)
        if np.any(w < 0):
            raise InputError("negative weights are not a probability measure")
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InputError(f"weights sum to {total!r}, expected 1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate (lo, hi) of the atoms' inputs."""
        return self.X.min(axis=0), self.X.max(axis=0)

    @classmethod
    def uniform(cls, X, y) -> "WeightedSample":
        """The empirical measure of the sample (X, y): weight 1/n per point."""
        X = as_points(X)
        return cls(X, y, np.ones(X.shape[0]) / X.shape[0])

    @classmethod
    def dirac(cls, x, y: float) -> "WeightedSample":
        """The one-atom measure delta_z at the point z = (x, y)."""
        return cls(np.asarray(x, dtype=float).reshape(1, -1),
                   np.array([float(y)]), np.ones(1))

    def atom_mass(self, x, y: float) -> float:
        """Total weight of atoms exactly equal to (x, y)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise InputError(f"atom has dim {x.shape[0]}, sample has dim {self.dim}")
        hits = np.all(self.X == x, axis=1) & (self.y == float(y))
        return float(self.weights[hits].sum())
