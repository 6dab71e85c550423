"""Samples and discrete (weighted) empirical measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

WEIGHT_TOL = 1e-12


def as_points(X) -> np.ndarray:
    """Coerce to a float64 (n, d) array; 1-d input is treated as n points in R^1."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InputError(f"points must form a 2-d array, got shape {X.shape}")
    return X


def as_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise InputError(f"labels must form a 1-d array, got shape {y.shape}")
    return y


@dataclass(frozen=True)
class Dataset:
    """A plain sample of (x, y) pairs."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", as_points(self.X))
        object.__setattr__(self, "y", as_labels(self.y))
        if self.X.shape[0] != self.y.shape[0]:
            raise InputError(
                f"{self.X.shape[0]} points but {self.y.shape[0]} labels"
            )
        bad = ~(np.isfinite(self.X).all(axis=1) & np.isfinite(self.y))
        if bad.any():
            raise InputError(
                f"dataset row {int(np.argmax(bad))} has a non-finite value "
                "(nan or inf)"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate (lo, hi) of the inputs."""
        if self.n == 0:
            raise InputError("empty dataset has no bounding box")
        return self.X.min(axis=0), self.X.max(axis=0)


@dataclass(frozen=True)
class WeightedSample:
    """Discrete probability measure on (x, y) atoms.

    Uniform weights 1/n recover the usual empirical measure; non-uniform
    weights represent mixtures such as (1 - eps) * D + eps * delta_z.
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

    @classmethod
    def from_dataset(cls, data: Dataset) -> "WeightedSample":
        n = data.n
        if n == 0:
            raise InputError("cannot build an empirical measure from an empty sample")
        return cls(data.X, data.y, np.full(n, 1.0 / n))

    def atom_mass(self, x, y: float) -> float:
        """Total weight of atoms exactly equal to (x, y)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise InputError(f"atom has dim {x.shape[0]}, sample has dim {self.dim}")
        hits = np.all(self.X == x, axis=1) & (self.y == float(y))
        return float(self.weights[hits].sum())
