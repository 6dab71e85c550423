"""Overlapping ball regions from seeded k-means, weight schemes, restriction.

Regions are closed Euclidean balls around k-means centers; the ball radius
is (1 + tau) times the largest distance from the center to its assigned
points, so every training point is covered by construction and tau > 0
creates overlap. Clusters smaller than ``min_region_size`` are dissolved
and their points reassigned, shrinking the number of regions.

Weight schemes form a partition of unity over the covered set: weights sum
to one wherever at least one region applies and vanish identically outside
each region. Queries outside all balls fall back to the nearest region;
callers may count those events as coverage violations. The one ball test
is ``RegionPartition.members``; ``restrict`` conditions on its row lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import WeightedSample, as_points
from .errors import InputError

KIND_INDICATOR = "normalized-indicator"
KIND_BUMP = "smooth-bump"
_KINDS = (KIND_INDICATOR, KIND_BUMP)


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from the rows of X to the k rows of
    ``centers``, the one formula of every ball test, radius, k-means
    distance and bump weight, so boundary points compare bitwise-equal.
    numpy adds fewer than 8 terms in order, so for d < 8 a sum over one
    coordinate at a time gives the bits of its slow reduction over the
    short axis; from 8 on it sums pairwise, and the reduction stays."""
    if X.shape[1] >= 8:
        return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    d2 = np.square(X[:, :1] - centers[:, 0])
    for j in range(1, X.shape[1]):
        d2 += np.square(X[:, j:j + 1] - centers[:, j])
    return d2


def _dist_to(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_dists(X, center[None])[:, 0])


@dataclass(frozen=True)
class RegionPredicate:
    """Closed ball {x : ||x - center|| <= radius} with a 1-based id."""

    center: np.ndarray
    radius: float
    id: int

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1)
        object.__setattr__(self, "center", c)
        if not (np.isfinite(c).all() and np.isfinite(self.radius)):
            raise InputError(f"region {self.id} has a non-finite center or "
                             "radius (nan or inf)")
        if self.radius < 0:
            raise InputError(f"radius must be nonnegative, got {self.radius}")

    def _dist(self, X) -> np.ndarray:
        """Distance from each row of X to the center; every ball test goes
        through here, so points of another dimension are an InputError
        instead of a silent broadcast."""
        X = as_points(X)
        if X.shape[1] != self.center.size:
            raise InputError(f"region {self.id} is {self.center.size}-d, got "
                             f"points of dimension {X.shape[1]}")
        return _dist_to(X, self.center)

    def contains_many(self, X) -> np.ndarray:
        return self._dist(X) <= self.radius

    def gap(self, X) -> np.ndarray:
        """Distance from each row of X to the ball (0 inside)."""
        return np.maximum(0.0, self._dist(X) - self.radius)

    def to_dict(self) -> dict:
        return {"id": self.id, "center": self.center.tolist(),
                "radius": self.radius}


class RegionPartition:
    """A finite list of ball regions covering the training points."""

    def __init__(self, regions, tau: float):
        self.regions = tuple(regions)
        self.tau = float(tau)
        ids = [r.id for r in self.regions]
        if ids != list(range(1, self.B + 1)):
            raise InputError(f"region ids must be 1..B, got {ids}")
        dims = sorted({r.center.size for r in self.regions})
        if len(dims) > 1:
            raise InputError(f"regions must share one dimension, got {dims}")

    @property
    def B(self) -> int:
        return len(self.regions)

    def members(self, X) -> list:
        """Per region b = 1..B, the sorted indices of the rows of X inside
        its ball."""
        X = as_points(X)
        return [np.flatnonzero(r.contains_many(X)) for r in self.regions]

    def nearest_region_index(self, X) -> np.ndarray:
        """0-based index of the closest ball (ties to the lowest id)."""
        X = as_points(X)
        gaps = np.column_stack([r.gap(X) for r in self.regions])
        return gaps.argmin(axis=1)

    def region(self, region_id: int) -> RegionPredicate:
        if not 1 <= region_id <= self.B:  # id 0 would index from the end
            raise InputError(f"no region with id {region_id}")
        return self.regions[region_id - 1]

    def to_dict(self) -> dict:
        return {
            "regions": [r.to_dict() for r in self.regions],
            "tau": self.tau,
        }


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _sq_dists(X, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:  # all points coincide with chosen centers
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        probs = d2 / total
        centers[j] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, _sq_dists(X, centers[j:j + 1])[:, 0])
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray, max_iter: int = 100):
    assign = None
    for _ in range(max_iter):
        d2 = _sq_dists(X, centers)
        new_assign = d2.argmin(axis=1)  # argmin ties resolve to the lowest id
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(centers.shape[0]):
            mask = assign == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                # re-seat an emptied cluster at the point farthest from its
                # current assignment's center (deterministic)
                far = d2[np.arange(X.shape[0]), assign].argmax()
                centers[j] = X[far]
    return centers, assign


def regionalize(points, b_target: int, tau: float = 0.0,
                min_region_size: int = 1, seed: int = 0) -> RegionPartition:
    """Seeded k-means ball partition with (1 + tau) radius inflation.

    Produces at most ``b_target`` regions; clusters smaller than
    ``min_region_size`` are dissolved (their points reassigned to the
    nearest surviving center), so the returned B may be smaller.
    """
    X = as_points(points)
    n = X.shape[0]
    if b_target < 1:
        raise InputError(f"b_target must be >= 1, got {b_target}")
    if min_region_size < 1:
        raise InputError(f"min_region_size must be >= 1, got {min_region_size}")
    if not tau >= 0:  # also rejects NaN, for which tau < 0 is false
        raise InputError(f"tau must be >= 0, got {tau}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if n < b_target * min_region_size:
        raise InputError(
            f"{n} points cannot fill {b_target} regions of size >= {min_region_size}"
        )

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(X, b_target, rng)
    centers, assign = _lloyd(X, centers)

    # dissolve undersized clusters, smallest first (ties to the lowest index)
    while centers.shape[0] > 1:
        counts = np.bincount(assign, minlength=centers.shape[0])
        small = np.where(counts < min_region_size)[0]
        if small.size == 0:
            break
        drop = small[counts[small].argsort(kind="stable")][0]
        centers = np.delete(centers, drop, axis=0)
        assign = _sq_dists(X, centers).argmin(axis=1)

    regions = []
    for j in range(centers.shape[0]):
        mask = assign == j
        r = float(_dist_to(X[mask], centers[j]).max()) if mask.any() else 0.0
        regions.append(RegionPredicate(center=centers[j],
                                       radius=(1.0 + tau) * r, id=j + 1))
    return RegionPartition(regions, tau=tau)


class WeightScheme:
    """Pointwise convex weights over the regions of a partition.

    normalized-indicator: w_b(x) = 1[x in X_b] / #(containing regions).
    smooth-bump:          w_b(x) proportional to 1[x in X_b] exp(-d(x,c_b)^2/h^2).

    Both satisfy: weights sum to 1 wherever some region contains x, and
    w_b(x) = 0 exactly for x outside region b.
    """

    def __init__(self, kind: str, partition: RegionPartition,
                 h: Optional[float] = None):
        if kind not in _KINDS:
            raise InputError(f"unknown weight scheme {kind!r}; expected {_KINDS}")
        if kind == KIND_INDICATOR and h is not None:
            raise InputError(f"{KIND_INDICATOR} takes no bandwidth, got h={h}")
        if kind == KIND_BUMP and (h is None or not h > 0):
            raise InputError(f"smooth-bump needs a positive bandwidth, got {h}")
        if kind == KIND_BUMP and h * h == 0.0:
            raise InputError(f"smooth-bump bandwidth h={h} squares to 0: its weights "
                             "would be 0/0 at the ball centers")
        self.kind = kind
        self.partition = partition
        self.h = None if h is None else float(h)

    @property
    def B(self) -> int:
        return self.partition.B

    def weights_many(self, X):
        """Per region b = 1..B, the rows of X in its ball and their weights,
        [(rows_b, w_b)], and the boolean covered mask.

        An uncovered row (False in the mask) joins its nearest region's
        rows with weight 1.
        """
        X = as_points(X)
        rows = self.partition.members(X)
        count = np.zeros(X.shape[0])  # of the regions that hold each row
        for r in rows:
            count[r] += 1.0
        covered = count > 0.0
        if not covered.all():
            lost = np.flatnonzero(~covered)
            nearest = self.partition.nearest_region_index(X[lost])
            rows = [np.union1d(r, lost[nearest == j]) for j, r in enumerate(rows)]
            count[lost] = 1.0
        if self.kind == KIND_INDICATOR:
            return [(r, 1.0 / count[r]) for r in rows], covered
        centers = np.stack([r.center for r in self.partition.regions])
        s = np.exp(-_sq_dists(X, centers) / self.h**2)
        raw = np.zeros_like(s)
        for j, r in enumerate(rows):
            raw[r, j] = s[r, j]
        # the total is numpy's sum over the short region axis of the
        # C-contiguous (n, B) matrix; a sum in another order changes bits
        total = raw.sum(axis=1)
        dead = total == 0.0  # every bump underflows: indicator weights
        if dead.any():
            for j, r in enumerate(rows):
                raw[r[dead[r]], j] = 1.0
            total[dead] = count[dead]
        return [(r, raw[r, j] / total[r]) for j, r in enumerate(rows)], covered

    def to_dict(self) -> dict:
        return {"kind": self.kind, "h": self.h}


def weight_sup_norm(scheme: WeightScheme, region_id: int) -> float:
    """Certified bound 1 of sup_x w_b(x) over region b.

    Both schemes give weights in [0, 1]. A maximum of w_b over sample
    points would only be a lower bound of the sup, and a certificate
    built on it could be too small.
    """
    scheme.partition.region(region_id)  # InputError for an unknown id
    return 1.0


def restrict(measure: WeightedSample, rows) -> Optional[WeightedSample]:
    """The measure conditioned on a region: its atoms at ``rows``, the
    sorted indices ``RegionPartition.members`` lists for the region, with
    weights w[rows] / w[rows].sum(). The one regional restriction, of the
    data (D_b) and of a contamination (Q_b) alike; it makes no ball test.
    Returns None (the null-measure marker) when those atoms carry no mass.
    """
    weights = measure.weights[rows]
    top = weights.max(initial=0.0)
    if top <= 0.0:
        return None
    # scaled by the largest weight first, so that equal weights condition
    # to exactly 1/n_b, the uniform measure on the n_b atoms in the ball
    weights = weights / top
    return WeightedSample(measure.X[rows], measure.y[rows],
                          weights / weights.sum())


def regional_measures(partition: RegionPartition, measure: WeightedSample) -> list:
    """Per region b = 1..B, the measure conditioned on ball b, or None when
    the ball holds no atom: one ball test of the atoms decides every region."""
    return [restrict(measure, rows) if rows.size else None
            for rows in partition.members(measure.X)]
