import numpy as np
import pytest

from localsvm import (Dataset, GaussianRBF, LogisticRegression, ModelConfig,
                      RegionPartition, RegionPredicate, TrainConfig,
                      WeightedSample, WeightScheme)


def two_blobs(n_per=20, gap=8.0, seed=0):
    """Two well-separated 2-d clusters with regression labels."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n_per, 2))
    b = rng.normal(gap, 0.5, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.sin(X.sum(axis=1)) + 0.1 * rng.standard_normal(2 * n_per)
    return Dataset(X, y)


def random_sample(n, dim=2, seed=0, classification=False):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    if classification:
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    else:
        y = rng.uniform(-1.5, 1.5, size=n)
    return WeightedSample(X, y, np.full(n, 1.0 / n))


def manual_partition(centers, radii, tau=0.0):
    regions = [RegionPredicate(center=np.asarray(c, dtype=float),
                               radius=float(r), id=i + 1)
               for i, (c, r) in enumerate(zip(centers, radii))]
    return RegionPartition(regions, tau=tau)


@pytest.fixture
def gauss2():
    return GaussianRBF(gamma=1.0, input_dim=2)


@pytest.fixture
def basic_config(gauss2):
    return ModelConfig(loss=LogisticRegression(), kernel=gauss2,
                       train=TrainConfig(lam=0.5))
