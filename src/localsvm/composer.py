"""Per-region training and the weighted composition of local predictors."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .data import Dataset, as_points
from .errors import InputError
from .kernels import Kernel
from .losses import SmoothLoss
from .regions import RegionPartition, WeightScheme, restrict
from .solver import LocalModel, TrainConfig, train


@dataclass(frozen=True)
class ModelConfig:
    """Shared loss plus per-region kernel/lambda choices.

    ``kernel`` and ``train`` are the defaults; ``region_kernels`` and
    ``region_lambdas`` override them for individual region ids. Different
    kernels and regularization per region are first-class.
    """

    loss: SmoothLoss
    kernel: Kernel
    train: TrainConfig
    region_kernels: Mapping[int, Kernel] = field(default_factory=dict)
    region_lambdas: Mapping[int, float] = field(default_factory=dict)

    def kernel_for(self, region_id: int) -> Kernel:
        return self.region_kernels.get(region_id, self.kernel)

    def train_for(self, region_id: int) -> TrainConfig:
        lam = self.region_lambdas.get(region_id)
        return self.train if lam is None else replace(self.train, lam=lam)

    def lam_for(self, region_id: int) -> float:
        return self.train_for(region_id).lam


def compose(W: np.ndarray, local_predict) -> np.ndarray:
    """sum_b w_b(x) f_b(x) over the rows of the (n, B) weight matrix W.

    ``local_predict(b, rows)`` gives f_b at the rows of W that the index
    array ``rows`` names, in order: those with w_b != 0. The terms are
    summed in region order. Every weighted sum of local predictors goes
    through here: the composed model, the consistency trend and the audit.
    """
    out = np.zeros(W.shape[0])
    for b, w in enumerate(W.T, start=1):
        rows = np.nonzero(w != 0.0)[0]
        if rows.size:
            out[rows] += w[rows] * local_predict(b, rows)
    return out


class ComposedModel:
    """f_comp(x) = sum_b w_b(x) f_b(x) over the scheme's regions."""

    def __init__(self, locals_by_region: Mapping[int, LocalModel],
                 scheme: WeightScheme):
        self.locals = dict(sorted(locals_by_region.items()))
        self.scheme = scheme
        B = scheme.partition.B
        if sorted(self.locals) != list(range(1, B + 1)):
            raise InputError(
                f"need one local model per region 1..{B}, got ids {sorted(self.locals)}"
            )

    @property
    def partition(self) -> RegionPartition:
        return self.scheme.partition

    @property
    def null_region_ids(self) -> frozenset:
        """The null-measure regions: those whose local model has no anchors."""
        return frozenset(b for b, m in self.locals.items() if m.n_anchors == 0)

    def predict_with_coverage(self, X):
        """Predictions and the covered mask (False rows used nearest fallback)."""
        X = as_points(X)
        W, covered = self.scheme.weights_many(X)
        preds = compose(W, lambda b, rows: self.locals[b].predict(X[rows]))
        return preds, covered

    def predict(self, X) -> np.ndarray:
        return self.predict_with_coverage(X)[0]

    def to_dict(self) -> dict:
        return {
            "partition": self.partition.to_dict(),
            "scheme": self.scheme.to_dict(),
            "locals": [self.locals[b].to_dict() for b in sorted(self.locals)],
            "null_region_ids": sorted(self.null_region_ids),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ComposedModel":
        partition = RegionPartition.from_dict(d["partition"])
        scheme = WeightScheme.from_dict(d["scheme"], partition)
        locals_by_region = {}
        for entry in d["locals"]:
            model = LocalModel.from_dict(entry)
            locals_by_region[int(model.region_id)] = model
        return cls(locals_by_region, scheme)


def _map_tasks(fn, tasks, threads: int) -> list:
    """[fn(t) for t in tasks], in a pool of ``threads`` threads when there
    is more than one task; results keep the order of ``tasks``."""
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _fit_one(data, partition, config, b):
    sample_b = restrict(data, partition, b)
    if sample_b is None:
        return LocalModel.zero(config.kernel_for(b), config.loss,
                               config.lam_for(b), b)
    return train(sample_b, config.kernel_for(b), config.loss,
                 config.train_for(b), region_id=b)


def fit_composed(data: Dataset, scheme: WeightScheme, config: ModelConfig,
                 threads: int = 1) -> ComposedModel:
    """Train one local model per region of the scheme and compose them.

    Null-measure regions (no training points inside the ball) receive the
    zero function, which has no anchors. Region trainings are independent;
    ``threads > 1`` runs them in a thread pool with a deterministic,
    id-ordered reduction.
    """
    region_ids = list(range(1, scheme.B + 1))
    models = _map_tasks(lambda b: _fit_one(data, scheme.partition, config, b),
                        region_ids, threads)
    return ComposedModel(dict(zip(region_ids, models)), scheme)


def predict_composed(model: ComposedModel, X) -> np.ndarray:
    """Evaluate the composed predictor at the rows of X."""
    return model.predict(X)


def empirical_risk(predictor, data: Dataset, loss: SmoothLoss) -> float:
    """Mean loss of a predictor over a dataset.

    ``predictor`` is anything with .predict, or a plain array of
    precomputed predictions aligned with ``data``.
    """
    if data.n == 0:
        raise InputError("empirical risk of an empty dataset")
    if hasattr(predictor, "predict"):
        preds = predictor.predict(data.X)
    else:
        preds = np.asarray(predictor, dtype=float)
        if preds.shape[0] != data.n:
            raise InputError("predictions and dataset lengths differ")
    return float(np.mean(loss.value(data.y, preds)))
