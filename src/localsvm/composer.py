"""Per-region training and the weighted composition of local predictors."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .data import WeightedSample, as_points
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


def active_rows(W: np.ndarray) -> list:
    """Per region b = 1..B, the rows of the (n, B) weight matrix W with
    w_b != 0 and their weights: (rows, W[rows, b - 1])."""
    active = []
    for w in W.T:
        rows = np.nonzero(w != 0.0)[0]
        active.append((rows, w[rows]))
    return active


def compose(W: np.ndarray, local_predict, active=None) -> np.ndarray:
    """sum_b w_b(x) f_b(x) over the rows of the (n, B) weight matrix W.

    ``local_predict(b, rows)`` gives f_b at the rows of W that the index
    array ``rows`` names, in order: those with w_b != 0. ``active`` is
    ``active_rows(W)``, for callers that compose over one W many times.
    The terms are summed in region order. Every weighted sum of local
    predictors goes through here: the composed model, the consistency
    trend and the audit.
    """
    out = np.zeros(W.shape[0])
    for b, (rows, w) in enumerate(active_rows(W) if active is None else active,
                                  start=1):
        if rows.size:
            out[rows] += w * local_predict(b, rows)
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
        for b, local in self.locals.items():
            dim = scheme.partition.region(b).center.size
            if {local.kernel.input_dim, local.anchors.shape[1]} != {dim}:
                raise InputError(
                    f"region {b} is {dim}-d, but its local model's kernel takes "
                    f"{local.kernel.input_dim}-d points and its anchors are "
                    f"{local.anchors.shape[1]}-d")

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
    is more than one task; results keep the order of ``tasks``. The pool
    is imported here, so a serial run never loads it (nor ``logging``)."""
    if threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _fit_one(data, partition, config, b):
    sample_b = restrict(data, partition.region(b))
    if sample_b is None:
        return LocalModel.zero(config.kernel_for(b), config.loss,
                               config.lam_for(b), b)
    return train(sample_b, config.kernel_for(b), config.loss,
                 config.train_for(b), region_id=b)


def fit_composed(data: WeightedSample, scheme: WeightScheme,
                 config: ModelConfig, threads: int = 1) -> ComposedModel:
    """Train one local model per region of the scheme and compose them.

    Region b trains on the data conditioned on its ball (``restrict``).
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


def empirical_risk(predictor, data: WeightedSample, loss: SmoothLoss) -> float:
    """Loss of a predictor integrated against the measure ``data``: the
    weighted mean sum_i w_i L(y_i, f(x_i)).

    ``predictor`` is anything with .predict, or a plain array of
    precomputed predictions aligned with ``data``.
    """
    if hasattr(predictor, "predict"):
        preds = predictor.predict(data.X)
    else:
        preds = np.asarray(predictor, dtype=float)
        if preds.shape[0] != data.n:
            raise InputError("predictions and sample lengths differ")
    return float(data.weights @ loss.value(data.y, preds))
