"""Per-region training and the weighted composition of local predictors."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .data import WeightedSample, as_points
from .errors import InputError
from .kernels import Kernel, kernel_from_dict
from .losses import SmoothLoss, loss_from_name
from .regions import (RegionPartition, RegionPredicate, WeightScheme,
                      regional_measures)
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


def compose(weights, n: int, local_predict) -> np.ndarray:
    """sum_b w_b(x) f_b(x) over n rows, from the per-region ``(rows, w)``
    pairs of ``WeightScheme.weights_many``.

    ``local_predict(b, rows)`` gives f_b at the rows that the index array
    ``rows`` names, in order: region b's rows, outside which w_b = 0. The
    terms are summed in region order. Every weighted sum of local
    predictors goes through here: the composed model, the consistency
    trend and the audit.
    """
    out = np.zeros(n)
    for b, (rows, w) in enumerate(weights, start=1):
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
        weights, covered = self.scheme.weights_many(X)
        preds = compose(weights, len(X),
                        lambda b, rows: self.locals[b].predict(X[rows]))
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
        """The model ``to_dict`` wrote. ``d`` has passed
        ``config.MODEL_SCHEMA`` (``config.load_model`` checks it), so every
        key is present with its type; the constructors check the values,
        and ``null_region_ids`` must name the locals without anchors."""
        part, scheme = d["partition"], d["scheme"]
        partition = RegionPartition(
            [RegionPredicate(r["center"], r["radius"], int(r["id"]))
             for r in part["regions"]], part["tau"])
        locals_by_region = {int(e["region_id"]): LocalModel(
            alpha=e["alpha"], anchors=e["anchors"],
            kernel=kernel_from_dict(e["kernel"]), loss=loss_from_name(e["loss"]),
            lam=e["lambda"], region_id=int(e["region_id"]))
            for e in d["locals"]}
        if len(locals_by_region) < len(d["locals"]):
            raise InputError("locals name a region more than once")
        model = cls(locals_by_region,
                    WeightScheme(scheme["kind"], partition, scheme["h"]))
        if d["null_region_ids"] != sorted(model.null_region_ids):
            raise InputError(f"null_region_ids {d['null_region_ids']} are not the "
                             "regions without anchors, "
                             f"{sorted(model.null_region_ids)}")
        return model


def _map_tasks(fn, tasks, threads: int) -> list:
    """[fn(t) for t in tasks], in a pool of ``threads`` threads when there
    is more than one task; results keep the order of ``tasks``. The pool
    is imported here, so a serial run never loads it (nor ``logging``)."""
    if threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _fit_one(b, sample_b, config):
    if sample_b is None:
        return LocalModel.zero(config.kernel_for(b), config.loss,
                               config.lam_for(b), b)
    return train(sample_b, config.kernel_for(b), config.loss,
                 config.train_for(b), region_id=b)


def fit_composed(data: WeightedSample, scheme: WeightScheme,
                 config: ModelConfig, threads: int = 1) -> ComposedModel:
    """Train one local model per region of the scheme and compose them.

    Region b trains on the data conditioned on its ball, from one ball
    test of the data (``regional_measures``). Null-measure regions (no
    training points inside the ball) receive the zero function, which has
    no anchors. Region trainings are independent; ``threads > 1`` runs
    them in a thread pool with a deterministic, id-ordered reduction.
    """
    tasks = list(enumerate(regional_measures(scheme.partition, data), 1))
    models = _map_tasks(lambda task: _fit_one(*task, config), tasks, threads)
    return ComposedModel(dict(enumerate(models, 1)), scheme)


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
