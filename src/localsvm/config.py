"""Experiment configuration files: schema validation and object construction.

Configs are single JSON documents with an explicit ``version`` field.
Unknown keys are rejected everywhere; nothing is read from environment
variables, so a config file pins a run completely (up to --seed/--threads
command-line overrides).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

import jsonschema

from .data import Dataset
from .errors import InputError
from .experiments import LambdaSchedule, PartitionConfig, SyntheticTask, generate
from .kernels import kernel_from_dict
from .losses import loss_from_name
from .regions import KIND_BUMP, KIND_INDICATOR
from .solver import TrainConfig

_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": ["gaussian-rbf", "linear", "polynomial"]},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
        "degree": {"type": "integer", "minimum": 1},
        "offset": {"type": "number", "minimum": 0},
    },
    "required": ["family"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "dataset": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {
                        "kind": {"const": "synthetic"},
                        "task": {"enum": ["sine-regression", "two-moons",
                                          "piecewise-regression"]},
                        "n": {"type": "integer", "minimum": 1},
                        "dim": {"type": "integer", "minimum": 1},
                        "noise": {"type": "number", "minimum": 0},
                        "breakpoints": {"type": "array",
                                        "items": {"type": "number"}},
                        "seed": {"type": "integer"},
                    },
                    "required": ["kind", "task", "n"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "kind": {"const": "csv"},
                        "path": {"type": "string"},
                    },
                    "required": ["kind", "path"],
                    "additionalProperties": False,
                },
            ],
        },
        "partition": {
            "type": "object",
            "properties": {
                "b_target": {"type": "integer", "minimum": 1},
                "tau": {"type": "number", "minimum": 0},
                "min_region_size": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
            "required": ["b_target"],
            "additionalProperties": False,
        },
        "scheme": {
            "type": "object",
            "properties": {
                "kind": {"enum": [KIND_INDICATOR, KIND_BUMP]},
                "h": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": {
                "loss": {"enum": ["logistic-classification", "logistic-regression"]},
                "kernel": _KERNEL_SCHEMA,
                "lambda": {"type": "number", "exclusiveMinimum": 0},
                "per_region": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "region": {"type": "integer", "minimum": 1},
                            "kernel": _KERNEL_SCHEMA,
                            "lambda": {"type": "number", "exclusiveMinimum": 0},
                        },
                        "required": ["region"],
                        "additionalProperties": False,
                    },
                },
                "grad_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                # accepted and ignored so existing configs load; the
                # Newton system needs no ridge
                "ridge": {"type": "number", "minimum": 0},
            },
            "required": ["loss", "kernel", "lambda"],
            "additionalProperties": False,
        },
        "audit": {
            "type": "object",
            "properties": {
                "eps_ladder": {"type": "array", "minItems": 2,
                               "items": {"type": "number",
                                         "exclusiveMinimum": 0,
                                         "exclusiveMaximum": 0.5}},
                "extra_probes": {"type": "integer", "minimum": 0},
                "z_grid": {"type": "integer", "minimum": 1},
                "z": {
                    "type": "object",
                    "properties": {
                        "x": {"type": "array", "items": {"type": "number"}},
                        "y": {"type": "number"},
                    },
                    "required": ["x", "y"],
                    "additionalProperties": False,
                },
                "maxbias_eps": {"type": "number", "minimum": 0,
                                "exclusiveMaximum": 0.5},
                "q_family": {"enum": ["corners-center-flip", "none"]},
            },
            "additionalProperties": False,
        },
        "experiment": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {
                        "kind": {"const": "consistency"},
                        "n_ladder": {"type": "array", "minItems": 2,
                                     "items": {"type": "integer", "minimum": 1}},
                        "schedule": {
                            "type": "object",
                            "properties": {
                                "c": {"type": "number", "exclusiveMinimum": 0},
                                "beta": {"type": "number"},
                            },
                            "additionalProperties": False,
                        },
                        "eval_n": {"type": "integer", "minimum": 1},
                    },
                    "required": ["kind", "n_ladder"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "kind": {"const": "tradeoff"},
                        "lambda_grid": {"type": "array", "minItems": 1,
                                        "items": {"type": "number",
                                                  "exclusiveMinimum": 0}},
                        "eval_n": {"type": "integer", "minimum": 1},
                    },
                    "required": ["kind", "lambda_grid"],
                    "additionalProperties": False,
                },
            ],
        },
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "required": ["version", "dataset", "partition", "scheme", "model"],
    "additionalProperties": False,
}


def load_config(path) -> dict:
    """Parse and schema-validate a config file; raises InputError on defects."""
    def finite(literal):
        # json accepts NaN, +-Infinity and overflowing numbers such as 1e999
        value = float(literal)
        if not np.isfinite(value):
            raise InputError(f"config holds the non-finite number {literal}: {path}")
        return value

    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"config is not valid JSON: {path}, line {exc.lineno} col {exc.colno}: "
            f"{exc.msg}"
        ) from None
    validate_config(raw)
    return raw


def validate_config(raw: dict) -> None:
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise InputError(f"config schema violation at {exc.json_path}: {exc.message}") from None
    # cross-field rules the schema cannot express
    if raw["scheme"]["kind"] == KIND_BUMP and "h" not in raw["scheme"]:
        raise InputError("scheme 'smooth-bump' requires a bandwidth h")
    audit = raw.get("audit", {})
    ladder = audit.get("eps_ladder")
    if ladder is not None and any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"audit eps_ladder must be strictly decreasing, got {ladder}")
    exp = raw.get("experiment")
    if exp is not None and exp["kind"] == "consistency":
        LambdaSchedule(**exp.get("schedule", {}))
        n_ladder = exp["n_ladder"]
        if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
            raise InputError(f"n_ladder must be increasing, got {n_ladder}")


def load_csv_dataset(path) -> Dataset:
    """Dataset CSV: header x0..x{d-1},y; decimal literals; no missing values."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise InputError(f"dataset file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"dataset CSV is empty: {path}") from None
        d = len(header) - 1
        expected = [f"x{i}" for i in range(d)] + ["y"]
        if d < 1 or header != expected:
            raise InputError(
                f"dataset CSV header must be x0..x{{d-1}},y; got {header} in {path}"
            )
        rows_x, rows_y = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1 or any(cell.strip() == "" for cell in row):
                raise InputError(
                    f"{path}, line {lineno}: expected {d + 1} non-empty values"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise InputError(f"{path}, line {lineno}: {exc}") from None
            rows_x.append(values[:-1])
            rows_y.append(values[-1])
    if not rows_x:
        raise InputError(f"dataset CSV has a header but no rows: {path}")
    return Dataset(np.asarray(rows_x), np.asarray(rows_y))


@dataclass
class RunSetup:
    """Everything a command needs, constructed from a validated config."""

    data: Dataset
    partition_cfg: PartitionConfig
    task: Optional[SyntheticTask]


def task_from_config(raw: dict, seed_override: Optional[int] = None
                     ) -> Optional[SyntheticTask]:
    """The synthetic task of the config's dataset block, without drawing
    its sample; None for a CSV dataset."""
    ds = raw["dataset"]
    if ds["kind"] == "csv":
        return None
    # only the keys the config sets: SyntheticTask holds the defaults
    fields = {key: cast(ds[key]) for key, cast in (
        ("dim", int), ("noise", float), ("seed", int), ("breakpoints", tuple))
        if key in ds}
    if seed_override is not None:
        fields["seed"] = int(seed_override)
    return SyntheticTask(kind=ds["task"], **fields)


def partition_from_config(raw: dict, seed_override: Optional[int] = None
                          ) -> PartitionConfig:
    """The run's partition recipe: the partition block plus the scheme."""
    part = dict(raw["partition"])
    if seed_override is not None:
        part["seed"] = int(seed_override)
    scheme = raw["scheme"]
    return PartitionConfig(**part, scheme=scheme["kind"], h=scheme.get("h"))


def setup_from_config(raw: dict, seed_override: Optional[int] = None) -> RunSetup:
    task = task_from_config(raw, seed_override)
    if task is None:
        data = load_csv_dataset(raw["dataset"]["path"])
    else:
        data = generate(task, int(raw["dataset"]["n"]))
    return RunSetup(data=data,
                    partition_cfg=partition_from_config(raw, seed_override),
                    task=task)


def model_config_from_config(raw: dict, input_dim: int):
    """Build the ModelConfig (kernels need the dataset dimension)."""
    from .composer import ModelConfig

    m = raw["model"]
    loss = loss_from_name(m["loss"])
    kernel = kernel_from_dict(dict(m["kernel"], input_dim=input_dim))
    # only the keys the config sets: TrainConfig holds the defaults
    solver = {}
    if "grad_tol" in m:
        solver["grad_tol"] = float(m["grad_tol"])
    if "max_iter" in m:
        solver["max_iter"] = int(m["max_iter"])
    train_cfg = TrainConfig(lam=float(m["lambda"]), **solver)
    region_kernels = {}
    region_lambdas = {}
    for entry in m.get("per_region", []):
        b = int(entry["region"])
        if "kernel" in entry:
            region_kernels[b] = kernel_from_dict(
                dict(entry["kernel"], input_dim=input_dim))
        if "lambda" in entry:
            region_lambdas[b] = float(entry["lambda"])
    return ModelConfig(loss=loss, kernel=kernel, train=train_cfg,
                       region_kernels=region_kernels,
                       region_lambdas=region_lambdas)
