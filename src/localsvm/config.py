"""Experiment configuration files: schema validation and object construction.

Configs are single JSON documents with an explicit ``version`` field.
Unknown keys are rejected everywhere; nothing is read from environment
variables, so a config file pins a run completely (up to --seed/--threads
command-line overrides). ``CONFIG_SCHEMA`` states the rules as a JSON
Schema; ``_schema_error`` checks a config against it in-package.
"""

from __future__ import annotations

import csv
import json
import operator
from typing import Optional

import numpy as np

from .data import WeightedSample
from .errors import InputError
from .experiments import LambdaSchedule, PartitionConfig, SyntheticTask, generate
from .kernels import kernel_from_dict
from .losses import loss_from_name
from .regions import KIND_BUMP, KIND_INDICATOR
from .solver import TrainConfig

# a block whose keys depend on its kind is a oneOf with one branch per
# kind: the branch lists exactly the keys that kind reads, and requires its
# kind constant (a const or enum) and the keys it cannot do without
_KERNEL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "family": {"const": "gaussian-rbf"},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["family", "gamma"],
            "additionalProperties": False,
        },
        {
            "properties": {"family": {"const": "linear"}},
            "required": ["family"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "family": {"const": "polynomial"},
                "degree": {"type": "integer", "minimum": 1},
                "offset": {"type": "number", "minimum": 0},
            },
            "required": ["family", "degree"],
            "additionalProperties": False,
        },
    ],
}

# the keys every synthetic task reads besides its kind and task
_SYNTHETIC_PROPERTIES = {
    "n": {"type": "integer", "minimum": 1},
    "dim": {"type": "integer", "minimum": 1},
    "noise": {"type": "number", "minimum": 0},
    "seed": {"type": "integer", "minimum": 0},
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
                        "task": {"enum": ["sine-regression", "two-moons"]},
                        **_SYNTHETIC_PROPERTIES,
                    },
                    "required": ["kind", "task", "n"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "kind": {"const": "synthetic"},
                        "task": {"const": "piecewise-regression"},
                        **_SYNTHETIC_PROPERTIES,
                        "breakpoints": {"type": "array",
                                        "items": {"type": "number"}},
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
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["b_target"],
            "additionalProperties": False,
        },
        "scheme": {
            "type": "object",
            "oneOf": [
                {
                    "properties": {"kind": {"const": KIND_INDICATOR}},
                    "required": ["kind"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "kind": {"const": KIND_BUMP},
                        "h": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["kind", "h"],
                    "additionalProperties": False,
                },
            ],
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
    except UnicodeDecodeError as exc:
        raise InputError(f"config is not {exc.encoding} text: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"config is not valid JSON: {path}, line {exc.lineno} col {exc.colno}: "
            f"{exc.msg}"
        ) from None
    validate_config(raw)
    return raw


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    # an integral float such as 1.0 is an integer in JSON Schema
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# (keyword, test that fails, wording); each applies to numbers only
_BOUNDS = (("minimum", operator.lt, "less than the minimum of"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
           ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"))


def _equal(a, b) -> bool:
    # enum and const tell true/false from 1/0; their values are scalars
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_error(value, schema: dict, path: tuple = ()):
    """The first violation of ``schema`` by ``value`` as (path, message),
    or None. Covers the keywords ``CONFIG_SCHEMA`` uses, with the Draft
    2020-12 meaning of each: a keyword tests only values of its own type,
    and ``oneOf`` holds when exactly one branch does."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return path, f"{value!r} is not of type {kind!r}"
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and not _equal(value, schema["const"]):
        return path, f"{schema['const']!r} was expected, got {value!r}"
    if _is_number(value):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                return path, f"{value!r} is {words} {schema[key]!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} has fewer than {schema['minItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                error = _schema_error(item, schema["items"], path + (i,))
                if error:
                    return error
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        if schema.get("additionalProperties", True) is False:
            extra = [key for key in value if key not in props]
            if extra:
                return path, f"unexpected key(s) {', '.join(map(repr, extra))}"
        for key, sub in props.items():
            if key in value:
                error = _schema_error(value[key], sub, path + (key,))
                if error:
                    return error
    if "oneOf" in schema:
        branches = schema["oneOf"]
        errors = [_schema_error(value, sub, path) for sub in branches]
        if all(errors):
            # a discriminated union: keep the branches whose kind constant
            # (the const, or the enum, of a key the first branch requires)
            # the value matches, one such key at a time, and report the
            # error of the branch that is left
            for key in branches[0]["required"]:
                tags = [sub["properties"].get(key, {}) for sub in branches]
                if len(branches) == 1 or not all(
                        "const" in tag or "enum" in tag for tag in tags):
                    continue
                if key not in value:
                    return path, f"{key!r} is a required property"
                kinds = [tag.get("enum", [tag.get("const")]) for tag in tags]
                matches = [any(_equal(value[key], k) for k in kind) for kind in kinds]
                if not any(matches):
                    allowed = list(dict.fromkeys(k for kind in kinds for k in kind))
                    return path + (key,), f"{value[key]!r} is not one of {allowed!r}"
                branches = [sub for sub, m in zip(branches, matches) if m]
                errors = [e for e, m in zip(errors, matches) if m]
            return errors[0]
        if errors.count(None) > 1:
            return path, "valid under more than one of the oneOf branches"
    return None


def validate_config(raw: dict) -> None:
    error = _schema_error(raw, CONFIG_SCHEMA)
    if error:
        path, message = error
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                              for p in path)
        raise InputError(f"config schema violation at {where}: {message}")
    # cross-field rules the schema cannot express
    regions = [int(e["region"]) for e in raw["model"].get("per_region", [])]
    repeated = sorted({b for b in regions if regions.count(b) > 1})
    if repeated:
        raise InputError(f"model.per_region names region(s) {repeated} more than once")
    audit = raw.get("audit", {})
    if "z" in audit and "z_grid" in audit:
        raise InputError("audit sets both z and z_grid; give one of them")
    ladder = audit.get("eps_ladder")
    if ladder is not None and any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"audit eps_ladder must be strictly decreasing, got {ladder}")
    exp = raw.get("experiment")
    if exp is not None and exp["kind"] == "consistency":
        LambdaSchedule(**exp.get("schedule", {}))
        n_ladder = exp["n_ladder"]
        if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
            raise InputError(f"n_ladder must be increasing, got {n_ladder}")


def load_csv_dataset(path) -> WeightedSample:
    """The empirical measure of a dataset CSV: header x0..x{d-1},y; decimal
    literals; no missing values."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise InputError(f"dataset file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"dataset CSV is not {exc.encoding} text: {path}") from None
    reader = csv.reader(lines)
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
    return WeightedSample.uniform(np.asarray(rows_x), np.asarray(rows_y))


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


def setup_from_config(raw: dict, seed_override: Optional[int] = None
                      ) -> tuple[WeightedSample, PartitionConfig]:
    """The run's data (CSV rows or a synthetic draw) and partition recipe."""
    task = task_from_config(raw, seed_override)
    if task is None:
        data = load_csv_dataset(raw["dataset"]["path"])
    else:
        data = generate(task, int(raw["dataset"]["n"]))
    return data, partition_from_config(raw, seed_override)


def model_config_from_config(raw: dict, input_dim: int):
    """Build the ModelConfig (kernels need the dataset dimension)."""
    from .composer import ModelConfig

    m = raw["model"]
    loss = loss_from_name(m["loss"])
    kernel = kernel_from_dict(dict(m["kernel"], input_dim=input_dim))
    # only the keys the config sets: TrainConfig holds the defaults
    solver = {key: cast(m[key]) for key, cast in
              (("grad_tol", float), ("max_iter", int)) if key in m}
    train_cfg = TrainConfig(lam=float(m["lambda"]), **solver)
    per_region = m.get("per_region", [])
    region_kernels = {
        int(e["region"]): kernel_from_dict(dict(e["kernel"], input_dim=input_dim))
        for e in per_region if "kernel" in e}
    region_lambdas = {int(e["region"]): float(e["lambda"])
                      for e in per_region if "lambda" in e}
    return ModelConfig(loss=loss, kernel=kernel, train=train_cfg,
                       region_kernels=region_kernels,
                       region_lambdas=region_lambdas)
