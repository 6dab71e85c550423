"""Experiment configuration files: schema validation and object construction.

Configs are single JSON documents with an explicit ``version`` field.
Unknown keys are rejected everywhere; nothing is read from environment
variables, so a config file pins a run completely (up to --seed/--threads
command-line overrides). ``CONFIG_SCHEMA`` states the rules as a JSON
Schema; ``_schema_error`` checks a config against it in-package. A model
file, as ``train`` writes it, is read the same way against ``MODEL_SCHEMA``.
"""

from __future__ import annotations

import csv
import json
import operator
from typing import Optional

import numpy as np

from .composer import ComposedModel, ModelConfig
from .data import WeightedSample
from .errors import InputError
from .experiments import LambdaSchedule, PartitionConfig, SyntheticTask, generate
from .kernels import kernel_from_dict
from .losses import LOSSES, loss_from_name
from .regions import KIND_BUMP, KIND_INDICATOR
from .solver import TrainConfig

_POSITIVE_INT = {"type": "integer", "minimum": 1}
_NON_NEGATIVE_INT = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_LOSS = {"enum": sorted(LOSSES)}


def _record(required: dict, optional: Optional[dict] = None) -> dict:
    """An object schema that takes exactly the keys of ``required`` and
    ``optional``, and requires those of ``required``."""
    return {"type": "object", "properties": {**required, **(optional or {})},
            "required": list(required), "additionalProperties": False}


# a block whose keys depend on its kind is a oneOf with one branch per
# kind: the branch lists exactly the keys that kind reads, and requires its
# kind constant (a const or enum) and the keys it cannot do without; each
# kernel family's (required, optional) keys
_KERNEL_KEYS = (
    ({"family": {"const": "gaussian-rbf"}, "gamma": _POSITIVE}, None),
    ({"family": {"const": "linear"}}, None),
    ({"family": {"const": "polynomial"}, "degree": _POSITIVE_INT},
     {"offset": _NON_NEGATIVE}),
)
_KERNEL_SCHEMA = {"type": "object",
                  "oneOf": [_record(*keys) for keys in _KERNEL_KEYS]}
_BUMP_SCHEME = _record({"kind": {"const": KIND_BUMP}, "h": _POSITIVE})

# the keys every synthetic task reads besides its kind, task and n
_SYNTHETIC_OPTIONAL = {"dim": _POSITIVE_INT, "noise": _NON_NEGATIVE,
                       "seed": _NON_NEGATIVE_INT}

CONFIG_SCHEMA = _record({
    "version": {"const": 1},
    "dataset": {"type": "object", "oneOf": [
        _record({"kind": {"const": "synthetic"},
                 "task": {"enum": ["sine-regression", "two-moons"]},
                 "n": _POSITIVE_INT}, _SYNTHETIC_OPTIONAL),
        _record({"kind": {"const": "synthetic"},
                 "task": {"const": "piecewise-regression"}, "n": _POSITIVE_INT},
                {**_SYNTHETIC_OPTIONAL, "breakpoints": _NUMBERS}),
        _record({"kind": {"const": "csv"}, "path": {"type": "string"}}),
    ]},
    "partition": _record({"b_target": _POSITIVE_INT}, {
        "tau": _NON_NEGATIVE, "min_region_size": _POSITIVE_INT,
        "seed": _NON_NEGATIVE_INT}),
    "scheme": {"type": "object", "oneOf": [
        _record({"kind": {"const": KIND_INDICATOR}}), _BUMP_SCHEME]},
    "model": _record({"loss": _LOSS, "kernel": _KERNEL_SCHEMA,
                      "lambda": _POSITIVE}, {
        "per_region": {"type": "array", "items": _record(
            {"region": _POSITIVE_INT},
            {"kernel": _KERNEL_SCHEMA, "lambda": _POSITIVE})},
        "grad_tol": _POSITIVE,
        "max_iter": _POSITIVE_INT,
    }),
}, {
    "audit": _record({}, {
        "eps_ladder": {"type": "array", "minItems": 2,
                       "items": {"type": "number", "exclusiveMinimum": 0,
                                 "exclusiveMaximum": 0.5}},
        "extra_probes": _NON_NEGATIVE_INT,
        "z_grid": _POSITIVE_INT,
        "z": _record({"x": _NUMBERS, "y": {"type": "number"}}),
        "maxbias_eps": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
        "q_family": {"enum": ["corners-center-flip", "none"]},
    }),
    "experiment": {"type": "object", "oneOf": [
        _record({"kind": {"const": "consistency"},
                 "n_ladder": {"type": "array", "minItems": 2, "items": _POSITIVE_INT}},
                {"schedule": _record({}, {"c": _POSITIVE, "beta": {"type": "number"}}),
                 "eval_n": _POSITIVE_INT}),
        _record({"kind": {"const": "tradeoff"},
                 "lambda_grid": {"type": "array", "minItems": 1, "items": _POSITIVE}},
                {"eval_n": _POSITIVE_INT}),
    ]},
    "output": _record({}, {"dir": {"type": "string"}}),
})

# ComposedModel.to_dict, key for key: a model's kernels also name their
# input dimension, and an indicator scheme writes its bandwidth as null
MODEL_SCHEMA = _record({
    "partition": _record({
        "regions": {"type": "array", "items": _record({
            "id": _POSITIVE_INT, "center": _NUMBERS, "radius": _NON_NEGATIVE})},
        "tau": _NON_NEGATIVE,
    }),
    "scheme": {"type": "object", "oneOf": [
        _record({"kind": {"const": KIND_INDICATOR}, "h": {"const": None}}),
        _BUMP_SCHEME]},
    "locals": {"type": "array", "items": _record({
        "region_id": _POSITIVE_INT,
        "lambda": _POSITIVE,
        "kernel": {"type": "object", "oneOf": [
            _record({**required, "input_dim": _POSITIVE_INT}, optional)
            for required, optional in _KERNEL_KEYS]},
        "loss": _LOSS,
        "anchors": {"type": "array", "items": _NUMBERS},
        "alpha": _NUMBERS,
    })},
    "null_region_ids": {"type": "array", "items": _POSITIVE_INT},
})


def _read_json(path, what: str):
    """The JSON document in the file ``path``: UTF-8 text holding valid
    JSON with finite numbers only, else an InputError naming ``what``."""
    def finite(literal):
        # json accepts NaN, +-Infinity and overflowing numbers such as 1e999
        value = float(literal)
        if not np.isfinite(value):
            raise InputError(f"{what} holds the non-finite number {literal}: {path}")
        return value

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} is not {exc.encoding} text: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{what} is not valid JSON: {path}, line {exc.lineno} col {exc.colno}: "
            f"{exc.msg}"
        ) from None


def _check(raw, schema: dict, what: str) -> None:
    """An InputError naming the path of ``raw``'s first violation of ``schema``."""
    error = _schema_error(raw, schema)
    if error:
        path, message = error
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                              for p in path)
        raise InputError(f"{what} schema violation at {where}: {message}")


def load_config(path) -> dict:
    """Parse and schema-validate a config file; raises InputError on defects."""
    raw = _read_json(path, "config")
    validate_config(raw)
    return raw


def load_model(path) -> ComposedModel:
    """The model in a file as ``train`` writes it: read as strictly as a
    config, checked against ``MODEL_SCHEMA`` before anything is built, and
    built by ``ComposedModel.from_dict``; an InputError otherwise."""
    raw = _read_json(path, "model")
    try:
        _check(raw, MODEL_SCHEMA, "model")
        return ComposedModel.from_dict(raw)
    except InputError as exc:
        raise InputError(f"cannot parse model {path}: {exc}") from None


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


def _shown(value) -> str:
    """repr of a value in a message, cut short: a model's arrays are long."""
    text = repr(value)
    return text if len(text) <= 60 else text[:56] + " ..."


def _schema_error(value, schema: dict, path: tuple = ()):
    """The first violation of ``schema`` by ``value`` as (path, message),
    or None. Covers the keywords ``CONFIG_SCHEMA`` and ``MODEL_SCHEMA``
    use, with the Draft 2020-12 meaning of each: a keyword tests only
    values of its own type, and ``oneOf`` holds when exactly one branch
    does."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        return path, f"{_shown(value)} is not of type {kind!r}"
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        return path, f"{_shown(value)} is not one of {schema['enum']!r}"
    if "const" in schema and not _equal(value, schema["const"]):
        return path, f"{schema['const']!r} was expected, got {_shown(value)}"
    if _is_number(value):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                return path, f"{value!r} is {words} {schema[key]!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{_shown(value)} has fewer than {schema['minItems']} items"
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
    _check(raw, CONFIG_SCHEMA, "config")
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
