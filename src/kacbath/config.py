"""Run configuration: a published JSON schema and its typed loader.

Every CLI subcommand reads the same document shape; subcommands ignore
fields they do not use. Validation happens twice, deliberately: the
schema rejects structurally bad documents with a path to the offending
field, and the dataclass constructors re-check the semantic invariants
(so programmatic construction is guarded too).

CONFIG_SCHEMA is checked by kacbath's own validator, which implements
the JSON Schema 2020-12 keywords the schema uses and refuses any other,
so loading a config needs nothing beyond the standard library. It
reports the error jsonschema's `best_match` picks, in the same words;
the tests hold it to jsonschema, which is a test dependency only.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass

from .errors import ConfigError
from .jump import SYSTEM_KINDS

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "kacbath run configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["m", "n"],
    "properties": {
        "m": {"type": "integer", "minimum": 1,
              "description": "number of system particles"},
        "n": {"type": "integer", "minimum": 2,
              "description": "number of reservoir particles"},
        "lambda_s": {"type": "number", "minimum": 0, "default": 1.0,
                     "description": "system pair collision rate"},
        "lambda_r": {"type": "number", "minimum": 0, "default": 1.0,
                     "description": "reservoir pair collision rate"},
        "mu": {"type": "number", "minimum": 0, "default": 1.0,
               "description": "system-bath coupling rate"},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "threads": {"type": "integer", "minimum": 1, "default": 1},
        "t_end": {"type": "number", "exclusiveMinimum": 0, "default": 5.0},
        "record_times": {
            "type": "array", "items": {"type": "number", "minimum": 0},
            "minItems": 1,
            "description": "explicit record grid; overrides `grid`",
        },
        "grid": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 2, "default": 48},
                "t_min": {"type": "number", "exclusiveMinimum": 0,
                          "default": 0.01},
            },
            "description": "geometric grid from t_min to t_end plus a leading 0",
        },
        "ensemble": {"type": "integer", "minimum": 1, "default": 1000},
        "degree": {"type": "integer", "minimum": 1, "maximum": 8, "default": 2},
        "system_kind": {"enum": list(SYSTEM_KINDS), "default": "reservoir"},
        "operator": {
            "enum": ["reservoir", "thermostat", "bath_map"],
            "default": "reservoir",
            "description": "which operator the spectral subcommand exports",
        },
        "init": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["equilibrium", "perturbation"],
                         "default": "equilibrium"},
                "family": {"enum": ["h1_v1x", "h2_aniso"], "default": "h1_v1x"},
                "eps": {"type": "number", "default": 0.1},
            },
        },
        "observables": {
            "type": "array", "minItems": 1,
            "items": {"enum": ["v1x", "v1x_h1", "v1x_h2", "system_energy",
                               "total_energy", "momentum_x"]},
            "default": ["system_energy"],
        },
        "eps": {"type": "number", "default": 0.1,
                "description": "perturbation size of the initial data"},
        "samples": {"type": "integer", "minimum": 2, "default": 4096,
                    "description": "outer Monte Carlo states per ratio estimate"},
        "inner": {"type": "integer", "minimum": 2, "default": 64,
                  "description": "rotation draws per outer state (even)"},
        "system_sizes": {
            "type": "array", "items": {"type": "integer", "minimum": 1},
            "minItems": 1, "description": "M values for the ratio sweep",
        },
        "reservoir_sizes": {
            "type": "array", "items": {"type": "integer", "minimum": 2},
            "minItems": 1, "description": "N values for sweeps and scaling",
        },
        "random_polynomials": {"type": "integer", "minimum": 1, "default": 20},
    },
}

# JSON Schema keywords that never fail a document
_ANNOTATIONS = frozenset({"$schema", "title", "description", "default"})

# bound keyword: (fails when op(value, bound), message)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
}


def _is_type(value, kind: str) -> bool:
    """The JSON Schema 2020-12 type test: a bool is neither integer nor
    number, and a float with an integral value is an integer."""
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    number = isinstance(value, numbers.Number) and not isinstance(value, bool)
    if kind == "number":
        return number
    if kind == "integer":
        return number and (isinstance(value, int)
                           or isinstance(value, float) and value.is_integer())
    raise NotImplementedError(f"config schema type {kind!r} is not implemented")


def _errors(sub: dict, value, path: tuple = ()):
    """Yield (path, message) for each failure of `value` under the schema
    node `sub`, in jsonschema's order: the node's keywords in key order,
    properties in schema order, items by index."""
    for word, want in sub.items():
        if word in _ANNOTATIONS:
            continue
        if word == "type":
            if not _is_type(value, want):
                yield path, f"{value!r} is not of type {want!r}"
        elif word == "enum":
            if value not in want:
                yield path, f"{value!r} is not one of {want!r}"
        elif word in _BOUNDS:
            fails, text = _BOUNDS[word]
            if _is_type(value, "number") and fails(value, want):
                yield path, f"{value!r} is {text} of {want!r}"
        elif word == "minItems":
            if isinstance(value, list) and len(value) < want:
                short = "should be non-empty" if want == 1 else "is too short"
                yield path, f"{value!r} {short}"
        elif word == "items":
            for i, item in enumerate(value if isinstance(value, list) else ()):
                yield from _errors(want, item, path + (i,))
        elif word == "required":
            for key in want if isinstance(value, dict) else ():
                if key not in value:
                    yield path, f"{key!r} is a required property"
        elif word == "properties":
            for key, child in want.items() if isinstance(value, dict) else ():
                if key in value:
                    yield from _errors(child, value[key], path + (key,))
        elif word == "additionalProperties" and want is False:
            known = sub.get("properties", {})
            extras = sorted((k for k in value if k not in known), key=str) \
                if isinstance(value, dict) else []
            if extras:
                were = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {were} unexpected)")
        else:
            raise NotImplementedError(
                f"config schema keyword {word!r}: {want!r} is not implemented")


def _with_ints(sub: dict, value):
    """`value`, valid under the schema node `sub`, with every value that the
    schema types as integer made a Python int (2.0 is a valid integer)."""
    kind = sub.get("type")
    if kind == "integer":
        return int(value)
    if kind == "array":
        return [_with_ints(sub["items"], item) for item in value]
    if kind == "object":
        return {key: _with_ints(sub["properties"][key], val) for key, val in value.items()}
    return value


def _defaults_of(schema: dict) -> dict:
    out = {}
    for key, sub in schema.get("properties", {}).items():
        if "default" in sub:
            out[key] = sub["default"]
        elif sub.get("type") == "object":
            out[key] = _defaults_of(sub)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document with defaults applied.

    Built by config_from_dict, so every default comes from CONFIG_SCHEMA;
    only the fields the schema leaves without a default default to None.
    """

    m: int
    n: int
    lambda_s: float
    lambda_r: float
    mu: float
    seed: int
    threads: int
    t_end: float
    grid: dict
    ensemble: int
    degree: int
    system_kind: str
    operator: str
    init: dict
    observables: tuple[str, ...]
    eps: float
    samples: int
    inner: int
    random_polynomials: int
    record_times: tuple[float, ...] | None = None
    system_sizes: tuple[int, ...] | None = None
    reservoir_sizes: tuple[int, ...] | None = None


def validate_config(doc: dict) -> dict:
    """Schema-check a raw document and return it with defaults merged and
    every integer-typed value an int.

    Of several failures the one reported is jsonschema's best match: the
    shallowest path, then the greatest path, then the first in schema
    order. (best_match next prefers a value off its node's type, but the
    errors left at one path all come from one node and agree on that.)
    """
    error = max(_errors(CONFIG_SCHEMA, doc), default=None,
                key=lambda e: (-len(e[0]), e[0]))
    if error is not None:
        path, message = error
        where = "/".join(map(str, path)) or "(root)"
        raise ConfigError(f"config invalid at {where}: {message}")
    merged = _defaults_of(CONFIG_SCHEMA)
    for key, val in _with_ints(CONFIG_SCHEMA, doc).items():
        if isinstance(val, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **val}
        else:
            merged[key] = val
    return merged


def config_from_dict(doc: dict) -> RunConfig:
    merged = validate_config(doc)
    for key in ("record_times", "observables", "system_sizes", "reservoir_sizes"):
        if key in merged and merged[key] is not None:
            merged[key] = tuple(merged[key])
    return RunConfig(**merged)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a config file; `overrides` replace top-level keys before the
    schema check, so command-line values are validated like file values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict({**doc, **(overrides or {})})
