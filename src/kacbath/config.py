"""Run configuration: a published JSON schema and its typed loader.

Every CLI subcommand reads the same document shape; subcommands ignore
fields they do not use. Validation happens twice, deliberately: the
schema rejects structurally bad documents with a path to the offending
field, and the dataclass constructors re-check the semantic invariants
(so programmatic construction is guarded too).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import jsonschema

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
        "max_degree": {"type": "integer", "minimum": 1, "maximum": 6,
                       "default": 6},
        "cross_check": {"type": "boolean", "default": True},
    },
}


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
    """Validated configuration document with defaults applied."""

    m: int
    n: int
    lambda_s: float = 1.0
    lambda_r: float = 1.0
    mu: float = 1.0
    seed: int = 0
    threads: int = 1
    t_end: float = 5.0
    record_times: tuple[float, ...] | None = None
    grid: dict = field(default_factory=lambda: {"count": 48, "t_min": 0.01})
    ensemble: int = 1000
    degree: int = 2
    system_kind: str = "reservoir"
    operator: str = "reservoir"
    init: dict = field(default_factory=lambda: {
        "kind": "equilibrium", "family": "h1_v1x", "eps": 0.1})
    observables: tuple[str, ...] = ("system_energy",)
    eps: float = 0.1
    samples: int = 4096
    inner: int = 64
    system_sizes: tuple[int, ...] | None = None
    reservoir_sizes: tuple[int, ...] | None = None
    random_polynomials: int = 20
    max_degree: int = 6
    cross_check: bool = True


def validate_config(doc: dict) -> dict:
    """Schema-check a raw document and return it with defaults merged."""
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc
    merged = _defaults_of(CONFIG_SCHEMA)
    for key, val in doc.items():
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
