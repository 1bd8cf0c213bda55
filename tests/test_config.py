"""Configuration schema and loader."""

import dataclasses
import json

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from kacbath.config import (
    CONFIG_SCHEMA,
    _defaults_of,
    config_from_dict,
    load_config,
    validate_config,
)
from kacbath.errors import ConfigError


def test_minimal_document_gets_defaults():
    cfg = config_from_dict({"m": 1, "n": 2})
    assert cfg.lambda_s == 1.0 and cfg.mu == 1.0
    assert cfg.seed == 0
    assert cfg.degree == 2
    assert cfg.system_kind == "reservoir"
    assert cfg.init["kind"] == "equilibrium"
    assert cfg.grid == {"count": 48, "t_min": 0.01}
    assert cfg.record_times is None


def test_partial_nested_objects_merge_with_defaults():
    cfg = config_from_dict({"m": 1, "n": 2, "init": {"kind": "perturbation"},
                            "grid": {"count": 10}})
    assert cfg.init == {"kind": "perturbation", "family": "h1_v1x", "eps": 0.1}
    assert cfg.grid == {"count": 10, "t_min": 0.01}


def test_sequences_become_tuples():
    cfg = config_from_dict({"m": 1, "n": 2, "record_times": [0.0, 1.0],
                            "reservoir_sizes": [2, 4, 8]})
    assert cfg.record_times == (0.0, 1.0)
    assert cfg.reservoir_sizes == (2, 4, 8)


REJECTED = [
    {"n": 2},                                  # missing m
    {"m": 0, "n": 2},                          # m below minimum
    {"m": 1, "n": 2, "mu": -1.0},              # negative rate
    {"m": 1, "n": 2, "system_kind": "bath"},   # bad enum
    {"m": 1, "n": 2, "extra_field": 1},        # unknown key
    {"m": 1, "n": 2, "init": {"kind": "x"}},   # nested enum
    {"m": 1, "n": 2, "observables": []},       # empty list
]


@pytest.mark.parametrize("doc", REJECTED)
def test_schema_rejections(doc):
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_schema_is_valid_under_its_metaschema():
    # the loader's validator is built once, without this check
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    assert cls is jsonschema.Draft202012Validator
    cls.check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("doc", REJECTED + [
    {"m": 1, "n": 2, "mu": "fast", "extra_field": 1, "grid": {"count": 1}},
])
def test_error_message_is_the_best_match_of_jsonschema_validate(doc):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    where = "/".join(str(p) for p in want.value.absolute_path) or "(root)"
    with pytest.raises(ConfigError) as got:
        validate_config(doc)
    assert str(got.value) == f"config invalid at {where}: {want.value.message}"


def test_error_message_names_the_path():
    with pytest.raises(ConfigError, match="init/kind"):
        validate_config({"m": 1, "n": 2, "init": {"kind": "x"}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m": 2, "n": 4, "seed": 9}))
    cfg = load_config(str(path))
    assert (cfg.m, cfg.n, cfg.seed) == (2, 4, 9)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_schema_is_published_and_strict():
    assert CONFIG_SCHEMA["additionalProperties"] is False
    assert set(CONFIG_SCHEMA["required"]) == {"m", "n"}


def _strategy(sub: dict):
    """Documents valid under one node of CONFIG_SCHEMA (the subset it uses)."""
    if "enum" in sub:
        return st.sampled_from(sub["enum"])
    kind = sub["type"]
    if kind == "integer":
        return st.integers(sub.get("minimum", -10**6), sub.get("maximum", 10**6))
    if kind == "number":
        low = sub.get("minimum", sub.get("exclusiveMinimum"))
        return st.floats(min_value=low, max_value=1e6, allow_nan=False,
                         exclude_min="exclusiveMinimum" in sub)
    if kind == "array":
        return st.lists(_strategy(sub["items"]), min_size=sub.get("minItems", 0),
                        max_size=4)
    props = {k: _strategy(v) for k, v in sub["properties"].items()}
    required = set(sub.get("required", ()))
    return st.fixed_dictionaries(
        {k: s for k, s in props.items() if k in required},
        optional={k: s for k, s in props.items() if k not in required})


_SEQUENCES = ("record_times", "observables", "system_sizes", "reservoir_sizes")


@settings(max_examples=200, deadline=None)
@given(_strategy(CONFIG_SCHEMA))
def test_config_is_the_document_merged_over_the_schema_defaults(doc):
    # every default comes from the schema: RunConfig holds exactly the
    # document over _defaults_of(CONFIG_SCHEMA), sequences as tuples
    want = {key: None for key in ("record_times", "system_sizes", "reservoir_sizes")}
    want.update(_defaults_of(CONFIG_SCHEMA))
    for key, val in doc.items():
        want[key] = {**want[key], **val} if isinstance(val, dict) else val
    for key in _SEQUENCES:
        if want[key] is not None:
            want[key] = tuple(want[key])
    assert dataclasses.asdict(config_from_dict(doc)) == want
