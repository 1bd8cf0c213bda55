"""Configuration schema and loader."""

import dataclasses
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from kacbath import config
from kacbath.config import (
    CONFIG_SCHEMA,
    _defaults_of,
    _errors,
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


def _nodes(sub: dict, path: tuple = ()):
    """(path, schema node) for the root and every property and item node."""
    yield path, sub
    for key, child in sub.get("properties", {}).items():
        yield from _nodes(child, path + (key,))
    if "items" in sub:
        yield from _nodes(sub["items"], path + (0,))


_DROP = object()  # a fault that deletes the key at its path


def _faults_for(sub: dict) -> list:
    """Values that break the schema node `sub`, one way each: a wrong type,
    a bool for a number, out of range, an empty list, a bad enum, an unknown
    key, a deleted key; plus an integral float where an integer is asked,
    which is valid."""
    out = ["fast", None, [1.5], {"extra_field": 1}, _DROP]
    kind = sub.get("type")
    if kind in ("integer", "number"):
        out += [True, False]
    if kind == "integer":
        out += [1.5, float(sub.get("minimum", 3))]
    for word, step in (("minimum", -1), ("maximum", 1), ("exclusiveMinimum", 0)):
        if word in sub:
            out += [sub[word] + step, sub[word] + step / 2]
    if kind == "array":
        out += [[], [True]]
    if "enum" in sub:
        out.append("x")
    return out


# the schema's nodes, plus keys it does not know beside known ones
_FAULT = st.sampled_from(list(_nodes(CONFIG_SCHEMA)) + [
    (("extra_field",), {}), (("grid", "extra_field"), {})]).flatmap(
    lambda node: st.tuples(st.just(node[0]), st.sampled_from(_faults_for(node[1]))))


def _put(doc, path: tuple, value):
    """`doc` with `value` at `path` (or the key there deleted, for _DROP),
    making the containers on the way that a fault before replaced."""
    if not path:
        return {} if value is _DROP else value
    node = doc = doc if isinstance(doc, dict) else {}
    for key, nxt in zip(path, path[1:]):
        want = list if isinstance(nxt, int) else dict
        if not isinstance(node[key] if isinstance(node, list) else node.get(key), want):
            node[key] = want()
        node = node[key]
    last = path[-1]
    if isinstance(last, int):
        node[:1] = [] if value is _DROP else [value]
    elif value is _DROP:
        node.pop(last, None)
    else:
        node[last] = value
    return doc


def _reversed(sub):
    """A schema node with its keys, and those of every node in it, reversed."""
    return {k: _reversed(v) if isinstance(v, dict) else v for k, v in reversed(sub.items())}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from([CONFIG_SCHEMA, _reversed(CONFIG_SCHEMA)]),
       _strategy(CONFIG_SCHEMA), st.lists(_FAULT, max_size=3))
def test_the_validator_is_jsonschema_best_match(schema, doc, faults):
    # kacbath's walker accepts exactly the documents Draft202012Validator
    # accepts, and reports best_match's error in the same words; the
    # reversed schema puts `type` after the keywords it outranks
    for path, value in faults:
        doc = _put(doc, path, value)
    want = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(doc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "CONFIG_SCHEMA", schema)
        if want is None:
            validate_config(doc)
            return
        where = "/".join(str(p) for p in want.absolute_path) or "(root)"
        with pytest.raises(ConfigError) as got:
            validate_config(doc)
    assert str(got.value) == f"config invalid at {where}: {want.message}"


@pytest.mark.parametrize("sub", [
    {"type": "string"}, {"pattern": "^a"}, {"additionalProperties": True},
    {"properties": {"a": {"maxItems": 2}}},
])
def test_the_validator_refuses_keywords_it_does_not_implement(sub):
    with pytest.raises(NotImplementedError):
        list(_errors(sub, {"a": []}))


def test_integral_floats_reach_the_config_as_ints():
    # JSON Schema counts 2.0 as an integer; kacbath's code needs an int
    props = CONFIG_SCHEMA["properties"]
    top = [k for k, v in props.items() if v.get("type") == "integer"]
    doc = {k: float(props[k].get("default", props[k].get("minimum"))) for k in top}
    doc.update(grid={"count": 12.0}, system_sizes=[1.0, 3.0], reservoir_sizes=[2.0, 4.0])
    cfg = dataclasses.asdict(config_from_dict(doc))
    got = [cfg[k] for k in top] + [cfg["grid"]["count"], *cfg["system_sizes"],
                                   *cfg["reservoir_sizes"]]
    assert got == [doc[k] for k in top] + [12, 1, 3, 2, 4]
    assert all(type(v) is int for v in got)


_WITHOUT_JSONSCHEMA = """
import json, sys
sys.modules["jsonschema"] = None  # any jsonschema import now raises ImportError
from kacbath.cli import main

good, bad, out = sys.argv[1:]
with open(good, "w") as fh:
    json.dump({"m": 1, "n": 4, "degree": 2}, fh)
with open(bad, "w") as fh:
    json.dump({"m": 1, "n": 4, "degree": 2.5}, fh)
assert main(["gap", "--config", good, "--out", out]) == 0
assert main(["gap", "--config", bad, "--out", out + ".bad"]) == 2
"""


def test_configs_load_without_jsonschema(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [str(tmp_path / name) for name in ("good.json", "bad.json", "gap.json")]
    done = subprocess.run([sys.executable, "-c", _WITHOUT_JSONSCHEMA, *paths],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "config invalid at degree: 2.5 is not of type 'integer'" in done.stderr
