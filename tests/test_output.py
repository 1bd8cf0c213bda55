"""Serialization: byte-stable CSV/JSON/matrix files."""

import numpy as np
import pytest

from kacbath.errors import ConfigError
from kacbath.output import (
    format_value,
    read_json,
    read_matrix,
    write_csv,
    write_json,
    write_matrix,
)


def test_format_value_styles():
    assert format_value(True) == "true"
    assert format_value(7) == "7"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value(0.5) == "0.5"
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value("label") == "label"
    with pytest.raises(ConfigError):
        format_value("a,b")
    with pytest.raises(ConfigError):
        format_value(object())


def test_float_cells_roundtrip_exactly(tmp_path):
    rng = np.random.default_rng(14)
    vals = rng.normal(size=32) * 10.0 ** rng.integers(-12, 12, size=32)
    path = tmp_path / "vals.csv"
    write_csv(path, ["x"], [[v] for v in vals])
    back = [float(line) for line in path.read_text().splitlines()[1:]]
    assert back == list(vals)


def test_csv_is_deterministic(tmp_path):
    rows = [[0.1, 2, "a"], [0.2, 3, "b"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x", "n", "tag"], rows)
    write_csv(p2, ["x", "n", "tag"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.endswith("\n") and "\r" not in text


def test_csv_width_mismatch_writes_nothing(tmp_path):
    path = tmp_path / "half.csv"
    with pytest.raises(ConfigError):
        write_csv(path, ["a", "b"], [[1, 2], [3]])
    assert not path.exists()


def test_json_sorted_and_stable(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"z": np.float64(0.25), "a": [np.int32(1), (2, 3)],
                      "flag": np.bool_(True)})
    text = path.read_text()
    assert text.index('"a"') < text.index('"flag"') < text.index('"z"')
    assert text.endswith("\n")
    assert read_json(path) == {"z": 0.25, "a": [1, [2, 3]], "flag": True}


def test_matrix_roundtrip(tmp_path):
    mat = np.random.default_rng(3).normal(size=(4, 7))
    path = tmp_path / "op.mat"
    write_matrix(path, mat)
    header = path.read_text().splitlines()[0]
    assert header == "4 7"
    np.testing.assert_array_equal(read_matrix(path), mat)


def test_matrix_shape_errors(tmp_path):
    with pytest.raises(ConfigError):
        write_matrix(tmp_path / "x.mat", np.zeros(3))
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2\n")
    with pytest.raises(ConfigError):
        read_matrix(bad)
