"""Serialization: byte-stable CSV/JSON/matrix files."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kacbath import ModelParams
from kacbath.errors import ConfigError
from kacbath.output import (
    format_value,
    read_json,
    read_matrix,
    write_csv,
    write_json,
    write_matrix,
)
from kacbath.hermite import make_basis
from kacbath.spectral import OperatorMatrix, assemble_T, assemble_generator

from matrix_oracle import dense, dense_matrix_text, operator


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


def _in_blocks(basis, values) -> OperatorMatrix:
    """The operator on `basis` whose degree-block cells, row-major, hold
    `values` (zeros, -0.0 among them, are not entries)."""
    mat = np.zeros((basis.size,) * 2)
    mat[basis.degree_of[:, None] == basis.degree_of[None, :]] = values
    return operator("cells", basis, mat)


def _block_cells(basis) -> int:
    return int(np.sum(basis.degree_of[:, None] == basis.degree_of[None, :]))


@pytest.mark.parametrize("seed", range(6))
def test_matrix_bytes_are_the_per_element_format(tmp_path, seed):
    rng = np.random.default_rng(seed)
    basis = make_basis(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
    cells = _block_cells(basis)
    special = [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, -1e300,
               np.inf, -np.inf, np.nan, 1.0 / 3.0]
    op = _in_blocks(basis, np.where(
        rng.random(cells) < 0.5, rng.choice(special, size=cells),
        rng.normal(size=cells) * 10.0 ** rng.integers(-20, 20, size=cells)))
    write_matrix(tmp_path / "op.mat", op)
    want = ["%d %d" % (basis.size, basis.size)]
    want += [" ".join("%.17g" % v for v in row) for row in dense(op)]
    assert (tmp_path / "op.mat").read_bytes() == ("\n".join(want) + "\n").encode()


# zeros of both signs, NaNs of both signs and two payloads, infinities,
# subnormals and the extremes, beside values drawn freely
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
            1.7976931348623157e308, -2.2250738585072014e-308, 1.0 / 3.0,
            *np.array([0x7FF8000000000000, -0x0008000000000000, 0x7FF8000000000001],
                      dtype=np.int64).view(float).tolist()]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matrix_bytes_equal_the_dense_writer(tmp_path_factory, data):
    # a few distinct values, each repeated over a sparse pattern of the
    # degree blocks
    basis = make_basis(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
    cells = _block_cells(basis)
    palette = data.draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(width=64),
                                 min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(-3 * len(palette), len(palette) - 1),
                               min_size=cells, max_size=cells))
    op = _in_blocks(basis, [palette[k] if k >= 0 else 0.0 for k in picks])
    path = tmp_path_factory.mktemp("mat") / "op.mat"
    write_matrix(path, op)
    assert path.read_bytes() == dense_matrix_text(dense(op)).encode()


@pytest.mark.parametrize("build", [
    lambda: assemble_generator("reservoir", ModelParams(1, 3), 2),
    lambda: assemble_generator("thermostat", ModelParams(2, 2), 2),
    lambda: assemble_T(2, 3),
], ids=["reservoir", "thermostat", "bath_map"])
def test_operator_export_reads_back_bitwise(tmp_path, build):
    # an operator is written from its entry list, in the dense writer's
    # bytes, and reads back bitwise equal to its dense matrix
    op = build()
    path = tmp_path / "op.mat"
    write_matrix(path, op)
    assert path.read_text() == dense_matrix_text(dense(op))
    assert read_matrix(path).tobytes() == dense(op).tobytes()


def test_matrix_shape_errors(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2\n")
    with pytest.raises(ConfigError):
        read_matrix(bad)
