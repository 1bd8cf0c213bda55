"""Deterministic result serialization.

Three formats, all stable byte-for-byte across runs with equal inputs:
CSV with '.' decimal separator and 17 significant digits (enough to
round-trip a double exactly), JSON with sorted keys and a trailing
newline, and a plain matrix interchange format (a dimension header
line, then one row of values per line, 17 significant digits, "0" for
an absent entry) for offline inspection of assembled operators. An
operator is written from its sorted entry list: each distinct value is
formatted once and the rows are streamed to the file, so neither a
dense matrix nor the whole text is held in memory.

Every writer is atomic: the text goes to a temporary file in the
target's directory, which is then renamed over the target, so a failed
or interrupted write never leaves a partial artifact.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError


def format_value(x) -> str:
    """One CSV cell: floats at 17 significant digits, ints bare, text raw."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    if isinstance(x, str):
        if "," in x or "\n" in x or '"' in x:
            raise ConfigError(f"CSV cell needs quoting, which is not supported: {x!r}")
        return x
    raise ConfigError(f"cannot format {type(x).__name__} into CSV")


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write the lines, in order, to a fresh file beside path, then rename it
    over path; lines may be produced while the file is written."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows under a header with '\\n' line endings.

    Rows are materialized and checked for width before anything is
    written.
    """
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        cells = [format_value(x) for x in row]
        if len(cells) != width:
            raise ConfigError(
                f"CSV row width {len(cells)} does not match header width {width}"
            )
        lines.append(",".join(cells))
    _write_lines(path, ["\n".join(lines) + "\n"])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: str, obj) -> None:
    """Sorted-keys, indented JSON with a trailing newline."""
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    _write_lines(path, [text + "\n"])


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_matrix(path: str, op) -> None:
    """Dimension header ("rows cols") then row-major values, one row per line.

    `op` is an operator that lists its entries sorted row-major as `rows`,
    `cols` and `values` on a `basis` of `basis.size` functions
    (spectral.OperatorMatrix); it is written from that list with no dense
    copy.
    """
    _write_lines(path, _matrix_lines(op.basis.size, op.rows, op.cols, op.values))


def _matrix_lines(n: int, rows, cols, values) -> Iterator[str]:
    """The lines of the n x n matrix format for entries sorted by row;
    every cell not listed prints as "0"."""
    yield "%d %d\n" % (n, n)
    # each distinct value is formatted once; values are told apart by their
    # bits, so NaNs of any payload keep their own text
    bits, which = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    cells = np.full(n, "0", dtype=object)
    ends = np.searchsorted(rows, np.arange(1, n + 1)).tolist()
    lo = 0
    for hi in ends:
        at = cols[lo:hi]
        cells[at] = text[which[lo:hi]]
        yield " ".join(cells.tolist()) + "\n"
        cells[at] = "0"
        lo = hi


def read_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ConfigError(f"bad matrix header in {path}")
        rows, cols = int(header[0]), int(header[1])
        out = np.loadtxt(fh, dtype=float, ndmin=2)
    if out.shape != (rows, cols):
        raise ConfigError(
            f"matrix body {out.shape} does not match header ({rows}, {cols})"
        )
    return out

