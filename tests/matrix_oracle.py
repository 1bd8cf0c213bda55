"""Dense forms for tests: the dense matrix of an operator held as its
entries, an operator from the nonzero entries of a dense matrix, and the
dense matrix writer that `output.write_matrix` replaced, kept as the
oracle for its bytes. The writer scans a dense array row by row and
formats every entry that prints other than "0" on its own."""

import numpy as np

from kacbath.spectral import OperatorMatrix


def dense(op) -> np.ndarray:
    """The dense matrix of a spectral.OperatorMatrix on its whole basis."""
    out = np.zeros((op.basis.size,) * 2)
    out[op.rows, op.cols] = op.values
    return out


def operator(name: str, basis, mat: np.ndarray) -> OperatorMatrix:
    """The operator whose entries are the nonzeros (NaN included) of the
    square matrix `mat` on `basis`, through OperatorMatrix.from_raw."""
    rows, cols = np.nonzero(mat)
    return OperatorMatrix.from_raw(name, basis, (rows, cols, mat[rows, cols]))


def dense_matrix_text(mat) -> str:
    """The matrix format of a 2d array: a "rows cols" header, then one
    line of "%.17g" cells per row."""
    arr = np.asarray(mat, dtype=float)
    lines = ["%d %d" % arr.shape]
    shown = (arr != 0) | np.signbit(arr)
    for row, mask in zip(arr, shown):
        cells = ["0"] * len(row)
        for j, v in zip(np.flatnonzero(mask).tolist(), row[mask].tolist()):
            cells[j] = "%.17g" % v
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
