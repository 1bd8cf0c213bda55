"""Dense spectral gap, kept as an oracle for the per-degree route.

The package computes k block by block over total degree, taking one
eigenvalue of a shifted block (`spectral.spectral_gap`). The route here
ignores the block structure: it builds the dense complement projector
C = I - blockdiag(U_m U_m^T) from the per-degree invariant bases,
diagonalises all of it, restricts the whole generator to its range, and
takes every eigenvalue of the restriction. Tests compare the two.
"""

import numpy as np
from scipy.linalg import block_diag

from kacbath.errors import ToleranceError
from kacbath.spectral import OperatorMatrix


def spectral_gap(gen: OperatorMatrix, invariants: list[np.ndarray]) -> float:
    """Minus the largest eigenvalue of the generator on the complement's range.

    `invariants` holds one orthonormal basis U_m per degree block, in
    degree order. Raises if the complement is not a projector, if the
    generator does not annihilate the invariant subspace, or if the gap
    is nonpositive.
    """
    c = np.eye(gen.basis.size) - block_diag(*[u @ u.T for u in invariants])
    idem = float(np.abs(c @ c - c).max())
    if idem > 1e-10:
        raise ToleranceError(f"complement not idempotent: defect {idem:.3e}")
    evals, evecs = np.linalg.eigh(c)
    keep = evals > 0.5
    if not keep.any():
        raise ToleranceError("complement projector has empty range")
    w = evecs[:, keep]

    g = gen.mat.toarray()
    inv = evecs[:, ~keep]
    kernel_defect = float(np.abs(g @ inv).max()) if inv.size else 0.0
    if kernel_defect > 1e-8:
        raise ToleranceError(
            f"generator does not annihilate invariants: {kernel_defect:.3e}"
        )
    restricted = w.T @ g @ w
    k_hat = -float(np.linalg.eigvalsh(restricted).max())
    if k_hat <= 0:
        raise ToleranceError(f"nonpositive spectral gap {k_hat:.3e}")
    return k_hat
