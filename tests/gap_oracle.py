"""Two joint-basis spectral gaps, kept as oracles for the sector route.

The package reads k from the reservoir generator on the
reservoir-symmetric sector (`spectral.spectral_gap`): the dense spectrum
of each degree block, a kernel count against the closed-form number of
P^a E^b, and minus the largest eigenvalue off the kernel. That sector
holds only the functions symmetric in the reservoir particles, so on its
own it bounds the joint gap from above. Its blocks have the same size at
every N, where the joint basis grows like N^d and stops at N = 41 (d = 2)
and N = 10 (d = 3).

Both routes here work on the joint basis, with the generator from
`assemble_generator` and one orthonormal invariant basis U_m per degree
block from `invariant_projector`:

- `spectral_gap` ignores the block structure: it builds the dense
  complement projector C = I - blockdiag(U_m U_m^T), diagonalises all of
  it, restricts the whole generator to its range, and takes every
  eigenvalue of the restriction.
- `lanczos_gap` is the package's former route: per degree block, the top
  eigenvalue of the shifted block G_m - s U_m U_m^T by ARPACK Lanczos,
  with its kernel, Ritz-overlap and residual checks.

Tests compare all three.
"""

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from kacbath.errors import ToleranceError
from kacbath.spectral import KERNEL_TOL, OperatorMatrix

from matrix_oracle import dense

# Largest Lanczos residual ||A x - theta x|| of the gap's Ritz pair, and
# largest overlap ||U_m^T x|| of its Ritz vector with the invariants.
RITZ_TOL = 1e-10


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

    g = dense(gen)
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


def lanczos_gap(gen: OperatorMatrix, invariants: list[np.ndarray]) -> float:
    """k as the minimum over blocks m of minus the top eigenvalue of

        G_m - s U_m U_m^T,    s = 2 ||G||_inf.

    Once G_m U_m is checked to vanish, this operator is G_m off the range
    of U_m and -s on it; every eigenvalue of the symmetric G lies in
    [-||G||_inf, 0], so the top one lies off the invariants. Only that
    eigenvalue is computed, by Lanczos on the dense block with the shift
    applied as U_m (U_m^T x). The start vector is a fixed-seed normal
    vector with its U_m part removed. Blocks U_m spans (degree 0) are
    skipped.

    Raises ToleranceError if a generator block does not annihilate its
    invariants to KERNEL_TOL, if Lanczos does not converge, if its Ritz
    vector overlaps the invariants or its residual exceeds RITZ_TOL, or
    if the gap is nonpositive. Lanczos with one Ritz pair is fragile where
    a block's top eigenvalue is highly degenerate (degrees 2 and 3 at
    M = 2), so this stays an oracle.
    """
    shift = 2.0 * gen.norm_inf()
    gaps = []
    for m, u in enumerate(invariants):
        g = gen.block(m)
        kernel = float(np.abs(g @ u).max())
        if kernel > KERNEL_TOL:
            raise ToleranceError(
                f"generator does not annihilate invariants in degree {m}: "
                f"defect {kernel:.3e} exceeds {KERNEL_TOL:.0e}"
            )
        n = g.shape[0]
        if u.shape[1] == n:
            continue
        op = LinearOperator((n, n), dtype=float,
                            matvec=lambda x, g=g, u=u: g @ x - shift * (u @ (u.T @ x)))
        start = np.random.default_rng(0).standard_normal(n)
        start -= u @ (u.T @ start)
        try:
            theta, x = eigsh(op, k=1, which="LA", tol=0, v0=start)
        except ArpackNoConvergence as exc:
            raise ToleranceError(f"Lanczos did not converge in degree {m}: {exc}") from exc
        theta, x = float(theta[0]), x[:, 0]
        overlap = float(np.linalg.norm(u.T @ x))
        if overlap > RITZ_TOL:
            raise ToleranceError(
                f"Ritz vector overlaps the invariants in degree {m}: "
                f"{overlap:.3e} exceeds {RITZ_TOL:.0e}"
            )
        residual = float(np.linalg.norm(op @ x - theta * x))
        if residual > RITZ_TOL:
            raise ToleranceError(
                f"Lanczos residual in degree {m}: {residual:.3e} exceeds {RITZ_TOL:.0e}"
            )
        gaps.append(-theta)
    if not gaps:
        raise ToleranceError("invariants span the whole basis: no gap to measure")
    k_hat = min(gaps)
    if k_hat <= 0:
        raise ToleranceError(f"nonpositive spectral gap {k_hat:.3e}")
    return k_hat
