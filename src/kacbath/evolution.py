"""Exact time evolution on the truncated basis and the coupling gap.

Both generators preserve total Hermite degree, so the coefficient flow
c'(t) = G c(t) splits into independent degree blocks; each symmetric
block is diagonalized once and exponentiated exactly. A block where the
initial coefficients are all zero stays zero, exp(G_m t) 0 = 0, so it is
skipped. An adaptive ODE integration (DOP853) of the whole linear
system cross-checks the result, since the two routes share no code
beyond the matrix itself. The integrator multiplies by a CSR copy of the
generator, made once per call: the generator has about a hundred
nonzeros per row, so a sparse product is far cheaper than a dense one.

The central observable is the distance curve: the same initial density
perturbation is evolved under the finite-reservoir generator and the
infinite-bath generator, and the L2 norm of the difference is read off
the coefficient vectors (the basis is orthonormal, so the Euclidean
norm is the function-space norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .errors import ConfigError, HorizonError, IntegrationError, StateError
from .hermite import HermiteCoeffs
from .kinematics import ModelParams
from .spectral import OperatorMatrix, SpectralContext

# Relative disagreement between the eigendecomposition route and the
# adaptive integrator that voids a result.
CROSS_CHECK_TOL = 1e-9
_SYMMETRY_TOL = 1e-10
# Plateau criterion for long_time_limit: the tail must be flat to this
# fraction of the curve's peak.
PLATEAU_FRACTION = 1e-6


def _check_times(times) -> np.ndarray:
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("times must be a nonempty 1d sequence")
    if not np.all(np.isfinite(arr)) or arr[0] < 0.0 or np.any(np.diff(arr) < 0.0):
        raise ConfigError("times must be finite, nonnegative, and sorted")
    return arr


def evolve(
    g: OperatorMatrix,
    c0: HermiteCoeffs,
    times,
    cross_check: bool = True,
) -> list[HermiteCoeffs]:
    """Coefficient vectors exp(G t) c0 at the requested times.

    Computed per degree block by symmetric eigendecomposition (exact up
    to roundoff); blocks where c0 is identically zero are left zero
    without one. Every block is checked for symmetry (from_raw zeroed
    the rest of G). With cross_check=True the full linear system is also
    integrated adaptively and any relative disagreement beyond
    CROSS_CHECK_TOL raises; the integrator works on a CSR copy of G.
    """
    arr = _check_times(times)
    if c0.basis.index != g.basis.index:
        raise StateError("initial coefficients live on a different basis")

    basis = g.basis
    out = np.repeat(c0.vec[None, :], arr.size, axis=0)
    for m in range(basis.degree + 1):
        block = g.block(m)
        defect = float(np.abs(block - block.T).max())
        if defect > _SYMMETRY_TOL:
            raise StateError(f"generator not symmetric in degree {m} (defect {defect:.3e})")
        sl = basis.degree_slice(m)
        if not c0.vec[sl].any():
            continue
        sym = 0.5 * (block + block.T)
        evals, q = np.linalg.eigh(sym)
        y0 = q.T @ c0.vec[sl]
        out[:, sl] = (np.exp(np.outer(arr, evals)) * y0) @ q.T

    if cross_check:
        csr = sparse.csr_matrix(g.mat)
        sol = solve_ivp(
            lambda _, y: csr @ y,
            (0.0, float(arr[-1])) if arr[-1] > 0.0 else (0.0, 1.0),
            c0.vec,
            method="DOP853",
            t_eval=arr if arr[-1] > 0.0 else None,
            rtol=1e-11,
            atol=1e-14,
        )
        if not sol.success:
            raise IntegrationError(f"adaptive integrator failed: {sol.message}")
        if arr[-1] > 0.0:
            ref = sol.y.T
            scale = np.maximum(1.0, np.linalg.norm(out, axis=1))
            rel = np.linalg.norm(out - ref, axis=1) / scale
            worst = float(rel.max())
            if worst > CROSS_CHECK_TOL:
                raise IntegrationError(
                    f"evolution routes disagree: relative {worst:.3e}"
                )
    return [HermiteCoeffs(basis, row.copy()) for row in out]


@dataclass(frozen=True)
class DistanceCurve:
    """||h_t - h~_t|| on a time grid, for one configuration.

    h_t evolves under the finite-reservoir generator and h~_t under the
    infinite-bath generator, from the same embedded initial data, on
    the same joint basis of degree cap `degree`.
    """

    times: tuple[float, ...]
    distance: tuple[float, ...]
    params: ModelParams
    degree: int

    def __post_init__(self):
        if len(self.times) != len(self.distance):
            raise StateError("times and distance lengths differ")
        if any(d < 0.0 for d in self.distance):
            raise StateError("distances cannot be negative")


def distance_curve(
    ctx: SpectralContext,
    h0: HermiteCoeffs,
    times,
    cross_check: bool = True,
) -> DistanceCurve:
    """Evolve h0 under both couplings and measure their L2 separation.

    h0 is a mean-one polynomial of the 3M system velocity components;
    it is embedded into the context's joint basis (reservoir factor
    constant) so both flows and the norm live in one space. The degree
    cap ctx.d must be at least the degree of h0; equal makes the
    truncation exact.
    """
    arr = _check_times(times)
    p, d = ctx.p, ctx.d
    if h0.basis.nvars != 3 * p.m:
        raise StateError(f"h0 must live on {3 * p.m} variables, got {h0.basis.nvars}")
    if abs(h0.mean() - 1.0) > 1e-12:
        raise StateError(f"h0 must have unit mean, got {h0.mean()!r}")
    if d < h0.degree():
        raise ConfigError(f"degree cap {d} below h0 degree {h0.degree()}")

    c0 = h0.embed(ctx.basis, np.arange(3 * p.m))
    path_res = evolve(ctx.reservoir, c0, arr, cross_check=cross_check)
    path_bath = evolve(ctx.thermostat, c0, arr, cross_check=cross_check)
    dist = tuple(
        float(np.linalg.norm(a.vec - b.vec)) for a, b in zip(path_res, path_bath)
    )
    return DistanceCurve(
        times=tuple(float(t) for t in arr),
        distance=dist,
        params=p,
        degree=d,
    )


def long_time_limit(curve: DistanceCurve) -> float:
    """Plateau value of a distance curve, with a horizon check.

    The transients of both flows are exponentials, so a sufficient
    horizon shows up as a flat tail: the last two samples must agree to
    PLATEAU_FRACTION of the curve's peak (a zero curve passes trivially).
    """
    if len(curve.times) < 3:
        raise HorizonError("need at least three samples to judge the horizon")
    peak = max(curve.distance)
    if peak == 0.0:
        return 0.0
    tail_move = abs(curve.distance[-1] - curve.distance[-2])
    if tail_move > PLATEAU_FRACTION * peak:
        raise HorizonError(
            f"curve still moving at the horizon: step {tail_move:.3e} "
            f"vs peak {peak:.3e}"
        )
    return float(curve.distance[-1])


def default_time_grid(t_end: float, count: int = 48, t_min: float = 0.01) -> np.ndarray:
    """Geometric grid from t_min to t_end with a leading zero.

    Dense early samples resolve the transient; the spacing grows
    geometrically toward the horizon.
    """
    if t_end <= t_min or count < 2:
        raise ConfigError("need t_end > t_min and count >= 2")
    return np.concatenate([[0.0], np.geomspace(t_min, t_end, count - 1)])
