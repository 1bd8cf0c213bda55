"""Exact time evolution on the truncated basis and the coupling gap.

Both generators preserve total Hermite degree, so the coefficient flow
c'(t) = G c(t) splits into independent degree blocks. Each occupied
block is evolved by Lanczos from the block's part of c0 (the Krylov
approximation of the matrix exponential: Saad, SIAM J. Numer. Anal.
1992; Hochbruck and Lubich, SIAM J. Numer. Anal. 1997), with full
reorthogonalisation. The small tridiagonal matrix T_j is exponentiated
exactly through its eigendecomposition, and Lanczos stops once a
rigorous a-posteriori bound on the error over the whole time grid drops
below KRYLOV_TOL times the block's norm. Smooth data needs only a few
steps (4 for anisotropic degree-2 data, whatever the block size), and
no block-sized dense matrix is formed for it. A block where the initial
coefficients are all zero stays zero, exp(G_m t) 0 = 0, so it is
skipped by both routes. The exponential of every block that c0 fills,
from the dense symmetric eigendecomposition of that block (Moler and
Van Loan, SIAM Review 2003), always cross-checks the result: it is exact
to roundoff, and the two routes share no code beyond the matrix itself.
The blocks c0 leaves empty are exactly zero in that matrix's flow too,
because from_raw makes it exactly block diagonal. The dense block needs
no preflight of its own: the sector and the joint basis are capped at
one dense operator over all their rows (spectral._check_dense). The
Krylov route and the spectral gap multiply by the generator's CSR
matrix (`OperatorMatrix.mat`, held only in CSR): the generator has
about a hundred nonzeros per row.

The central observable is the distance curve: the same initial density
perturbation is evolved under the finite-reservoir generator and the
infinite-bath generator, and the L2 norm of the difference is read off
the coefficient vectors (the basis is orthonormal, so the Euclidean
norm is the function-space norm). The data depend on the tagged
velocities alone, so both flows stay in the functions symmetric in the
reservoir particles, and the curve is evolved on that sector
(kacbath.sector): 34 rows at d=2 and 136 at d=3 for every N >= d,
where the joint basis grows like N^d. evolve itself takes any graded
basis; the joint-basis flow of both generators is the sector route's
test oracle. The gap, which bounds the curve, is still measured on the
joint basis (spectral_gap), so it sets the reach of the `distance`
subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ConfigError,
    HorizonError,
    IntegrationError,
    StateError,
    ToleranceError,
)
from .hermite import HermiteCoeffs
from .kinematics import ModelParams
from .spectral import OperatorMatrix, SpectralContext

# Relative disagreement between the Krylov route and the dense
# eigendecomposition that voids a result.
CROSS_CHECK_TOL = 1e-9
# Lanczos stops once its error bound, valid at every requested time, is
# at most this fraction of the norm of the block's initial coefficients.
KRYLOV_TOL = 1e-12
# Largest entry of V^T V - I for the Lanczos basis V of a block.
_ORTHOGONALITY_TOL = 1e-12
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


class _KrylovPath(NamedTuple):
    values: np.ndarray  # exp(t G) b, one row per requested t
    bound: float        # bound on the error of every row
    dim: int            # Krylov dimension K


def _gram_schmidt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w minus its projection onto the orthonormal rows of v, in two passes."""
    for _ in range(2):
        w = w - (v @ w) @ v
    return w


def _krylov_path(g, b: np.ndarray, times: np.ndarray, degree: int,
                 scale: float, tol: float = KRYLOV_TOL) -> _KrylovPath:
    """exp(t G) b at each t of `times`, by Lanczos from b.

    g is a symmetric nonpositive sparse block and `scale` the infinity
    norm of the generator it comes from. After j steps the Lanczos
    relation G V_j = V_j T_j + beta_j v_{j+1} e_j^T holds, and with
    T_j = S diag(theta) S^T and ||exp(s G)|| <= 1 the error of
    beta_0 V_j exp(t T_j) e_1 is at most

        beta_0 beta_j sum_i |S_ji S_1i| (1 - e^{-t_end |theta_i|}) / |theta_i|

    for every t <= t_end (t_end in place of the fraction where
    theta_i = 0). Lanczos stops at the first j where this bound is at
    most tol * beta_0, or at j = n. Raises ToleranceError if the basis
    has lost orthogonality (max |V^T V - I| above _ORTHOGONALITY_TOL) or
    a Ritz value lies above KRYLOV_TOL * scale, since the bound assumes
    G <= 0.
    """
    n = b.size
    beta0 = float(np.linalg.norm(b))
    t_end = float(times[-1])
    v = np.empty((min(n, 32), n))
    v[0] = b / beta0
    alpha, beta = [], []
    while True:
        j = len(alpha)
        w = g @ v[j]
        alpha.append(float(v[j] @ w))
        w = _gram_schmidt(w, v[:j + 1])
        beta.append(float(np.linalg.norm(w)))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta[:-1]))
        rate = np.abs(theta)
        weight = np.full(rate.size, t_end)
        pos = rate > 0.0
        weight[pos] = -np.expm1(-t_end * rate[pos]) / rate[pos]
        bound = beta0 * beta[-1] * float(np.abs(s[-1] * s[0]) @ weight)
        if bound <= tol * beta0 or j + 1 == n:
            break
        if j + 1 == len(v):
            v = np.concatenate([v, np.empty((min(len(v), n - len(v)), n))])
        v[j + 1] = w / beta[-1]

    k = j + 1
    basis = v[:k]
    defect = float(np.abs(basis @ basis.T - np.eye(k)).max())
    if defect > _ORTHOGONALITY_TOL:
        raise ToleranceError(
            f"Lanczos basis not orthonormal in degree {degree}: defect "
            f"{defect:.3e} exceeds {_ORTHOGONALITY_TOL:.0e}"
        )
    top = float(theta.max())
    if top > KRYLOV_TOL * scale:
        raise ToleranceError(
            f"Ritz value {top:.3e} above zero in degree {degree}: the "
            f"generator is not nonpositive (limit {KRYLOV_TOL * scale:.3e})"
        )
    values = beta0 * (np.exp(np.outer(times, theta)) * s[0]) @ (s.T @ basis)
    return _KrylovPath(values, bound, k)


def _dense_path(block, b: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t G) b at each t of `times`, from the dense eigendecomposition
    of the symmetric block G."""
    lam, q = np.linalg.eigh(block.toarray())
    return (np.exp(np.outer(times, lam)) * (q.T @ b)) @ q.T


def evolve(g: OperatorMatrix, c0: HermiteCoeffs, times) -> list[HermiteCoeffs]:
    """Coefficient vectors exp(G t) c0 at the requested times.

    Computed per degree block by Lanczos from the block's part of c0,
    on the CSR blocks of G, until the a-posteriori error bound
    (see _krylov_path) is at most KRYLOV_TOL times that part's norm at
    every requested time; blocks where c0 is identically zero are left
    zero and never sliced. G must be symmetric, which assembly checks
    once per generator. Each block that c0 fills is also exponentiated
    through its dense eigendecomposition, from the same part of c0;
    when every time is 0 nothing is factored and the result is compared
    with c0. A relative disagreement beyond CROSS_CHECK_TOL at any time
    raises IntegrationError.
    """
    arr = _check_times(times)
    if c0.basis.index != g.basis.index:
        raise StateError("initial coefficients live on a different basis")

    basis = g.basis
    g_norm = float(abs(g.mat).sum(axis=1).max())
    out = np.repeat(c0.vec[None, :], arr.size, axis=0)
    ref = out.copy()
    for m in range(basis.degree + 1):
        sl = basis.degree_slice(m)
        if not c0.vec[sl].any():
            continue
        block = g.block(m)
        out[:, sl] = _krylov_path(block, c0.vec[sl], arr, m, g_norm).values
        if arr[-1] > 0.0:
            ref[:, sl] = _dense_path(block, c0.vec[sl], arr)

    scale = np.maximum(1.0, np.linalg.norm(out, axis=1))
    worst = float((np.linalg.norm(out - ref, axis=1) / scale).max())
    if worst > CROSS_CHECK_TOL:
        raise IntegrationError(f"evolution routes disagree: relative {worst:.3e}")
    return [HermiteCoeffs(basis, row.copy()) for row in out]


@dataclass(frozen=True)
class DistanceCurve:
    """||h_t - h~_t|| on a time grid, for one configuration.

    h_t evolves under the finite-reservoir generator and h~_t under the
    infinite-bath generator, from the same initial data, on the same
    reservoir-symmetric sector of degree cap `degree`.
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


def distance_curve(ctx: SpectralContext, h0: HermiteCoeffs, times) -> DistanceCurve:
    """Evolve h0 under both couplings and measure their L2 separation.

    h0 is a mean-one polynomial of the 3M system velocity components;
    it is placed in the context's reservoir-symmetric sector (reservoir
    factor constant), where both flows and the norm live; on the joint
    basis they give the same curve. The degree cap ctx.d must be at least
    the degree of h0; equal makes the truncation exact. Both flows are
    cross-checked block by block (see evolve).
    """
    arr = _check_times(times)
    p, d = ctx.p, ctx.d
    if h0.basis.nvars != 3 * p.m:
        raise StateError(f"h0 must live on {3 * p.m} variables, got {h0.basis.nvars}")
    if abs(h0.mean() - 1.0) > 1e-12:
        raise StateError(f"h0 must have unit mean, got {h0.mean()!r}")
    if d < h0.degree():
        raise ConfigError(f"degree cap {d} below h0 degree {h0.degree()}")

    c0 = ctx.sector.tagged_coeffs(h0)
    path_res = evolve(ctx.sector_reservoir, c0, arr)
    path_bath = evolve(ctx.sector_thermostat, c0, arr)
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


def __getattr__(name: str):
    # perfbench/tracing.py still times `solve_ivp` here by name, though
    # evolve no longer calls it; import it only when that reader asks.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
