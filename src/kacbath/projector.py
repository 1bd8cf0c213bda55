"""Momentum-fixing rotation frame and the rotation-average projector.

The symmetry group acting on the joint phase space is the subgroup of
SO(3(M+N)) that fixes the three total-momentum directions; orthogonality
already preserves the total energy. Averaging a function over that
group (Haar measure) projects onto its rotation-invariant part, written
R[h] throughout.

The frame assembled here diagonalizes the group action: three fixed
momentum directions g_1, g_2, g_3, and a (3(M+N)-3)-dimensional
complement on which the group acts transitively on spheres. Applying a
Haar-random rotation to a fixed state is therefore the same as
resampling the complement coordinates uniformly on the sphere of their
radius, so no random matrix is ever materialized. The Monte Carlo
estimator below only reads the 3M system coordinates, which see just 3M
of the D = 3(M+N)-3 complement coordinates. The first k coordinates of
a uniform point on the unit sphere S^(D-1) are distributed as
w / sqrt(|w|^2 + X), with w ~ N(0, I_k) independent of X ~ chi^2_(D-k)
(Diaconis and Freedman, 1987), so each rotation is drawn from 3M
normals and one chi-square variate, at a cost that does not grow with N.

Norms and means are with respect to the background Gaussian weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, pi, sqrt
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import dblquad

from .errors import ConfigError, IntegrationError, StateError, ToleranceError
from .hermite import HermiteCoeffs, evaluate_basis
from .randomness import GAMMA_SIGMA, RngStream

# Residual norm below which a candidate completion vector is discarded
# as dependent, and the orthogonality tolerance of the finished frame.
DEPENDENCE_TOL = 1e-12
FRAME_TOL = 1e-12


def _mean_direction_rows(k: int) -> np.ndarray:
    """Rows i=0,1,2: unit vector pointing along component i of every
    one of k particles, i.e. (1,0,0,1,0,0,...)/sqrt(k) and cyclic."""
    rows = np.zeros((3, 3 * k))
    for i in range(3):
        rows[i, i::3] = 1.0 / sqrt(k)
    return rows


def _complete_basis(rows: np.ndarray) -> np.ndarray:
    """Extend orthonormal `rows` to a basis of their ambient space.

    Candidates are the canonical coordinate vectors in index order;
    each is orthogonalized against everything accepted so far (two
    passes, for reorthogonalization) and kept when its residual norm
    clears DEPENDENCE_TOL. Deterministic by construction.
    """
    dim = rows.shape[1]
    accepted = [r for r in rows]
    extra = []
    for j in range(dim):
        cand = np.zeros(dim)
        cand[j] = 1.0
        for _ in range(2):
            for b in accepted:
                cand -= (b @ cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > DEPENDENCE_TOL:
            cand /= nrm
            accepted.append(cand)
            extra.append(cand)
    if len(accepted) != dim:
        raise ToleranceError(
            f"basis completion found {len(accepted)} of {dim} vectors"
        )
    return np.array(extra) if extra else np.zeros((0, dim))


@dataclass(frozen=True)
class MomentumFrame:
    """Orthogonal change of basis adapted to the momentum-fixing group.

    Columns of `p`, in order: the 3M-3 completion vectors of the system
    block, the three momentum directions g_i, the three relative-mean
    directions l_i, and the 3N-3 completion vectors of the reservoir
    block. The group acts as the identity on the g columns and as the
    full rotation group on everything else.
    """

    m: int
    n: int
    p: np.ndarray

    @property
    def dim(self) -> int:
        return 3 * (self.m + self.n)

    @property
    def g_slots(self) -> np.ndarray:
        return np.arange(3 * self.m - 3, 3 * self.m)

    @property
    def l_slots(self) -> np.ndarray:
        return np.arange(3 * self.m, 3 * self.m + 3)

    @property
    def complement_slots(self) -> np.ndarray:
        return np.delete(np.arange(self.dim), self.g_slots)

    @property
    def g(self) -> np.ndarray:
        """The three fixed momentum directions, as columns."""
        return self.p[:, self.g_slots]

    @property
    def l(self) -> np.ndarray:
        return self.p[:, self.l_slots]

    def coordinates(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates of a flattened state in this frame (P^T z)."""
        return self.p.T @ np.asarray(flat, dtype=float)


def build_frame(m: int, n: int) -> MomentumFrame:
    """Assemble the orthonormal momentum frame for an (M, N) system.

    g_i = (sqrt(M) e_i, sqrt(N) f_i)/sqrt(M+N) and
    l_i = (sqrt(N) e_i, -sqrt(M) f_i)/sqrt(M+N), where e_i (f_i) is the
    normalized component-i mean direction of the system (reservoir)
    block; the blocks are completed by Gram-Schmidt over canonical
    coordinate vectors in index order.
    """
    if m < 1 or n < 2:
        raise ConfigError(f"frame needs M >= 1, N >= 2, got M={m}, N={n}")
    dim = 3 * (m + n)
    e = _mean_direction_rows(m)
    f = _mean_direction_rows(n)
    a = _complete_basis(e)
    b = _complete_basis(f)

    cols = np.zeros((dim, dim))
    cols[: 3 * m, : 3 * m - 3] = a.T
    root = sqrt(m + n)
    for i in range(3):
        cols[: 3 * m, 3 * m - 3 + i] = sqrt(m) * e[i] / root
        cols[3 * m :, 3 * m - 3 + i] = sqrt(n) * f[i] / root
        cols[: 3 * m, 3 * m + i] = sqrt(n) * e[i] / root
        cols[3 * m :, 3 * m + i] = -sqrt(m) * f[i] / root
    cols[3 * m :, 3 * m + 3 :] = b.T

    defect = np.max(np.abs(cols.T @ cols - np.eye(dim)))
    if defect > FRAME_TOL:
        raise ToleranceError(f"frame orthogonality defect {defect:.3e}")
    return MomentumFrame(m=m, n=n, p=cols)


@dataclass(frozen=True)
class BoundConstant:
    """Closed-form contraction constant of the rotation projector."""

    m: int
    n: int
    c: float


def lemma1_constant(m: int, n: int) -> BoundConstant:
    """C(M, N) = sqrt(3M/(3N-5)) + sqrt(((M+N)/N)^3 - 1).

    Controls ||R[h] - 1|| <= C ||h - 1|| for mean-one functions h of
    the system velocities alone; both terms vanish like sqrt(M/N).
    """
    if m < 1:
        raise ConfigError(f"M must be >= 1, got {m}")
    if 3 * n - 5 <= 0:
        raise ConfigError(f"N too small for a finite constant: N={n}")
    c = sqrt(3.0 * m / (3 * n - 5)) + sqrt(((m + n) / n) ** 3 - 1.0)
    return BoundConstant(m=m, n=n, c=c)


def _system_rows(
    frame: MomentumFrame, y: np.ndarray, w: np.ndarray, r2: np.ndarray
) -> np.ndarray:
    """First 3M coordinates of Haar-rotated states, shape (b, k, 3M).

    `y` holds the frame coordinates of b states, shape (b, dim); `w`,
    shape (b, k, 3M), are standard normals and `r2`, shape (b, k), are
    chi-square draws with 3N-3 degrees of freedom. Only the first 3M
    complement slots (the system completion and the l directions) reach
    the system rows of the frame, and w / sqrt(|w|^2 + r2) are their
    coordinates on the unit complement sphere.
    """
    s = 3 * frame.m
    comp = frame.complement_slots
    gsl = frame.g_slots
    rho = np.linalg.norm(y[:, comp], axis=1)
    norms = np.sqrt(np.sum(w * w, axis=-1) + r2)
    norms[norms == 0.0] = 1.0  # probability-zero draw; leaves the g part
    u = (rho[:, None] / norms)[:, :, None] * w
    fixed = y[:, gsl] @ frame.p[:s, gsl].T
    return fixed[:, None, :] + u @ frame.p[:s, comp[:s]].T


class Lemma1Estimate(NamedTuple):
    ratio: float
    stderr: float
    fluctuation_norm: float
    outer: int
    inner: int


def _ratio_core(
    evaluate: Callable[[np.ndarray], np.ndarray],
    fluctuation_norm: float,
    frame: MomentumFrame,
    outer: int,
    inner: int,
    stream: RngStream,
    chunk: int = 256,
) -> Lemma1Estimate:
    """Nested estimator for ||R[h] - 1|| / ||h - 1||.

    `evaluate` maps system rows, shape (k, 3M), to h values, shape (k,).
    Outer states are drawn from the background Gaussian; per state, two
    independent half-sample rotation averages A and B give the unbiased
    square E[(A-1)(B-1)] = (R[h](z) - 1)^2, which a plain single-loop
    average of squares would overestimate. The outer mean of the
    products is clamped at zero before the square root; the error bar
    follows by the delta method.

    Each chunk of b outer states draws, in this order, the states z,
    shape (b, 3(M+N)); the normals w, shape (b, inner, 3M); and the
    chi-square draws r2 with 3N-3 degrees of freedom, shape (b, inner).
    Since the first 3M coordinates of a uniform point on the unit sphere
    of the D = 3(M+N)-3 complement coordinates are distributed as
    w / sqrt(|w|^2 + r2), `_system_rows` turns these draws into the
    system block of the rotated states: a rotation costs 3M + 1 draws
    whatever N is, and the reservoir coordinates are never formed.
    """
    if outer < 2:
        raise ConfigError(f"need at least two outer states, got {outer}")
    if inner < 2 or inner % 2:
        raise ConfigError(f"inner sample count must be even and >= 2, got {inner}")
    s = 3 * frame.m
    half = inner // 2

    prods = np.empty(outer)
    done = 0
    while done < outer:
        b = min(chunk, outer - done)
        z = stream.rng.normal(0.0, GAMMA_SIGMA, (b, frame.dim))
        w = stream.rng.standard_normal((b, inner, s))
        r2 = stream.rng.chisquare(3 * frame.n - 3, (b, inner))
        rows = _system_rows(frame, z @ frame.p, w, r2)
        vals = evaluate(rows.reshape(b * inner, s)).reshape(b, inner)
        a = vals[:, :half].mean(axis=1) - 1.0
        c = vals[:, half:].mean(axis=1) - 1.0
        prods[done : done + b] = a * c
        done += b

    mean_sq = float(prods.mean())
    se_sq = float(prods.std(ddof=1) / sqrt(outer))
    norm_est = sqrt(max(mean_sq, 0.0))
    if norm_est > 0.0:
        se_norm = se_sq / (2.0 * norm_est)
    else:
        se_norm = sqrt(se_sq)  # conservative scale when the mean is pinned at 0
    return Lemma1Estimate(
        ratio=norm_est / fluctuation_norm,
        stderr=se_norm / fluctuation_norm,
        fluctuation_norm=fluctuation_norm,
        outer=outer,
        inner=inner,
    )


def estimate_lemma1_ratio(
    h: HermiteCoeffs,
    m: int,
    n: int,
    samples: int,
    stream: RngStream,
    inner: int = 64,
) -> Lemma1Estimate:
    """Monte Carlo check of the projector contraction on a polynomial h.

    h is a mean-one polynomial of the 3M system velocity components
    (coefficients in the orthonormal Hermite basis); the returned ratio
    estimates ||R[h] - 1|| / ||h - 1||, which the closed-form constant
    of lemma1_constant must dominate. `samples` counts outer Gaussian
    states; each costs `inner` rotation draws.
    """
    if h.basis.nvars != 3 * m:
        raise StateError(
            f"h must live on {3 * m} variables, got {h.basis.nvars}"
        )
    if abs(h.mean() - 1.0) > 1e-12:
        raise StateError(f"h must have unit mean, got {h.mean()!r}")
    denom = h.fluctuation_norm()
    if denom == 0.0:
        raise StateError("h is constant; the ratio is undefined")
    frame = build_frame(m, n)

    def evaluate(rows: np.ndarray) -> np.ndarray:
        return evaluate_basis(h.basis, rows) @ h.vec

    return _ratio_core(evaluate, denom, frame, samples, inner, stream)


def verify_gaussian_identity(m: int, n: int) -> tuple[float, float]:
    """Quadrature check of the squared conditioning-kernel integral.

    The kernel coupling the system-mean coordinate s to the total-mean
    coordinate V is, per component,
        n1(x, y) = sqrt((M+N)/N) exp(-pi ((M/N)(x^2+y^2) - 2 sqrt(M(M+N))/N x y)),
    and the claim is that the Gaussian-weighted integral of n^2 over
    all six (s, V) components equals ((M+N)/N)^3. Components decouple,
    so the numeric value is the cube of one adaptive 2D quadrature of a
    quadratic-form Gaussian (whose form matrix has determinant one,
    which is where the closed form comes from). Returns (numeric, exact).
    """
    if m < 0 or n < 1:
        raise ConfigError(f"need M >= 0, N >= 1, got M={m}, N={n}")
    ratio = (m + n) / n
    diag = 1.0 + 2.0 * m / n
    cross = 2.0 * sqrt(m * (m + n)) / n

    def integrand(yv: float, xs: float) -> float:
        return ratio * exp(-pi * (diag * (xs * xs + yv * yv) - 2.0 * cross * xs * yv))

    val, err = dblquad(integrand, -np.inf, np.inf, -np.inf, np.inf,
                       epsabs=1e-12, epsrel=1e-12)
    if err > 1e-9:
        raise IntegrationError(f"kernel quadrature error estimate {err:.3e}")
    return float(val) ** 3, float(ratio) ** 3
