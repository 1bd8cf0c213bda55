"""Rotation-average projector and its contraction constant.

The symmetry group acting on the joint phase space is the subgroup of
SO(3(M+N)) that fixes the three total-momentum directions; orthogonality
already preserves the total energy. Averaging a function over that
group (Haar measure) projects onto its rotation-invariant part, written
R[h] throughout.

A state z splits into its momentum part, the mean velocity V repeated
on every particle, and the rest, which lies in the D = 3(M+N)-3
dimensional complement and has squared radius
rho^2 = |z|^2 - (M+N)|V|^2. A Haar rotation keeps V and sends the rest
to a uniform point on the complement sphere of radius rho, so R[h](z)
depends on z only through its orbit (V, rho). Under the background
Gaussian, sigma^2 per coordinate, V ~ N(0, sigma^2/(M+N) I_3) and
rho^2 ~ sigma^2 chi^2_D are independent (Cochran's theorem), and the
Monte Carlo estimator below draws the orbit, never the state.

The estimator reads only the 3M system velocities, which see just 3M of
the D complement coordinates. The first k coordinates of a uniform
point on the unit sphere S^(D-1) are distributed as w / sqrt(|w|^2 + X),
with w ~ N(0, I_k) independent of X ~ chi^2_(D-k) (Diaconis and
Freedman, 1987). Take as those 3M coordinates the complement directions
that reach the system block, with an orthonormal basis Q of the system
block whose last three vectors are its mean directions: they put Q on
the system block, scaled by c = sqrt(N/(M+N)) along the mean
directions, since the complement direction that moves the system mean
moves the reservoir mean against it. The law of w is rotation
invariant, so the coordinates may be drawn as Q^T w, and the rotated
system block is

    V + rho / sqrt(|w|^2 + X) * A w,
    A = Q diag(1, ..., 1, c, c, c) Q^T
      = I_3M - (1 - c)/M * kron(1_(MxM), I_3),

whatever completion Q has. A couples a column only to the same velocity
component of every system particle, so the columns S that h reads need
only the coordinates R = {i : i mod 3 in S mod 3} of w; the rest of w
enters through its squared norm alone, which joins X as one chi-square
variate with 3M - |R| + 3N - 3 degrees of freedom. An outer state costs
3 normals and one chi-square variate, a rotation |R| normals and one
chi-square variate, whatever N is; no state, no frame of the phase
space, no basis of the complement and no reservoir coordinate is ever
formed.

Norms and means are with respect to the background Gaussian weight.
"""

from __future__ import annotations

from math import sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, StateError
from .hermite import HermiteCoeffs, make_basis
from .randomness import GAMMA_SIGMA, RngStream

# Outer states whose draws _ratio_core takes in one call of _draws.
OUTER_CHUNK = 256


def lemma1_constant(m: int, n: int) -> float:
    """C(M, N) = sqrt(3M/(3N-5)) + sqrt(((M+N)/N)^3 - 1).

    Controls ||R[h] - 1|| <= C ||h - 1|| for mean-one functions h of
    the system velocities alone; both terms vanish like sqrt(M/N).
    """
    if m < 1:
        raise ConfigError(f"M must be >= 1, got {m}")
    if 3 * n - 5 <= 0:
        raise ConfigError(f"N too small for a finite constant: N={n}")
    return sqrt(3.0 * m / (3 * n - 5)) + sqrt(((m + n) / n) ** 3 - 1.0)


def _reach(cols: np.ndarray, m: int) -> np.ndarray:
    """The system coordinates R = {i : i mod 3 in cols mod 3}, ascending:
    the rows of A that are nonzero on the columns `cols`."""
    return np.flatnonzero(np.isin(np.arange(3 * m) % 3, cols % 3))


def _draws(rng: np.random.Generator, b: int, inner: int, m: int, n: int,
           width: int):
    """Random input of b outer states with `inner` rotations each.

    Drawn in this order: the mean velocities V, shape (b, 3); the
    squared complement radii rho^2, shape (b,); the normals w on a reach
    of `width` coordinates, shape (b, inner, width); and the chi-square
    variates r2 with 3M - width + 3N - 3 degrees of freedom, shape
    (b, inner).
    """
    total = m + n
    v = rng.normal(0.0, GAMMA_SIGMA / sqrt(total), (b, 3))
    rho2 = GAMMA_SIGMA**2 * rng.chisquare(3 * total - 3, b)
    w = rng.standard_normal((b, inner, width))
    r2 = rng.chisquare(3 * total - 3 - width, (b, inner))
    return v, rho2, w, r2


def _system_rows(
    v: np.ndarray, rho2: np.ndarray, w: np.ndarray, r2: np.ndarray,
    m: int, n: int, cols: np.ndarray,
) -> np.ndarray:
    """Columns `cols` of the rotated system block, shape (b, k, len(cols)).

    `v`, shape (b, 3), and `rho2`, shape (b,), are the mean velocities
    and squared complement radii of b states; `w`, shape (b, k, |R|),
    are standard normals on the reach R = _reach(cols, m), and `r2`,
    shape (b, k), are chi-square variates with 3M - |R| + 3N - 3 degrees
    of freedom. Row j of state i is
    V_i[cols mod 3] + rho_i / sqrt(|w_ij|^2 + r2_ij) * (w_ij @ A[R, cols])
    with the matrix A of the module docstring.
    """
    reach = _reach(cols, m)
    norms = np.sqrt(np.sum(w * w, axis=-1) + r2)
    norms[norms == 0.0] = 1.0  # probability-zero draw; leaves V
    shrink = (1.0 - sqrt(n / (m + n))) / m
    a = (reach[:, None] == cols) - shrink * (reach[:, None] % 3 == cols % 3)
    u = (np.sqrt(rho2)[:, None] / norms)[:, :, None] * (w @ a)
    return v[:, cols % 3][:, None, :] + u


class Lemma1Estimate(NamedTuple):
    ratio: float
    stderr: float
    fluctuation_norm: float
    outer: int
    inner: int


def _ratio_core(
    evaluate: Callable[[np.ndarray], np.ndarray],
    fluctuation_norm: float,
    m: int,
    n: int,
    cols: np.ndarray,
    outer: int,
    inner: int,
    stream: RngStream,
) -> Lemma1Estimate:
    """Nested estimator for ||R[h] - 1|| / ||h - 1||.

    `evaluate` maps rows of the system columns `cols`, shape
    (k, len(cols)), to h values, shape (k,). Outer states are drawn from
    the background Gaussian; per state, two independent half-sample
    rotation averages A and B give the unbiased square
    E[(A-1)(B-1)] = (R[h](z) - 1)^2, which a plain single-loop average of
    squares would overestimate. The outer mean of the products is
    clamped at zero before the square root; the error bar follows by the
    delta method.

    Each chunk of OUTER_CHUNK outer states (fewer in the last) takes its
    draws from `_draws`: the orbits (V, rho^2) of the states, then per
    rotation the normals on the reach of `cols` and one chi-square
    variate. `_system_rows` turns them into the columns `cols` of the
    rotated system block in closed form; neither cost grows with N.
    """
    if outer < 2:
        raise ConfigError(f"need at least two outer states, got {outer}")
    if inner < 2 or inner % 2:
        raise ConfigError(f"inner sample count must be even and >= 2, got {inner}")
    width = len(_reach(cols, m))
    half = inner // 2

    prods = np.empty(outer)
    done = 0
    while done < outer:
        b = min(OUTER_CHUNK, outer - done)
        v, rho2, w, r2 = _draws(stream.rng, b, inner, m, n, width)
        rows = _system_rows(v, rho2, w, r2, m, n, cols)
        vals = evaluate(rows.reshape(b * inner, len(cols))).reshape(b, inner)
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
    if m < 1 or n < 2:
        raise ConfigError(f"Lemma-1 estimate needs M >= 1, N >= 2, got M={m}, N={n}")
    if h.basis.nvars != 3 * m:
        raise StateError(
            f"h must live on {3 * m} variables, got {h.basis.nvars}"
        )
    if abs(h.mean() - 1.0) > 1e-12:
        raise StateError(f"h must have unit mean, got {h.mean()!r}")
    denom = h.fluctuation_norm()
    if denom == 0.0:
        raise StateError("h is constant; the ratio is undefined")

    # the variables with a nonzero exponent in some active coefficient
    cols = np.flatnonzero(h.basis.exponents[h.vec != 0.0].any(axis=0))
    restricted = make_basis(len(cols), h.basis.degree)
    vec = np.zeros(restricted.size)
    for j in np.flatnonzero(h.vec):
        vec[restricted.index[tuple(h.basis.exponents[j, cols].tolist())]] = h.vec[j]
    evaluate = HermiteCoeffs(restricted, vec).evaluate
    return _ratio_core(evaluate, denom, m, n, cols, samples, inner, stream)

