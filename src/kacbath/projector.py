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
to a uniform point on the complement sphere of radius rho. The Monte
Carlo estimator below reads only the 3M system velocities, which see
just 3M of the D complement coordinates. The first k coordinates of a
uniform point on the unit sphere S^(D-1) are distributed as
w / sqrt(|w|^2 + X), with w ~ N(0, I_k) independent of X ~ chi^2_(D-k)
(Diaconis and Freedman, 1987). Take as those 3M coordinates the
complement directions that reach the system block, with an orthonormal
basis Q of the system block whose last three vectors are its mean
directions: they put Q on the system block, scaled by c = sqrt(N/(M+N))
along the mean directions, since the complement direction that moves
the system mean moves the reservoir mean against it. The law of w is
rotation invariant, so the coordinates may be drawn as Q^T w, and the
rotated system block is

    V + rho / sqrt(|w|^2 + X) * A w,
    A = Q diag(1, ..., 1, c, c, c) Q^T
      = I_3M - (1 - c)/M * kron(1_(MxM), I_3),

whatever completion Q has. Each rotation costs 3M normals and one
chi-square variate whatever N is, and no frame of the full phase space,
no basis of the complement and no reservoir coordinate of a rotated
state is ever formed.

Norms and means are with respect to the background Gaussian weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, StateError
from .hermite import HermiteCoeffs, evaluate_basis
from .randomness import GAMMA_SIGMA, RngStream


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
    z: np.ndarray, w: np.ndarray, r2: np.ndarray, m: int
) -> np.ndarray:
    """System block of Haar-rotated states, shape (b, k, 3M).

    `z` holds b states, shape (b, M+N, 3); `w`, shape (b, k, 3M), are
    standard normals and `r2`, shape (b, k), are chi-square draws with
    3N-3 degrees of freedom. Row j of state i is
    V_i + rho_i / sqrt(|w_ij|^2 + r2_ij) * (w_ij @ A), with the mean
    velocity V, the complement radius rho and the matrix A of the
    module docstring.
    """
    total = z.shape[1]
    v = z.mean(axis=1)
    rho2 = np.sum(z * z, axis=(1, 2)) - total * np.sum(v * v, axis=1)
    rho = np.sqrt(np.maximum(rho2, 0.0))
    norms = np.sqrt(np.sum(w * w, axis=-1) + r2)
    norms[norms == 0.0] = 1.0  # probability-zero draw; leaves V
    shrink = (1.0 - sqrt((total - m) / total)) / m
    a = np.eye(3 * m) - shrink * np.kron(np.ones((m, m)), np.eye(3))
    u = (rho[:, None] / norms)[:, :, None] * (w @ a)
    return np.tile(v, m)[:, None, :] + u


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
    `_system_rows` turns these draws into the system block of the
    rotated states in closed form: a rotation costs 3M + 1 draws
    whatever N is, and the reservoir coordinates are never formed.
    """
    if outer < 2:
        raise ConfigError(f"need at least two outer states, got {outer}")
    if inner < 2 or inner % 2:
        raise ConfigError(f"inner sample count must be even and >= 2, got {inner}")
    s = 3 * m
    half = inner // 2

    prods = np.empty(outer)
    done = 0
    while done < outer:
        b = min(chunk, outer - done)
        z = stream.rng.normal(0.0, GAMMA_SIGMA, (b, 3 * (m + n)))
        w = stream.rng.standard_normal((b, inner, s))
        r2 = stream.rng.chisquare(3 * n - 3, (b, inner))
        rows = _system_rows(z.reshape(b, m + n, 3), w, r2, m)
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

    def evaluate(rows: np.ndarray) -> np.ndarray:
        return evaluate_basis(h.basis, rows) @ h.vec

    return _ratio_core(evaluate, denom, m, n, samples, inner, stream)

