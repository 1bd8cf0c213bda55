"""Closed-form convergence bound and the two-regime scaling study.

The distance between the finite-reservoir and infinite-bath evolutions
of the same initial data is bounded by

    B(t) = [ C (1 - e^{-lambda M t}) + b (M/sqrt(N)) (e^{-mu t/3} - e^{-k t}) ]
           * ||h0 - 1||,

with lambda = lambda_S/2 + mu, C the rotation-projector constant,
k the spectral gap of the reservoir generator off the conserved
quantities, l the one-particle averaging defect sup, and
b = mu l / (k - mu/3). The first term is the permanent budget (it
saturates at C ||h0 - 1||); the second is the transient bump, of order
M/sqrt(N) at its peak.

This module measures the bound: measured_bound_params reads C from
lemma1_constant(M, N), k from spectral_gap on the reservoir-symmetric
sector (where it bounds the joint-space gap from above) and l from the
degree blocks of the one-particle bath map, thermostat_block(d); the CLI
and the scaling study both take it. k and l are truncated-space,
per-configuration estimates; nothing assumes they are independent of
(M, N) even though the displayed formula treats them as constants.

Finding (the strict xfail in tests/test_bounds.py): the bump's initial
slope is at most l/((1 + sqrt 3) sqrt M) times the permanent term's,
about 0.18 at M = 1 with l = 0.499, since C sqrt(N) >= (1 + sqrt 3)
sqrt(M) and lambda >= mu; at M = 1, N = 64, unit rates and k in
[0.34, 50] the bump never crosses. Later times are not capped: max_t
term2/term1 reached 0.28 for k > mu/3 (M <= 2, N <= 256) and, for
k << mu/3, where b < 0 and the bump decays at rate k, 0.54 at M = 1
and 1.06-1.09 at M = 4 (N = 64..4096), where it does cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sqrt
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateBoundError, ToleranceError
from .hermite import HermiteCoeffs, make_basis
from .kinematics import ModelParams
from .projector import lemma1_constant
from .spectral import SpectralContext, bath_map_blocks, conserved_norm, spectral_gap

# |k - mu/3| below this is treated as degenerate (the two exponentials
# coincide and b blows up; see make_bound_params).
DEGENERACY_TOL = 1e-12
_PSD_TOL = 1e-12


def lambda_rate(lambda_s: float, mu: float) -> float:
    """Decay-budget rate of the permanent term: lambda_S/2 + mu."""
    if lambda_s < 0.0 or mu < 0.0:
        raise ConfigError("rates must be nonnegative")
    return lambda_s / 2.0 + mu


def estimate_l(d: int) -> float:
    """sup over unit u of sqrt(<u, Tu> - <Tu, Tu>) on the truncation of
    degree <= d, T the one-particle bath map.

    Equals the square root of the top eigenvalue of T - T^2, read on each
    degree block of thermostat_block(d) (bath_map_blocks); T acting on one
    of M tagged particles has the same sup. T is self-adjoint with
    spectrum in [0, 1], so T - T^2 is positive semidefinite; an eigenvalue
    below -1e-12 means the block is broken and raises.
    """
    top = 0.0
    for m, block in enumerate(bath_map_blocks(d)):
        gap = block - block @ block
        evals = np.linalg.eigvalsh(0.5 * (gap + gap.T))
        if evals[0] < -_PSD_TOL:
            raise ToleranceError(
                f"T - T^2 has eigenvalue {evals[0]:.3e} at degree {m}; "
                "the operator assembly violates the contraction property"
            )
        top = max(top, float(evals[-1]))
    return sqrt(top)


@dataclass(frozen=True)
class BoundParams:
    """Assembled constants of the convergence bound."""

    c: float
    lam: float
    mu: float
    k: float
    l: float
    b: float
    h0_norm: float

    def __post_init__(self):
        if not (self.c > 0.0 and self.lam > 0.0 and self.k > 0.0):
            raise ConfigError("C, lambda, and k must all be positive")
        if self.l < 0.0 or self.h0_norm < 0.0:
            raise ConfigError("l and ||h0 - 1|| cannot be negative")
        if self.l > 0.0 and self.b * (self.k - self.mu / 3.0) < 0.0:
            raise ConfigError("b must carry the sign of k - mu/3")


def make_bound_params(
    c: float,
    lambda_s: float,
    mu: float,
    k: float,
    l: float,
    h0_norm: float,
) -> BoundParams:
    """Assemble BoundParams, guarding the b = mu l / (k - mu/3) pole.

    Within DEGENERACY_TOL of k = mu/3 the two exponentials of the bump
    coincide and the transient degenerates to mu l t e^{-mu t/3}; that
    limit form is not implemented, so the caller must perturb k or mu.
    """
    denom = k - mu / 3.0
    if abs(denom) < DEGENERACY_TOL:
        raise DegenerateBoundError(
            f"k - mu/3 = {denom:.3e}: the bump coefficient diverges; in this "
            "limit the transient term becomes mu*l*t*exp(-mu*t/3), so rerun "
            "with separated rates instead"
        )
    return BoundParams(
        c=c,
        lam=lambda_rate(lambda_s, mu),
        mu=mu,
        k=k,
        l=l,
        b=mu * l / denom,
        h0_norm=h0_norm,
    )


def measured_bound_params(ctx: SpectralContext, h0: HermiteCoeffs) -> BoundParams:
    """BoundParams of the configuration (ctx.p, ctx.d) and the data h0, with
    every constant measured: C = lemma1_constant(M, N), k = spectral_gap(ctx)
    and l = estimate_l(ctx.d); lambda_S and mu are those of ctx.p."""
    p = ctx.p
    return make_bound_params(c=lemma1_constant(p.m, p.n), lambda_s=p.lambda_s, mu=p.mu,
                             k=spectral_gap(ctx), l=estimate_l(ctx.d),
                             h0_norm=h0.fluctuation_norm())


class BoundCurve(NamedTuple):
    times: tuple[float, ...]
    total: tuple[float, ...]
    term1: tuple[float, ...]
    term2: tuple[float, ...]


def bound_curve(bp: BoundParams, m: int, n: int, times) -> BoundCurve:
    """Pointwise bound values with the permanent and bump terms split out.

    term1 = C (1 - e^{-lambda M t}) ||h0-1|| is nondecreasing from 0 to
    C ||h0-1||; term2 = b (M/sqrt(N)) (e^{-mu t/3} - e^{-k t}) ||h0-1||
    vanishes at 0 and infinity and is nonnegative whenever k > mu/3.
    """
    if m < 1 or n < 1:
        raise ConfigError(f"need M >= 1, N >= 1, got M={m}, N={n}")
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ConfigError("times must be finite and nonnegative")
    t1 = bp.c * (1.0 - np.exp(-bp.lam * m * arr)) * bp.h0_norm
    shape = np.exp(-bp.mu * arr / 3.0) - np.exp(-bp.k * arr)
    t2 = bp.b * (m / sqrt(n)) * shape * bp.h0_norm
    return BoundCurve(
        times=tuple(float(x) for x in arr),
        total=tuple(float(x) for x in t1 + t2),
        term1=tuple(float(x) for x in t1),
        term2=tuple(float(x) for x in t2),
    )


def bump_peak(bp: BoundParams, m: int, n: int) -> tuple[float, float]:
    """Peak of the transient term and its location, in closed form.

    For k != mu/3 the maximum of e^{-at} - e^{-bt} with a = mu/3, b = k
    sits at t* = log(b/a)/(b - a).
    """
    a = bp.mu / 3.0
    b = bp.k
    if a <= 0.0:
        raise ConfigError("bump peak undefined for mu = 0")
    tstar = log(b / a) / (b - a)
    val = bp.b * (m / sqrt(n)) * (exp(-a * tstar) - exp(-b * tstar)) * bp.h0_norm
    return val, tstar


def perturbation_data(family: str, eps: float, m: int) -> HermiteCoeffs:
    """Named initial-density families, as mean-one Hermite data on 3M vars.

    h1_v1x is 1 + eps h1(v1x); h2_aniso is 1 + eps (h2(v1x) - h2(v1y)).
    """
    b_deg = {"h1_v1x": 1, "h2_aniso": 2}
    if family not in b_deg:
        raise ConfigError(f"unknown perturbation family {family!r}")
    if not np.isfinite(eps):
        raise ConfigError(f"eps must be finite, got {eps!r}")
    b = make_basis(3 * m, b_deg[family])
    vec = np.zeros(b.size)
    vec[0] = 1.0
    def key(var: int, power: int):
        return tuple(power if i == var else 0 for i in range(3 * m))
    if family == "h1_v1x":
        vec[b.index[key(0, 1)]] = eps
    else:
        vec[b.index[key(0, 2)]] = eps
        vec[b.index[key(1, 2)]] = -eps
    return HermiteCoeffs(b, vec)


def anisotropic_pair_data(eps: float) -> HermiteCoeffs:
    """Initial density 1 + eps (h2(v1x) - h2(v1y)) on one tagged particle:
    the h2_aniso family at M = 1.

    The perturbation is a trace-free second-degree harmonic, orthogonal
    to the total energy and to every momentum component and their
    products, so its long-time survival under the reservoir coupling
    comes only through the momentum-quadratic invariants and scales
    like 1/(M+N); energy-carrying data would instead leave a 1/sqrt(N)
    residue. The perturbation is unbounded below, so only small |eps|
    gives a true (nonnegative) density; the importance sampler checks
    pointwise rather than this constructor.
    """
    return perturbation_data("h2_aniso", eps, 1)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    limit: float
    gap: float
    bump: float


@dataclass(frozen=True)
class ScalingStudy:
    """Two-regime scaling table across reservoir sizes at fixed M.

    Per N: the long-time limit of the distance between the two flows
    (permanent regime, expected ~ M/N) and the closed-form peak of the
    bound's transient term evaluated with that configuration's measured
    spectral gap (bump regime, expected ~ M/sqrt(N)). `p` and `q` are
    the least-squares power-law exponents of the two columns, the limits
    fitted against M + N and the peaks against N.
    """

    m: int
    degree: int
    eps: float
    rows: tuple[ScalingRow, ...]
    p: float
    q: float


def scaling_study(
    m: int,
    ns: tuple[int, ...] = (2, 4, 8, 16),
    eps: float = 0.2,
    lambda_s: float = 1.0,
    lambda_r: float = 1.0,
    mu: float = 1.0,
    d: int = 2,
) -> ScalingStudy:
    """Measure both scaling regimes of the coupling distance.

    For each reservoir size, on the h2_aniso perturbation h0 of the first
    of the M tagged particles: the long-time limit of the distance, the
    spectral gap, and the bound's bump peak with the constants of
    measured_bound_params. The reservoir
    flow tends to Pi h0, the projection onto the conserved quantities, and
    with mu > 0 the thermostat relaxes every tagged mode, so the bath flow
    tends to 1: the limit is ||Pi h0 - 1|| (conserved_norm), and at mu = 0
    its kernel count check raises. Both read one reservoir generator on
    the reservoir-symmetric sector, of the same size at every N, so the
    study reaches any reservoir size; that gap bounds the joint-space gap
    from above only. Fits log-log power laws through both columns: the
    limits against M + N, the bump peaks against N.
    """
    if len(ns) < 2:
        raise ConfigError("need at least two reservoir sizes to fit exponents")
    if len(set(ns)) != len(ns):
        raise ConfigError(f"reservoir sizes must be distinct to fit exponents, got {list(ns)}")
    h0 = perturbation_data("h2_aniso", eps, m)
    if d < h0.degree():
        raise ConfigError(f"degree cap {d} below h0 degree {h0.degree()}")
    # every context checks its sector's size when it is made, so an
    # oversized one is refused before the first row is built; each is
    # dropped once its row is read
    contexts = [SpectralContext(ModelParams(m, n, lambda_s=lambda_s, lambda_r=lambda_r,
                                            mu=mu), d) for n in ns]
    rows = []
    while contexts:
        ctx = contexts.pop(0)
        limit = conserved_norm(ctx.sector_reservoir, ctx.sector.tagged_coeffs(h0).vec)
        bp = measured_bound_params(ctx, h0)
        bump, _ = bump_peak(bp, m, ctx.p.n)
        rows.append(ScalingRow(n=ctx.p.n, limit=limit, gap=bp.k, bump=bump))

    # the limits fall like (M+N)^-p (h2_aniso gives ||h0 - 1||/(M+N)), the
    # bump peaks like N^-q
    p_fit = -float(np.polyfit(np.log([m + r.n for r in rows]),
                              np.log([r.limit for r in rows]), 1)[0])
    q_fit = -float(np.polyfit(np.log([r.n for r in rows]),
                              np.log([r.bump for r in rows]), 1)[0])
    return ScalingStudy(
        m=m, degree=d, eps=eps, rows=tuple(rows), p=p_fit, q=q_fit
    )
