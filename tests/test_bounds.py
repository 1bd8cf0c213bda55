"""Bound formula, its constants, the bump, and the scaling study."""

import numpy as np
import pytest
from math import exp, sqrt

from kacbath import ModelParams, assemble_T, bound_curve, estimate_l, make_bound_params
from kacbath.bounds import anisotropic_pair_data, bump_peak, lambda_rate, scaling_study
from kacbath.errors import ConfigError, DegenerateBoundError, ToleranceError


def _params(k: float = 0.5, l: float = 0.4714, c: float = 3.27,
            mu: float = 1.0, lambda_s: float = 1.0, h0_norm: float = 0.3):
    return make_bound_params(c=c, lambda_s=lambda_s, mu=mu, k=k, l=l,
                             h0_norm=h0_norm)


def test_lambda_rate_values():
    assert lambda_rate(0.0, 0.0) == 0.0
    assert lambda_rate(2.0, 3.0) == 4.0
    assert lambda_rate(1.0, 1.0) == 1.5


def test_estimate_l_values():
    # degree-1 block: 2/3 - (2/3)^2 = 2/9
    assert estimate_l(assemble_T(1, 1)) == pytest.approx(sqrt(2.0 / 9.0), abs=1e-12)
    # frozen full-truncation values; the sup is attained at degree 2
    l2 = estimate_l(assemble_T(1, 2))
    assert l2 == pytest.approx(0.49888765156985887, abs=1e-12)
    l4 = estimate_l(assemble_T(1, 4))
    assert l4 >= l2 - 1e-15
    # the variational sup never exceeds 1/2 for a PSD contraction
    assert l4 <= 0.5 + 1e-12


def test_bound_params_validation():
    bp = _params()
    assert bp.b == pytest.approx(1.0 * 0.4714 / (0.5 - 1.0 / 3.0), rel=1e-12)
    with pytest.raises(DegenerateBoundError):
        _params(k=1.0 / 3.0, mu=1.0)
    with pytest.raises(ConfigError):
        make_bound_params(c=-1.0, lambda_s=1.0, mu=1.0, k=0.5, l=0.4, h0_norm=0.3)


def test_bound_curve_endpoints_and_shape():
    bp = _params()
    times = np.linspace(0.0, 60.0, 200)
    bc = bound_curve(bp, 1, 4, times)
    assert bc.total[0] == 0.0
    assert bc.total[-1] == pytest.approx(bp.c * bp.h0_norm, rel=1e-6)
    # term1 nondecreasing; term2 nonnegative when k > mu/3
    t1 = np.array(bc.term1)
    assert np.all(np.diff(t1) >= -1e-15)
    assert min(bc.term2) >= -1e-15


def test_bump_peak_closed_form():
    bp = _params(k=0.5, mu=1.0)
    val, tstar = bump_peak(bp, 1, 4)
    a, b = 1.0 / 3.0, 0.5
    want_t = np.log(b / a) / (b - a)
    assert tstar == pytest.approx(want_t, rel=1e-12)
    want = bp.b * (1 / sqrt(4)) * (exp(-a * want_t) - exp(-b * want_t)) * bp.h0_norm
    assert val == pytest.approx(want, rel=1e-12)
    # grid maximum of term2 agrees with the closed form
    times = np.linspace(0.0, 30.0, 20001)
    bc = bound_curve(bp, 1, 4, times)
    assert max(bc.term2) == pytest.approx(val, rel=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="at M=1, N=64, unit rates, k in [0.34, 50] and t <= 50 (the "
    "sweep below) the bump never crosses the permanent term: with the closed-form "
    "contraction constant the initial slopes give term2/term1 at most "
    "l/((1+sqrt(3)) sqrt(M)), about 0.18 at M=1, since C sqrt(N) >= "
    "(1+sqrt(3)) sqrt(M) and lambda >= mu. Later times are not capped: "
    "for k << mu/3 max_t term2/term1 reaches 0.54 at M=1 and 1.06-1.09 at "
    "M=4 (N=64..4096), where it does cross (see the bounds module docstring)",
)
def test_bump_crosses_permanent_term_at_n64():
    m, n = 1, 64
    from kacbath import lemma1_constant

    c = lemma1_constant(m, n).c
    l = estimate_l(assemble_T(1, 2))
    times = np.geomspace(1e-6, 50.0, 4000)
    crossed = False
    # the claim is k-independent, so sweep k across everything plausible
    # rather than read the one measured gap (65/192 at d = 2)
    for k in np.geomspace(0.34, 50.0, 40):
        bp = make_bound_params(c=c, lambda_s=1.0, mu=1.0, k=float(k),
                               l=l, h0_norm=0.3)
        bc = bound_curve(bp, m, n, times)
        crossed = crossed or any(
            t2 > t1 for t1, t2 in zip(bc.term1, bc.term2))
    assert crossed


def test_permanent_term_dominates_late():
    # beyond 10/min(mu/3, k) the transient is negligible against term1
    bp = _params()
    horizon = 10.0 / min(bp.mu / 3.0, bp.k)
    times = np.linspace(horizon, 4.0 * horizon, 50)
    bc = bound_curve(bp, 1, 8, times)
    assert all(t1 > t2 for t1, t2 in zip(bc.term1, bc.term2))


def test_anisotropic_data_properties():
    h = anisotropic_pair_data(0.25)
    assert h.mean() == pytest.approx(1.0, abs=0)
    assert h.fluctuation_norm() == pytest.approx(0.25 * sqrt(2.0), rel=1e-15)
    assert h.degree() == 2


def test_estimate_l_rejects_broken_operator():
    from kacbath.hermite import make_basis
    from kacbath.spectral import OperatorMatrix

    b = make_basis(1, 1)
    bad = OperatorMatrix.from_raw("bad", b, ([0, 1], [0, 1], [1.0, 2.0]))  # not a contraction
    with pytest.raises(ToleranceError):
        estimate_l(bad)


def test_scaling_study_two_sizes_smoke():
    # a cheap two-point run: exponents are defined and the gap column
    # carries the measured per-size values
    study = scaling_study(1, ns=(2, 4), eps=0.2)
    assert study.rows[0].gap == pytest.approx(0.5, abs=1e-9)
    assert study.rows[1].gap == pytest.approx(5.0 / 12.0, abs=1e-9)
    # the limit column follows ||h0-1||/(M+N)
    want0 = 0.2 * sqrt(2.0) / 3.0
    assert study.rows[0].limit == pytest.approx(want0, rel=1e-5)
    assert study.p > 0.0 and study.q > 0.0
    with pytest.raises(ConfigError):
        scaling_study(1, ns=(4,))
    with pytest.raises(ConfigError, match="degree cap 1 below h0 degree 2"):
        scaling_study(1, ns=(2, 4), d=1)


def test_scaling_study_rejects_duplicate_sizes():
    # two equal sizes leave one point to fit a line through; the fit
    # would be rank deficient, so it must fail before any work is done
    with pytest.raises(ConfigError, match="distinct"):
        scaling_study(1, ns=(4, 4))
    with pytest.raises(ConfigError, match="distinct"):
        scaling_study(1, ns=(2, 4, 2))
