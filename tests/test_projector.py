"""Momentum frame, rotation-average projector, contraction constant."""

import numpy as np
import pytest
from math import sqrt

from kacbath.errors import ConfigError, StateError
from kacbath.hermite import HermiteCoeffs, make_basis
from kacbath.kinematics import JointState, total_energy, total_momentum
from kacbath.projector import (
    _draws,
    _ratio_core,
    _reach,
    _system_rows,
    estimate_lemma1_ratio,
    lemma1_constant,
)
from kacbath.randomness import GAMMA_SIGMA, RngStream
from conditioning_kernel import verify_gaussian_identity
from rotation_oracle import (
    build_frame,
    full_rotation_ratio,
    rotated_states,
    sample_momentum_preserving_rotation,
)


def _mean_one_h1(m: int, eps: float, var: int = 0) -> HermiteCoeffs:
    """1 + eps h1 of system variable `var` (v1x by default)."""
    b = make_basis(3 * m, 1)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    vec[b.index[tuple(1 if i == var else 0 for i in range(3 * m))]] = eps
    return HermiteCoeffs(b, vec)


def _orbit(z: np.ndarray, m: int, n: int):
    """Mean velocity, shape (1, 3), and squared complement radius, shape
    (1,), of one flat state z."""
    v = z.reshape(m + n, 3).mean(axis=0)
    return v[None], np.array([z @ z - (m + n) * (v @ v)])


def test_frame_is_orthogonal():
    for m, n in [(1, 2), (2, 3), (3, 5)]:
        frame = build_frame(m, n)
        np.testing.assert_allclose(
            frame.p.T @ frame.p, np.eye(frame.dim), atol=1e-12
        )


def test_frame_g_and_l_closed_forms():
    m, n = 2, 3
    frame = build_frame(m, n)
    root = sqrt(m + n)
    for i in range(3):
        # e_i has entries 1/sqrt(M) on system slots, so g_i = sqrt(M) e_i / root
        # is flat: every component-i slot carries 1/sqrt(M+N)
        g = np.zeros(3 * (m + n))
        g[i: 3 * m: 3] = 1.0 / root
        g[3 * m + i:: 3] = 1.0 / root
        np.testing.assert_allclose(frame.g[:, i], g, atol=1e-12)
        l = np.zeros(3 * (m + n))
        l[i: 3 * m: 3] = sqrt(n) / sqrt(m) / root
        l[3 * m + i:: 3] = -sqrt(m) / sqrt(n) / root
        np.testing.assert_allclose(frame.l[:, i], l, atol=1e-12)


def _flat(s: JointState) -> np.ndarray:
    """The 3(M+N) velocity components of s, v first."""
    return np.concatenate([s.v.ravel(), s.w.ravel()])


def test_frame_g_coordinates_encode_total_momentum():
    m, n = 1, 3
    frame = build_frame(m, n)
    s = JointState(
        RngStream(2, 0).rng.normal(size=(m, 3)),
        RngStream(2, 1).rng.normal(size=(n, 3)),
    )
    y = frame.coordinates(_flat(s))
    mean_velocity = total_momentum(s) / (m + n)
    np.testing.assert_allclose(
        y[frame.g_slots], sqrt(m + n) * mean_velocity, atol=1e-12
    )


def test_lemma1_constant_values():
    # sqrt(3M/(3N-5)) + sqrt(((M+N)/N)^3 - 1), frozen at two sizes, as a float
    assert type(lemma1_constant(1, 100)) is float
    assert lemma1_constant(1, 100) == pytest.approx(0.27491572107446327, abs=1e-15)
    assert lemma1_constant(2, 50) == pytest.approx(0.5567800562919677, abs=1e-15)
    # large-N decay ~ sqrt(3M)*N^{-1/2} + ...: the constant keeps shrinking
    assert lemma1_constant(1, 1000) < lemma1_constant(1, 100)
    with pytest.raises(ConfigError):
        lemma1_constant(1, 1)
    with pytest.raises(ConfigError):
        lemma1_constant(0, 4)


def _rotated(s: JointState, count: int, stream: RngStream) -> np.ndarray:
    """`count` Haar-rotated copies of s as a (count, M+N, 3) array."""
    m, n = len(s.v), len(s.w)
    rows = rotated_states(build_frame(m, n), _flat(s), count, stream)
    assert rows.shape == (count, 3 * (m + n))
    return rows.reshape(count, m + n, 3)


def _energy_and_momentum(rows: np.ndarray):
    return np.sum(rows * rows, axis=(1, 2)), rows.sum(axis=1)


def test_rotation_average_fixes_invariants():
    # h depending only on energy and momentum is pointwise fixed by R
    s = JointState(
        RngStream(4, 0).rng.normal(size=(1, 3)),
        RngStream(4, 1).rng.normal(size=(3, 3)),
    )
    mom = total_momentum(s)
    want = total_energy(s) + 0.5 * float(mom @ mom)
    energy, momentum = _energy_and_momentum(_rotated(s, 64, RngStream(4, 2)))
    np.testing.assert_allclose(energy, total_energy(s), rtol=1e-12)
    np.testing.assert_allclose(momentum, np.broadcast_to(mom, (64, 3)),
                               rtol=1e-12, atol=1e-12)
    vals = energy + 0.5 * np.sum(momentum * momentum, axis=1)
    np.testing.assert_allclose(vals, want, rtol=1e-12)
    assert vals.mean() == pytest.approx(want, rel=1e-12)
    assert vals.std(ddof=1) / sqrt(64) == pytest.approx(0.0, abs=1e-12)


def test_rotated_states_preserve_energy_and_momentum():
    s = JointState(
        RngStream(6, 0).rng.normal(size=(2, 3)),
        RngStream(6, 1).rng.normal(size=(4, 3)),
    )
    mom = total_momentum(s)
    for stream in (RngStream(6, 2), RngStream(6, 3)):
        rows = _rotated(s, 128, stream)
        # a rotation moves the state: rows differ from s and from each other
        assert np.all(np.abs(rows[:, 0] - s.v[0]).max(axis=1) > 1e-6)
        energy, momentum = _energy_and_momentum(rows)
        np.testing.assert_allclose(energy, total_energy(s), rtol=1e-12)
        assert energy.std(ddof=1) / sqrt(128) < 1e-12
        np.testing.assert_allclose(momentum, np.broadcast_to(mom, (128, 3)), rtol=1e-10)
        assert momentum[:, 0].std(ddof=1) / sqrt(128) < 1e-12


def test_system_rows_equal_the_full_rotation_block():
    # the closed form, fed Q w for the first 3M entries w of one full
    # complement draw (Q = [a^T | e^T], the oracle frame's system basis)
    # and the squared norm of the rest, gives the oracle's system block
    for m, n in [(1, 2), (2, 3), (3, 5)]:
        frame = build_frame(m, n)
        s, count = 3 * m, 40
        z = RngStream(50, 10 * m + n).rng.normal(0.0, GAMMA_SIGMA, frame.dim)
        u = RngStream(51, 10 * m + n).rng.standard_normal(
            (count, len(frame.complement_slots)))
        want = rotated_states(frame, z, count, RngStream(51, 10 * m + n))[:, :s]
        w = u[:, :s] @ frame.system_basis.T
        got = _system_rows(*_orbit(z, m, n), w[None],
                           np.sum(u[None, :, s:] ** 2, axis=2), m, n, np.arange(s))
        assert got.shape == (1, count, s)
        np.testing.assert_allclose(got[0], want, rtol=0.0, atol=1e-12)


def _moment_z(rows: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Largest |z| of the sample mean and the sample covariance about the
    exact mean, entry by entry, against their closed forms."""
    k = len(rows)
    x = rows - mean
    z_mean = x.mean(axis=0) / np.sqrt(np.diag(cov) / k)
    prods = x[:, :, None] * x[:, None, :]
    z_cov = (prods.mean(axis=0) - cov) / (prods.std(axis=0, ddof=1) / sqrt(k))
    return max(np.abs(z_mean).max(), np.abs(z_cov).max())


def test_system_rows_have_the_haar_mean_and_covariance():
    # for a fixed state the system block of a Haar rotation has mean
    # P_sg y_g and covariance rho^2/D P_sc P_sc^T, D = 3(M+N) - 3
    m, n = 2, 3
    frame = build_frame(m, n)
    s = 3 * m
    comp, gsl = frame.complement_slots, frame.g_slots
    z = RngStream(60, 0).rng.normal(0.0, GAMMA_SIGMA, frame.dim)
    y = frame.coordinates(z)
    rho2 = float(y[comp] @ y[comp])
    mean = frame.p[:s, gsl] @ y[gsl]
    cov = rho2 / len(comp) * frame.p[:s, comp] @ frame.p[:s, comp].T

    rng = RngStream(60, 1).rng
    w = rng.standard_normal((1, 20_000, s))
    r2 = rng.chisquare(len(comp) - s, (1, 20_000))
    marginal = _system_rows(*_orbit(z, m, n), w, r2, m, n, np.arange(s))[0]
    assert _moment_z(marginal, mean, cov) <= 5.0

    stream = RngStream(60, 2)
    dense = np.array([(sample_momentum_preserving_rotation(frame, stream) @ z)[:s]
                      for _ in range(4000)])
    assert _moment_z(dense, mean, cov) <= 5.0


@pytest.mark.parametrize("cols, reach", [((4,), [1, 4, 7]),
                                         ((0, 5), [0, 2, 3, 5, 6, 8])])
def test_column_subset_rows_have_the_haar_mean_and_covariance(cols, reach):
    # the estimator's reduced draws on the reach of a column subset S
    # (v2y, then v1x and v2z, at M=3) give those columns the Haar mean and
    # covariance of the full system block; the chi-square variate carries
    # the squared norm of every unread coordinate, so a wrong degree of
    # freedom moves the covariance
    m, n = 3, 3
    frame = build_frame(m, n)
    s, cols = 3 * m, np.array(cols)
    comp, gsl = frame.complement_slots, frame.g_slots
    z = RngStream(61, 0).rng.normal(0.0, GAMMA_SIGMA, frame.dim)
    y = frame.coordinates(z)
    mean = (frame.p[:s, gsl] @ y[gsl])[cols]
    pc = frame.p[cols][:, comp]
    cov = float(y[comp] @ y[comp]) / len(comp) * pc @ pc.T

    assert _reach(cols, m).tolist() == reach
    _, _, w, r2 = _draws(RngStream(61, 1).rng, 1, 40_000, m, n, len(reach))
    rows = _system_rows(*_orbit(z, m, n), w, r2, m, n, cols)[0]
    assert rows.shape == (40_000, len(cols))
    assert _moment_z(rows, mean, cov) <= 5.0


def test_drawn_orbits_follow_the_closed_form():
    # V ~ N(0, sigma^2/(M+N) I_3) and rho^2 ~ sigma^2 chi^2_D, D = 3(M+N)-3,
    # independent: mean and covariance of (V, rho^2) against their closed forms
    m, n, k = 2, 5, 40_000
    total = m + n
    d = 3 * total - 3
    v, rho2, _, _ = _draws(RngStream(62, 0).rng, k, 2, m, n, m)
    x = np.column_stack([v, rho2])
    mean = np.array([0.0, 0.0, 0.0, GAMMA_SIGMA**2 * d])
    cov = np.diag([GAMMA_SIGMA**2 / total] * 3 + [2.0 * GAMMA_SIGMA**4 * d])
    assert _moment_z(x, mean, cov) <= 5.0


def test_estimator_rows_follow_the_background_gaussian():
    # a rotated background state is again background-distributed, so the
    # system rows the estimator evaluates have mean 0 and covariance
    # GAMMA_SIGMA^2 I; averaging within each outer state leaves independent
    # outer samples for the z-scores
    m, n, outer, inner = 2, 3, 2000, 16
    seen = []

    def evaluate(rows: np.ndarray) -> np.ndarray:
        seen.append(rows.copy())
        return np.ones(len(rows))

    _ratio_core(evaluate, 1.0, m, n, np.arange(3 * m), outer, inner, RngStream(80, 0))
    rows = np.concatenate(seen).reshape(outer, inner, 3 * m)
    first = rows.mean(axis=1)
    second = (rows[:, :, :, None] * rows[:, :, None, :]).mean(axis=1)
    z_first = first.mean(axis=0) / (first.std(axis=0, ddof=1) / sqrt(outer))
    z_second = ((second.mean(axis=0) - GAMMA_SIGMA**2 * np.eye(3 * m))
                / (second.std(axis=0, ddof=1) / sqrt(outer)))
    assert max(np.abs(z_first).max(), np.abs(z_second).max()) <= 5.0


def test_system_block_estimator_matches_full_rotation_estimator():
    # the same nested estimator on whole rotated states (test-side oracle),
    # on independent streams: the two ratios agree within 4 combined stderr
    for m, n in [(1, 2), (2, 4), (1, 8)]:
        b = make_basis(3 * m, 2)
        vec = np.zeros(b.size)
        vec[0] = 1.0
        vec[b.index[tuple(2 if i == 0 else 0 for i in range(3 * m))]] = 0.3
        vec[b.index[tuple(1 if i < 2 else 0 for i in range(3 * m))]] = 0.3
        h = HermiteCoeffs(b, vec)
        est = estimate_lemma1_ratio(h, m, n, 2000, RngStream(70, 10 * m + n))
        ratio, stderr = full_rotation_ratio(h, m, n, 2000, RngStream(71, 10 * m + n))
        assert abs(est.ratio - ratio) <= 4.0 * sqrt(est.stderr**2 + stderr**2), (
            m, n, est, ratio, stderr)


def test_ratio_for_linear_data_matches_momentum_overlap():
    # R maps 1 + eps h1(v) to 1 + eps/(M+N) h1 of the total momentum
    # direction of the same component, so the ratio is exactly
    # 1/sqrt(M+N); v is v1x, and v2y (variable 4) in the last case
    for m, n, var in [(1, 2, 0), (1, 4, 0), (2, 4, 0), (2, 8, 4)]:
        h = _mean_one_h1(m, 0.5, var)
        est = estimate_lemma1_ratio(h, m, n, 3000, RngStream(20 + m, n), inner=64)
        want = 1.0 / sqrt(m + n)
        assert abs(est.ratio - want) <= 3.0 * max(est.stderr, 1e-4), (m, n, est)


def test_ratio_always_below_constant():
    for m, n in [(1, 2), (1, 8), (2, 2)]:
        h = _mean_one_h1(m, 0.4)
        est = estimate_lemma1_ratio(h, m, n, 2000, RngStream(31, 10 * m + n))
        c = lemma1_constant(m, n)
        assert est.ratio <= c + 3.0 * est.stderr
        assert est.fluctuation_norm == pytest.approx(0.4, rel=1e-12)


def test_estimator_input_checks():
    h = _mean_one_h1(1, 0.3)
    with pytest.raises(StateError):
        estimate_lemma1_ratio(h, 2, 4, 100, RngStream(0, 0))  # wrong var count
    b = make_basis(3, 1)
    vec = np.zeros(b.size)
    vec[0] = 2.0  # mean 2, not allowed
    with pytest.raises(StateError):
        estimate_lemma1_ratio(HermiteCoeffs(b, vec), 1, 2, 100, RngStream(0, 0))
    vec2 = np.zeros(b.size)
    vec2[0] = 1.0  # constant: ratio undefined
    with pytest.raises(StateError):
        estimate_lemma1_ratio(HermiteCoeffs(b, vec2), 1, 2, 100, RngStream(0, 0))
    with pytest.raises(ConfigError):
        estimate_lemma1_ratio(h, 1, 2, 100, RngStream(0, 0), inner=7)  # odd


def test_estimator_rejects_sizes_out_of_range():
    # the estimator covers M >= 1, N >= 2; sizes outside are configuration
    # errors, raised before h is looked at
    h = _mean_one_h1(1, 0.3)
    for m, n in [(0, 4), (1, 1)]:
        with pytest.raises(ConfigError, match="M >= 1, N >= 2"):
            estimate_lemma1_ratio(h, m, n, 100, RngStream(0, 0))


def test_gaussian_identity_small_sizes():
    for m, n in [(1, 2), (1, 4)]:
        quad, closed = verify_gaussian_identity(m, n)
        assert closed == pytest.approx(((m + n) / n) ** 3, rel=1e-15)
        assert abs(quad - closed) < 1e-8
