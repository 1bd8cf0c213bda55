"""Exact evolution on the truncated space and the two-flow distance curve."""

import time

import numpy as np
import pytest
from math import exp, sqrt
from scipy import sparse

from kacbath import (
    ModelParams,
    SpectralContext,
    default_time_grid,
    distance_curve,
    evolution,
)
from kacbath.bounds import anisotropic_pair_data
from kacbath.cli import perturbation_data
from kacbath.errors import (
    ConfigError,
    HorizonError,
    IntegrationError,
    StateError,
    ToleranceError,
)
from kacbath.evolution import evolve, long_time_limit
from kacbath.hermite import HermiteCoeffs, make_basis
from kacbath.randomness import RngStream
from kacbath import spectral
from kacbath.spectral import (
    OperatorMatrix,
    assemble_generator,
    assemble_sector_generator,
    joint_basis,
    pair_avg_block,
    thermostat_block,
)

import dop853_oracle
import joint_flow_oracle


def _h1_data(eps: float) -> HermiteCoeffs:
    b = make_basis(3, 1)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    vec[b.index[(1, 0, 0)]] = eps
    return HermiteCoeffs(b, vec)


def test_thermostat_degree_one_decay_is_exact():
    # the infinite-bath flow sends the tagged h1 mode to e^{-mu t/3} times
    # itself; nothing else mixes in at degree 1
    p = ModelParams(1, 2, mu=1.0)
    g = assemble_generator("thermostat", p, 1)
    big = joint_basis(p, 1)
    c0 = _h1_data(0.1).embed(big, np.arange(3))
    times = np.array([0.0, 0.5, 1.0, 3.0])
    path = evolve(g, c0, times)
    idx = big.index[(1,) + (0,) * 8]
    for t, ct in zip(times, path):
        assert ct.vec[idx] == pytest.approx(0.1 * exp(-t / 3.0), rel=1e-12)
        assert ct.mean() == pytest.approx(1.0, abs=1e-12)


def test_evolution_contracts_fluctuations():
    p = ModelParams(1, 3)
    g = assemble_generator("reservoir", p, 2)
    big = joint_basis(p, 2)
    c0 = anisotropic_pair_data(0.3).embed(big, np.arange(3))
    times = np.array([0.0, 0.2, 0.5, 1.0, 2.0, 4.0])
    path = evolve(g, c0, times)
    norms = [ct.fluctuation_norm() for ct in path]
    assert norms[0] == pytest.approx(0.3 * sqrt(2.0), rel=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def _eigen_blocks(g) -> list:
    """Dense eigendecomposition of every degree block, none skipped."""
    blocks = (g.block(m).toarray() for m in range(g.basis.degree + 1))
    return [np.linalg.eigh(0.5 * (b + b.T)) for b in blocks]


def _every_block_path(g, c0, times, eig=None) -> np.ndarray:
    """exp(G t) c0 from the dense eigendecomposition of every degree block:
    the oracle the Krylov route is compared against."""
    eig = _eigen_blocks(g) if eig is None else eig
    out = np.repeat(c0.vec[None, :], len(times), axis=0)
    for m, (evals, q) in enumerate(eig):
        sl = g.basis.degree_slice(m)
        out[:, sl] = (np.exp(np.outer(times, evals)) * (q.T @ c0.vec[sl])) @ q.T
    return out


def _random_data(basis, seed=5) -> HermiteCoeffs:
    vec = 0.01 * RngStream(seed, 0).rng.standard_normal(basis.size)
    vec[0] = 1.0
    return HermiteCoeffs(basis, vec)


def _path(g, c0, times) -> np.ndarray:
    return np.array([c.vec for c in evolve(g, c0, times)])


def _count_krylov(monkeypatch) -> list:
    """Record (degree, Krylov dimension) of every Krylov helper call."""
    calls = []
    real = evolution._krylov_path

    def counted(g, b, times, degree, *args, **kwargs):
        out = real(g, b, times, degree, *args, **kwargs)
        calls.append((degree, out.dim))
        return out

    monkeypatch.setattr(evolution, "_krylov_path", counted)
    return calls


def _count_factored(monkeypatch, basis) -> list:
    """Record the degree of the block each dense eigendecomposition factors."""
    calls = []
    real = np.linalg.eigh
    degree_of = {}
    for m in range(basis.degree + 1):
        sl = basis.degree_slice(m)
        degree_of[sl.stop - sl.start] = m
    assert len(degree_of) == basis.degree + 1  # block sizes tell degrees apart

    def counted(a, *args, **kwargs):
        calls.append(degree_of[a.shape[0]])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _block_args(g, m):
    """A degree block of g and the generator norm, as evolve passes them."""
    return g.block(m), float(abs(g.mat).sum(axis=1).max())


@pytest.mark.parametrize("m,n,d", [(1, 2, 3), (2, 3, 2), (1, 16, 2), (1, 8, 3)])
@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_krylov_route_matches_the_eigh_oracle(kind, m, n, d):
    g = assemble_generator(kind, ModelParams(m, n), d)
    eig = _eigen_blocks(g)
    times = np.array([0.0, 0.3, 1.7, 9.0, 80.0])
    for c0 in (anisotropic_pair_data(0.2).embed(g.basis, np.arange(3)),
               _random_data(g.basis)):
        err = np.abs(_path(g, c0, times) - _every_block_path(g, c0, times, eig)).max()
        assert err <= 1e-13 * np.linalg.norm(c0.vec)


@pytest.mark.parametrize("m,n,d,deg", [(1, 2, 3, 3), (1, 16, 2, 2)])
@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_krylov_stopping_bound_covers_the_true_error(kind, m, n, d, deg):
    # a loose tolerance stops Lanczos early, where the error is far above
    # roundoff; the a-posteriori bound must still cover it at every time
    # (at tol 1e-3 the error is already at roundoff: the bound is loose)
    g = assemble_generator(kind, ModelParams(m, n), d)
    c0 = _random_data(g.basis)
    times = np.array([0.0, 0.3, 1.7, 9.0])
    want = _every_block_path(g, c0, times)[:, g.basis.degree_slice(deg)]
    b = c0.vec[g.basis.degree_slice(deg)]
    block, g_norm = _block_args(g, deg)
    tight = evolution._krylov_path(block, b, times, deg, g_norm)
    loose = evolution._krylov_path(block, b, times, deg, g_norm, tol=0.1)
    err = float(np.linalg.norm(loose.values - want, axis=1).max())
    assert loose.dim < tight.dim
    assert 1e-10 * np.linalg.norm(b) < err <= loose.bound <= 0.1 * np.linalg.norm(b)


@pytest.mark.parametrize("m,n,d", [(1, 2, 2), (1, 4, 2), (1, 8, 2), (1, 16, 2), (1, 6, 3)])
def test_krylov_dimensions_of_criterion_6_data(m, n, d, monkeypatch):
    # h2_aniso on criterion 6's grid: the degree-2 part reaches an invariant
    # subspace of dimension 4 under the reservoir flow, whatever the block
    # size, and is an eigenvector of the bath flow
    ctx = SpectralContext(ModelParams(m, n), d)
    c0 = anisotropic_pair_data(0.2).embed(ctx.basis, np.arange(3))
    grid = default_time_grid(80.0, count=56)
    thermostat = assemble_generator("thermostat", ctx.p, d, basis=ctx.basis)
    dims = _count_krylov(monkeypatch)
    evolve(ctx.reservoir, c0, grid)
    assert dims == [(0, 1), (2, 4)]
    dims.clear()
    evolve(thermostat, c0, grid)
    assert dims == [(0, 1), (2, 1)]


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_evolve_skips_the_empty_degree_blocks(kind, n, monkeypatch):
    # h2_aniso fills degrees 0 and 2 only; at d=3 degrees 1 and 3 stay zero
    p = ModelParams(1, n)
    g = assemble_generator(kind, p, 3)
    c0 = anisotropic_pair_data(0.2).embed(g.basis, np.arange(3))
    times = np.array([0.0, 0.3, 1.7, 9.0])
    want = _every_block_path(g, c0, times)
    calls = _count_krylov(monkeypatch)
    factored = _count_factored(monkeypatch, g.basis)
    got = _path(g, c0, times)
    assert [deg for deg, _ in calls] == [0, 2]
    assert factored == [0, 2]
    for m in range(4):
        sl = g.basis.degree_slice(m)
        if m in (0, 2):
            assert np.abs(got[:, sl] - want[:, sl]).max() <= 1e-13 * np.linalg.norm(c0.vec)
        else:
            assert np.all(got[:, sl] == 0.0)


@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_evolve_data_in_every_block_takes_the_full_route(kind, monkeypatch):
    p = ModelParams(1, 2)
    g = assemble_generator(kind, p, 3)
    c0 = _random_data(g.basis)
    times = np.array([0.0, 0.3, 1.7, 9.0])
    want = _every_block_path(g, c0, times)
    calls = _count_krylov(monkeypatch)
    factored = _count_factored(monkeypatch, g.basis)
    got = _path(g, c0, times)
    assert [deg for deg, _ in calls] == [0, 1, 2, 3]
    assert factored == [0, 1, 2, 3]
    assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(c0.vec)


def test_evolve_at_time_zero_integrates_nothing(monkeypatch):
    # exp(G 0) c0 = c0: the Krylov route still runs on the filled blocks,
    # and its result is compared with c0 itself; no block is factored
    g = assemble_generator("reservoir", ModelParams(1, 2), 3)
    c0 = _random_data(g.basis)
    calls = _count_krylov(monkeypatch)
    factored = _count_factored(monkeypatch, g.basis)
    got = _path(g, c0, [0.0, 0.0])
    assert [deg for deg, _ in calls] == [0, 1, 2, 3]
    assert factored == []
    assert np.abs(got - c0.vec).max() <= 1e-13 * np.linalg.norm(c0.vec)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("build", [assemble_generator, assemble_sector_generator],
                         ids=["joint", "sector"])
def test_an_asymmetric_generator_is_refused_when_built(build, m, monkeypatch):
    # one entry of the top-degree pair block moved by 3e-9: the joint and
    # the sector generator are refused once, when built, so evolve never
    # sees them (h2_aniso data would fill degree 2 and leave degree 3 empty)
    sl = make_basis(6, m).degree_slice(m)
    bad = pair_avg_block(m).copy()
    bad[sl.start, sl.start + 1] += 3e-9
    monkeypatch.setattr(spectral, "pair_avg_block", lambda d: bad)
    p = ModelParams(1, 2)
    monkeypatch.setattr(spectral, "SYMMETRY_TOL", np.inf)
    mat = build("reservoir", p, m).mat
    want = float(abs(mat - mat.T).max())
    monkeypatch.setattr(spectral, "SYMMETRY_TOL", 1e-10)
    with pytest.raises(StateError, match=f"not symmetric in degree {m}") as err:
        build("reservoir", p, m)
    assert want > 1e-10
    assert float(str(err.value).split("defect ")[1].rstrip(")")) == pytest.approx(want, rel=1e-3)


def test_krylov_route_rejects_a_basis_that_lost_orthogonality(monkeypatch):
    # a 1e-6 component along v_0 left in the first Lanczos step of degree 2
    # gives v_0 . v_1 = 1e-6 / beta_1, far over the orthogonality tolerance
    p = ModelParams(1, 2)
    g = assemble_generator("reservoir", p, 2)
    c0 = anisotropic_pair_data(0.2).embed(g.basis, np.arange(3))
    real = evolution._gram_schmidt

    def leaky(w, v):
        out = real(w, v)
        return out + 1e-6 * v[0] if len(v) == 1 and w.size > 1 else out

    monkeypatch.setattr(evolution, "_gram_schmidt", leaky)
    with pytest.raises(ToleranceError, match="not orthonormal in degree 2") as err:
        evolve(g, c0, [0.0, 1.0])
    block, _ = _block_args(g, 2)
    v0 = c0.vec[g.basis.degree_slice(2)]
    v0 = v0 / np.linalg.norm(v0)
    w = block @ v0
    beta1 = float(np.linalg.norm(w - (v0 @ w) * v0))
    got = float(str(err.value).split("defect ")[1].split()[0])
    assert got == pytest.approx(1e-6 / beta1, rel=1e-3)


def test_krylov_route_rejects_a_positive_ritz_value():
    # a rate of +1e-9 on the constant mode: the premise ||exp(sG)|| <= 1
    # of the stopping bound fails, and the degree-0 Ritz value shows it
    p = ModelParams(1, 2)
    g = assemble_generator("reservoir", p, 2)
    c0 = anisotropic_pair_data(0.2).embed(g.basis, np.arange(3))
    mat = g.mat.toarray()
    mat[0, 0] += 1e-9
    broken = OperatorMatrix(g.name, g.basis, sparse.csr_matrix(mat))
    with pytest.raises(ToleranceError, match="above zero in degree 0") as err:
        evolve(broken, c0, [0.0, 1.0])
    got = float(str(err.value).split("Ritz value ")[1].split()[0])
    assert got == pytest.approx(1e-9, rel=1e-6)


def test_cross_check_catches_an_eigen_route_off_by_1e_6(monkeypatch):
    # every Ritz value shifted down by 1e-6 scales the Krylov route by
    # exp(-1e-6 t); at t = 2 that is a relative 2e-6, far over the
    # tolerance (an upward shift would trip the Ritz-value check first)
    p = ModelParams(1, 2)
    g = assemble_generator("reservoir", p, 2)
    c0 = anisotropic_pair_data(0.2).embed(g.basis, np.arange(3))
    real = evolution.eigh_tridiagonal

    def shifted(*args, **kwargs):
        evals, q = real(*args, **kwargs)
        return evals - 1e-6, q

    monkeypatch.setattr(evolution, "eigh_tridiagonal", shifted)
    with pytest.raises(IntegrationError, match="evolution routes disagree") as err:
        evolve(g, c0, [0.0, 1.0, 2.0])
    got = float(str(err.value).split("relative ")[1])
    assert got == pytest.approx(2e-6, rel=1e-3)


def test_distance_curve_golden_values():
    # frozen during development: M=1, N=2, unit rates, h0 = 1 + 0.1 h1(v1x)
    ctx = SpectralContext(ModelParams(1, 2), 2)
    curve = distance_curve(ctx, _h1_data(0.1), [0.0, 0.5, 1.0, 2.0, 5.0])
    want = [0.0, 0.010444979745, 0.018668581830, 0.030502750226, 0.047635114988]
    np.testing.assert_allclose(curve.distance, want, atol=2e-12)


def test_distance_vanishes_when_couplings_match_in_law():
    # degree-0 data: both flows fix constants, distance identically zero
    b = make_basis(3, 1)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    ctx = SpectralContext(ModelParams(1, 2), 1)
    curve = distance_curve(ctx, HermiteCoeffs(b, vec), [0.0, 1.0, 2.0])
    assert max(curve.distance) == 0.0


def test_degree_one_limit_is_momentum_overlap():
    # the finite-reservoir flow preserves the momentum component of h0;
    # the bath flow kills it; the gap converges to eps/sqrt(M+N)
    eps = 0.1
    for n in (2, 4):
        grid = default_time_grid(70.0, count=40)
        curve = distance_curve(SpectralContext(ModelParams(1, n), 1), _h1_data(eps), grid)
        limit = long_time_limit(curve)
        assert limit == pytest.approx(eps / sqrt(1 + n), rel=1e-6)


def test_long_time_limit_needs_a_plateau():
    ctx = SpectralContext(ModelParams(1, 2), 1)
    curve = distance_curve(ctx, _h1_data(0.1), [0.0, 0.5, 1.0, 2.0])
    with pytest.raises(HorizonError):
        long_time_limit(curve)


def test_distance_curve_input_checks():
    ctx = SpectralContext(ModelParams(1, 2), 1)
    with pytest.raises(ConfigError):
        distance_curve(ctx, anisotropic_pair_data(0.1), [0.0, 1.0])  # d too low
    b = make_basis(6, 1)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    with pytest.raises(StateError):
        distance_curve(ctx, HermiteCoeffs(b, vec), [0.0, 1.0])  # wrong nvars
    bad = _h1_data(0.1)
    bad = HermiteCoeffs(bad.basis, bad.vec * 2.0)  # mean 2
    with pytest.raises(StateError):
        distance_curve(ctx, bad, [0.0, 1.0])


def test_default_time_grid_shape():
    grid = default_time_grid(10.0, count=12, t_min=0.1)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(10.0)
    assert len(grid) == 12  # count includes the leading zero
    assert np.all(np.diff(grid) > 0.0)
    with pytest.raises(ConfigError):
        default_time_grid(-1.0)


def test_cross_check_route_agreement():
    # both flows of a distance curve pass the eigendecomposition check of
    # every block the embedded data fills
    ctx = SpectralContext(ModelParams(1, 2), 2)
    curve = distance_curve(ctx, anisotropic_pair_data(0.2), [0.0, 0.7, 1.9])
    assert curve.distance[1] > 0.0


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """evolve's cross-check measure: the worst row gap over max(1, |row|)."""
    scale = np.maximum(1.0, np.linalg.norm(got, axis=1))
    return float((np.linalg.norm(got - want, axis=1) / scale).max())


@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_evolve_matches_the_dop853_oracle_in_every_joint_block(kind):
    g = assemble_generator(kind, ModelParams(1, 2), 3)
    c0 = _random_data(g.basis)
    times = np.array([0.0, 0.3, 1.7, 9.0, 80.0])
    gap = _relative_gap(_path(g, c0, times), dop853_oracle.path(g, c0, times))
    assert gap <= evolution.CROSS_CHECK_TOL


@pytest.mark.parametrize("m,n,d", [(1, 16, 2), (1, 6, 3)])
def test_evolve_matches_the_dop853_oracle_on_the_sector(m, n, d):
    ctx = SpectralContext(ModelParams(m, n), d)
    grid = default_time_grid(80.0, count=56)
    for family in ("h1_v1x", "h2_aniso"):
        c0 = ctx.sector.tagged_coeffs(perturbation_data(family, 0.2, m))
        for g in (ctx.sector_reservoir, ctx.sector_thermostat):
            gap = _relative_gap(_path(g, c0, grid), dop853_oracle.path(g, c0, grid))
            assert gap <= evolution.CROSS_CHECK_TOL


# ---------------------------------------------------------------------------
# the reservoir-symmetric sector against the joint-basis flow

SECTOR_SHAPES = [(1, 2, 2), (1, 4, 2), (1, 8, 2), (1, 16, 2), (1, 2, 3), (1, 6, 3), (2, 3, 2)]


def _random_tagged(m: int, d: int, seed: int = 11) -> HermiteCoeffs:
    """A mean-one polynomial of degree d in the 3m tagged velocities with
    every coefficient filled."""
    b = make_basis(3 * m, d)
    vec = 0.05 * RngStream(seed, m * 10 + d).rng.standard_normal(b.size)
    vec[0] = 1.0
    return HermiteCoeffs(b, vec)


@pytest.mark.parametrize("m,n,d", SECTOR_SHAPES)
def test_sector_curve_equals_the_joint_flow(m, n, d):
    # both joint generators evolved, then the norm of the difference
    p = ModelParams(m, n)
    times = np.array([0.0, 0.3, 1.7, 9.0, 40.0])
    h0s = [perturbation_data("h1_v1x", 0.1, m), perturbation_data("h2_aniso", 0.2, m),
           _random_tagged(m, d)]
    ctx = SpectralContext(p, d)
    for h0, want in zip(h0s, joint_flow_oracle.distance_curves(p, d, h0s, times)):
        got = np.array(distance_curve(ctx, h0, times).distance)
        assert want[-1] > 1e-3
        assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 16, 1024])
def test_h2_aniso_limit_is_the_conserved_projection(n):
    # h2_aniso is orthogonal to momentum and energy; its long-time distance
    # is its projection on the conserved polynomials, eps sqrt(2) / (1 + N)
    eps = 0.2
    grid = default_time_grid(80.0, count=56)
    curve = distance_curve(SpectralContext(ModelParams(1, n), 2), anisotropic_pair_data(eps), grid)
    assert long_time_limit(curve) == pytest.approx(eps * sqrt(2.0) / (1 + n), rel=1e-12)


def test_distance_curve_at_n_1024_takes_under_a_second():
    # the sector has 34 rows at d=2 whatever N is; the collision blocks
    # are cached beforehand, so the clock sees the sector work alone
    pair_avg_block(2), thermostat_block(2)
    grid = default_time_grid(80.0, count=56)
    start = time.perf_counter()
    ctx = SpectralContext(ModelParams(1, 1024), 2)
    distance_curve(ctx, anisotropic_pair_data(0.2), grid)
    assert time.perf_counter() - start < 1.0
    assert ctx.sector.size == 34
