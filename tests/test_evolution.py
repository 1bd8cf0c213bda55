"""Exact evolution on the truncated space and the two-flow distance curve."""

import numpy as np
import pytest
from math import exp, sqrt

from kacbath import (
    ConfigError,
    HermiteCoeffs,
    HorizonError,
    IntegrationError,
    ModelParams,
    OperatorMatrix,
    SpectralContext,
    StateError,
    ToleranceError,
    assemble_generator,
    default_time_grid,
    distance_curve,
    evolve,
    joint_basis,
    long_time_limit,
    make_basis,
)
from kacbath import evolution
from kacbath.bounds import anisotropic_pair_data
from kacbath.randomness import RngStream


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
    return [np.linalg.eigh(0.5 * (b + b.T))
            for b in map(g.block, range(g.basis.degree + 1))]


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


def _path(g, c0, times, cross_check=False) -> np.ndarray:
    return np.array([c.vec for c in evolve(g, c0, times, cross_check=cross_check)])


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


def _block_args(g, m):
    """A degree block of g's CSR copy and the generator norm, as evolve passes them."""
    sl = g.basis.degree_slice(m)
    return g.csr[sl, sl], float(abs(g.csr).sum(axis=1).max())


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
    dims = _count_krylov(monkeypatch)
    evolve(ctx.reservoir, c0, grid, cross_check=False)
    assert dims == [(0, 1), (2, 4)]
    dims.clear()
    evolve(ctx.thermostat, c0, grid, cross_check=False)
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
    got = _path(g, c0, times)
    assert [deg for deg, _ in calls] == [0, 2]
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
    got = _path(g, c0, times, cross_check=True)
    assert [deg for deg, _ in calls] == [0, 1, 2, 3]
    assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(c0.vec)


@pytest.mark.parametrize("m", [2, 3])
def test_evolve_rejects_an_asymmetric_block_filled_or_empty(m):
    # h2_aniso fills degree 2 and leaves degree 3 zero; an asymmetric
    # block raises either way, before any block is evolved
    p = ModelParams(1, 2)
    g = assemble_generator("reservoir", p, 3)
    c0 = anisotropic_pair_data(0.2).embed(g.basis, np.arange(3))
    sl = g.basis.degree_slice(m)
    mat = g.mat.copy()
    mat[sl.start, sl.start + 1] += 3e-9
    broken = OperatorMatrix(g.name, g.basis, mat)
    with pytest.raises(StateError, match=f"not symmetric in degree {m}") as err:
        evolve(broken, c0, [0.0, 1.0], cross_check=False)
    want = float(np.abs(mat - mat.T).max())
    assert want == pytest.approx(3e-9, rel=1e-6)
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
        evolve(g, c0, [0.0, 1.0], cross_check=False)
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
    mat = g.mat.copy()
    mat[0, 0] += 1e-9
    broken = OperatorMatrix(g.name, g.basis, mat)
    with pytest.raises(ToleranceError, match="above zero in degree 0") as err:
        evolve(broken, c0, [0.0, 1.0], cross_check=False)
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
    # the integrator route is compared against the eigendecomposition
    # internally; run once with the check on to exercise it
    ctx = SpectralContext(ModelParams(1, 2), 2)
    curve = distance_curve(ctx, anisotropic_pair_data(0.2), [0.0, 0.7, 1.9],
                           cross_check=True)
    assert curve.distance[1] > 0.0
