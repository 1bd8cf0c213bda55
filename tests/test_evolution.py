"""Exact evolution on the truncated space and the two-flow distance curve."""

import numpy as np
import pytest
from math import exp, sqrt

from kacbath import (
    ConfigError,
    HermiteCoeffs,
    HorizonError,
    ModelParams,
    OperatorMatrix,
    SpectralContext,
    StateError,
    assemble_generator,
    default_time_grid,
    distance_curve,
    evolve,
    joint_basis,
    long_time_limit,
    make_basis,
)
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


def _every_block_path(g, c0, times) -> np.ndarray:
    """exp(G t) c0 with every degree block eigendecomposed, none skipped."""
    out = np.repeat(c0.vec[None, :], len(times), axis=0)
    for m in range(g.basis.degree + 1):
        sl = g.basis.degree_slice(m)
        block = g.block(m)
        evals, q = np.linalg.eigh(0.5 * (block + block.T))
        out[:, sl] = (np.exp(np.outer(times, evals)) * (q.T @ c0.vec[sl])) @ q.T
    return out


def _count_eigh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_evolve_skips_the_empty_degree_blocks(kind, n, monkeypatch):
    # h2_aniso fills degrees 0 and 2 only; at d=3 degrees 1 and 3 stay zero
    p = ModelParams(1, n)
    g = assemble_generator(kind, p, 3)
    c0 = anisotropic_pair_data(0.2).embed(g.basis, np.arange(3))
    times = np.array([0.0, 0.3, 1.7, 9.0])
    want = _every_block_path(g, c0, times)
    eigh_rows = _count_eigh(monkeypatch)
    got = np.array([c.vec for c in evolve(g, c0, times, cross_check=False)])
    assert eigh_rows == [len(g.block(0)), len(g.block(2))]
    for m in range(4):
        sl = g.basis.degree_slice(m)
        if m in (0, 2):
            assert got[:, sl].tobytes() == want[:, sl].tobytes()
        else:
            assert np.all(got[:, sl] == 0.0)


@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
def test_evolve_data_in_every_block_takes_the_full_route(kind, monkeypatch):
    p = ModelParams(1, 2)
    g = assemble_generator(kind, p, 3)
    vec = 0.01 * RngStream(5, 0).rng.standard_normal(g.basis.size)
    vec[0] = 1.0
    c0 = HermiteCoeffs(g.basis, vec)
    times = np.array([0.0, 0.3, 1.7, 9.0])
    want = _every_block_path(g, c0, times)
    eigh_rows = _count_eigh(monkeypatch)
    got = np.array([c.vec for c in evolve(g, c0, times, cross_check=True)])
    assert eigh_rows == [len(g.block(m)) for m in range(4)]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2, 3])
def test_evolve_rejects_an_asymmetric_block_filled_or_empty(m):
    # h2_aniso fills degree 2 and leaves degree 3 zero; an asymmetric
    # block raises either way, before any block is diagonalised
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
