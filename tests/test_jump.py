"""Stochastic jump process: rates, per-event conservation, stationarity,
determinism, importance weights."""

import numpy as np
import pytest
from math import pi, sqrt

from hypothesis import given, settings, strategies as st

from kacbath import (
    BlockObservable,
    EquilibriumInit,
    ModelParams,
    SimConfig,
    run_ensemble,
)
from kacbath.cli import observable_registry
from kacbath.errors import ConfigError, NegativeWeightError, StateError
from kacbath.hermite import HermiteCoeffs, make_basis
from kacbath.jump import BLOCK, PerturbationInit, _advance, event_rates, hermite_observable
from kacbath.kinematics import JointState, total_energy, total_momentum
from kacbath.randomness import RngStream


def _h1_data(eps: float) -> HermiteCoeffs:
    b = make_basis(3, 1)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    vec[b.index[(1, 0, 0)]] = eps
    return HermiteCoeffs(b, vec)


def test_rate_table_category_totals():
    p = ModelParams(2, 4, lambda_s=1.0, lambda_r=1.0, mu=1.0)
    r = event_rates(p, "reservoir")
    # categories: lambda_S M/2, lambda_R N/2, mu M
    assert r.system == pytest.approx(1.0)
    assert r.reservoir == pytest.approx(2.0)
    assert r.interaction == pytest.approx(2.0)
    assert r.thermostat == 0.0
    assert r.total == pytest.approx(5.0)

    rt = event_rates(p, "thermostat")
    assert rt.interaction == 0.0
    assert rt.thermostat == pytest.approx(2.0)
    assert rt.total == pytest.approx(5.0)


def test_single_particle_system_has_no_system_collisions():
    r = event_rates(ModelParams(1, 2), "reservoir")
    assert r.system == 0.0
    assert r.total == pytest.approx(1.0 + 1.0)  # lambda_R N/2 + mu M


def _block(p: ModelParams, seed: int, count: int):
    """A fresh equilibrium block: states, next event times, rates, stream."""
    stream = RngStream(seed, 0)
    vw, _ = EquilibriumInit().sample(p, stream, count)
    rates = event_rates(p, "reservoir")
    return vw, stream.rng.exponential(1.0 / rates.total, count), rates, stream


def _energies(vw):
    return np.sum(vw * vw, axis=(1, 2))


def test_event_round_conserves_energy_and_updates_state():
    p = ModelParams(2, 3)
    vw, t_next, rates, stream = _block(p, 1, 64)
    before = vw.copy()
    due = t_next <= 0.3
    events = _advance(vw, t_next, 0.3, p, rates, stream)
    assert events >= due.sum() > 0
    assert np.all(t_next > 0.3)
    # exactly the members whose first event fell before 0.3 have moved
    np.testing.assert_array_equal(np.any(vw != before, axis=(1, 2)), due)
    np.testing.assert_allclose(_energies(vw), _energies(before), rtol=1e-12)
    np.testing.assert_allclose(vw.sum(axis=1), before.sum(axis=1), atol=1e-12)


def test_event_sequence_with_conservation_checks():
    # about 500 events per member, every one checked for pair conservation
    p = ModelParams(1, 4)
    vw, t_next, rates, stream = _block(p, 3, 8)
    before = vw.copy()
    events = _advance(vw, t_next, 500.0 / rates.total, p, rates, stream, check=True)
    assert events > 8 * 400
    np.testing.assert_allclose(_energies(vw), _energies(before), rtol=1e-9)
    np.testing.assert_allclose(vw.sum(axis=1), before.sum(axis=1), atol=1e-9)


def test_thermostat_events_break_system_conservation():
    p = ModelParams(1, 2, lambda_r=0.0)  # only thermostat events touch v
    vw = np.zeros((16, 3, 3))
    vw[:, 0, 0] = 3.0
    rates = event_rates(p, "thermostat")
    stream = RngStream(9, 0)
    t_next = stream.rng.exponential(1.0 / rates.total, 16)
    _advance(vw, t_next, 50.0, p, rates, stream, check=True)
    assert np.all(np.abs(_energies(vw) - 9.0) > 1e-6)
    np.testing.assert_array_equal(vw[:, 1:], 0.0)


def test_mean_waiting_time():
    p = ModelParams(2, 4)
    vw, t_next, rates, stream = _block(p, 5, 400)
    horizon = 10.0
    events = _advance(vw, t_next, horizon, p, rates, stream)
    # total category rate is 5, so mean waiting time is 1/5
    assert rates.total == pytest.approx(5.0)
    assert horizon * 400 / events == pytest.approx(0.2, abs=0.01)


def test_equilibrium_moments():
    p = ModelParams(1, 2)
    vw, weights = EquilibriumInit().sample(p, RngStream(6, 0), 20000)
    assert vw.shape == (20000, 3, 3)
    np.testing.assert_array_equal(weights, 1.0)
    want = 3 * (p.m + p.n) / (2 * pi)  # each coordinate has variance 1/(2 pi)
    assert _energies(vw).mean() == pytest.approx(want, rel=0.02)
    assert abs(vw.mean()) < 3e-3
    assert vw.var() == pytest.approx(1.0 / (2.0 * pi), abs=2e-3)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(2, 8),
       kind=st.sampled_from(["reservoir", "thermostat"]),
       seed=st.integers(0, 2**32 - 1))
def test_checked_run_conserves_whole_state(m, n, kind, seed):
    p = ModelParams(m, n)
    stream = RngStream(seed, 0)
    vw, _ = EquilibriumInit().sample(p, stream, 16)
    rates = event_rates(p, kind)
    t_next = stream.rng.exponential(1.0 / rates.total, 16)
    before = vw.copy()
    _advance(vw, t_next, 20.0 / rates.total, p, rates, stream, check=True)
    if kind == "reservoir":
        e0 = _energies(before)
        assert np.max(np.abs(_energies(vw) - e0) / np.maximum(1.0, e0)) < 1e-10
        assert np.max(np.abs(vw.sum(axis=1) - before.sum(axis=1))) < 1e-10
    else:
        # the reservoir never meets the system, so it keeps its own totals
        w0, w1 = before[:, m:], vw[:, m:]
        assert np.max(np.abs(_energies(w1) - _energies(w0))) < 1e-10
        assert np.max(np.abs(w1.sum(axis=1) - w0.sum(axis=1))) < 1e-10


def test_gamma_is_stationary_for_the_jump_process():
    # propagate an equilibrium ensemble and check moments do not drift
    p = ModelParams(1, 2)
    cfg = SimConfig(t_end=2.0, record_times=(0.0, 1.0, 2.0), ensemble=4000,
                    seed=17, system_kind="reservoir")
    b = make_basis(3, 2)
    vec = np.zeros(b.size)
    vec[b.index[(2, 0, 0)]] = 1.0
    obs = {
        "h2_v1x": hermite_observable(HermiteCoeffs(b, vec), p),
        "energy": total_energy,
    }
    records = run_ensemble(cfg, p, EquilibriumInit(), obs)
    want = {"h2_v1x": 0.0, "energy": 9.0 / (2 * pi)}
    for r in records:
        z = abs(r.mean - want[r.observable]) / r.std_error
        assert z < 3.5, (r, z)


def test_ensemble_deterministic_and_worker_invariant():
    # three blocks, so the pool really runs (on three processes)
    p = ModelParams(1, 2)
    cfg = SimConfig(t_end=1.0, record_times=(0.5, 1.0), ensemble=2 * BLOCK + 64,
                    seed=23, system_kind="thermostat")
    obs = {"e": total_energy}
    a = run_ensemble(cfg, p, EquilibriumInit(), obs)
    b = run_ensemble(cfg, p, EquilibriumInit(), obs)
    c = run_ensemble(cfg, p, EquilibriumInit(), obs, workers=4)
    assert a == b == c


def test_perturbation_weights():
    p = ModelParams(1, 2)
    init = PerturbationInit(_h1_data(0.2))
    vw, w = init.sample(p, RngStream(2, 0), 200)
    assert vw.shape == (200, 3, 3) and w.shape == (200,)
    np.testing.assert_allclose(w, 1.0 + 0.2 * sqrt(2 * pi) * vw[:, 0, 0], rtol=1e-12)
    # a large perturbation goes negative for some states of the same draw
    bad = PerturbationInit(_h1_data(5.0))
    with pytest.raises(NegativeWeightError):
        bad.sample(p, RngStream(2, 0), 200)
    with pytest.raises(StateError):
        PerturbationInit(_h1_data(0.2)).sample(ModelParams(2, 2), RngStream(2, 0), 4)


def test_weighted_initial_mean_matches_perturbation():
    # at t=0 the weighted average of h1(v1x) is eps exactly in expectation;
    # the weight is 1 + eps z with z standard normal, so eps must stay small
    # enough that no member of the fixed-seed ensemble sees z < -1/eps
    p = ModelParams(1, 2)
    eps = 0.15
    cfg = SimConfig(t_end=0.0, record_times=(0.0,), ensemble=40000,
                    seed=29, system_kind="reservoir")
    h = _h1_data(eps)
    b1 = make_basis(3, 1)
    vec = np.zeros(b1.size)
    vec[b1.index[(1, 0, 0)]] = 1.0
    obs = {"h1": hermite_observable(HermiteCoeffs(b1, vec), p)}
    (rec,) = run_ensemble(cfg, p, PerturbationInit(h), obs)
    assert abs(rec.mean - eps) < 3.0 * rec.std_error


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(t_end=1.0, record_times=(0.5, 0.2), ensemble=10, seed=0,
                  system_kind="reservoir")
    with pytest.raises(ConfigError):
        SimConfig(t_end=1.0, record_times=(0.5, 2.0), ensemble=10, seed=0,
                  system_kind="reservoir")
    with pytest.raises(ConfigError):
        SimConfig(t_end=1.0, record_times=(0.5,), ensemble=10, seed=0,
                  system_kind="bath")


# ---------------------------------------------------------------------------
# batched observables against per-state references

# the registry's observables written per state, as the loop reference
REFERENCE = {
    "v1x": lambda s: float(s.v[0, 0]),
    "system_energy": lambda s: float(np.sum(s.v ** 2)),
    "total_energy": total_energy,
    "momentum_x": lambda s: float(total_momentum(s)[0]),
}


def _random_block(m: int, n: int, count: int, seed: int) -> np.ndarray:
    """A read-only block state, as the engine hands it to observables."""
    rng = np.random.default_rng(seed)
    vw = rng.normal(size=(count, m + n, 3)) * rng.exponential(size=(count, m + n, 3))
    vw.flags.writeable = False
    return vw


def _states(vw: np.ndarray, m: int) -> list[JointState]:
    return [JointState(r[:m].copy(), r[m:].copy()) for r in vw]


def _random_coeffs(nvars: int, degree: int, seed: int) -> HermiteCoeffs:
    b = make_basis(nvars, degree)
    return HermiteCoeffs(b, np.random.default_rng(seed).normal(size=b.size))


# (4, 64) has sums of 8 or more terms, where numpy's pairwise summation
# gives a different result from a sequential sum of the same terms
@pytest.mark.parametrize("m,n", [(2, 3), (4, 64)])
def test_registry_block_values_equal_per_state_calls(m, n):
    p = ModelParams(m, n)
    vw = _random_block(m, n, 40, 1)
    states = _states(vw, m)
    for name, obs in observable_registry(p).items():
        assert isinstance(obs, BlockObservable), name
        got = obs.block(vw)
        assert got.shape == (40,)
        np.testing.assert_array_equal(got, [obs(s) for s in states], err_msg=name)
        if name in REFERENCE:
            want = [REFERENCE[name](s) for s in states]
        else:  # a Hermite mode of the system velocities
            coeffs = obs.args[0]
            want = [coeffs.evaluate(s.v.ravel()[None, :])[0] for s in states]
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("full_state", [False, True])
def test_hermite_block_values_equal_per_state_calls(full_state):
    m, n = 2, 3
    p = ModelParams(m, n)
    coeffs = _random_coeffs(3 * (m + n) if full_state else 3 * m, 3, 2)
    obs = hermite_observable(coeffs, p)
    vw = _random_block(m, n, 40, 3)
    states = _states(vw, m)
    got = obs.block(vw)
    np.testing.assert_array_equal(got, [obs(s) for s in states])
    points = [np.concatenate([s.v.ravel(), s.w.ravel()]) if full_state else s.v.ravel()
              for s in states]
    np.testing.assert_array_equal(
        got, [coeffs.evaluate(x[None, :])[0] for x in points])


# per-state twins of registry entries, module level so that they pickle
_H2 = HermiteCoeffs(make_basis(3, 2), np.eye(10)[make_basis(3, 2).index[(2, 0, 0)]])


def _h2_state(s: JointState) -> float:
    return float(_H2.evaluate(s.v.ravel()[None, :])[0])


def _momentum_x_state(s: JointState) -> float:
    return float(total_momentum(s)[0])


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_and_per_state_observables_give_identical_records(workers):
    p = ModelParams(1, 2)
    cfg = SimConfig(t_end=1.0, record_times=(0.0, 0.5, 1.0), ensemble=BLOCK + 40,
                    seed=31, system_kind="reservoir")
    init = PerturbationInit(_h1_data(0.1))
    registry = observable_registry(p)
    batched = {"h2": hermite_observable(_H2, p), "e": registry["total_energy"],
               "px": registry["momentum_x"]}
    per_state = {"h2": _h2_state, "e": total_energy, "px": _momentum_x_state}
    a = run_ensemble(cfg, p, init, batched, workers=workers)
    b = run_ensemble(cfg, p, init, per_state, workers=workers)
    assert a == b


def _ensemble_cfg(ensemble: int = 16) -> SimConfig:
    return SimConfig(t_end=0.5, record_times=(0.0, 0.5), ensemble=ensemble,
                     seed=3, system_kind="reservoir")


class _NonFiniteInit:
    def sample(self, p, stream, count):
        vw, weights = EquilibriumInit().sample(p, stream, count)
        vw[count // 2, p.m, 1] = np.nan
        return vw, weights


def test_non_finite_state_raises():
    p = ModelParams(1, 2)
    obs = {"v1x": observable_registry(p)["v1x"]}
    with pytest.raises(StateError, match="finite"):
        run_ensemble(_ensemble_cfg(), p, _NonFiniteInit(), obs)


def _zero_block(vw: np.ndarray) -> np.ndarray:
    vw[:] = 0.0
    return vw[:, 0, 0]


def test_batched_observable_cannot_write_the_state():
    p = ModelParams(1, 2)
    with pytest.raises(ValueError, match="read-only"):
        run_ensemble(_ensemble_cfg(), p, EquilibriumInit(),
                     {"bad": BlockObservable(_zero_block)})
    # the state the engine advances is untouched by the failed write
    vw, _ = EquilibriumInit().sample(p, RngStream(0, 0), 4)
    view = vw.view()
    view.flags.writeable = False
    before = vw.copy()
    with pytest.raises(ValueError):
        _zero_block(view)
    np.testing.assert_array_equal(vw, before)


def _first_rows(vw: np.ndarray) -> np.ndarray:
    return vw[:, :, 0]


def _one_value(vw: np.ndarray) -> np.ndarray:
    return np.zeros(len(vw) + 1)


@pytest.mark.parametrize("fn", [_first_rows, _one_value])
def test_batched_result_of_wrong_shape_raises(fn):
    p = ModelParams(1, 2)
    with pytest.raises(StateError, match="shape"):
        run_ensemble(_ensemble_cfg(), p, EquilibriumInit(), {"bad": BlockObservable(fn)})
