"""Continuous-time jump simulation of both couplings, a block of members at a time.

All jump rates are state-independent, so every member's event clock is
a Poisson process with one constant total rate, and the event category,
colliding pair and collision direction are drawn fresh per event
(Gillespie direct stepping). There is no time discretization anywhere;
trajectories are piecewise constant and observables are read off the
state at the last event before each record time.

The two couplings share everything except one event category: the
finite-reservoir coupling ("reservoir") scatters system particles
against reservoir particles, while the infinite-bath coupling
("thermostat") scatters them against a Gaussian partner that is drawn
for the event and thrown away afterwards.

Blocks and streams. Ensemble members are grouped into consecutive
blocks of BLOCK members, and block b draws all of its randomness from
RngStream(seed, b). The block size is a constant, so results do not
depend on how many worker processes share the blocks.

Event rounds. Each member keeps the time of its next event. In one
round, every member whose next event time is at or before the current
record time takes one event, all of them together as arrays; rounds
repeat until no member is due, and then the observables are read.

Observables. A BlockObservable is read once per block and record time
on the whole (count, M+N, 3) state; any other callable is read once per
member on a JointState, which is much slower.

Per-block draw order, which fixes every trajectory given the seed:
the initial states (count, M+N, 3) and the first waiting times
(count,); then, per round with k members due, k category uniforms, k
first indices, k second indices, k directions, one Gaussian partner per
thermostat event, and k waiting times.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NegativeWeightError, StateError
from .hermite import HermiteCoeffs
from .kinematics import JointState, ModelParams, pair_collide
from .randomness import RngStream, sample_gamma_vec3, sample_unit_sphere

SYSTEM_KINDS = ("reservoir", "thermostat")

# Members per random stream and per unit of work for the process pool.
BLOCK = 1024

_CONSERVE_TOL = 1e-10


class RateTable(NamedTuple):
    system: float
    reservoir: float
    interaction: float
    thermostat: float
    total: float


def event_rates(p: ModelParams, kind: str) -> RateTable:
    """Per-category total jump rates and their sum.

    System pairs fire at lambda_s/(M-1) each, M(M-1)/2 of them, for a
    category total of lambda_s*M/2 (zero when M = 1); reservoir pairs
    analogously total lambda_r*N/2; the coupling contributes mu/N per
    system-reservoir pair (total mu*M) or, for the infinite bath, mu per
    system particle (the same total mu*M).
    """
    if kind not in SYSTEM_KINDS:
        raise ConfigError(f"kind must be one of {SYSTEM_KINDS}, got {kind!r}")
    system = 0.0 if p.m < 2 else p.lambda_s * p.m / 2.0
    reservoir = p.lambda_r * p.n / 2.0
    coupling = p.mu * p.m
    interaction = coupling if kind == "reservoir" else 0.0
    thermostat = coupling if kind == "thermostat" else 0.0
    total = system + reservoir + interaction + thermostat
    if total <= 0.0:
        raise ConfigError("all jump rates vanish; nothing to simulate")
    return RateTable(system, reservoir, interaction, thermostat, total)


def _check_pairs(va, vb, va2, vb2):
    """Raise StateError unless every collided pair kept its energy and momentum."""
    e0 = np.sum(va * va + vb * vb, axis=-1)
    e1 = np.sum(va2 * va2 + vb2 * vb2, axis=-1)
    excess = np.abs(e1 - e0) - _CONSERVE_TOL * np.maximum(1.0, np.abs(e0))
    if np.any(excess > 0.0):
        worst = int(np.argmax(excess))
        raise StateError(f"pair event broke energy: {e1[worst] - e0[worst]:.3e}")
    drift = float(np.max(np.abs(va2 + vb2 - va - vb)))
    if drift > _CONSERVE_TOL:
        raise StateError(f"pair event broke momentum: {drift:.3e}")


def _advance(
    vw: np.ndarray, t_next: np.ndarray, until: float, p: ModelParams,
    rates: RateTable, stream: RngStream, check: bool = False,
) -> int:
    """Take, in place, every event of a block up to time `until`.

    vw is the (count, M+N, 3) block state and t_next each member's next
    event time. Returns the number of events taken. With check=True the
    pair conservation laws are verified for every event.
    """
    m, n = p.m, p.n
    rng = stream.rng
    # per category (system, reservoir, interaction, thermostat): index
    # ranges of the two partners and their first row in vw
    edges = np.cumsum([rates.system, rates.reservoir, rates.interaction])
    hi_i = np.array([m, n, m, m])
    hi_j = np.array([m - 1, n - 1, n, 1])
    off_a = np.array([0, m, 0, 0])
    off_b = np.array([0, m, m, 0])
    scale = 1.0 / rates.total
    events = 0
    while True:
        rows = np.flatnonzero(t_next <= until)
        k = rows.size
        if k == 0:
            return events
        cat = np.searchsorted(edges, rng.random(k) * rates.total, side="right")
        i = rng.integers(0, hi_i[cat])
        j = rng.integers(0, hi_j[cat])
        j += (cat < 2) & (j >= i)  # two distinct members of one species
        a, b = off_a[cat] + i, off_b[cat] + j
        omega = sample_unit_sphere(stream, k)
        va, vb = vw[rows, a], vw[rows, b]
        bath = cat == 3
        if bath.any():
            vb[bath] = sample_gamma_vec3(stream, int(bath.sum()))
        va2, vb2 = pair_collide(va, vb, omega)
        if check:
            _check_pairs(va, vb, va2, vb2)
        vw[rows, a] = va2
        vw[rows[~bath], b[~bath]] = vb2[~bath]
        t_next[rows] += rng.exponential(scale, k)
        events += k


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run description: horizon, record grid, size, seed, coupling."""

    t_end: float
    record_times: tuple[float, ...]
    ensemble: int
    seed: int
    system_kind: str

    def __post_init__(self):
        if self.system_kind not in SYSTEM_KINDS:
            raise ConfigError(
                f"system_kind must be one of {SYSTEM_KINDS}, got {self.system_kind!r}"
            )
        if self.ensemble < 1:
            raise ConfigError(f"ensemble size must be positive, got {self.ensemble}")
        if not np.isfinite(self.t_end) or self.t_end < 0.0:
            raise ConfigError(f"t_end must be finite and nonnegative, got {self.t_end}")
        times = np.asarray(self.record_times, dtype=float)
        if times.size == 0:
            raise ConfigError("record_times must be nonempty")
        if np.any(np.diff(times) < 0.0):
            raise ConfigError("record_times must be sorted")
        if times[0] < 0.0 or times[-1] > self.t_end:
            raise ConfigError("record_times must lie within [0, t_end]")


@dataclass(frozen=True)
class MomentRecord:
    time: float
    observable: str
    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise StateError("standard error cannot be negative")


def _gaussian_states(p: ModelParams, stream: RngStream, count: int) -> np.ndarray:
    """count states (count, M+N, 3) drawn exactly from the background Gaussian."""
    return sample_gamma_vec3(stream, count * (p.m + p.n)).reshape(count, p.m + p.n, 3)


@dataclass(frozen=True)
class EquilibriumInit:
    """Exact stationary initial condition: unit weights, Gaussian states."""

    def sample(self, p: ModelParams, stream: RngStream,
               count: int) -> tuple[np.ndarray, np.ndarray]:
        return _gaussian_states(p, stream, count), np.ones(count)


@dataclass(frozen=True)
class PerturbationInit:
    """Importance sampler for an initial density (ratio to the Gaussian) h0.

    States are drawn from the Gaussian and carry weight h0(state), so
    weighted ensemble averages estimate moments under the perturbed
    density without needing to sample it directly; this is exact for
    any polynomial h0. A genuine density satisfies h0 >= 0, which is
    enforced on every draw. h0 may depend on the system velocities
    alone (3M variables) or on the full state (3(M+N) variables).
    """

    h0: HermiteCoeffs

    def sample(self, p: ModelParams, stream: RngStream,
               count: int) -> tuple[np.ndarray, np.ndarray]:
        nv = self.h0.basis.nvars
        if nv not in (3 * p.m, 3 * (p.m + p.n)):
            raise StateError(
                f"h0 must live on {3 * p.m} or {3 * (p.m + p.n)} variables, got {nv}"
            )
        states = _gaussian_states(p, stream, count)
        weights = self.h0.evaluate(states.reshape(count, -1)[:, :nv])
        if np.any(weights < 0.0):
            raise NegativeWeightError(
                f"initial density is negative ({weights.min():.3e}) at a sampled "
                "state; shrink the perturbation"
            )
        return states, weights


@dataclass(frozen=True, eq=False)
class BlockObservable:
    """An observable read on a whole member block in one call.

    fn(vw, *args) maps a read-only (count, M+N, 3) block state to its
    (count,) values, with the per-member arithmetic of the matching
    per-state evaluator, so both give the same numbers. fn must be a
    module-level function for the observable to pickle. Called on one
    JointState, it reads a block of one, so it serves wherever a
    Callable[[JointState], float] is expected.
    """

    fn: Callable[..., np.ndarray]
    args: tuple = ()

    def block(self, vw: np.ndarray) -> np.ndarray:
        return self.fn(vw, *self.args)

    def __call__(self, s: JointState) -> float:
        return float(self.block(np.concatenate([s.v, s.w])[None])[0])


def _block_values(
    block: int,
    cfg: SimConfig,
    p: ModelParams,
    init,
    obs_fns: list[Callable[[JointState], float]],
) -> np.ndarray:
    """Weighted observable values of one member block, (count, n_times, n_obs)."""
    count = min(BLOCK, cfg.ensemble - block * BLOCK)
    stream = RngStream(cfg.seed, block)
    vw, weights = init.sample(p, stream, count)
    rates = event_rates(p, cfg.system_kind)
    t_next = stream.rng.exponential(1.0 / rates.total, count)
    out = np.empty((count, len(cfg.record_times), len(obs_fns)))
    # batched observables see the state only through this view
    view = vw.view()
    view.flags.writeable = False
    batched = [o for o, fn in enumerate(obs_fns) if isinstance(fn, BlockObservable)]
    plain = [o for o, fn in enumerate(obs_fns) if not isinstance(fn, BlockObservable)]
    plain_fns = [obs_fns[o] for o in plain]
    per_state = np.empty((count, len(plain)))
    for k, tau in enumerate(cfg.record_times):
        _advance(vw, t_next, tau, p, rates, stream)
        if not np.isfinite(vw).all():
            raise StateError(f"velocities must be finite (block {block}, t={tau})")
        for o in batched:
            vals = obs_fns[o].block(view)
            if np.shape(vals) != (count,):
                raise StateError(
                    f"batched observable returned shape {np.shape(vals)}, want ({count},)"
                )
            out[:, k, o] = vals
        if plain:
            for row in range(count):
                # each member gets its own copy, which the finiteness check
                # above has already covered
                snap = vw[row].copy()
                state = JointState.from_checked(snap[: p.m], snap[p.m :])
                per_state[row] = [fn(state) for fn in plain_fns]
            out[:, k, plain] = per_state
    return out * weights[:, None, None]


def run_ensemble(
    cfg: SimConfig,
    p: ModelParams,
    init,
    observables: dict[str, Callable[[JointState], float]],
    workers: int = 1,
) -> list[MomentRecord]:
    """Ensemble moment curves: one MomentRecord per (record time, observable).

    Members run in blocks with one stream per block (see the module
    docstring); weighted means use the raw importance estimator
    (unbiased when the initial density integrates to one). With
    workers > 1, blocks go to a pool of at most min(workers, blocks)
    processes and are re-assembled in block order, so results and any
    downstream CSV are identical to a serial run. Observables must then
    be picklable. BlockObservable values are read once per block and
    record time; other callables once per member.
    """
    if not observables:
        raise ConfigError("need at least one observable")
    names = list(observables)
    obs_fns = [observables[k] for k in names]
    blocks = range(-(-cfg.ensemble // BLOCK))
    workers = min(workers, len(blocks))
    if workers <= 1:
        parts = [_block_values(b, cfg, p, init, obs_fns) for b in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_block_values, b, cfg, p, init, obs_fns)
                       for b in blocks]
            parts = [fut.result() for fut in futures]
    values = np.concatenate(parts)

    records = []
    for k, tau in enumerate(cfg.record_times):
        for o, name in enumerate(names):
            col = values[:, k, o]
            se = float(col.std(ddof=1) / sqrt(cfg.ensemble)) if cfg.ensemble > 1 else 0.0
            records.append(
                MomentRecord(
                    time=float(tau),
                    observable=name,
                    mean=float(col.mean()),
                    std_error=se,
                    n_samples=cfg.ensemble,
                )
            )
    return records


def _hermite_block(vw: np.ndarray, coeffs: HermiteCoeffs, nvars: int) -> np.ndarray:
    return coeffs.evaluate(vw.reshape(len(vw), -1)[:, :nvars])


def hermite_observable(coeffs: HermiteCoeffs, p: ModelParams) -> BlockObservable:
    """A Hermite polynomial as a batched observable.

    Accepts coefficients over the system velocities (3M variables) or
    the full state (3(M+N) variables); the first 3M flattened
    coordinates of a state are the system velocities.
    """
    nv = coeffs.basis.nvars
    if nv not in (3 * p.m, 3 * (p.m + p.n)):
        raise StateError(
            f"observable must live on {3 * p.m} or {3 * (p.m + p.n)} variables, got {nv}"
        )
    return BlockObservable(_hermite_block, (coeffs, nv))
