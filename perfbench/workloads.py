"""The four benchmark workloads: fixed configs, their ops, and output checks.

A workload is a set-up step (write configs, build inputs) and a list of
ops. CLI ops call `kacbath.cli.main` in-process, exactly as the
`kacbath` command would; API ops call the public Python functions.
Each op has a check that raises `CheckFailed` on a wrong result; all
artifacts must in addition pass `kacbath report`.

Only the workload seed varies the inputs: it seeds the Monte Carlo ops
and the simulator (seeds 101 + s and 103 + s, so seed 0 gives the
simulator seeds of acceptance criterion 7). The spectral configs are fixed, so
their outputs can be compared with values pinned at the seed commit.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from math import pi
from typing import Callable

import kacbath.jump as jump
import numpy as np
from kacbath.cli import main as kacbath_main, perturbation_data
from kacbath.evolution import evolve
from kacbath.kinematics import ModelParams, total_energy, total_momentum
from kacbath.output import read_matrix
from kacbath.spectral import assemble_generator, joint_basis

HERE = os.path.dirname(os.path.abspath(__file__))

# |z| of a Monte Carlo mean against its exact value that fails an op.
# Loose on purpose: a legitimate change of the random-stream layout must
# pass on every seed, and no seed is chosen to make a check pass.
Z_MAX = 5.0
# Relative tolerance on values pinned at the seed commit (the evolution
# cross-check tolerance); absolute floor of the same share of the peak.
PIN_RTOL = 1e-9
GAP_ATOL = 1e-12
# Conserved means may move across record times by roundoff only.
CONSERVE_RTOL = 1e-9


class CheckFailed(Exception):
    pass


@dataclass
class Ctx:
    seed: int
    art: str       # artifact directory handed to `kacbath report`
    cfg: str       # config directory
    inputs: dict = field(default_factory=dict)

    def config(self, name: str, doc: dict):
        with open(os.path.join(self.cfg, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


@dataclass
class Op:
    name: str                          # per-op metric is f"{name}_s"
    run: Callable[[Ctx], object]
    check: Callable[[Ctx, object], None]
    reported: tuple[str, ...] = ()     # artifacts `kacbath report` must pass
    work: dict = field(default_factory=dict)  # members / mc_samples per op
    known_defect: bool = False


@dataclass
class Workload:
    setup: Callable[[Ctx], None]
    ops: list[Op]


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _cli(*argv: str) -> Callable[[Ctx], int]:
    """An op that runs one kacbath subcommand; {art}/{cfg} name the run dirs."""
    def run(ctx: Ctx) -> int:
        code = kacbath_main([a.format(art=ctx.art, cfg=ctx.cfg) for a in argv])
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        return code
    run.cli = True
    return run


def _pinned() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: np.ndarray, want: np.ndarray, what: str):
    _require(got.shape == want.shape, f"{what}: {got.size} values, pinned {want.size}")
    tol = PIN_RTOL * (np.abs(want) + np.abs(want).max())
    worst = float(np.max(np.abs(got - want) / tol))
    _require(worst <= 1.0, f"{what}: off the pinned values by {worst:.3g} x tolerance")


def _check_distance(key: str):
    def check(ctx: Ctx, _):
        rows = _read_csv(os.path.join(ctx.art, f"{key}.csv"))
        got = np.array([float(r["distance"]) for r in rows])
        _close(got, np.array(_pinned()[key]), f"{key} curve")
    return check


def _check_z(means, ses, exact, what: str):
    z = (np.asarray(means) - np.asarray(exact)) / np.asarray(ses)
    _require(bool(np.all(np.isfinite(z))), f"{what}: undefined z-score")
    worst = float(np.max(np.abs(z)))
    _require(worst <= Z_MAX, f"{what}: |z| = {worst:.2f} > {Z_MAX}")


# ---------------------------------------------------------------------------
# spectral-d2: scaling study at criterion 6's settings, then N=8 subcommands

D2_GRID = {"t_end": 80.0, "grid": {"count": 56}}
H2_INIT = {"kind": "perturbation", "family": "h2_aniso", "eps": 0.2}


def _setup_d2(ctx: Ctx):
    ctx.config("bound", {"m": 1, "n": 2, "degree": 2, "eps": 0.2,
                         "reservoir_sizes": [2, 4, 8, 16], **D2_GRID})
    ctx.config("distance", {"m": 1, "n": 8, "degree": 2, "init": H2_INIT, **D2_GRID})
    ctx.config("lemma2", {"m": 1, "n": 8, "degree": 2, "seed": ctx.seed})
    ctx.config("spectral", {"m": 1, "n": 8, "degree": 2, "operator": "reservoir"})


def _check_scaling(ctx: Ctx, _):
    with open(os.path.join(ctx.art, "scaling.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    _require([r["n"] for r in rows] == [2, 4, 8, 16], "scaling rows missing")
    for r in rows:
        want = (r["n"] + 1) / (3 * r["n"])
        _require(abs(r["gap"] - want) <= GAP_ATOL,
                 f"N={r['n']}: k = {r['gap']!r}, want (N+1)/(3N) = {want!r}")


def _check_matrix(ctx: Ctx, _):
    g = read_matrix(os.path.join(ctx.art, "generator.mat"))
    _require(g.shape == (406, 406), f"generator shape {g.shape}, want (406, 406)")
    _require(float(np.abs(g - g.T).max()) <= 1e-12, "generator not symmetric")
    _require(float(np.abs(g[:, 0]).max()) <= 1e-12, "generator does not annihilate 1")


SPECTRAL_D2 = Workload(_setup_d2, [
    Op("bound", _cli("bound", "--config", "{cfg}/bound.json", "--out", "{art}/scaling.json"),
       _check_scaling, ("scaling.json",)),
    Op("distance", _cli("distance", "--config", "{cfg}/distance.json",
                        "--out", "{art}/distance_d2.csv"),
       _check_distance("distance_d2"), ("distance_d2.csv",)),
    Op("verify_lemma2", _cli("verify-lemma2", "--config", "{cfg}/lemma2.json",
                             "--out", "{art}/lemma2.json"),
       lambda ctx, _: None, ("lemma2.json",)),
    Op("spectral", _cli("spectral", "--config", "{cfg}/spectral.json",
                        "--out", "{art}/generator.mat"),
       _check_matrix),
])


# ---------------------------------------------------------------------------
# spectral-d3: cold degree-6 bath map, then dense d=3 solves at N=6


def _setup_d3(ctx: Ctx):
    ctx.config("distance", {"m": 1, "n": 6, "degree": 3, "init": H2_INIT, **D2_GRID})
    ctx.config("gap", {"m": 1, "n": 6, "degree": 3})


def _check_lemma3(ctx: Ctx, _):
    with open(os.path.join(ctx.art, "bathmap.json"), encoding="utf-8") as fh:
        top = json.load(fh)["top_eigenvalue"]
    _require(abs(top - 2.0 / 3.0) <= 1e-12, f"top eigenvalue {top!r}, want 2/3")


def _check_gap(ctx: Ctx, _):
    with open(os.path.join(ctx.art, "gap_d3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    pinned = _pinned()["gap_d3"]
    _close(np.array([doc["k_hat"], doc["l_hat"]]),
           np.array([pinned["k_hat"], pinned["l_hat"]]), "gap_d3")


SPECTRAL_D3 = Workload(_setup_d3, [
    Op("verify_lemma3", _cli("verify-lemma3", "--max-degree", "6",
                             "--out", "{art}/bathmap.json"),
       _check_lemma3, ("bathmap.json",)),
    Op("distance", _cli("distance", "--config", "{cfg}/distance.json",
                        "--out", "{art}/distance_d3.csv"),
       _check_distance("distance_d3"), ("distance_d3.csv",)),
    Op("gap", _cli("gap", "--config", "{cfg}/gap.json", "--out", "{art}/gap_d3.json"),
       _check_gap, ("gap_d3.json",)),
])


# ---------------------------------------------------------------------------
# sim-small-bath: ~4 events per member, so per-member set-up dominates

SMALL_MEMBERS = 3000
SMALL_TIMES = [0.4, 0.8, 1.2, 1.6, 2.0]
SMALL_OBS = {"v1x_h1": 1, "v1x_h2": 2}   # observable -> Hermite degree in v1x


def _setup_small(ctx: Ctx):
    """Configs plus the exact moments each simulate op must reproduce."""
    p = ModelParams(1, 2)
    h0 = perturbation_data("h1_v1x", 0.15, 1)
    big = joint_basis(p, 2)
    c0 = h0.embed(big, np.arange(3))
    rows = {name: big.index[(k,) + (0,) * (big.nvars - 1)]
            for name, k in SMALL_OBS.items()}
    for kind in ("reservoir", "thermostat"):
        ctx.config(f"sim_{kind}", {
            "m": 1, "n": 2, "seed": 101 + ctx.seed, "t_end": 2.0,
            "record_times": SMALL_TIMES, "ensemble": SMALL_MEMBERS,
            "system_kind": kind, "observables": list(SMALL_OBS),
            "init": {"kind": "perturbation", "family": "h1_v1x", "eps": 0.15}})
        path = evolve(assemble_generator(kind, p, 2), c0, SMALL_TIMES)
        # each observable is 1 + h_k(v1x), so its mean is 1 + <h_t, h_k>
        ctx.inputs[kind] = {name: [1.0 + c.vec[row] for c in path]
                            for name, row in rows.items()}


def _check_moments(kind: str):
    def check(ctx: Ctx, _):
        rows = _read_csv(os.path.join(ctx.art, f"moments_{kind}.csv"))
        _require(len(rows) == len(SMALL_TIMES) * len(SMALL_OBS), "missing records")
        for name, exact in ctx.inputs[kind].items():
            sel = [r for r in rows if r["observable"] == name]
            _check_z([float(r["mean"]) for r in sel],
                     [float(r["std_error"]) for r in sel], exact, f"{kind} {name}")
    return check


SIM_SMALL = Workload(_setup_small, [
    Op(f"simulate_{kind}",
       _cli("simulate", "--config", f"{{cfg}}/sim_{kind}.json",
            "--out", f"{{art}}/moments_{kind}.csv"),
       _check_moments(kind), (f"moments_{kind}.csv",), {"members": SMALL_MEMBERS})
    for kind in ("reservoir", "thermostat")
])


# ---------------------------------------------------------------------------
# sim-large-bath: ~76 events per member through the process pool, and the
# projector's vectorised Monte Carlo

LARGE_M, LARGE_N = 4, 64
LARGE_TIMES = (0.5, 1.0, 1.5, 2.0)
POOL_MEMBERS = 2000
SERIAL_MEMBERS = 600
DEFECT_MEMBERS = 200
LEMMA1_SAMPLES, LEMMA1_INNER, LEMMA1_ROWS = 4096, 64, 4


# Picklable observables for the pool (module-level, unlike the CLI's).
def system_energy(s) -> float:
    return float(np.sum(s.v ** 2))


def momentum_x(s) -> float:
    return float(total_momentum(s)[0])


def _setup_large(ctx: Ctx):
    ctx.config("lemma1", {
        "m": 1, "n": 8, "seed": ctx.seed, "system_sizes": [1, 2],
        "reservoir_sizes": [8, 64], "samples": LEMMA1_SAMPLES, "inner": LEMMA1_INNER,
        "init": {"kind": "perturbation", "family": "h1_v1x", "eps": 0.1}})
    ctx.config("sim_threads", {
        "m": LARGE_M, "n": LARGE_N, "seed": 103 + ctx.seed, "threads": 2,
        "t_end": 2.0, "record_times": list(LARGE_TIMES), "ensemble": DEFECT_MEMBERS,
        "observables": ["system_energy", "total_energy", "momentum_x"]})
    ctx.inputs.update(
        p=ModelParams(LARGE_M, LARGE_N), init=jump.EquilibriumInit(),
        observables={"system_energy": system_energy, "total_energy": total_energy,
                     "momentum_x": momentum_x},
        sim={n: jump.SimConfig(t_end=2.0, record_times=LARGE_TIMES, ensemble=n,
                          seed=103 + ctx.seed, system_kind="reservoir")
             for n in (POOL_MEMBERS, SERIAL_MEMBERS)})


def _ensemble(members: int, workers: int):
    def run(ctx: Ctx):
        i = ctx.inputs
        # looked up at call time, so that a traced pass calls the wrapper
        return jump.run_ensemble(i["sim"][members], i["p"], i["init"], i["observables"],
                            workers=workers)
    return run


def _check_equilibrium(ctx: Ctx, records):
    """Equilibrium stays put; energy and momentum are conserved per member."""
    by_obs: dict = {}
    for r in records:
        by_obs.setdefault(r.observable, []).append(r)
    _require(all(len(v) == len(LARGE_TIMES) for v in by_obs.values())
             and len(by_obs) == 3, "missing records")
    var = 1.0 / (2.0 * pi)     # per-coordinate variance of the background
    exact = {"system_energy": 3 * LARGE_M * var,
             "total_energy": 3 * (LARGE_M + LARGE_N) * var, "momentum_x": 0.0}
    for name, recs in by_obs.items():
        means = np.array([r.mean for r in recs])
        _check_z(means, [r.std_error for r in recs],
                 [exact[name]] * len(recs), name)
        if name != "system_energy":
            drift = float(np.abs(means - means[0]).max())
            _require(drift <= CONSERVE_RTOL * max(1.0, abs(means[0])),
                     f"{name} mean drifts by {drift:.3e} across record times")


SIM_LARGE = Workload(_setup_large, [
    Op("verify_lemma1", _cli("verify-lemma1", "--config", "{cfg}/lemma1.json",
                             "--out", "{art}/lemma1.csv"),
       lambda ctx, _: None, ("lemma1.csv",),
       {"mc_samples": LEMMA1_SAMPLES * LEMMA1_INNER * LEMMA1_ROWS}),
    # Serial first: a process that has forked the pool runs it measurably slower.
    Op("ensemble_serial", _ensemble(SERIAL_MEMBERS, 1), _check_equilibrium,
       work={"members_serial": SERIAL_MEMBERS}),
    Op("ensemble_pool", _ensemble(POOL_MEMBERS, 2), _check_equilibrium,
       work={"members": POOL_MEMBERS}),
    # Known defect: the CLI's observables cannot be pickled, so threads >= 2
    # dies with an uncaught AttributeError. Kept to show when it is fixed.
    Op("simulate_threads2", _cli("simulate", "--config", "{cfg}/sim_threads.json",
                                 "--out", "{art}/moments_threads2.csv"),
       lambda ctx, _: None, ("moments_threads2.csv",), known_defect=True),
])


WORKLOADS = {
    "spectral-d2": SPECTRAL_D2,
    "spectral-d3": SPECTRAL_D3,
    "sim-small-bath": SIM_SMALL,
    "sim-large-bath": SIM_LARGE,
}
