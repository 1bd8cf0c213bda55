"""Acceptance gates: one test per criterion, at the stated tolerances.

Each test is self-contained, prints one summary line, and enforces its
wall-clock budget. Statistical gates use seeds frozen during
development; nothing is rerun or loosened at test time.
"""

import json
import time

import numpy as np
import pytest
from math import pi, sqrt

from kacbath import (
    EquilibriumInit,
    ModelParams,
    SimConfig,
    SpectralContext,
    bound_curve,
    default_time_grid,
    distance_curve,
    measured_bound_params,
    run_ensemble,
)
from kacbath.bounds import scaling_study
from kacbath.cli import main
from kacbath.evolution import evolve
from kacbath.hermite import HermiteCoeffs, make_basis
from kacbath.jump import PerturbationInit, hermite_observable
from kacbath.kinematics import pair_collide
from kacbath.projector import estimate_lemma1_ratio, lemma1_constant
from kacbath.randomness import GAMMA_SIGMA, RngStream
from kacbath.spectral import (
    assemble_T,
    assemble_generator,
    conserved_norm,
    joint_basis,
    symmetric_tensor_eigenvalues,
    verify_lemma2,
)
from conditioning_kernel import verify_gaussian_identity


def _mean_one(m: int, entries, deg: int) -> HermiteCoeffs:
    """1 plus unit modes: entries are (exponent-prefix, coefficient) pairs."""
    b = make_basis(3 * m, deg)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    for exps, c in entries:
        key = tuple(exps[i] if i < len(exps) else 0 for i in range(3 * m))
        vec[b.index[key]] = c
    return HermiteCoeffs(b, vec)


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num}] PASS - {detail}")


# ---------------------------------------------------------------------------
# 1: collision kinematics at scale


def test_criterion_1_kinematics():
    start = time.perf_counter()
    count = 1_000_000
    rng = np.random.default_rng(12345)
    a = rng.normal(0.0, GAMMA_SIGMA, (count, 3))
    b = rng.normal(0.0, GAMMA_SIGMA, (count, 3))
    om = rng.normal(size=(count, 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)

    astar, bstar = pair_collide(a, b, om)
    e0 = np.sum(a * a + b * b, axis=1)
    e1 = np.sum(astar * astar + bstar * bstar, axis=1)
    energy_defect = float(np.max(np.abs(e1 - e0) / e0))
    assert energy_defect < 1e-10

    p0 = a + b
    p1 = astar + bstar
    scale = np.maximum(np.linalg.norm(p0, axis=1, keepdims=True), 1e-300)
    momentum_defect = float(np.max(np.abs(p1 - p0) / scale))
    assert momentum_defect < 1e-10

    aback, bback = pair_collide(astar, bstar, om)
    involution_defect = float(
        max(np.max(np.abs(aback - a)), np.max(np.abs(bback - b)))
    )
    assert involution_defect < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"energy {energy_defect:.2e}, momentum {momentum_defect:.2e}, "
               f"involution {involution_defect:.2e}, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2: finite-mean vs bath-map defect identity, with an independent
# quadrature oracle built from scratch (no operator assembly involved)


def _gh_gamma_nodes(k: int):
    # Gauss-Hermite transplanted to the weight e^{-pi x^2}
    u, w = np.polynomial.hermite.hermgauss(k)
    return u / sqrt(pi), w / sqrt(pi)


def _sphere_nodes(n_ct: int, n_phi: int):
    # Gauss-Legendre in cos(theta) times a uniform phi grid; exact for
    # spherical polynomials of modest degree, normalized to mean 1
    ct, wct = np.polynomial.legendre.leggauss(n_ct)
    phi = 2.0 * pi * (np.arange(n_phi) + 0.5) / n_phi
    st = np.sqrt(1.0 - ct ** 2)
    nodes = np.array([[s * np.cos(f), s * np.sin(f), c]
                      for c, s in zip(ct, st) for f in phi])
    weights = np.repeat(wct / 2.0, n_phi) / n_phi
    return nodes, weights


def _tensor_grid(nodes, weights, dims: int):
    pts = np.stack(np.meshgrid(*([nodes] * dims), indexing="ij"),
                   axis=-1).reshape(-1, dims)
    wts = np.prod(np.stack(np.meshgrid(*([weights] * dims), indexing="ij"),
                           axis=-1).reshape(-1, dims), axis=1)
    return pts, wts


def test_criterion_2_averaged_rotation_identity():
    start = time.perf_counter()

    # (a) identity via assembled matrices, 20 random degree <= 3 data
    worst = 0.0
    for n in (2, 3):
        ctx = SpectralContext(ModelParams(1, n), 3)
        basis = make_basis(3, 3)
        for trial in range(20):
            vec = RngStream(500 + n, trial).rng.standard_normal(basis.size)
            [res] = verify_lemma2([HermiteCoeffs(basis, vec)], ctx)
            worst = max(worst, abs(res.lhs - res.rhs))
            assert res.lhs <= res.variance_bound + 1e-12
    assert worst <= 1e-9

    # (b) analytic case u = tagged x-velocity, N = 2, against the oracle
    om, wom = _sphere_nodes(6, 12)

    def pair_avg_u(v, w):
        acc = np.zeros(v.shape[0])
        for node, wt in zip(om, wom):
            vstar, _ = pair_collide(v, w, node)
            acc += wt * vstar[:, 0]
        return acc

    xn, xw = _gh_gamma_nodes(4)
    partners, pw = _tensor_grid(xn, xw, 3)

    def thermo_u(v):
        acc = np.zeros(v.shape[0])
        for x, wt in zip(partners, pw):
            acc += wt * pair_avg_u(v, np.broadcast_to(x, v.shape))
        return acc

    zn, zw = _gh_gamma_nodes(3)
    z, wz = _tensor_grid(zn, zw, 9)
    f = (0.5 * (pair_avg_u(z[:, 0:3], z[:, 3:6])
                + pair_avg_u(z[:, 0:3], z[:, 6:9]))
         - thermo_u(z[:, 0:3]))
    oracle_lhs = float(np.sum(f * f * wz))

    v3, wv3 = _tensor_grid(zn, zw, 3)
    tu = thermo_u(v3)
    oracle_bound = float(
        (np.sum(v3[:, 0] * tu * wv3) - np.sum(tu * tu * wv3)) / 2.0)

    b1 = make_basis(3, 1)
    coord = np.zeros(b1.size)
    coord[b1.index[(1, 0, 0)]] = 1.0 / sqrt(2.0 * pi)  # v_x in unit modes
    [res] = verify_lemma2([HermiteCoeffs(b1, coord)], SpectralContext(ModelParams(1, 2), 1))

    assert oracle_bound == pytest.approx(1.0 / (18.0 * pi), abs=1e-10)
    assert res.variance_bound == pytest.approx(oracle_bound, abs=1e-10)
    assert oracle_lhs == pytest.approx(1.0 / (36.0 * pi), abs=1e-10)
    assert res.lhs == pytest.approx(oracle_lhs, abs=1e-10)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"identity defect {worst:.2e}; defect 1/(36 pi) and variance "
               f"bound 1/(18 pi) both match the quadrature oracle; "
               f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3: bath-map spectrum supremum, two routes


def test_criterion_3_bath_map_spectrum():
    start = time.perf_counter()
    sup = 2.0 / 3.0
    t = assemble_T(1, 6)
    worst_route_gap = 0.0
    for deg in range(1, 7):
        mat_eigs = np.linalg.eigvalsh(t.block(deg))
        ten_eigs = symmetric_tensor_eigenvalues(deg)
        assert mat_eigs.max() <= sup + 1e-10
        assert ten_eigs.max() <= sup + 1e-10
        # shared-eigenvalue agreement: symmetric Hausdorff distance
        d_ab = max(np.min(np.abs(ten_eigs - x)) for x in mat_eigs)
        d_ba = max(np.min(np.abs(mat_eigs - x)) for x in ten_eigs)
        worst_route_gap = max(worst_route_gap, d_ab, d_ba)
        if deg == 1:
            assert mat_eigs.max() == pytest.approx(sup, abs=1e-12)
            assert ten_eigs.max() == pytest.approx(sup, abs=1e-12)
    assert worst_route_gap <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"degree-1 top is 2/3, all degrees <= 6 stay below 2/3 + 1e-10, "
               f"route gap {worst_route_gap:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4: projector contraction constant, Monte Carlo


def _battery(m: int):
    return [
        ("linear", _mean_one(m, [((1,), 0.5)], 1)),
        ("quad-energy", _mean_one(m, [((2,), 0.3)], 2)),
        ("quad-aniso", _mean_one(m, [((2,), 0.2), ((0, 2), -0.2)], 2)),
        ("cross", _mean_one(m, [((1, 1), 0.4)], 2)),
        ("cubic", _mean_one(m, [((3,), 0.1)], 3)),
    ]


def test_criterion_4_projector_contraction():
    start = time.perf_counter()
    outer, inner = 2000, 64
    total = 0
    worst_margin = np.inf
    worst_se_ratio = 0.0
    for m in (1, 2):
        for n in (2, 4, 8):
            c = lemma1_constant(m, n)
            for idx, (name, h) in enumerate(_battery(m)):
                est = estimate_lemma1_ratio(
                    h, m, n, outer,
                    RngStream(401, 100 * m + 10 * n + idx), inner=inner)
                total += outer * inner
                assert est.ratio <= c + 3.0 * est.stderr, (m, n, name, est)
                assert est.stderr < 0.05 * c, (m, n, name, est)
                worst_margin = min(worst_margin,
                                   c + 3.0 * est.stderr - est.ratio)
                worst_se_ratio = max(worst_se_ratio, est.stderr / c)
    assert total <= 10_000_000

    for m, n in [(1, 2), (1, 4), (2, 4)]:
        quad, closed = verify_gaussian_identity(m, n)
        assert closed == pytest.approx(((m + n) / n) ** 3, rel=1e-14)
        assert abs(quad - closed) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(4, f"30 estimates, min margin {worst_margin:.3f}, max stderr/C "
               f"{worst_se_ratio:.4f}, {total} samples, Gaussian identity "
               f"checked, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5: the convergence bound dominates the exact distance curve


def test_criterion_5_distance_below_bound():
    start = time.perf_counter()
    grid = default_time_grid(70.0, count=40)
    families = [
        ("linear", _mean_one(1, [((1,), 0.3)], 1)),
        ("aniso", _mean_one(1, [((2,), 0.2), ((0, 2), -0.2)], 2)),
    ]
    worst_slack = np.inf
    for n in (2, 4, 8):
        ctx = SpectralContext(ModelParams(1, n, lambda_s=1.0, lambda_r=1.0, mu=1.0), 2)
        for name, h0 in families:
            curve = distance_curve(ctx, h0, grid)
            bp = measured_bound_params(ctx, h0)
            bc = bound_curve(bp, 1, n, grid)
            slack = min(b - d for b, d in zip(bc.total, curve.distance))
            worst_slack = min(worst_slack, slack)
            assert slack >= -1e-9, (n, name, slack)
            limit = conserved_norm(ctx.sector_reservoir, ctx.sector.tagged_coeffs(h0).vec)
            assert limit <= bp.c * h0.fluctuation_norm(), (n, name, limit)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, f"6 configurations, worst slack {worst_slack:+.2e}, limits "
               f"below C ||h0-1||, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6: the two scaling regimes of the coupling distance


def test_criterion_6_scaling_regimes():
    start = time.perf_counter()
    study = scaling_study(1, ns=(2, 4, 8, 16), eps=0.2)
    assert 0.8 <= study.p <= 1.2, study
    assert 0.3 <= study.q <= 0.7, study

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(6, f"limits fit (M+N)^-p with p = {study.p:.3f}; bump peaks fit "
               f"N^-q with q = {study.q:.3f}; {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 7: particle simulator vs coefficient evolution


def test_criterion_7_simulator_cross_validation():
    start = time.perf_counter()
    p = ModelParams(1, 2)
    eps = 0.15
    h0 = _mean_one(1, [((1,), eps)], 1)
    obs_coeffs = {}
    for name, key in [("h1_v1x", (1, 0, 0)), ("h2_v1x", (2, 0, 0))]:
        b = make_basis(3, sum(key))
        v = np.zeros(b.size)
        v[b.index[key]] = 1.0
        obs_coeffs[name] = HermiteCoeffs(b, v)

    observables = {k: hermite_observable(c, p) for k, c in obs_coeffs.items()}
    times = (0.4, 0.8, 1.2, 1.6, 2.0)

    big = joint_basis(p, 2)
    c0 = h0.embed(big, np.arange(3))
    predictions = {}
    for kind in ("reservoir", "thermostat"):
        path = evolve(assemble_generator(kind, p, 2), c0, np.array(times))
        for name, oc in obs_coeffs.items():
            emb = oc.embed(big, np.arange(3))
            predictions[kind, name] = [float(emb.vec @ ct.vec) for ct in path]

    worst_z = 0.0
    for kind in ("reservoir", "thermostat"):
        cfg = SimConfig(t_end=2.0, record_times=times, ensemble=100_000,
                        seed=101, system_kind=kind)
        for rec in run_ensemble(cfg, p, PerturbationInit(h0), observables):
            i = times.index(rec.time)
            z = (rec.mean - predictions[kind, rec.observable][i]) / rec.std_error
            worst_z = max(worst_z, abs(z))
            assert abs(z) < 3.0, (kind, rec, z)

    # the background Gaussian is stationary: no drift in either system
    worst_z_eq = 0.0
    for kind in ("reservoir", "thermostat"):
        cfg = SimConfig(t_end=2.0, record_times=times, ensemble=100_000,
                        seed=103, system_kind=kind)
        for rec in run_ensemble(cfg, p, EquilibriumInit(), observables):
            z = rec.mean / rec.std_error
            worst_z_eq = max(worst_z_eq, abs(z))
            assert abs(z) < 3.0, (kind, rec, z)

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, f"perturbed worst |z| {worst_z:.2f}, stationary worst |z| "
               f"{worst_z_eq:.2f} over 2 systems x 5 times x 2 observables, "
               f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 8: byte-identical artifacts from identical configurations


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    doc = {
        "m": 1, "n": 2, "seed": 42, "t_end": 1.0,
        "record_times": [0.0, 0.5, 1.0], "ensemble": 300,
        "observables": ["v1x", "system_energy"],
        "init": {"kind": "perturbation", "family": "h1_v1x", "eps": 0.1},
        "samples": 500, "inner": 16, "degree": 2,
        "grid": {"count": 8},
    }
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))

    artifacts = []
    for sub, name in [("simulate", "moments"), ("verify-lemma1", "ratio"),
                      ("distance", "curve")]:
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}.csv"
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
            pair.append(out.read_bytes())
        assert pair[0] == pair[1], f"{sub} output differs between runs"
        artifacts.append(name)

    elapsed = time.perf_counter() - start
    _report(8, f"byte-identical across two runs: {', '.join(artifacts)}; "
               f"{elapsed:.1f} s")
