"""Operator assembly on truncated Hermite spaces: contraction, block
structure, bath-map spectra, rotation-average identity, spectral gaps."""

import re

import numpy as np
import pytest
from math import pi, sqrt
from scipy.sparse.linalg import ArpackNoConvergence

from kacbath import (
    ConfigError,
    HermiteCoeffs,
    ModelParams,
    OperatorMatrix,
    QuadratureError,
    SpectralContext,
    StateError,
    ToleranceError,
    assemble_T,
    assemble_generator,
    assemble_pair_rotation,
    invariant_projector,
    joint_basis,
    make_basis,
    spectral_gap,
    symmetric_tensor_eigenvalues,
    tensor_T,
    verify_lemma2,
)
from kacbath import spectral
from kacbath.hermite import poly_coord, poly_mul, poly_add, hermite_coeffs_from_poly
from kacbath.randomness import RngStream
from kacbath.spectral import (
    embed_block,
    pair_avg_block,
    sphere_moment_tensor,
    thermostat_block,
    v_slots,
    w_slots,
)

import embedding_oracle
import gap_oracle
import tensor_oracle


def _unit_h1_tagged(m: int) -> HermiteCoeffs:
    b = make_basis(3 * m, 1)
    vec = np.zeros(b.size)
    vec[b.index[tuple(1 if i == 0 else 0 for i in range(3 * m))]] = 1.0
    return HermiteCoeffs(b, vec)


# ---------------------------------------------------------------------------
# structural invariants


@pytest.mark.parametrize("kind,i,j,p", [
    ("system", 0, 1, ModelParams(2, 2)),
    ("reservoir", 0, 1, ModelParams(1, 3)),
    ("interaction", 0, 2, ModelParams(1, 3)),
])
def test_pair_rotations_are_symmetric_contractions(kind, i, j, p):
    op = assemble_pair_rotation(kind, i, j, p, 3)
    assert np.abs(op.mat - op.mat.T).max() <= 1e-10
    assert np.linalg.norm(op.mat, 2) <= 1.0 + 1e-10
    # exact degree-block structure: no leakage between degrees
    basis = op.basis
    for a in range(basis.degree + 1):
        for b in range(basis.degree + 1):
            if a != b:
                sl_a, sl_b = basis.degree_slice(a), basis.degree_slice(b)
                assert np.abs(op.mat[sl_a, sl_b]).max() == 0.0


def test_pair_average_spectrum_in_unit_interval():
    # an averaging operator: spectrum within [0, 1], so A - A^2 is PSD
    p = ModelParams(1, 3)
    op = assemble_pair_rotation("interaction", 0, 1, p, 4)
    eigs = np.linalg.eigvalsh(op.mat)
    assert eigs.min() >= -1e-12
    assert eigs.max() <= 1.0 + 1e-12
    gap = op.mat - op.mat @ op.mat
    assert np.linalg.eigvalsh((gap + gap.T) / 2).min() >= -1e-12


def test_pair_rotation_fixes_pair_invariants():
    # energy and momentum of the colliding pair are pointwise conserved,
    # so their Hermite data is fixed by the average
    p = ModelParams(2, 2)
    op = assemble_pair_rotation("system", 0, 1, p, 2)
    b = op.basis
    px = poly_add(poly_coord(0), poly_coord(3))  # v1x + v2x
    energy = poly_add(*[poly_mul(poly_coord(k), poly_coord(k)) for k in range(6)])
    for poly in (px, energy, poly_mul(px, px)):
        vec = hermite_coeffs_from_poly(poly, b)
        np.testing.assert_allclose(op.mat @ vec, vec, atol=1e-10)


def test_generators_are_symmetric_and_negative_semidefinite():
    p = ModelParams(1, 2)
    for kind in ("reservoir", "thermostat"):
        g = assemble_generator(kind, p, 2)
        assert np.abs(g.mat - g.mat.T).max() <= 1e-10
        assert np.linalg.eigvalsh(g.mat).max() <= 1e-10


def test_thermostat_generator_kills_reservoir_momentum_only():
    p = ModelParams(1, 2)
    g = assemble_generator("thermostat", p, 2)
    b = g.basis
    # sum of reservoir x-velocities is conserved by the bath dynamics
    res_px = poly_add(poly_coord(3), poly_coord(6))
    vec = hermite_coeffs_from_poly(res_px, b)
    np.testing.assert_allclose(g.mat @ vec, 0.0, atol=1e-10)
    # the tagged velocity is not: it decays at rate mu/3
    tag = hermite_coeffs_from_poly(poly_coord(0), b)
    np.testing.assert_allclose(g.mat @ tag, -(p.mu / 3.0) * tag, atol=1e-10)


# ---------------------------------------------------------------------------
# bath map spectra


def test_bath_map_degree_blocks():
    t = assemble_T(1, 4)
    for d, expected in [
        (1, {2.0 / 3.0}),
        (2, {7.0 / 15.0, 2.0 / 3.0}),
        (3, {12.0 / 35.0, 8.0 / 15.0}),
    ]:
        eigs = np.linalg.eigvalsh(t.block(d))
        got = set(np.round(eigs, 10))
        assert got == {round(e, 10) for e in expected}
    # degree-1 block is exactly (2/3) I
    np.testing.assert_allclose(t.block(1), (2.0 / 3.0) * np.eye(3), atol=1e-12)


def test_tensor_route_matches_matrix_route():
    t = assemble_T(1, 5)
    for deg in range(1, 6):
        a = np.sort(symmetric_tensor_eigenvalues(deg))
        b = np.sort(np.linalg.eigvalsh(t.block(deg)))
        # same top eigenvalue; the tensor route may enumerate with
        # different multiplicities, so compare the extremes and bound
        assert abs(a.max() - b.max()) < 1e-9
        assert b.max() <= 2.0 / 3.0 + 1e-10
        assert a.max() <= 2.0 / 3.0 + 1e-10


def test_sphere_moment_tensors():
    np.testing.assert_allclose(sphere_moment_tensor(2), np.eye(3) / 3.0, atol=1e-14)
    m4 = sphere_moment_tensor(4)
    eye = np.eye(3)
    sym = (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
    ) / 15.0
    np.testing.assert_allclose(m4, sym, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 7))
def test_tensor_quadrature_equals_the_per_node_loop(m):
    got = spectral._tensor_T_quadrature(m)
    want = tensor_oracle.tensor_T_quadrature(m)
    assert np.abs(got - want).max() <= 1e-14


def test_tensor_T_check_catches_a_perturbed_quadrature(monkeypatch):
    real = spectral._tensor_T_quadrature
    monkeypatch.setattr(spectral, "_tensor_T_quadrature", lambda m: real(m) + 1e-8)
    with pytest.raises(QuadratureError, match=re.escape("tensor_T(3):")):
        tensor_T(3)


def test_tensor_T_is_symmetric_psd_contraction():
    for deg in (1, 2, 3):
        mat = tensor_T(deg)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        eigs = symmetric_tensor_eigenvalues(deg)
        assert eigs.min() >= -1e-12


# ---------------------------------------------------------------------------
# rotation-average identity (finite reservoir mean vs bath map)


def test_lemma2_identity_random_polynomials():
    for n in (2, 3):
        p = ModelParams(1, n)
        basis = make_basis(3, 3)
        for trial in range(6):
            vec = RngStream(10 + n, trial).rng.standard_normal(basis.size)
            res = verify_lemma2(HermiteCoeffs(basis, vec), p, d=3)
            assert abs(res.lhs - res.rhs) < 1e-12
            assert res.lhs <= res.variance_bound + 1e-12


def test_lemma2_unit_mode_values():
    # for a unit degree-1 mode the defect is 1/(9N): exactly half the
    # variance bound (2/9)/N, since the pair average has <Ru,Ru> = 5/9
    # while <u,Tu> = 2/3 and <Tu,Tu> = 4/9
    for n, want in [(2, 1.0 / 18.0), (3, 1.0 / 27.0)]:
        res = verify_lemma2(_unit_h1_tagged(1), ModelParams(1, n), d=1)
        assert res.lhs == pytest.approx(want, abs=1e-14)
        assert res.variance_bound == pytest.approx(2.0 * want, abs=1e-14)


def test_lemma2_coordinate_function_closed_form():
    # u = tagged x-velocity: norm^2 = 1/(2 pi) scales the unit-mode values
    b = make_basis(3, 1)
    vec = np.zeros(b.size)
    vec[b.index[(1, 0, 0)]] = 1.0 / sqrt(2.0 * pi)
    res = verify_lemma2(HermiteCoeffs(b, vec), ModelParams(1, 2), d=1)
    assert res.lhs == pytest.approx(1.0 / (36.0 * pi), abs=1e-14)
    assert res.variance_bound == pytest.approx(1.0 / (18.0 * pi), abs=1e-14)


def test_lemma2_rejects_wrong_variable_count():
    with pytest.raises(StateError):
        verify_lemma2(_unit_h1_tagged(2), ModelParams(1, 2), d=1)


# ---------------------------------------------------------------------------
# invariants and the gap


@pytest.mark.parametrize("m,n,d", [(1, 2, 2), (2, 3, 2), (1, 6, 2),
                                   (1, 2, 3), (2, 2, 3)])
def test_invariant_projector_structure(m, n, d):
    p = ModelParams(m, n)
    blocks = invariant_projector(p, d)
    # per degree: 1 constant; 3 momenta; 6 momentum quadratics and the
    # energy; 10 momentum cubics and the energy times each momentum
    assert tuple(u.shape[1] for u in blocks) == (1, 3, 7, 13)[: d + 1]
    gen = assemble_generator("reservoir", p, d)
    for k, u in enumerate(blocks):
        assert u.shape[0] == gen.block(k).shape[0]
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)
        # the columns really are invariants of the generator
        assert np.abs(gen.block(k) @ u).max() < 1e-10
    if d == 2:
        assert sum(u.shape[1] for u in blocks) == 11


def test_spectral_gap_small_reservoir_values():
    # frozen from the assembled generator at degree 2, unit rates:
    # the gap follows (N+1)/(3N) for a single tagged particle
    for n, want in [(2, 0.5), (4, 5.0 / 12.0), (8, 3.0 / 8.0)]:
        ctx = SpectralContext(ModelParams(1, n), 2)
        assert spectral_gap(ctx) == pytest.approx(want, abs=1e-10)


def test_spectral_gap_monotone_in_degree():
    p = ModelParams(1, 2)
    gaps = [spectral_gap(SpectralContext(p, d)) for d in (1, 2, 3)]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[-1] > 0.0


def test_gap_is_n_plus_one_over_3n():
    for n in (2, 4, 8, 16):
        k = spectral_gap(SpectralContext(ModelParams(1, n), 2))
        assert abs(k - (n + 1) / (3 * n)) <= 1e-12, (n, k)


@pytest.mark.parametrize("m,n,d", [(1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 3, 2),
                                   (1, 16, 2), (1, 6, 3), (1, 8, 3)])
def test_per_degree_gap_equals_the_dense_oracle(m, n, d):
    ctx = SpectralContext(ModelParams(m, n), d)
    want = gap_oracle.spectral_gap(ctx.reservoir, ctx.invariants)
    assert abs(spectral_gap(ctx) - want) <= 1e-12


def _spy_eigsh(monkeypatch, change=None) -> list:
    """Record each Lanczos call of spectral_gap as (operator, start vector);
    `change(theta, x, n)` may rewrite the Ritz pair of an n-row block."""
    real = spectral.eigsh
    calls = []

    def spy(op, **kwargs):
        calls.append((op, kwargs["v0"]))
        theta, x = real(op, **kwargs)
        return (theta, x) if change is None else change(theta, x, op.shape[0])

    monkeypatch.setattr(spectral, "eigsh", spy)
    return calls


@pytest.mark.parametrize("m,n,d", [(1, 2, 3), (2, 3, 2), (1, 16, 2)])
def test_lanczos_starts_off_the_invariants(m, n, d, monkeypatch):
    # a start vector inside span U_m (the all-ones vector nearly is, at
    # degrees 1 and 2) has nothing for Lanczos to grow off the invariants
    ctx = SpectralContext(ModelParams(m, n), d)
    calls = _spy_eigsh(monkeypatch)
    spectral_gap(ctx)
    blocks = ctx.invariants[1:]
    assert len(calls) == len(blocks) == d
    for (op, v0), u in zip(calls, blocks):
        assert op.shape == (len(u), len(u))
        off = v0 - u @ (u.T @ v0)
        assert np.linalg.norm(off) >= 0.5 * np.linalg.norm(v0)


def test_gap_is_reproducible_bit_for_bit():
    p = ModelParams(1, 4)
    first, second = (spectral_gap(SpectralContext(p, 3)) for _ in range(2))
    assert first.hex() == second.hex()


def test_gap_names_the_degree_where_lanczos_does_not_converge(monkeypatch):
    ctx = SpectralContext(ModelParams(1, 2), 3)
    rows = len(ctx.invariants[2])

    def change(theta, x, n):
        if n == rows:
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.empty(0), np.empty((n, 0)))
        return theta, x

    _spy_eigsh(monkeypatch, change)
    with pytest.raises(ToleranceError, match="did not converge in degree 2"):
        spectral_gap(ctx)


@pytest.mark.parametrize("nudge,check", [
    (lambda theta, x, u: (theta + 1e-6, x), "Lanczos residual in degree 2"),
    (lambda theta, x, u: (theta, x + 1e-6 * u[:, :1]),
     "Ritz vector overlaps the invariants in degree 2"),
])
def test_gap_rejects_a_perturbed_ritz_pair(nudge, check, monkeypatch):
    ctx = SpectralContext(ModelParams(1, 2), 2)
    u2 = ctx.invariants[2]

    def change(theta, x, n):
        return nudge(theta, x, u2) if n == len(u2) else (theta, x)

    _spy_eigsh(monkeypatch, change)
    with pytest.raises(ToleranceError, match=check) as err:
        spectral_gap(ctx)
    got = float(str(err.value).split(": ")[1].split()[0])
    assert got == pytest.approx(1e-6, rel=1e-3)
    assert got > spectral.RITZ_TOL


def _with_block(op: OperatorMatrix, m: int, change) -> OperatorMatrix:
    """op with its degree-m block replaced by change(block)."""
    mat = op.mat.copy()
    sl = op.basis.degree_slice(m)
    mat[sl, sl] = change(mat[sl, sl])
    return OperatorMatrix(op.name, op.basis, mat)


def _defect(message: str) -> float:
    return float(message.split("defect ")[1].split()[0])


@pytest.mark.parametrize("m", [1, 2])
def test_gap_rejects_a_complement_not_idempotent_in_one_block(m, monkeypatch):
    # scaling the degree-m rows of U moves that block's singular values
    # from 1 to 1 + 1e-7, so P_m = U_m U_m^T is no longer idempotent
    p = ModelParams(1, 2)
    sl = joint_basis(p, 2).degree_slice(m)
    real = spectral.orth
    seen = []

    def broken(a):
        u = real(a)
        u[sl] *= 1.0 + 1e-7
        seen.append(u)
        return u

    monkeypatch.setattr(spectral, "orth", broken)
    ctx = SpectralContext(p, 2)
    with pytest.raises(ToleranceError, match=f"idempotent in degree {m}") as err:
        spectral_gap(ctx)
    sv = np.linalg.svd(seen[0][sl], compute_uv=False)
    want = float(np.abs(sv[sv > 0.5] - 1.0).max())
    assert want == pytest.approx(1e-7, rel=1e-6)
    assert _defect(str(err.value)) == pytest.approx(want, rel=1e-3)
    assert want > spectral.IDEMPOTENCY_TOL


def test_gap_rejects_a_generator_moving_the_degree_2_invariants(monkeypatch):
    real = spectral.assemble_generator
    p = ModelParams(1, 2)
    u2 = SpectralContext(p, 2).invariants[2]
    inv = u2 @ u2.T

    def broken(kind, p, d, basis=None):
        return _with_block(real(kind, p, d, basis=basis), 2, lambda g: g + 1e-6 * inv)

    monkeypatch.setattr(spectral, "assemble_generator", broken)
    ctx = SpectralContext(p, 2)
    with pytest.raises(ToleranceError, match="annihilate invariants in degree 2") as err:
        spectral_gap(ctx)
    want = float(np.abs(ctx.reservoir.block(2) @ u2).max())
    assert _defect(str(err.value)) == pytest.approx(want, rel=1e-3)
    assert want > spectral.KERNEL_TOL


def test_gap_rejects_a_generator_growing_off_the_invariants(monkeypatch):
    # adding 2 (I - U_2 U_2^T) to G_2 keeps the invariants in the kernel
    # but lifts the degree-2 complement spectrum above zero
    real = spectral.assemble_generator
    p = ModelParams(1, 2)
    u2 = SpectralContext(p, 2).invariants[2]
    comp = np.eye(len(u2)) - u2 @ u2.T

    def broken(kind, p, d, basis=None):
        return _with_block(real(kind, p, d, basis=basis), 2, lambda g: g + 2.0 * comp)

    monkeypatch.setattr(spectral, "assemble_generator", broken)
    ctx = SpectralContext(p, 2)
    with pytest.raises(ToleranceError, match="nonpositive spectral gap") as err:
        spectral_gap(ctx)
    w = np.linalg.eigh(comp)[1][:, u2.shape[1]:]
    want = -float(np.linalg.eigvalsh(w.T @ ctx.reservoir.block(2) @ w).max())
    assert want < 0.0
    got = float(str(err.value).split("gap ")[1])
    assert got == pytest.approx(want, rel=1e-3)


def test_joint_basis_shape():
    p = ModelParams(1, 2)
    b = joint_basis(p, 2)
    assert b.nvars == 9
    assert b.size == 55


def test_joint_basis_rejects_a_dense_operator_over_the_limit():
    # the largest joint basis in use (d=3, M=1, N=8) fits; 129 variables at
    # degree 2 give 8515 rows, 580 MB dense, just over DENSE_BYTES_MAX.
    # Without the closed-form check the call would enumerate those rows.
    assert joint_basis(ModelParams(1, 8), 3).size == 4060
    with pytest.raises(ConfigError, match="8515 rows; one dense operator needs 580 MB"):
        joint_basis(ModelParams(1, 42), 2)


# ---------------------------------------------------------------------------
# vectorised embedding against the per-row oracle


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_embedded_raw_blocks_equal_the_oracle(d):
    # the raw mix and reflection blocks carry off-degree roundoff; the
    # embedding copies it as it is, exactly like the per-row route
    b2, b3, b6 = make_basis(2, d), make_basis(3, d), make_basis(6, d)
    mix = spectral._mix_block_2var(d)
    refl = spectral._reflection_avg_block(d)
    off = b2.degree_of[:, None] != b2.degree_of[None, :]
    assert np.abs(mix[off]).max() > 0.0
    for pair in ((0, 3), (1, 4), (2, 5)):
        assert _same_bits(embed_block(mix, b2, b6, pair),
                          embedding_oracle.embed_block(mix, b2, b6, pair))
    assert _same_bits(embed_block(refl, b3, b6, (3, 4, 5)),
                      embedding_oracle.embed_block(refl, b3, b6, (3, 4, 5)))
    # slots out of ascending order
    assert _same_bits(embed_block(refl, b3, b6, (5, 1, 3)),
                      embedding_oracle.embed_block(refl, b3, b6, (5, 1, 3)))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (1, 5)])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_embedded_pair_block_equals_the_oracle(m, n, d):
    p = ModelParams(m, n)
    big = joint_basis(p, d)
    b6 = make_basis(6, d)
    pair = pair_avg_block(d)
    slot_lists = [
        np.concatenate([w_slots(p, 0), w_slots(p, 1)]),
        np.concatenate([v_slots(0), w_slots(p, n - 1)]),
        np.concatenate([w_slots(p, n - 1), v_slots(0)]),
    ]
    if m >= 2:
        slot_lists.append(np.concatenate([v_slots(0), v_slots(1)]))
    for slots in slot_lists:
        assert _same_bits(embed_block(pair, b6, big, slots),
                          embedding_oracle.embed_block(pair, b6, big, slots))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_embedding_over_every_variable_is_the_block(d):
    # no variable outside the slots: the whole basis is one group
    b3 = make_basis(3, d)
    therm = thermostat_block(d)
    assert _same_bits(embed_block(therm, b3, b3, (0, 1, 2)),
                      embedding_oracle.embed_block(therm, b3, b3, (0, 1, 2)))
    assert _same_bits(assemble_T(1, d).mat, therm)


@pytest.mark.parametrize("m,n,d", [(1, 2, 3), (2, 3, 2), (1, 8, 2)])
def test_generators_equal_the_oracle_assembly(m, n, d, monkeypatch):
    p = ModelParams(m, n)
    fast = {kind: assemble_generator(kind, p, d).mat for kind in ("reservoir", "thermostat")}
    # rebuild the pair and thermostat blocks as well, through the oracle
    monkeypatch.setattr(spectral, "_cache", {})
    monkeypatch.setattr(spectral, "embed_block", embedding_oracle.embed_block)
    monkeypatch.setattr(spectral, "_accumulate_embedded",
                        embedding_oracle.accumulate_embedded)
    for kind, mat in fast.items():
        assert _same_bits(mat, assemble_generator(kind, p, d).mat)


def test_embedding_rejects_a_sub_basis_of_lower_degree():
    # slot exponents of degree 2 have no row in a degree-1 sub-basis
    with pytest.raises(StateError, match="misses slot exponents"):
        embed_block(np.eye(4), make_basis(3, 1), make_basis(6, 2), (0, 1, 2))


# ---------------------------------------------------------------------------
# every quadrature route is checked


@pytest.mark.parametrize("route,levels,check", [
    ("_mix_block_2var", "refined", "pair mix block:"),
    ("_reflection_avg_block", "refined", "pair reflection block:"),
    ("_pair_block_direct", "both", "pair block (direct route):"),
    ("_thermostat_block_quadrature", "refined", "thermostat block:"),
    # both thermostat levels agree with each other, not with the pair route
    ("_thermostat_block_quadrature", "both", "thermostat block (pair route):"),
])
def test_each_quadrature_check_catches_a_perturbed_route(route, levels, check,
                                                         monkeypatch):
    real = getattr(spectral, route)

    def nudged(d, extra=0):
        out = real(d, extra=extra)
        return out + 1e-8 if extra or levels == "both" else out

    monkeypatch.setattr(spectral, "_cache", {})
    monkeypatch.setattr(spectral, route, nudged)
    with pytest.raises(QuadratureError, match=re.escape(check)):
        thermostat_block(2)
