"""Operator assembly on truncated Hermite spaces: contraction, block
structure, bath-map spectra, rotation-average identity, spectral gaps."""

import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import factorial, pi, prod, sqrt
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence

from kacbath import ModelParams, SpectralContext, assemble_T, spectral, spectral_gap
from kacbath.errors import ConfigError, QuadratureError, StateError, ToleranceError
from kacbath.hermite import (
    HermiteCoeffs,
    hermite_coeffs_from_poly,
    make_basis,
    poly_add,
    poly_coord,
    poly_mul,
    sphere_rule,
)
from kacbath.randomness import RngStream
from kacbath.spectral import (
    OperatorMatrix,
    assemble_generator,
    assemble_pair_rotation,
    embed_block,
    invariant_projector,
    joint_basis,
    pair_avg_block,
    symmetric_tensor_eigenvalues,
    thermostat_block,
    v_slots,
    verify_lemma2,
    w_slots,
)

import embedding_oracle
import gap_oracle
import quadrature_oracle
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
    mat = op.mat.toarray()
    assert np.abs(mat - mat.T).max() <= 1e-10
    assert np.linalg.norm(mat, 2) <= 1.0 + 1e-10
    # exact degree-block structure: no leakage between degrees
    basis = op.basis
    for a in range(basis.degree + 1):
        for b in range(basis.degree + 1):
            if a != b:
                sl_a, sl_b = basis.degree_slice(a), basis.degree_slice(b)
                assert np.abs(mat[sl_a, sl_b]).max() == 0.0


def test_pair_average_spectrum_in_unit_interval():
    # an averaging operator: spectrum within [0, 1], so A - A^2 is PSD
    p = ModelParams(1, 3)
    mat = assemble_pair_rotation("interaction", 0, 1, p, 4).mat.toarray()
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-12
    assert eigs.max() <= 1.0 + 1e-12
    gap = mat - mat @ mat
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
        mat = assemble_generator(kind, p, 2).mat.toarray()
        assert np.abs(mat - mat.T).max() <= 1e-10
        assert np.linalg.eigvalsh(mat).max() <= 1e-10


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
    # the 2l+1 multiplicities of the O(3) harmonic pieces of each degree,
    # by the matrix route and the tensor route
    t = assemble_T(1, 4)
    for deg, pinned in [
        (1, [2 / 3] * 3),
        (2, [7 / 15] * 5 + [2 / 3]),
        (3, [12 / 35] * 7 + [8 / 15] * 3),
    ]:
        for eigs in (np.linalg.eigvalsh(t.block(deg).toarray()),
                     symmetric_tensor_eigenvalues(deg)):
            np.testing.assert_allclose(np.sort(eigs), pinned, rtol=0, atol=1e-14)
    # degree-1 block is exactly (2/3) I
    np.testing.assert_allclose(t.block(1).toarray(), (2.0 / 3.0) * np.eye(3), atol=1e-12)


def test_tensor_route_matches_matrix_route():
    t = assemble_T(1, 5)
    for deg in range(1, 6):
        a = np.sort(symmetric_tensor_eigenvalues(deg))
        b = np.sort(np.linalg.eigvalsh(t.block(deg).toarray()))
        # both routes give the whole spectrum of the degree block
        assert a.shape == b.shape == ((deg + 1) * (deg + 2) // 2,)
        assert np.abs(a - b).max() < 1e-9
        assert b.max() <= 2.0 / 3.0 + 1e-10
        assert a.max() <= 2.0 / 3.0 + 1e-10


def test_sphere_moment_tensors():
    np.testing.assert_allclose(tensor_oracle.sphere_moment_tensor(2), np.eye(3) / 3.0,
                               atol=1e-14)
    m4 = tensor_oracle.sphere_moment_tensor(4)
    eye = np.eye(3)
    sym = (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
    ) / 15.0
    np.testing.assert_allclose(m4, sym, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 7))
def test_tensor_quadrature_equals_the_per_node_loop(m):
    got = spectral._kron_power_sum(*spectral._sphere_maps(m, 1.0), m)
    want = tensor_oracle.tensor_T_quadrature(m)
    assert np.abs(got - want).max() <= 1e-14


def test_block_check_catches_a_perturbed_kernel_quadrature(monkeypatch):
    real = spectral._kron_power_sum
    monkeypatch.setattr(spectral, "_cache", {})
    monkeypatch.setattr(spectral, "_kron_power_sum", lambda *a: real(*a) + 1e-8)
    with pytest.raises(QuadratureError, match=re.escape("thermostat block:")):
        thermostat_block(3)


def test_tensor_T_is_symmetric_psd_contraction():
    for deg in (1, 2, 3):
        mat = tensor_oracle.tensor_T(deg)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        eigs = symmetric_tensor_eigenvalues(deg)
        assert eigs.min() >= -1e-12


# ---------------------------------------------------------------------------
# rotation-average identity (finite reservoir mean vs bath map)


def test_lemma2_identity_random_polynomials():
    for n in (2, 3):
        ctx = SpectralContext(ModelParams(1, n), 3)
        basis = make_basis(3, 3)
        for trial in range(6):
            vec = RngStream(10 + n, trial).rng.standard_normal(basis.size)
            [res] = verify_lemma2([HermiteCoeffs(basis, vec)], ctx)
            assert abs(res.lhs - res.rhs) < 1e-12
            assert res.lhs <= res.variance_bound + 1e-12


def test_lemma2_unit_mode_values():
    # for a unit degree-1 mode the defect is 1/(9N): exactly half the
    # variance bound (2/9)/N, since the pair average has <Ru,Ru> = 5/9
    # while <u,Tu> = 2/3 and <Tu,Tu> = 4/9
    for n, want in [(2, 1.0 / 18.0), (3, 1.0 / 27.0)]:
        [res] = verify_lemma2([_unit_h1_tagged(1)], SpectralContext(ModelParams(1, n), 1))
        assert res.lhs == pytest.approx(want, abs=1e-14)
        assert res.variance_bound == pytest.approx(2.0 * want, abs=1e-14)


def test_lemma2_coordinate_function_closed_form():
    # u = tagged x-velocity: norm^2 = 1/(2 pi) scales the unit-mode values
    b = make_basis(3, 1)
    vec = np.zeros(b.size)
    vec[b.index[(1, 0, 0)]] = 1.0 / sqrt(2.0 * pi)
    [res] = verify_lemma2([HermiteCoeffs(b, vec)], SpectralContext(ModelParams(1, 2), 1))
    assert res.lhs == pytest.approx(1.0 / (36.0 * pi), abs=1e-14)
    assert res.variance_bound == pytest.approx(1.0 / (18.0 * pi), abs=1e-14)


def test_lemma2_rejects_wrong_variable_count():
    with pytest.raises(StateError):
        verify_lemma2([_unit_h1_tagged(2)], SpectralContext(ModelParams(1, 2), 1))


def test_lemma2_batch_equals_one_call_per_function(monkeypatch):
    # one call embeds each interaction rotation once for all functions and
    # returns what one call per function returns
    ctx = SpectralContext(ModelParams(1, 3), 2)
    basis = make_basis(3, 2)
    us = [HermiteCoeffs(basis, RngStream(7, t).rng.standard_normal(basis.size))
          for t in range(4)]
    alone = [verify_lemma2([u], ctx)[0] for u in us]
    embedded = []
    real = spectral.assemble_pair_rotation

    def counted(kind, i, j, *args, **kwargs):
        embedded.append((kind, i, j))
        return real(kind, i, j, *args, **kwargs)

    monkeypatch.setattr(spectral, "assemble_pair_rotation", counted)
    batch = verify_lemma2(us, ctx)
    assert embedded == [("interaction", 0, j) for j in range(3)]
    for got, want in zip(batch, alone, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_lemma2_rejects_an_empty_or_mixed_batch():
    ctx = SpectralContext(ModelParams(1, 2), 2)
    with pytest.raises(StateError, match="no functions"):
        verify_lemma2([], ctx)
    with pytest.raises(StateError, match="different bases"):
        verify_lemma2([_unit_h1_tagged(1), HermiteCoeffs(make_basis(3, 2), np.ones(10))],
                      ctx)


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
    """op with its degree-m block replaced by change(block), stored as CSR."""
    mat = op.mat.toarray()
    sl = op.basis.degree_slice(m)
    mat[sl, sl] = change(mat[sl, sl])
    return OperatorMatrix(op.name, op.basis, sparse.csr_matrix(mat))


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
    want = -float(np.linalg.eigvalsh(w.T @ ctx.reservoir.block(2).toarray() @ w).max())
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
    mix = quadrature_oracle.mix_block(d, extra=0)
    refl = quadrature_oracle.reflection_block(d, extra=0)
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
    assert _same_bits(assemble_T(1, d).mat.toarray(), therm)


@pytest.mark.parametrize("m,n,d", [(1, 2, 3), (2, 3, 2), (1, 8, 2)])
def test_generators_equal_the_oracle_assembly(m, n, d, monkeypatch):
    p = ModelParams(m, n)
    fast = {kind: assemble_generator(kind, p, d).mat.toarray()
            for kind in ("reservoir", "thermostat")}
    # rebuild the pair and thermostat blocks as well, through the oracle
    monkeypatch.setattr(spectral, "_cache", {})
    monkeypatch.setattr(spectral, "embed_block", embedding_oracle.embed_block)
    for kind, mat in fast.items():
        assert _same_bits(mat, embedding_oracle.generator(kind, p, d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_rotations_and_bath_map_equal_the_oracle_embedding(d):
    p = ModelParams(2, 3)
    big = joint_basis(p, d)
    b6 = make_basis(6, d)
    pair = pair_avg_block(d)
    for kind, i, j, slots in [
        ("system", 0, 1, np.concatenate([v_slots(0), v_slots(1)])),
        ("reservoir", 0, 2, np.concatenate([w_slots(p, 0), w_slots(p, 2)])),
        ("interaction", 1, 1, np.concatenate([v_slots(1), w_slots(p, 1)])),
    ]:
        got = assemble_pair_rotation(kind, i, j, p, d, basis=big).mat.toarray()
        assert _same_bits(got, embedding_oracle.embed_block(pair, b6, big, slots))
    b3, tagged = make_basis(3, d), make_basis(6, d)
    assert _same_bits(assemble_T(2, d, particle=1).mat.toarray(),
                      embedding_oracle.embed_block(thermostat_block(d), b3, tagged, (3, 4, 5)))


def test_generator_assembly_allocates_less_than_one_dense_generator():
    # with the pair block warm, assembling the 4060-row reservoir
    # generator at d=3, M=1, N=8 peaks below the 8 n^2 bytes of a dense copy
    pair_avg_block(3)
    tracemalloc.start()
    try:
        g = assemble_generator("reservoir", ModelParams(1, 8), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.basis.size == 4060
    assert peak < 8 * g.basis.size ** 2


def _same_csr(a, b) -> bool:
    return all(_same_bits(getattr(a, k), getattr(b, k)) for k in ("indptr", "indices", "data"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       noise=st.one_of(st.just(spectral.BLOCK_TOL), st.floats(1e-16, 1e-8)))
def test_from_raw_drops_off_degree_roundoff_and_rejects_more(seed, noise):
    # a block-diagonal matrix with zeros inside its blocks, plus noise of
    # largest magnitude `noise` at some off-degree positions
    basis = make_basis(3, 2)
    rng = np.random.default_rng(seed)
    off = basis.degree_of[:, None] != basis.degree_of[None, :]
    clean = np.where(~off & (rng.random(off.shape) < 0.7),
                     rng.standard_normal(off.shape), 0.0)
    spots = np.flatnonzero(off & (rng.random(off.shape) < 0.3))
    spots = np.append(spots, rng.choice(np.flatnonzero(off)))
    raw = clean.copy()
    raw.flat[spots] = rng.uniform(-noise, noise, spots.size)
    raw.flat[spots[-1]] = noise if rng.random() < 0.5 else -noise
    if noise > spectral.BLOCK_TOL:
        for mat in (raw, sparse.csr_matrix(raw)):
            with pytest.raises(ToleranceError, match=f"magnitude {noise:.3e} exceeds"):
                OperatorMatrix.from_raw("noisy", basis, mat)
        return
    got = OperatorMatrix.from_raw("noisy", basis, raw).mat
    assert _same_csr(got, OperatorMatrix.from_raw("noisy", basis, sparse.csr_matrix(raw)).mat)
    rows = np.repeat(np.arange(basis.size), np.diff(got.indptr))
    assert not off[rows, got.indices].any()
    assert (got.data != 0.0).all()
    assert _same_bits(got.toarray(), clean)


def test_embedding_rejects_a_sub_basis_of_lower_degree():
    # slot exponents of degree 2 have no row in a degree-1 sub-basis
    with pytest.raises(StateError, match="misses slot exponents"):
        embed_block(np.eye(4), make_basis(3, 1), make_basis(6, 2), (0, 1, 2))


# ---------------------------------------------------------------------------
# the symmetric-power kernel and its exact and quadrature cross-checks


@pytest.mark.parametrize("kind,build,check", [
    pytest.param("mix", pair_avg_block, "pair mix block:", id="mix"),
    pytest.param("reflection", pair_avg_block, "pair reflection block:", id="reflection"),
    pytest.param("thermostat", thermostat_block, "thermostat block:", id="thermostat"),
])
def test_each_exact_check_catches_a_perturbed_block(kind, build, check, monkeypatch):
    real = spectral._exact_block
    monkeypatch.setattr(spectral, "_cache", {})
    monkeypatch.setattr(spectral, "_exact_block",
                        lambda k, m: real(k, m) + (1e-8 if k == kind else 0.0))
    with pytest.raises(QuadratureError, match=re.escape(check)) as err:
        build(2)
    assert "disagree by 1.000e-08" in str(err.value)


@pytest.mark.parametrize("d", range(7))
def test_thermostat_block_is_the_first_particle_restriction_of_the_pair_block(d):
    b3, b6 = make_basis(3, d), make_basis(6, d)
    keep = [b6.index[tuple(e) + (0, 0, 0)] for e in b3.exponents]
    restricted = pair_avg_block(d)[np.ix_(keep, keep)]
    assert np.abs(thermostat_block(d) - restricted).max() <= 1e-14


@pytest.mark.parametrize("kind", ["mix", "reflection", "thermostat"])
def test_kernel_blocks_have_exactly_zero_off_degree_entries(kind):
    d = 4
    basis = make_basis(spectral._KERNEL_MAPS[kind][0], d)
    off = basis.degree_of[:, None] != basis.degree_of[None, :]
    assert (spectral._kernel_block(kind, d)[off] == 0.0).all()


def test_kernel_acts_as_a_non_symmetric_map_does():
    # every map the package averages is symmetric; a random rotation tells
    # (A^T)^(x)m from A^(x)m and checks the symmetrizer's column order
    d = 4
    a = np.linalg.qr(RngStream(5, 0).rng.standard_normal((3, 3)))[0]
    basis = make_basis(3, d)
    pts, w = quadrature_oracle.gauss_grid(3, d + 1)
    quad = quadrature_oracle.averaged_gram(basis, pts, w, [(1.0, pts @ a.T)])
    for m in range(d + 1):
        b = spectral._symmetrizer(3, m)
        sl = basis.degree_slice(m)
        block = b.T @ spectral._kron_power_sum(a[None], np.ones(1), m) @ b
        assert np.abs(block - quad[sl, sl]).max() <= 1e-13


@pytest.mark.parametrize("d", range(7))
@pytest.mark.parametrize("kind", ["mix", "reflection", "thermostat"])
def test_kernel_blocks_match_the_refined_quadrature(kind, d):
    refined = getattr(quadrature_oracle, f"{kind}_block")(d)
    assert np.abs(spectral._kernel_block(kind, d) - refined).max() <= 1e-13


@pytest.mark.parametrize("d", range(4))
def test_pair_block_matches_the_direct_six_variable_route(d):
    direct = quadrature_oracle.pair_block_direct(d)
    assert np.abs(pair_avg_block(d) - direct).max() <= 1e-13


# ---------------------------------------------------------------------------
# the exact route: closed-form sphere moments


def test_sphere_moments_are_the_pinned_fractions():
    assert spectral._sphere_moment((2, 0, 0)) == Fraction(1, 3)
    assert spectral._sphere_moment((4, 0, 0)) == Fraction(1, 5)
    assert spectral._sphere_moment((2, 2, 0)) == Fraction(1, 15)
    assert spectral._sphere_moment((0, 0, 0)) == 1
    assert spectral._sphere_moment((1, 1, 0)) == 0


@pytest.mark.parametrize("m", range(9))
def test_sphere_rule_integrates_every_monomial_to_its_exact_moment(m):
    # sphere_rule(2m) is the kernel's only integration input at degree m
    nodes, w = sphere_rule(2 * m)
    worst = 0.0
    for total in range(2 * m + 1):
        for gamma in itertools.product(range(total + 1), repeat=3):
            if sum(gamma) != total:
                continue
            got = float(w @ np.prod(nodes ** np.array(gamma), axis=1))
            want = spectral._sphere_moment(gamma)
            if any(g % 2 for g in gamma):
                assert want == 0
            worst = max(worst, abs(got - float(want)))
    assert worst <= 1e-15


def _rank(rows: list) -> int:
    """Rank of a Fraction matrix by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("m,pinned", [
    (1, {Fraction(2, 3): 3}),
    (2, {Fraction(7, 15): 5, Fraction(2, 3): 1}),
    (3, {Fraction(12, 35): 7, Fraction(8, 15): 3}),
])
def test_bath_map_eigenvalues_are_exact_roots(m, pinned):
    # the nullity of A_m - lambda I, by exact rank, is the multiplicity;
    # the multiplicities fill the block, so no other eigenvalue exists
    a = spectral._moment_matrix("thermostat", m)
    size = len(a)
    assert sum(pinned.values()) == size == (m + 1) * (m + 2) // 2
    for lam, mult in pinned.items():
        shifted = [[x - lam * (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        assert size - _rank(shifted) == mult


@pytest.mark.parametrize("kind", ["reflection", "thermostat"])
def test_exact_blocks_satisfy_detailed_balance(kind):
    # alpha! A[alpha, beta] = beta! A[beta, alpha]: the operator is
    # self-adjoint in L^2(Gamma), exactly, in rational arithmetic
    for m in range(7):
        a = spectral._moment_matrix(kind, m)
        fact = [prod(factorial(e) for e in alpha)
                for alpha in spectral._degree_exponents(3, m)]
        for i, j in itertools.combinations(range(len(a)), 2):
            assert fact[i] * a[i][j] == fact[j] * a[j][i]


@pytest.mark.parametrize("m", range(7))
def test_tensor_route_agrees_with_the_exact_route(m):
    b = spectral._symmetrizer(3, m)
    tensor = b.T @ tensor_oracle.tensor_T(m) @ b
    assert np.abs(tensor - spectral._exact_block("thermostat", m)).max() <= 1e-14


@pytest.mark.parametrize("kind", ["mix", "reflection", "thermostat"])
def test_exact_blocks_match_the_kernel_to_roundoff(kind):
    for d in range(7):
        n = spectral._KERNEL_MAPS[kind][0]
        sl = make_basis(n, d).degree_slice(d)
        kernel = spectral._kernel_block(kind, d)[sl, sl]
        assert np.abs(kernel - spectral._exact_block(kind, d)).max() <= 1e-15
