"""Operator assembly on truncated Hermite spaces: contraction, block
structure, bath-map spectra, rotation-average identity, spectral gaps."""

import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import comb, factorial, pi, prod, sqrt

from kacbath import ModelParams, SpectralContext, spectral
from kacbath.errors import ConfigError, QuadratureError, StateError, ToleranceError
from kacbath.hermite import (
    HermiteCoeffs,
    make_basis,
    poly_add,
    poly_coord,
    poly_mul,
    sphere_rule,
)
from kacbath.randomness import RngStream
from kacbath.spectral import (
    OperatorMatrix,
    assemble_T,
    assemble_generator,
    invariant_projector,
    joint_basis,
    pair_avg_block,
    spectral_gap,
    symmetric_tensor_eigenvalues,
    thermostat_block,
    verify_lemma2,
)

import embedding_oracle
import gap_oracle
import invariant_oracle
import lemma2_oracle
import lift_oracle
from lift_oracle import v_slots, w_slots
import moment_oracle
from matrix_oracle import dense, operator
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
    op = lemma2_oracle.assemble_pair_rotation(kind, i, j, p, 3)
    mat = dense(op)
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
    mat = dense(lemma2_oracle.assemble_pair_rotation("interaction", 0, 1, p, 4))
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-12
    assert eigs.max() <= 1.0 + 1e-12
    gap = mat - mat @ mat
    assert np.linalg.eigvalsh((gap + gap.T) / 2).min() >= -1e-12


def test_pair_rotation_fixes_pair_invariants():
    # energy and momentum of the colliding pair are pointwise conserved,
    # so their Hermite data is fixed by the average
    p = ModelParams(2, 2)
    op = lemma2_oracle.assemble_pair_rotation("system", 0, 1, p, 2)
    b = op.basis
    px = poly_add(poly_coord(0), poly_coord(3))  # v1x + v2x
    energy = poly_add(*[poly_mul(poly_coord(k), poly_coord(k)) for k in range(6)])
    for poly in (px, energy, poly_mul(px, px)):
        vec = invariant_oracle.hermite_coeffs_from_poly(poly, b)
        np.testing.assert_allclose(op @ vec, vec, atol=1e-10)


def test_generators_are_symmetric_and_negative_semidefinite():
    p = ModelParams(1, 2)
    for kind in ("reservoir", "thermostat"):
        mat = dense(assemble_generator(kind, p, 2))
        assert np.abs(mat - mat.T).max() <= 1e-10
        assert np.linalg.eigvalsh(mat).max() <= 1e-10


def test_thermostat_generator_kills_reservoir_momentum_only():
    p = ModelParams(1, 2)
    g = assemble_generator("thermostat", p, 2)
    b = g.basis
    # sum of reservoir x-velocities is conserved by the bath dynamics
    res_px = poly_add(poly_coord(3), poly_coord(6))
    vec = invariant_oracle.hermite_coeffs_from_poly(res_px, b)
    np.testing.assert_allclose(g @ vec, 0.0, atol=1e-10)
    # the tagged velocity is not: it decays at rate mu/3
    tag = invariant_oracle.hermite_coeffs_from_poly(poly_coord(0), b)
    np.testing.assert_allclose(g @ tag, -(p.mu / 3.0) * tag, atol=1e-10)


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
        for eigs in (np.linalg.eigvalsh(t.block(deg)),
                     symmetric_tensor_eigenvalues(deg)):
            np.testing.assert_allclose(np.sort(eigs), pinned, rtol=0, atol=1e-14)
    # degree-1 block is exactly (2/3) I
    np.testing.assert_allclose(t.block(1), (2.0 / 3.0) * np.eye(3), atol=1e-12)


def test_tensor_route_matches_matrix_route():
    t = assemble_T(1, 5)
    for deg in range(1, 6):
        a = np.sort(symmetric_tensor_eigenvalues(deg))
        b = np.sort(np.linalg.eigvalsh(t.block(deg)))
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
    # both integrate with sphere_rule(2m)
    sl = make_basis(3, m).degree_slice(m)
    got = spectral._kernel_block("thermostat", m)[sl, sl]
    b = tensor_oracle.symmetrizer(3, m)
    want = b.T @ tensor_oracle.tensor_T_quadrature(m) @ b
    assert np.abs(got - want).max() <= 1e-14


def test_block_check_catches_a_perturbed_kernel_quadrature(monkeypatch):
    real = spectral._power_sums
    monkeypatch.setattr(spectral, "_cache", {})
    monkeypatch.setattr(spectral, "_power_sums", lambda *a: real(*a) + 1e-8)
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
    # one call lifts the thermostat average onto tagged particle 0, then the
    # interaction average and its second moment over the d + 1
    # representative reservoir slots, once each onto the sector, for all
    # functions, and returns what one call per function returns
    ctx = SpectralContext(ModelParams(1, 3), 2)
    basis = make_basis(3, 2)
    us = [HermiteCoeffs(basis, RngStream(7, t).rng.standard_normal(basis.size))
          for t in range(4)]
    alone = [verify_lemma2([u], ctx)[0] for u in us]
    lifts = []
    real = spectral._lift

    def counted(name, basis, layout, terms, *args):
        lifts.append((basis is ctx.sector, [list(units) for _, _, units, _ in terms]))
        return real(name, basis, layout, terms, *args)

    monkeypatch.setattr(spectral, "_lift", counted)
    batch = verify_lemma2(us, ctx)
    # tagged particle 0 (unit 0) with each reservoir slot j (unit 1 + j)
    pairs = [[0, 1 + j] for j in range(3)]
    assert [unit_lists for on_sector, unit_lists in lifts if on_sector] == [[[0]], pairs, pairs]
    for got, want in zip(batch, alone, strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("m,n,d", [(1, 2, 1), (1, 3, 3), (2, 3, 2), (1, 8, 2), (2, 4, 3)])
def test_lemma2_equals_the_joint_oracle(m, n, d):
    # the sector route against the N pair rotations on the joint basis; T u
    # read on the sector is bitwise the tagged-basis T u, so variance_bound
    # keeps its bits
    ctx = SpectralContext(ModelParams(m, n), d)
    basis = make_basis(3 * m, d)
    us = [HermiteCoeffs(basis, RngStream(20 + n, t).rng.standard_normal(basis.size))
          for t in range(3)]
    for got, want in zip(verify_lemma2(us, ctx), lemma2_oracle.verify_lemma2(us, ctx),
                         strict=True):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert got.variance_bound.hex() == want.variance_bound.hex()


@pytest.mark.parametrize("n", [2, 3, 64, 4096])
def test_lemma2_unit_mode_defect_at_any_reservoir_size(n):
    # 1/(9N) and twice that at degree cap 2, also past N = 41, where the
    # joint basis stops
    if n > 41:
        with pytest.raises(ConfigError, match="joint basis"):
            joint_basis(ModelParams(1, n), 2)
    basis = make_basis(3, 2)
    vec = np.zeros(basis.size)
    vec[basis.index[(1, 0, 0)]] = 1.0
    [res] = verify_lemma2([HermiteCoeffs(basis, vec)], SpectralContext(ModelParams(1, n), 2))
    assert res.lhs == pytest.approx(1.0 / (9.0 * n), abs=1e-14)
    assert res.rhs == pytest.approx(1.0 / (9.0 * n), abs=1e-14)
    assert res.variance_bound == pytest.approx(2.0 / (9.0 * n), abs=1e-14)


def test_lemma2_reads_functions_below_the_degree_cap():
    # functions of degree 1 give the same numbers at cap 2 as at cap 1
    basis = make_basis(3, 1)
    us = [HermiteCoeffs(basis, RngStream(5, t).rng.standard_normal(basis.size))
          for t in range(5)]
    low = verify_lemma2(us, SpectralContext(ModelParams(1, 3), 1))
    high = verify_lemma2(us, SpectralContext(ModelParams(1, 3), 2))
    for got, want in zip(high, low, strict=True):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        assert abs(got.lhs - got.rhs) <= 1e-14


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


@pytest.mark.parametrize("m,n,d", [(1, 2, 2), (1, 16, 2), (2, 3, 2), (1, 2, 3),
                                   (1, 6, 3), (2, 2, 3), (2, 4, 3)])
def test_invariant_projector_matches_the_whole_basis_oracle(m, n, d):
    # per degree block, the leading-monomial route spans what the whole
    # polynomials expanded in the joint basis span
    p = ModelParams(m, n)
    for u, want in zip(invariant_projector(p, d), invariant_oracle.invariant_projector(p, d),
                       strict=True):
        assert u.shape == want.shape
        assert np.abs(u @ u.T - want @ want.T).max() <= 1e-13


def test_spectral_gap_small_reservoir_values():
    # frozen from the assembled generator at degree 2, unit rates:
    # the gap follows (N+1)/(3N) for a single tagged particle
    for n, want in [(2, 0.5), (4, 5.0 / 12.0), (8, 3.0 / 8.0)]:
        ctx = SpectralContext(ModelParams(1, n), 2)
        assert spectral_gap(ctx) == pytest.approx(want, abs=1e-10)


def test_spectral_gap_monotone_in_degree():
    # at M = 1, N = 2 the gap is 1/2 exactly at caps 1 and 2, so an order
    # between the two floats is roundoff; cap 3 adds a slower block
    p = ModelParams(1, 2)
    gaps = [spectral_gap(SpectralContext(p, d)) for d in (1, 2, 3)]
    assert abs(gaps[0] - 0.5) <= 1e-12 and abs(gaps[1] - 0.5) <= 1e-12
    assert 0.0 < gaps[2] < gaps[1]


def test_gap_needs_a_block_above_degree_0():
    with pytest.raises(StateError, match="degree cap 0"):
        spectral_gap(SpectralContext(ModelParams(1, 2), 0))


def test_gap_is_n_plus_one_over_3n():
    for n in (2, 4, 8, 16):
        k = spectral_gap(SpectralContext(ModelParams(1, n), 2))
        assert abs(k - (n + 1) / (3 * n)) <= 1e-12, (n, k)


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_gap_reaches_past_the_joint_basis(n):
    # the joint basis at d = 2 stops at N = 41; the sector has 34 rows at
    # every N, and the gap does not build the joint basis
    with pytest.raises(ConfigError, match="joint basis"):
        joint_basis(ModelParams(1, n), 2)
    ctx = SpectralContext(ModelParams(1, n), 2)
    k = spectral_gap(ctx)
    assert abs(k - (n + 1) / (3 * n)) <= 1e-12, (n, k)
    assert "basis" not in vars(ctx)


@pytest.mark.parametrize("m,n,d", [(1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 3, 2),
                                   (1, 16, 2), (1, 6, 3), (1, 8, 3), (2, 2, 3)])
def test_per_degree_gap_equals_the_dense_oracle(m, n, d):
    # the sector route against the two joint-basis routes of gap_oracle
    ctx = SpectralContext(ModelParams(m, n), d)
    gen = assemble_generator("reservoir", ctx.p, d)
    invariants = invariant_projector(ctx.p, d)
    k = spectral_gap(ctx)
    assert abs(k - gap_oracle.spectral_gap(gen, invariants)) <= 1e-12
    assert abs(k - gap_oracle.lanczos_gap(gen, invariants)) <= 1e-12


def test_gap_is_reproducible_bit_for_bit():
    # at M = 2 the top eigenvalue of the degree-2 block is 10-fold
    # degenerate, where the former Lanczos route was least stable
    for p, d in ((ModelParams(1, 4), 3), (ModelParams(2, 3), 2)):
        first, second = (spectral_gap(SpectralContext(p, d)) for _ in range(2))
        assert first.hex() == second.hex()


def _with_block(op: OperatorMatrix, m: int, change) -> OperatorMatrix:
    """op with its degree-m block replaced by change(block), stored as its
    entries."""
    mat = dense(op)
    sl = op.basis.degree_slice(m)
    mat[sl, sl] = change(mat[sl, sl])
    return operator(op.name, op.basis, mat)


@pytest.mark.parametrize("m", [1, 2])
def test_invariant_projector_names_a_rank_deficient_block(m, monkeypatch):
    # one invariant of degree m repeated in place of another: orth finds
    # the rank one short, and the projector names the degree
    p = ModelParams(1, 2)
    rows = joint_basis(p, 2).degree_slice(m)
    real = spectral.orth

    def deficient(a):
        if len(a) == rows.stop - rows.start:
            a = a.copy()
            a[:, -1] = a[:, 0]
        return real(a)

    monkeypatch.setattr(spectral, "orth", deficient)
    want = (1, 3, 7)[m]
    with pytest.raises(ToleranceError, match=f"degree {m} not independent: "
                                             f"rank {want - 1} of {want}"):
        invariant_projector(p, 2)


def _sector_kernel(p: ModelParams) -> np.ndarray:
    """Orthonormal kernel of the degree-2 block of the sector reservoir
    generator at cap 2: the conserved quantities of degree 2."""
    g = SpectralContext(p, 2).sector_reservoir.block(2)
    evals, evecs = np.linalg.eigh(g)
    return evecs[:, np.abs(evals) <= 1e-12]


def _counts(message: str) -> tuple[int, int, int]:
    """(kernel, above, expected) from the gap's kernel-count message."""
    found = re.search(r"(\d+) eigenvalues within \S+ of 0 and (\d+) above, expected (\d+)",
                      message)
    return tuple(int(x) for x in found.groups())


def test_gap_rejects_a_generator_moving_the_degree_2_invariants(monkeypatch):
    p = ModelParams(1, 2)
    kernel = _sector_kernel(p)
    assert kernel.shape[1] == 7
    real = spectral.assemble_sector_generator

    def broken(kind, p, sec):
        return _with_block(real(kind, p, sec), 2,
                           lambda g: g - 1e-6 * kernel @ kernel.T)

    monkeypatch.setattr(spectral, "assemble_sector_generator", broken)
    with pytest.raises(ToleranceError, match="sector generator in degree 2: ") as err:
        spectral_gap(SpectralContext(p, 2))
    assert _counts(str(err.value)) == (0, 0, 7)


def test_gap_rejects_a_generator_growing_off_the_invariants(monkeypatch):
    # adding 2 (I - K K^T) to G_2 keeps the conserved quantities K in the
    # kernel but lifts every other eigenvalue of the block above zero
    p = ModelParams(1, 2)
    kernel = _sector_kernel(p)
    rows = len(kernel)
    real = spectral.assemble_sector_generator

    def broken(kind, p, sec):
        return _with_block(real(kind, p, sec), 2,
                           lambda g: g + 2.0 * (np.eye(rows) - kernel @ kernel.T))

    monkeypatch.setattr(spectral, "assemble_sector_generator", broken)
    with pytest.raises(ToleranceError, match="sector generator in degree 2: ") as err:
        spectral_gap(SpectralContext(p, 2))
    assert _counts(str(err.value)) == (7, rows - 7, 7)


@pytest.mark.parametrize("n", [2, 8, 4096])
def test_gap_rejects_a_collision_block_that_breaks_energy_conservation(n, monkeypatch):
    # a smaller diagonal entry on h_2 of one velocity component keeps the
    # pair average symmetric and contracting, but it no longer fixes the
    # pair energy: one conserved quantity of degree 2 leaves the kernel
    real = spectral.pair_avg_block

    def broken(d):
        block = real(d).copy()
        at = make_basis(6, d).index[(2, 0, 0, 0, 0, 0)]
        block[at, at] -= 0.1
        return block

    monkeypatch.setattr(spectral, "pair_avg_block", broken)
    with pytest.raises(ToleranceError, match="sector generator in degree 2: ") as err:
        spectral_gap(SpectralContext(ModelParams(1, n), 2))
    assert _counts(str(err.value)) == (6, 0, 7)


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


@pytest.mark.parametrize("d", range(9))
def test_embedding_over_every_variable_is_the_block(d):
    # one tagged particle: the thermostat average lifts onto every variable,
    # so its degree blocks are those estimate_l and verify-lemma3 read
    t = assemble_T(1, d)
    assert _same_bits(dense(t), thermostat_block(d))
    blocks = spectral.bath_map_blocks(d)
    assert len(blocks) == d + 1
    assert all(_same_bits(block, t.block(m)) for m, block in enumerate(blocks))


@pytest.mark.parametrize("d", range(7))
def test_pair_block_equals_the_oracle_embedding(d, monkeypatch):
    # the pair block read from its rows' codes, cold, is bitwise the
    # product of the three embedded mix blocks and the embedded reflection
    monkeypatch.setattr(spectral, "_cache", {})
    assert _same_bits(pair_avg_block(d), embedding_oracle.pair_block(d))


@pytest.mark.parametrize("m,n,d,rates", [
    pytest.param(m, n, d, (1.0, 1.0, 1.0), id=f"{m}-{n}-{d}")
    for m, n, d in [(1, 2, 3), (2, 3, 2), (1, 8, 2)]] + [
    # each collision class switched off and on: (lambda_s, lambda_r, mu) in
    # {0, 0.7} x {0, 1.3} x {0, 0.9}, with one and two tagged particles
    pytest.param(m, n, d, rates, id="-".join(map(str, (m, n, d, *rates))))
    for m, n, d in [(1, 2, 2), (2, 3, 2), (1, 5, 1), (2, 2, 2), (1, 3, 3)]
    for rates in itertools.product((0.0, 0.7), (0.0, 1.3), (0.0, 0.9))])
def test_generators_equal_the_oracle_assembly(m, n, d, rates, monkeypatch):
    p = ModelParams(m, n, *rates)
    fast = {kind: dense(assemble_generator(kind, p, d))
            for kind in ("reservoir", "thermostat")}
    # rebuild the pair block as well, through the oracle's embeddings
    monkeypatch.setattr(spectral, "_cache", {("pair", d): embedding_oracle.pair_block(d)})
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
        got = dense(lemma2_oracle.assemble_pair_rotation(kind, i, j, p, d, basis=big))
        assert _same_bits(got, embedding_oracle.embed_block(pair, b6, big, slots))
    b3, tagged = make_basis(3, d), make_basis(6, d)
    assert _same_bits(dense(assemble_T(2, d)),
                      embedding_oracle.embed_block(thermostat_block(d), b3, tagged, (0, 1, 2)))


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


def _same_entries(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    return all(_same_bits(getattr(a, k), getattr(b, k)) for k in ("rows", "cols", "values"))


# ---------------------------------------------------------------------------
# the table-driven lift against the per-term oracle, bitwise


def _lemma2_lifts(ctx: SpectralContext, us) -> list[OperatorMatrix]:
    """The three sector lifts verify_lemma2 builds, as it builds them."""
    lifts = []
    real = spectral._lift

    def kept(*args):
        lifts.append(real(*args))
        return lifts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_lift", kept)
        verify_lemma2(us, ctx)
    return [op for op in lifts if op.basis is ctx.sector]


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(2, 8), d=st.integers(0, 3),
       rates=st.tuples(*[st.sampled_from([0.0, 0.7, 1.3])] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_every_lift_equals_the_per_term_oracle(m, n, d, rates, seed):
    # generators of both kinds on the sector (and on the joint basis where
    # it is small), the tagged thermostat average, and verify_lemma2's three
    # sector lifts, each bitwise
    p = ModelParams(m, n, *rates)
    rng = np.random.default_rng(seed)
    sec = spectral.sector_basis(p, d)
    for kind in ("reservoir", "thermostat"):
        assert _same_entries(spectral.assemble_sector_generator(kind, p, sec),
                             lift_oracle.sector_generator(kind, p, sec))
        if comb(3 * (m + n) + d, d) <= 800:
            assert _same_entries(assemble_generator(kind, p, d),
                                 lift_oracle.generator(kind, p, d))
    assert _same_entries(assemble_T(m, d), lift_oracle.assemble_T(m, d))
    if d >= 1:
        ctx = SpectralContext(p, d)
        tagged = make_basis(3 * m, d)
        us = [HermiteCoeffs(tagged, rng.standard_normal(tagged.size))]
        got = _lemma2_lifts(ctx, us)
        want = lift_oracle.lemma2_averages(p, ctx.sector)
        assert len(got) == 3 and all(map(_same_entries, got, want))


_RATES = {(3, 4, 2): (0.7, 1.3, 0.4), (2, 3, 3): (1.0, 0.0, 1.0)}


@pytest.mark.parametrize("m,n,d", [(1, 8, 2), (2, 6, 2), (1, 6, 3), (1, 16, 2), (3, 4, 2),
                                   (2, 3, 3), (2, 2, 4)])
def test_joint_generators_equal_the_per_term_oracle(m, n, d):
    p = ModelParams(m, n, *_RATES.get((m, n, d), ()))
    for kind in ("reservoir", "thermostat"):
        assert _same_entries(assemble_generator(kind, p, d), lift_oracle.generator(kind, p, d))


@pytest.mark.parametrize("m,n,d", [(1, 8, 2), (2, 6, 2), (1, 6, 3), (1, 16, 2), (3, 4, 2),
                                   (2, 3, 3), (2, 2, 4), (2, 16, 3), (1, 4096, 4),
                                   (2, 4096, 4), (1, 4096, 5)])
def test_sector_generators_equal_the_per_term_oracle(m, n, d):
    p = ModelParams(m, n, *_RATES.get((m, n, d), ()))
    sec = spectral.sector_basis(p, d)
    for kind in ("reservoir", "thermostat"):
        assert _same_entries(spectral.assemble_sector_generator(kind, p, sec),
                             lift_oracle.sector_generator(kind, p, sec))


@pytest.mark.parametrize("d", [2, 4, 6])
def test_thermostat_average_equals_the_per_term_oracle(d):
    assert _same_entries(assemble_T(1, d), lift_oracle.assemble_T(1, d))
    assert _same_entries(assemble_T(2, min(d, 4)), lift_oracle.assemble_T(2, min(d, 4)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       noise=st.one_of(st.just(spectral.BLOCK_TOL), st.floats(1e-16, 1e-8)))
def test_from_raw_drops_off_degree_roundoff_and_rejects_more(seed, noise):
    # a block-diagonal matrix with zeros inside its blocks, plus noise of
    # largest magnitude `noise` at some off-degree positions, given as every
    # position's entry (zeros too) in shuffled order
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
    rows, cols = np.divmod(rng.permutation(raw.size), basis.size)
    entries = (rows, cols, raw[rows, cols])
    if noise > spectral.BLOCK_TOL:
        with pytest.raises(ToleranceError, match=f"magnitude {noise:.3e} exceeds"):
            OperatorMatrix.from_raw("noisy", basis, entries)
        return
    got = OperatorMatrix.from_raw("noisy", basis, entries)
    assert (np.diff(got.rows * basis.size + got.cols) > 0).all()  # row-major, once each
    assert not off[got.rows, got.cols].any()
    assert (got.values != 0.0).all()
    assert _same_bits(dense(got), clean)


@pytest.mark.parametrize("kind", ["reservoir", "thermostat"])
@pytest.mark.parametrize("build", [
    spectral.assemble_generator,
    lambda kind, p, d: spectral.assemble_sector_generator(kind, p, spectral.sector_basis(p, d)),
], ids=["joint", "sector"])
def test_products_and_blocks_read_the_dense_matrix(build, kind):
    g = build(kind, ModelParams(2, 3), 3)
    full = dense(g)
    x = RngStream(4, 0).rng.standard_normal((g.basis.size, 5))
    scale = np.abs(full).sum(axis=1).max() * np.abs(x).max()
    assert g.norm_inf() == pytest.approx(np.abs(full).sum(axis=1).max(), rel=1e-15)
    assert np.abs(g @ x - full @ x).max() <= 1e-14 * scale
    assert np.abs(g @ x[:, 0] - full @ x[:, 0]).max() <= 1e-14 * scale
    assert (g @ x[:, :1]).shape == (g.basis.size, 1)
    for m in range(g.basis.degree + 1):
        sl = g.basis.degree_slice(m)
        assert _same_bits(g.block(m), full[sl, sl])


@pytest.mark.parametrize("m", [2, 3])
def test_a_generator_entry_without_its_mirror_is_refused(m):
    # one entry (i, j) of the degree-m block set where (j, i) is not listed:
    # the defect is the entry itself, and the degree is named
    g = assemble_generator("reservoir", ModelParams(1, 2), 3)
    assert spectral._check_symmetric(g) is g
    full = dense(g)
    sl = g.basis.degree_slice(m)
    block = full[sl, sl]
    apart = (block == 0.0) & (block.T == 0.0) & ~np.eye(len(block), dtype=bool)
    i, j = np.argwhere(apart)[0] + sl.start
    full[i, j] = 5e-10
    lopsided = operator(g.name, g.basis, full)
    assert not ((lopsided.rows == j) & (lopsided.cols == i)).any()
    with pytest.raises(StateError, match=f"not symmetric in degree {m} "
                                         r"\(defect 5\.000e-10\)"):
        spectral._check_symmetric(lopsided)


def _lopsided(block: np.ndarray, nvars: int, d: int) -> np.ndarray:
    """block with its degree-1 entry (e_1, e_0) moved by 1e-3, away from
    its mirror."""
    b = make_basis(nvars, d)
    e = [tuple(int(i == k) for i in range(nvars)) for k in (0, 1)]
    out = block.copy()
    out[b.index[e[1]], b.index[e[0]]] += 1e-3
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_the_bath_map_is_checked_for_symmetry(m, monkeypatch):
    # an asymmetric thermostat block reaches the tagged average, whose
    # lift refuses it, naming the operator
    d = 2
    monkeypatch.setitem(spectral._cache, ("thermostat", d),
                        _lopsided(thermostat_block(d), 3, d))
    with pytest.raises(StateError, match=r"thermostat\[0\]: not symmetric in degree 1 "
                                         r"\(defect 1\.000e-03\)"):
        assemble_T(m, d)


def test_the_lemma2_averages_are_checked_for_symmetry(monkeypatch):
    # an asymmetric pair block reaches verify_lemma2's sector averages, the
    # first of which refuses it
    p, d = ModelParams(1, 4), 2
    monkeypatch.setitem(spectral._cache, ("pair", d), _lopsided(pair_avg_block(d), 6, d))
    with pytest.raises(StateError, match="interaction average: not symmetric in degree 1"):
        verify_lemma2([_unit_h1_tagged(1)], SpectralContext(p, d))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_raw_refuses_a_non_finite_off_degree_entry(bad):
    # a NaN compares False with the tolerance, so it used to be dropped as
    # roundoff; it fails the block check
    basis = make_basis(3, 2)
    raw = np.eye(basis.size)
    raw[0, basis.degree_slice(2).start] = bad
    with pytest.raises(ToleranceError, match=f"off-degree-block magnitude {abs(bad):.3e} "
                                             "exceeds"):
        operator("broken", basis, raw)


@pytest.mark.parametrize("mirrored", [False, True])
def test_a_non_finite_entry_in_a_block_is_not_symmetric(mirrored):
    # a NaN inside a degree block is kept by from_raw, and the symmetry
    # check reads it as a NaN defect, alone or with a NaN mirror
    basis = make_basis(3, 2)
    raw = np.eye(basis.size)
    i, j = basis.degree_slice(2).start, basis.degree_slice(2).start + 1
    raw[i, j] = np.nan
    if mirrored:
        raw[j, i] = np.nan
    op = operator("broken", basis, raw)
    assert np.isnan(op.values).sum() == 1 + mirrored
    with pytest.raises(StateError, match=r"not symmetric in degree 2 \(defect nan\)"):
        spectral._check_symmetric(op)


def test_a_lift_rejects_a_sub_basis_of_lower_degree():
    # particle exponents of degree 2 have no row in a degree-1 sub-basis
    big = make_basis(6, 2)
    with pytest.raises(StateError, match="misses slot exponents"):
        spectral._lift("short sub-basis", big, spectral._basis_layout(big),
                       [(np.eye(4), make_basis(3, 1), (0,), 1.0)], np.ones(big.size), 0.0)


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


@pytest.mark.parametrize("kind", ["mix", "reflection", "thermostat", "pair"])
def test_kernel_blocks_have_exactly_zero_off_degree_entries(kind):
    # the composed pair block is cached as computed, so its product of
    # block-diagonal factors must be exactly block diagonal too
    d = 4
    if kind == "pair":
        basis, block = make_basis(6, d), pair_avg_block(d)
    else:
        basis = make_basis(spectral._MOMENT_ENTRIES[kind][0], d)
        block = spectral._kernel_block(kind, d)
    off = basis.degree_of[:, None] != basis.degree_of[None, :]
    assert (block[off] == 0.0).all()


@pytest.mark.parametrize("build", [pair_avg_block, thermostat_block])
def test_cached_collision_blocks_are_read_only(build):
    # every generator built later in the process reads the cached block
    block = build(2)
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 2.0
    assert build(2) is block


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), d=st.integers(0, 4),
       count=st.integers(1, 3))
def test_kernel_acts_as_a_non_symmetric_map_does(seed, n, d, count):
    # every map the package averages is symmetric; weighted random
    # orthogonal maps tell h(A x) from h(A^T x) and check the monomial
    # recursion against a Gauss-Hermite grid, exact at degree 2d + 1
    rng = np.random.default_rng(seed)
    maps = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    w = rng.uniform(0.1, 1.0, count)
    basis = make_basis(n, d)
    pts, gw = quadrature_oracle.gauss_grid(n, d + 1)
    quad = quadrature_oracle.averaged_gram(basis, pts, gw,
                                           [(c, pts @ a.T) for c, a in zip(w, maps)])
    assert np.abs(spectral._power_sums(maps, w, d) - quad).max() <= 1e-13


def test_cold_top_degree_thermostat_block_stays_small(monkeypatch):
    # the degree-8 block has 45 rows; nothing of size 3^8 may be formed
    monkeypatch.setattr(spectral, "_cache", {})
    tracemalloc.start()
    try:
        block = thermostat_block(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (165, 165)
    assert peak < 64 * 2**20


def test_cold_pair_block_stays_small(monkeypatch):
    # the degree-7 pair block (22.5 MiB) is built one degree block at a
    # time from its rows' codes; four dense 6-variable factors over all
    # degrees would peak near 7 times its size
    monkeypatch.setattr(spectral, "_cache", {})
    tracemalloc.start()
    try:
        block = pair_avg_block(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (1716, 1716)
    assert peak < 3 * block.nbytes


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
    # sphere_rule(2d) is the kernel's only integration input for every
    # block of degree <= d
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
    a = moment_oracle.moment_matrix("thermostat", m)
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
        a = moment_oracle.moment_matrix(kind, m)
        fact = [prod(factorial(e) for e in alpha)
                for alpha in spectral._degree_exponents(3, m)]
        for i, j in itertools.combinations(range(len(a)), 2):
            assert fact[i] * a[i][j] == fact[j] * a[j][i]


@pytest.mark.parametrize("kind", ["mix", "reflection", "thermostat"])
def test_exact_blocks_are_the_rational_route_bitwise(kind):
    for m in range(9):
        assert (spectral._exact_block(kind, m).tobytes()
                == moment_oracle.exact_block(kind, m).tobytes())


@pytest.mark.parametrize("m", range(7))
def test_tensor_route_agrees_with_the_exact_route(m):
    b = tensor_oracle.symmetrizer(3, m)
    tensor = b.T @ tensor_oracle.tensor_T(m) @ b
    assert np.abs(tensor - spectral._exact_block("thermostat", m)).max() <= 1e-14


@pytest.mark.parametrize("kind", ["mix", "reflection", "thermostat"])
def test_exact_blocks_match_the_kernel_to_roundoff(kind):
    for d in range(9):
        n = spectral._MOMENT_ENTRIES[kind][0]
        sl = make_basis(n, d).degree_slice(d)
        kernel = spectral._kernel_block(kind, d)[sl, sl]
        assert np.abs(kernel - spectral._exact_block(kind, d)).max() <= 1e-15
