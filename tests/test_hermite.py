"""Orthonormal Hermite basis under the Gaussian weight, quadrature rules,
and polynomial coefficient plumbing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from math import comb, factorial, pi, sqrt

from scipy.linalg import solve_triangular

from kacbath.errors import StateError
from kacbath.hermite import (
    HermiteCoeffs,
    _compositions,
    basis_rows,
    evaluate_basis,
    make_basis,
    hermite_value_table,
    sphere_rule,
)
from kacbath.randomness import RngStream

from invariant_oracle import (
    hermite_coeffs_from_poly,
    hermite_monomial_matrix,
    monomial_to_hermite_1d,
    poly_add,
    poly_coord,
    poly_mul,
)
from quadrature_oracle import gauss_hermite_gamma


def test_basis_enumeration():
    b = make_basis(3, 2)
    assert b.size == comb(3 + 2, 2) == 10
    assert b.exponents[0].tolist() == [0, 0, 0]
    assert b.degree_of.tolist() == sorted(b.degree_of.tolist())
    assert b.degree_slice(1) == slice(1, 4)
    assert b.index[(0, 2, 0)] == b.exponents.tolist().index([0, 2, 0])


def test_compositions_are_lex_ascending():
    for n in range(1, 7):
        for m in range(6):
            oracle = sorted(t for t in itertools.product(range(m + 1), repeat=n)
                            if sum(t) == m)
            assert list(_compositions(m, n)) == oracle


@pytest.mark.parametrize("nvars,degree", [(27, 2), (51, 2), (21, 3)])
def test_basis_rows_are_graded_lex_ascending(nvars, degree):
    # every exponent vector of each degree once, in ascending lex order:
    # that fixes the row order the joint-basis operators are built on
    b = make_basis(nvars, degree)
    assert b.exponents.min() == 0
    for m in range(degree + 1):
        block = b.exponents[b.degree_slice(m)]
        assert (block.sum(axis=1) == m).all()
        assert len(block) == comb(m + nvars - 1, m)
        step = np.diff(block, axis=0)
        moved = step != 0
        assert moved.any(axis=1).all()
        assert (step[np.arange(len(step)), moved.argmax(axis=1)] > 0).all()
    # basis_rows inverts the enumeration, from the dense exponents and from
    # each row's nonzero entries alone
    assert (basis_rows(nvars, np.arange(nvars), b.exponents) == np.arange(b.size)).all()
    pos = np.argsort(b.exponents == 0, axis=1, kind="stable")[:, :degree]
    val = np.take_along_axis(b.exponents, pos, axis=1)
    assert (basis_rows(nvars, pos, val) == np.arange(b.size)).all()


def test_first_hermite_values():
    # h0 = 1, h1(x) = sqrt(2 pi) x, h2(x) = (2 pi x^2 - 1)/sqrt(2)
    x = np.array([-0.7, 0.0, 0.3, 1.1])
    table = hermite_value_table(x, 2)
    np.testing.assert_allclose(table[:, 0], 1.0, atol=0)
    np.testing.assert_allclose(table[:, 1], sqrt(2 * pi) * x, atol=1e-14)
    np.testing.assert_allclose(
        table[:, 2], (2 * pi * x ** 2 - 1.0) / sqrt(2.0), atol=1e-14
    )


def test_orthonormality_under_gaussian_quadrature():
    nodes, weights = gauss_hermite_gamma(24)
    table = hermite_value_table(nodes, 8)
    gram = (table * weights[:, None]).T @ table
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_multivariate_orthonormality():
    b = make_basis(2, 3)
    nodes, weights = gauss_hermite_gamma(12)
    xx, yy = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    ww = np.outer(weights, weights).ravel()
    vals = evaluate_basis(b, pts)
    gram = (vals * ww[:, None]).T @ vals
    np.testing.assert_allclose(gram, np.eye(b.size), atol=1e-12)


@pytest.mark.parametrize("nvars,degree", [(1, 0), (1, 5), (3, 6), (6, 1), (6, 3), (27, 2)])
def test_evaluate_basis_equals_the_per_row_product(nvars, degree):
    # every row is the product of its active factors in ascending variable
    # order, bit for bit, and comes back row-major
    b = make_basis(nvars, degree)
    pts = np.random.default_rng(nvars + degree).normal(0.0, 0.4, (50, nvars))
    table = hermite_value_table(pts, degree)
    want = np.ones((len(pts), b.size))
    for j, exps in enumerate(b.exponents):
        for var in np.nonzero(exps)[0]:
            want[:, j] *= table[:, var, exps[var]]
    got = evaluate_basis(b, pts)
    assert got.flags["C_CONTIGUOUS"] and got.tobytes() == want.tobytes()


def test_sphere_rule_moments():
    nodes, weights = sphere_rule(6)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-13)
    # odd moments vanish, <x^2> = 1/3, <x^4> = 1/5, <x^2 y^2> = 1/15
    mom = lambda e: float(np.sum(weights * np.prod(nodes ** np.array(e), axis=1)))
    assert abs(mom((1, 0, 0))) < 1e-14
    assert abs(mom((3, 0, 0))) < 1e-14
    assert mom((2, 0, 0)) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert mom((4, 0, 0)) == pytest.approx(1.0 / 5.0, abs=1e-13)
    assert mom((2, 2, 0)) == pytest.approx(1.0 / 15.0, abs=1e-13)
    assert mom((6, 0, 0)) == pytest.approx(1.0 / 7.0, abs=1e-13)


def test_poly_to_hermite_roundtrip():
    # x0^2 x1 as a polynomial, expanded in Hermite modes, evaluated back
    poly = poly_mul(poly_mul(poly_coord(0), poly_coord(0)), poly_coord(1))
    b = make_basis(2, 3)
    vec = hermite_coeffs_from_poly(poly, b)
    h = HermiteCoeffs(b, vec)
    pts = RngStream(0, 0).rng.normal(size=(50, 2))
    direct = pts[:, 0] ** 2 * pts[:, 1]
    np.testing.assert_allclose(h.evaluate(pts), direct, atol=1e-12)


@pytest.mark.parametrize("dmax", [0, 3, 8])
def test_monomial_to_hermite_matrix_is_cached_and_read_only(dmax):
    got = monomial_to_hermite_1d(dmax)
    want = solve_triangular(hermite_monomial_matrix(dmax), np.eye(dmax + 1), lower=False)
    assert np.array_equal(got, want)
    assert monomial_to_hermite_1d(dmax) is got
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] = 2.0


def test_poly_arithmetic():
    # sparse representation: {((var, exp), ...): coeff}
    two_x = poly_add(poly_coord(0), poly_coord(0))
    assert two_x == {((0, 1),): 2.0}
    sq = poly_mul(two_x, two_x)
    assert sq == {((0, 2),): 4.0}
    assert poly_add(two_x, {((0, 1),): -2.0}) == {}


def test_coeff_norms_and_mean():
    b = make_basis(3, 2)
    vec = np.zeros(b.size)
    vec[0] = 1.0
    vec[b.index[(1, 0, 0)]] = 0.3
    vec[b.index[(0, 2, 0)]] = -0.4
    h = HermiteCoeffs(b, vec)
    assert h.mean() == pytest.approx(1.0, abs=0)
    assert h.norm() == pytest.approx(sqrt(1 + 0.09 + 0.16), rel=1e-15)
    assert h.fluctuation_norm() == pytest.approx(0.5, rel=1e-15)
    assert h.degree() == 2


def test_embed_into_joint_basis():
    small = make_basis(3, 2)
    vec = np.zeros(small.size)
    vec[0] = 1.0
    vec[small.index[(0, 1, 0)]] = 0.7
    h = HermiteCoeffs(small, vec)
    big = make_basis(9, 2)
    emb = h.embed(big, np.array([3, 4, 5]))
    pts = RngStream(1, 0).rng.normal(size=(40, 9))
    np.testing.assert_allclose(
        emb.evaluate(pts), h.evaluate(pts[:, 3:6]), atol=1e-12
    )
    assert emb.norm() == pytest.approx(h.norm(), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nvars=st.integers(1, 4), degree=st.integers(0, 3),
       extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_embed_round_trip(data, nvars, degree, extra, seed):
    # embedding into a larger variable set and reading the slot exponents
    # back gives the same coefficients; the other variables stay at zero
    small, big = make_basis(nvars, degree), make_basis(nvars + extra, degree)
    slots = np.array(data.draw(st.permutations(range(nvars + extra)))[:nvars])
    rng = np.random.default_rng(seed)
    vec = np.where(rng.random(small.size) < 0.6, rng.standard_normal(small.size), 0.0)
    h = HermiteCoeffs(small, vec)
    emb = h.embed(big, slots)
    nz = np.flatnonzero(emb.vec)
    assert nz.size == np.count_nonzero(vec)
    rest = np.ones(big.nvars, dtype=bool)
    rest[slots] = False
    assert not big.exponents[np.ix_(nz, rest)].any()
    back = np.zeros(small.size)
    back[[small.index[tuple(e)] for e in big.exponents[np.ix_(nz, slots)]]] = emb.vec[nz]
    assert np.array_equal(back, vec)
    pts = rng.standard_normal((5, big.nvars))
    np.testing.assert_allclose(emb.evaluate(pts), h.evaluate(pts[:, slots]),
                               rtol=1e-12, atol=1e-12 * max(1.0, np.abs(vec).sum()))


_MONOMIAL = st.lists(st.integers(0, 2), min_size=3, max_size=3)
# away from the subnormal range, where the tolerance 1e-12 * scale underflows
_COEFF = st.just(0.0) | st.floats(1e-6, 2.0) | st.floats(-2.0, -1e-6)


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(_MONOMIAL, _COEFF), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_hermite_coeffs_from_poly_evaluates_to_the_polynomial(terms, seed):
    # the exact Hermite coefficients of a sparse polynomial in 3 variables,
    # evaluated pointwise, give the polynomial's own values
    poly = poly_add(*[{tuple((v, e) for v, e in enumerate(exps) if e): c}
                      for exps, c in terms])
    degree = max(sum(exps) for exps, _ in terms)
    h = HermiteCoeffs(make_basis(3, degree), hermite_coeffs_from_poly(poly, make_basis(3, degree)))
    pts = np.random.default_rng(seed).standard_normal((20, 3))
    direct = sum(c * np.prod(pts ** np.array(exps), axis=1) for exps, c in terms)
    scale = sum(abs(c) for _, c in terms) * max(1.0, float(np.abs(pts).max())) ** degree
    np.testing.assert_allclose(h.evaluate(pts), direct, rtol=0, atol=1e-12 * scale)


def test_gamma_expectation_is_coefficient_zero():
    # Monte Carlo expectation under the Gaussian picks out the mean
    b = make_basis(2, 2)
    vec = np.zeros(b.size)
    vec[0] = 2.5
    vec[b.index[(1, 1)]] = 1.0
    h = HermiteCoeffs(b, vec)
    from kacbath.randomness import GAMMA_SIGMA

    pts = RngStream(8, 0).rng.normal(0.0, GAMMA_SIGMA, (400_000, 2))
    assert h.evaluate(pts).mean() == pytest.approx(2.5, abs=5e-3)


def test_basis_shape_errors():
    with pytest.raises(StateError):
        make_basis(0, 2)
    b = make_basis(2, 1)
    with pytest.raises(StateError):
        HermiteCoeffs(b, np.zeros(5))
