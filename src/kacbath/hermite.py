"""Orthonormal Hermite basis under the Gaussian weight exp(-pi |x|^2).

One-dimensional building block:

    h_n(x) = He_n(x sqrt(2 pi)) / sqrt(n!)

with He_n the probabilists' Hermite polynomials, so that
int h_m h_n exp(-pi x^2) dx = delta_{mn}. Multivariate basis functions
are products over coordinates, indexed by exponent multi-indices of
total degree <= d in graded lexicographic order. Every averaging
operator in this package is degree-preserving in this basis, which is
what makes the truncated matrices exact restrictions rather than
approximations.

Also hosts the sphere rule (product Gauss-Legendre x uniform), the one
integration input of the collision-average kernel, and exact conversion
between sparse monomial polynomials and Hermite coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_triangular

from .errors import StateError

__all__ = [
    "Basis",
    "make_basis",
    "hermite_value_table",
    "evaluate_basis",
    "sphere_rule",
    "monomial_to_hermite_1d",
    "HermiteCoeffs",
    "poly_coord",
    "poly_mul",
    "poly_add",
    "hermite_coeffs_from_poly",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# basis enumeration


def _compositions(total: int, nvars: int):
    """All exponent tuples over nvars with sum exactly total, lex ascending.

    Each step moves one unit from the last nonzero slot to the slot
    before it and the rest of that slot to the last slot.
    """
    exps = [0] * nvars
    exps[-1] = total
    last = nvars - 1 if total else 0  # last nonzero slot
    yield tuple(exps)
    while last > 0:
        rest = exps[last] - 1
        exps[last] = 0
        exps[last - 1] += 1
        exps[-1] = rest
        last = nvars - 1 if rest else last - 1
        yield tuple(exps)


@dataclass
class Basis:
    """Truncated multivariate Hermite basis: all multi-indices with
    total degree <= degree over nvars variables, graded lex order."""

    nvars: int
    degree: int
    exponents: np.ndarray            # (size, nvars) int
    index: dict = field(repr=False)  # exponent tuple -> row
    degree_of: np.ndarray            # (size,) total degree per row

    @property
    def size(self) -> int:
        return self.exponents.shape[0]

    def degree_slice(self, m: int) -> slice:
        """Rows of homogeneous degree m (contiguous by construction)."""
        start = sum(comb(k + self.nvars - 1, k) for k in range(m))
        return slice(start, start + comb(m + self.nvars - 1, m))


def make_basis(nvars: int, degree: int) -> Basis:
    if nvars < 1 or degree < 0:
        raise StateError(f"invalid basis shape nvars={nvars}, degree={degree}")
    rows = []
    for m in range(degree + 1):
        rows.extend(_compositions(m, nvars))
    exps = np.array(rows, dtype=np.int64)
    index = {tup: i for i, tup in enumerate(rows)}
    basis = Basis(nvars, degree, exps, index, exps.sum(axis=1))
    assert basis.size == comb(nvars + degree, degree)
    return basis


# ---------------------------------------------------------------------------
# evaluation


def hermite_value_table(x: np.ndarray, dmax: int) -> np.ndarray:
    """Values h_0..h_dmax at each x; returns shape x.shape + (dmax+1,).

    Normalized recurrence: h_{k+1} = (y h_k - sqrt(k) h_{k-1}) / sqrt(k+1)
    with y = x sqrt(2 pi).
    """
    x = np.asarray(x, dtype=float)
    y = x * SQRT_2PI
    out = np.empty(x.shape + (dmax + 1,))
    out[..., 0] = 1.0
    if dmax >= 1:
        out[..., 1] = y
    for k in range(1, dmax):
        out[..., k + 1] = (y * out[..., k] - np.sqrt(k) * out[..., k - 1]) / np.sqrt(k + 1)
    return out


def evaluate_basis(basis: Basis, points: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at points of shape (n, nvars).

    Returns (n, size). A row has at most k = min(degree, nvars) variables
    with a nonzero exponent, so its value is a product of k tabulated
    factors: those variables in ascending order, then h_0 = 1 of
    zero-exponent variables. One vectorized product per factor slot.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != basis.nvars:
        raise StateError(f"points have {points.shape[1]} coords, basis has {basis.nvars}")
    # column var * (degree+1) + e holds h_e at coordinate var
    table = hermite_value_table(points, basis.degree).reshape(len(points), -1)
    exps = basis.exponents
    # per row: its variables with a nonzero exponent first, ascending
    slots = max(1, min(basis.degree, basis.nvars))
    var = np.argsort(exps == 0, axis=1, kind="stable")[:, :slots]
    cols = var * (basis.degree + 1) + np.take_along_axis(exps, var, axis=1)
    # np.take returns row-major (n, size), as the old per-row loop did, so
    # matrix products taken with it stay on one BLAS path; every column is
    # in range, and mode="clip" skips numpy's slower bounds-raising path
    out = np.take(table, cols[:, 0], axis=1, mode="clip")
    for col in cols[:, 1:].T:
        out *= np.take(table, col, axis=1, mode="clip")
    return out


# ---------------------------------------------------------------------------
# sphere rule


def sphere_rule(max_degree: int):
    """Product rule on the unit sphere, normalized measure.

    Gauss-Legendre in cos(theta) times a uniform azimuthal grid; exact
    for all polynomials in (omega_1, omega_2, omega_3) of total degree
    <= max_degree.

    Returns (nodes (Q, 3), weights (Q,)) with weights summing to 1.
    """
    nl = max_degree // 2 + 1
    nk = 2 * nl
    u, wu = leggauss(nl)
    phi = 2.0 * np.pi * np.arange(nk) / nk
    su = np.sqrt(1.0 - u * u)
    nodes = np.empty((nl * nk, 3))
    nodes[:, 0] = np.outer(su, np.cos(phi)).ravel()
    nodes[:, 1] = np.outer(su, np.sin(phi)).ravel()
    nodes[:, 2] = np.repeat(u, nk)
    weights = np.repeat(wu / (2.0 * nk), nk)
    return nodes, weights


# ---------------------------------------------------------------------------
# monomial <-> Hermite conversion (exact, used for observables and the
# conserved-quantity subspace)


def _hermite_monomial_matrix(dmax: int) -> np.ndarray:
    """A[k, n] = coefficient of x^k in h_n(x); upper triangular."""
    a = np.zeros((dmax + 1, dmax + 1))
    a[0, 0] = 1.0
    if dmax >= 1:
        a[1, 1] = SQRT_2PI
    for n in range(1, dmax):
        shifted = np.zeros(dmax + 1)
        shifted[1:] = a[:-1, n]
        a[:, n + 1] = (SQRT_2PI * shifted - np.sqrt(n) * a[:, n - 1]) / np.sqrt(n + 1)
    return a


def monomial_to_hermite_1d(dmax: int) -> np.ndarray:
    """B[n, k] = coefficient of h_n in the expansion of x^k."""
    a = _hermite_monomial_matrix(dmax)
    return solve_triangular(a, np.eye(dmax + 1), lower=False)


# Sparse polynomials: {((var, exp), ...): coeff} with vars sorted, exps > 0.


def poly_coord(var: int) -> dict:
    """The coordinate function z_var as a sparse polynomial."""
    return {((var, 1),): 1.0}


def poly_add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, 0.0) + c
    return {k: c for k, c in out.items() if c != 0.0}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for kp, cp in p.items():
        dp = dict(kp)
        for kq, cq in q.items():
            exps = dict(dp)
            for var, e in kq:
                exps[var] = exps.get(var, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0.0) + cp * cq
    return out


def hermite_coeffs_from_poly(poly: dict, basis: Basis) -> np.ndarray:
    """Exact Hermite coefficients of a sparse monomial polynomial.

    Each monomial factors over its active variables; the 1D expansions
    x^k = sum_n B[n,k] h_n(x) distribute into the product basis. Raises
    if the polynomial degree exceeds the basis truncation.
    """
    vec = np.zeros(basis.size)
    conv = monomial_to_hermite_1d(basis.degree)
    for key, coeff in poly.items():
        total = sum(e for _, e in key)
        if total > basis.degree:
            raise StateError(
                f"monomial degree {total} exceeds basis degree {basis.degree}"
            )
        active = list(key)
        choices = [range(e + 1) for _, e in active]
        for ns in itertools.product(*choices):
            c = coeff
            exp_vec = [0] * basis.nvars
            for (var, e), n in zip(active, ns):
                c *= conv[n, e]
                exp_vec[var] = n
            if c != 0.0:
                vec[basis.index[tuple(exp_vec)]] += c
    return vec


# ---------------------------------------------------------------------------
# coefficient vectors


@dataclass
class HermiteCoeffs:
    """A function in the truncated basis, stored as its coefficient vector.

    By orthonormality the L^2(Gamma) inner product is the Euclidean dot
    product of coefficient vectors, and the coefficient of the constant
    basis function equals the Gamma-mean of the function.
    """

    basis: Basis
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=float)
        if self.vec.shape != (self.basis.size,):
            raise StateError(
                f"coefficient vector has shape {self.vec.shape}, "
                f"basis size is {self.basis.size}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def mean(self) -> float:
        """Gamma-mean <h, 1>, i.e. the constant coefficient."""
        return float(self.vec[0])

    def fluctuation_norm(self) -> float:
        """L^2 norm of h - <h, 1>."""
        return float(np.linalg.norm(self.vec[1:]))

    def degree(self) -> int:
        nz = np.nonzero(self.vec)[0]
        return int(self.basis.degree_of[nz].max()) if nz.size else 0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Pointwise values at (n, nvars); only active coefficients cost."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        active = np.nonzero(self.vec)[0]
        table = hermite_value_table(points, self.basis.degree)
        out = np.zeros(points.shape[0])
        for j in active:
            term = np.full(points.shape[0], self.vec[j])
            for var in np.nonzero(self.basis.exponents[j])[0]:
                term *= table[:, var, self.basis.exponents[j, var]]
            out += term
        return out

    def embed(self, big: Basis, slots: np.ndarray) -> "HermiteCoeffs":
        """Interpret this function inside a larger variable set.

        slots[i] is the column of the big basis carrying this basis's
        variable i; all other variables enter with exponent zero.
        """
        slots = np.asarray(slots, dtype=int)
        if slots.shape != (self.basis.nvars,):
            raise StateError("slots must list one target column per variable")
        vec = np.zeros(big.size)
        for j in np.nonzero(self.vec)[0]:
            exp = [0] * big.nvars
            for var, e in zip(slots, self.basis.exponents[j]):
                exp[var] = int(e)
            vec[big.index[tuple(exp)]] = self.vec[j]
        return HermiteCoeffs(big, vec)
