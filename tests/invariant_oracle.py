"""Conserved-quantity basis from whole-polynomial Hermite expansions on
the joint basis, kept as an oracle for `spectral.invariant_projector`.

The package builds each degree block on the reservoir-symmetric sector in
closed form, from the coefficient of each orbit's representative monomial
in P^a E^b. The route here shares none of that: it multiplies out every
polynomial in P and E of weighted degree <= d as a sparse monomial
polynomial, expands it exactly in the joint Hermite basis through the 1D
conversion x^k = sum_n B[n,k] h_n (B the inverse of the triangular
Hermite-to-monomial matrix), orthonormalizes the whole stack with one
`orth` over the full basis, and splits the result by degree with one SVD
per block, checking that every singular value lies at 0 or 1 (so the span
splits by degree). `on_joint_basis` carries a sector U_m to the joint
basis through the orbit sums, so tests compare the per-degree projectors
U_m U_m^T of the two routes; `tests/gap_oracle.py` takes this basis as
the invariants of its joint-basis gaps.
"""

import itertools
from functools import cache

import numpy as np
from scipy.linalg import orth, solve_triangular

from kacbath.errors import StateError, ToleranceError
from kacbath.hermite import SQRT_2PI, Basis
from kacbath.kinematics import ModelParams
from kacbath.sector import SectorBasis
from kacbath.spectral import joint_basis

# largest distance from 0 or 1 of a singular value of the degree-m rows
IDEMPOTENCY_TOL = 1e-10


# sparse monomial polynomials: {((var, exp), ...): coeff} with vars sorted,
# exps > 0


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



def hermite_monomial_matrix(dmax: int) -> np.ndarray:
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


@cache
def monomial_to_hermite_1d(dmax: int) -> np.ndarray:
    """B[n, k] = coefficient of h_n in the expansion of x^k.

    Cached per dmax and read-only, since callers share it.
    """
    b = solve_triangular(hermite_monomial_matrix(dmax), np.eye(dmax + 1), lower=False)
    b.flags.writeable = False
    return b


def hermite_coeffs_from_poly(poly: dict, basis: Basis) -> np.ndarray:
    """Exact Hermite coefficients of a sparse monomial polynomial.

    Each monomial factors over its active variables; the 1D expansions
    distribute into the product basis. Raises if the polynomial degree
    exceeds the basis truncation.
    """
    vec = np.zeros(basis.size)
    conv = monomial_to_hermite_1d(basis.degree)
    for key, coeff in poly.items():
        total = sum(e for _, e in key)
        if total > basis.degree:
            raise StateError(f"monomial degree {total} exceeds basis degree {basis.degree}")
        for ns in itertools.product(*[range(e + 1) for _, e in key]):
            c = coeff
            exp_vec = [0] * basis.nvars
            for (var, e), n in zip(key, ns):
                c *= conv[n, e]
                exp_vec[var] = n
            if c != 0.0:
                vec[basis.index[tuple(exp_vec)]] += c
    return vec


def invariant_projector(p: ModelParams, d: int) -> list[np.ndarray]:
    """One orthonormal U_m per degree block m, from the whole-basis route."""
    big = joint_basis(p, d)
    mom = [poly_add(*[poly_coord(3 * t + c) for t in range(p.m + p.n)]) for c in range(3)]
    energy = poly_add(*[poly_mul(poly_coord(i), poly_coord(i)) for i in range(big.nvars)])
    vecs = []
    for a1, a2, a3, b in itertools.product(range(d + 1), repeat=4):
        if a1 + a2 + a3 + 2 * b > d:
            continue
        poly = {(): 1.0}
        for gen, power in zip(mom + [energy], (a1, a2, a3, b)):
            for _ in range(power):
                poly = poly_mul(poly, gen)
        vecs.append(hermite_coeffs_from_poly(poly, big))
    stack = np.stack(vecs, axis=1)
    u = orth(stack)
    if u.shape[1] != stack.shape[1]:
        raise ToleranceError(f"rank {u.shape[1]} of {stack.shape[1]}")
    blocks = []
    for m in range(d + 1):
        left, sv, _ = np.linalg.svd(u[big.degree_slice(m)], full_matrices=False)
        defect = float(np.minimum(sv, np.abs(1.0 - sv)).max())
        if defect > IDEMPOTENCY_TOL:
            raise ToleranceError(f"not idempotent in degree {m}: defect {defect:.3e}")
        blocks.append(left[:, sv > 0.5])
    return blocks


def on_joint_basis(u: np.ndarray, sec: SectorBasis, p: ModelParams, m: int) -> np.ndarray:
    """The degree-m sector block u (one column per function) on the degree-m
    rows of the joint basis of (p, sec.degree): each orbit row a is
    |O_a|^(-1/2) times the sum of the joint functions of its orbit, so each
    joint row takes its orbit row's entry with that weight."""
    big = joint_basis(p, sec.degree)
    exps = big.exponents[big.degree_slice(m)]
    rows = sec.rows_of(exps[:, :3 * p.m], exps[:, 3 * p.m:])
    return u[rows - sec.degree_slice(m).start] / np.sqrt(sec.orbit_size[rows])[:, None]
