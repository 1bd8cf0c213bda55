"""Exact finite matrices for the collision-average operators.

Every operator in the model is an average of compositions with
orthogonal maps of phase space, so each one preserves the total Hermite
degree and restricts exactly to the truncated basis of degree <= d: the
matrices built here are not discretizations but true restrictions.

Averaging over a collision direction factorizes through center-of-mass
coordinates: with s = (a + b)/sqrt(2), r = (a - b)/sqrt(2) a collision
is the identity on s and the reflection r -> r - 2 (r . omega) omega on
r. The six-variable pair average is therefore mix o refl o mix, from a
two-variable mixing rotation per coordinate and a three-variable
reflection average; the thermostat operator averages the co-isometry
(v, s) -> v + (s - v . omega) omega, whose background component s
integrates out.

Every block comes from one symmetric-power kernel. A co-isometry
x -> A x acts on the degree-m Hermite block exactly as (A^T)^(x)m acts
on symmetric rank-m coefficient tensors, so a block needs only the
average over omega, which a sphere rule of degree 2m integrates exactly;
no Gauss-Hermite grid in x is needed. Each block is cross-checked
against an exact route that shares no code with the kernel: the map's
rows r_c(x, omega) are expanded as polynomials, and every omega^gamma is
replaced by its closed-form sphere moment
E[omega^gamma] = prod_i (gamma_i - 1)!! / (|gamma| + 1)!! (even gamma;
0 otherwise) in exact rational arithmetic. The thermostat spectrum of
`verify-lemma3`'s second route is taken from the same exact blocks.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import orth
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigError, QuadratureError, StateError, ToleranceError
from .hermite import (
    Basis,
    HermiteCoeffs,
    hermite_coeffs_from_poly,
    make_basis,
    poly_add,
    poly_coord,
    poly_mul,
    sphere_rule,
)
from .kinematics import ModelParams

__all__ = [
    "OperatorMatrix",
    "pair_avg_block",
    "thermostat_block",
    "embed_block",
    "assemble_pair_rotation",
    "assemble_T",
    "assemble_generator",
    "symmetric_tensor_eigenvalues",
    "invariant_projector",
    "SpectralContext",
    "spectral_gap",
    "verify_lemma2",
]

# Off-degree-block entries must vanish to this tolerance before they are
# hard-zeroed; anything larger signals an assembly bug, not roundoff.
BLOCK_TOL = 1e-12
# Largest distance from 0 or 1 of a singular value of the degree-m rows
# of the invariant basis (P_m is idempotent exactly when all lie at 0 or 1).
IDEMPOTENCY_TOL = 1e-10
# Largest entry of G_m U_m (a generator block times the invariant basis
# of that block) that still counts as G annihilating the invariants.
KERNEL_TOL = 1e-8
# Largest Lanczos residual ||A x - theta x|| of the gap's Ritz pair, and
# largest overlap ||U_m^T x|| of its Ritz vector with the invariants.
RITZ_TOL = 1e-10
# A kernel block and its exact cross-check must agree entrywise to this.
REFINE_TOL = 1e-10
# Largest dense float64 operator on a joint or tagged basis, in bytes
# (8192 rows). Generators are held only in CSR; this bounds the dense
# matrix the `spectral` export writes, and it sets the reach of every
# joint-basis computation. The largest size in use (d=3, M=1, N=8:
# 4060 rows) exports 132 MB.
DENSE_BYTES_MAX = 2**29


@dataclass
class OperatorMatrix:
    """Sparse (CSR) matrix of an operator on a truncated Hermite basis.

    Degree-block structure is verified at construction and off-block
    roundoff is dropped, so `mat` is exactly block diagonal by total
    degree and stores no off-degree entry and no zero.
    """

    name: str
    basis: Basis
    mat: sparse.csr_matrix

    @classmethod
    def from_raw(cls, name: str, basis: Basis, mat) -> "OperatorMatrix":
        """Check and store a dense or sparse matrix on `basis`."""
        coo = sparse.coo_matrix(mat, dtype=float)
        if coo.shape != (basis.size, basis.size):
            raise StateError(f"{name}: matrix shape {coo.shape} vs basis {basis.size}")
        off = basis.degree_of[coo.row] != basis.degree_of[coo.col]
        worst = float(np.abs(coo.data[off]).max()) if off.any() else 0.0
        if worst > BLOCK_TOL:
            raise ToleranceError(
                f"{name}: off-degree-block magnitude {worst:.3e} exceeds {BLOCK_TOL:.0e}"
            )
        keep = ~off & (coo.data != 0.0)
        csr = sparse.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])),
                                shape=coo.shape)
        return cls(name, basis, csr)

    def block(self, m: int) -> sparse.csr_matrix:
        sl = self.basis.degree_slice(m)
        return self.mat[sl, sl]


# ---------------------------------------------------------------------------
# collision-average blocks (cached per degree)

_cache: dict = {}

# the per-coordinate center-of-mass rotation (a symmetric involution)
_MIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _kron_power_sum(maps: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """sum_k w_k (A_k^T)^(x)m for a batch (K, n, n) of maps, as n^m x n^m.

    Rows and columns are index tuples in np.kron order, first index
    slowest. With a = ceil(m/2) and b = floor(m/2), the Kronecker powers
    X_k = (A_k^T)^(x)a and Y_k = (A_k^T)^(x)b are built for all maps at
    once; entry ((i, j), (p, q)) of the sum is sum_k w_k X_k[i, p] Y_k[j, q],
    one weighted product X^T diag(w) Y with the rows and columns regrouped.
    """
    at = np.asarray(maps, dtype=float).transpose(0, 2, 1)
    k, n = at.shape[:2]

    def power(r):
        """(A_k^T)^(x)r for every map k, each flattened to one row."""
        out = np.ones((k, 1, 1))
        for _ in range(r):
            size = n * out.shape[1]
            out = np.einsum("kip,kjq->kijpq", out, at).reshape(k, size, size)
        return out.reshape(k, -1)

    a, b = (m + 1) // 2, m // 2
    quad = (power(a).T * w) @ power(b)
    quad = quad.reshape(n ** a, n ** a, n ** b, n ** b).transpose(0, 2, 1, 3)
    return quad.reshape(n ** m, n ** m)


def _symmetrizer(n: int, m: int) -> np.ndarray:
    """b_m: orthonormal basis of the symmetric rank-m tensors on R^n.

    Column alpha, in make_basis(n, m).degree_slice(m) order, is the
    indicator of the index tuples with exponent alpha (np.kron order)
    over the square root of their number.
    """
    basis = make_basis(n, m)
    sl = basis.degree_slice(m)
    cols = [basis.index[tuple(t.count(i) for i in range(n))] - sl.start
            for t in itertools.product(range(n), repeat=m)]
    out = np.zeros((n ** m, sl.stop - sl.start))
    out[np.arange(n ** m), cols] = 1.0
    return out / np.sqrt(out.sum(axis=0))


def _sphere_maps(m: int, c: float):
    """I - c omega omega^T at the nodes of sphere_rule(2m), and the weights:
    every entry of its m-th Kronecker power has degree 2m in omega."""
    nodes, w = sphere_rule(2 * m)
    return np.eye(3) - c * nodes[:, :, None] * nodes[:, None, :], w


# Each block averages h -> h(A x) over maps A: (variables, maps_of), with
# maps_of(m) the maps (K, n, n) and weights of a rule exact at degree m.
_KERNEL_MAPS = {
    "mix": (2, lambda m: (_MIX[None], np.ones(1))),
    "reflection": (3, lambda m: _sphere_maps(m, 2.0)),
    "thermostat": (3, lambda m: _sphere_maps(m, 1.0)),
}


def _by_degree(n: int, d: int, block) -> np.ndarray:
    """The matrix on make_basis(n, d) whose degree-m block is block(m);
    off-degree entries are exactly 0."""
    basis = make_basis(n, d)
    out = np.zeros((basis.size, basis.size))
    for m in range(d + 1):
        sl = basis.degree_slice(m)
        out[sl, sl] = block(m)
    return out


def _kernel_block(kind: str, d: int) -> np.ndarray:
    """Matrix of h -> sum_k w_k h(A_k x) on the basis of degree <= d: block
    m is b_m^T (sum_k w_k (A_k^T)^(x)m) b_m."""
    n, maps_of = _KERNEL_MAPS[kind]

    def block(m):
        b = _symmetrizer(n, m)
        return b.T @ _kron_power_sum(*maps_of(m), m) @ b

    return _by_degree(n, d, block)


# ---------------------------------------------------------------------------
# the exact route: closed-form sphere moments in rational arithmetic


@cache
def _sphere_moment(gamma: tuple) -> Fraction:
    """E[omega^gamma] under the normalized measure on the unit sphere S^2:
    prod_i (gamma_i - 1)!! / (|gamma| + 1)!! if every gamma_i is even, else 0."""
    if any(g % 2 for g in gamma):
        return Fraction(0)
    return Fraction(prod(prod(range(g - 1, 0, -2)) for g in gamma),
                    prod(range(sum(gamma) + 1, 0, -2)))


def _sphere_entry(alpha: tuple, beta: tuple, c: int) -> Fraction:
    """Coefficient of x^alpha in E_omega prod_i (x_i - c omega_i (omega.x))^beta_i.

    Taking j_i factors -c omega_i (omega.x) from the i-th power leaves
    x^(beta - j); the multinomial expansion of (omega.x)^|j| must then
    supply x^delta with delta = alpha - beta + j, and omega^delta with it.
    """
    total = Fraction(0)
    choices = (range(max(0, b - a), b + 1) for a, b in zip(alpha, beta))
    for j in itertools.product(*choices):
        delta = [a - b + k for a, b, k in zip(alpha, beta, j)]
        r = sum(j)
        count = (prod(comb(b, k) for b, k in zip(beta, j)) * factorial(r)
                 // prod(factorial(k) for k in delta))
        total += (-c) ** r * count * _sphere_moment(tuple(k + e for k, e in zip(j, delta)))
    return total


def _mix_entry(alpha: tuple, beta: tuple) -> int:
    """Coefficient of x^alpha in (x_0 + x_1)^beta_0 (x_0 - x_1)^beta_1."""
    return sum(comb(beta[0], i) * comb(beta[1], alpha[1] - i) * (-1) ** (alpha[1] - i)
               for i in range(max(0, alpha[1] - beta[1]), min(beta[0], alpha[1]) + 1))


# (variables, entry) per kind; the rows whose powers are averaged are
# x_0 +- x_1 (mix, before its factor 2^(-m/2)), x_c - 2 omega_c (omega.x)
# and x_c - omega_c (omega.x)
_MOMENT_ENTRIES = {
    "mix": (2, _mix_entry),
    "reflection": (3, lambda a, b: _sphere_entry(a, b, 2)),
    "thermostat": (3, lambda a, b: _sphere_entry(a, b, 1)),
}


def _degree_exponents(n: int, m: int) -> list[tuple]:
    """Exponents of degree m on n variables, in make_basis order."""
    basis = make_basis(n, m)
    return [tuple(map(int, e)) for e in basis.exponents[basis.degree_slice(m)]]


def _moment_matrix(kind: str, m: int) -> list[list]:
    """A_m[alpha][beta]: the coefficient of x^alpha in E_omega prod_c
    r_c(x, omega)^beta_c, over the degree-m exponents, exactly."""
    n, entry = _MOMENT_ENTRIES[kind]
    exps = _degree_exponents(n, m)
    return [[entry(a, b) for b in exps] for a in exps]


@cache
def _exact_block(kind: str, m: int) -> np.ndarray:
    """Degree-m Hermite block of `kind` from its exact moment matrix.

    h_alpha has leading monomial coefficient (2 pi)^(m/2) / sqrt(alpha!),
    and a degree-preserving operator is fixed by its action on leading
    monomials, so the Hermite block is sqrt(alpha!/beta!) A_m[alpha, beta].
    Cached per (kind, m) by functools.cache (`_cache` holds the assembled
    pair and thermostat blocks only) and read-only, since callers share it.
    """
    exps = _degree_exponents(_MOMENT_ENTRIES[kind][0], m)
    root = np.sqrt([float(prod(factorial(e) for e in a)) for a in exps])
    a = np.array([[float(x) for x in row] for row in _moment_matrix(kind, m)])
    block = root[:, None] * a / root[None, :]
    if kind == "mix":
        block *= 2.0 ** (-m / 2)
    block.flags.writeable = False
    return block


def _checked_kernel(name: str, kind: str, d: int) -> np.ndarray:
    """The kernel block of `kind`, once it agrees entrywise with the exact
    route to REFINE_TOL at every degree <= d."""
    block = _kernel_block(kind, d)
    exact = _by_degree(_MOMENT_ENTRIES[kind][0], d, lambda m: _exact_block(kind, m))
    diff = float(np.abs(block - exact).max())
    if diff > REFINE_TOL:
        raise QuadratureError(
            f"{name}: block and quadrature disagree by {diff:.3e} (tol {REFINE_TOL:.0e})"
        )
    return block


def pair_avg_block(d: int) -> np.ndarray:
    """Collision average over omega for one particle pair: the matrix of

        h(a, b) -> int h(a - ((a-b).omega) omega, b + ((a-b).omega) omega) dsigma

    on the six-variable basis of degree <= d, assembled as mix o refl o
    mix from the kernel's mix and reflection blocks, each checked against
    its exact route.
    """
    key = ("pair", d)
    if key in _cache:
        return _cache[key]
    mix = _checked_kernel("pair mix block", "mix", d)
    refl = _checked_kernel("pair reflection block", "reflection", d)

    b2, b3, b6 = make_basis(2, d), make_basis(3, d), make_basis(6, d)
    mix_full = np.eye(b6.size)
    for pair in ((0, 3), (1, 4), (2, 5)):
        mix_full = mix_full @ embed_block(mix, b2, b6, pair)
    refl_full = embed_block(refl, b3, b6, (3, 4, 5))
    out = mix_full @ refl_full @ mix_full

    asym = float(np.abs(out - out.T).max())
    if asym > REFINE_TOL:
        raise ToleranceError(f"pair block asymmetry {asym:.3e}")
    out = 0.5 * (out + out.T)
    _cache[key] = OperatorMatrix.from_raw("pair_avg", b6, out).mat.toarray()
    return _cache[key]


def thermostat_block(d: int) -> np.ndarray:
    """Matrix of the single-particle thermostat average on 3 variables: the
    collision is the co-isometry [I - omega omega^T, omega] of (v, s), so s
    integrates out and the kernel averages I - omega omega^T alone."""
    key = ("thermostat", d)
    if key in _cache:
        return _cache[key]
    block = _checked_kernel("thermostat block", "thermostat", d)
    _cache[key] = OperatorMatrix.from_raw("thermostat_avg", make_basis(3, d), block).mat.toarray()
    return _cache[key]


# ---------------------------------------------------------------------------
# embedding small blocks into many-particle bases


def _embedding(big: Basis, sub: Basis, slots):
    """Index arrays (rows, cols, sub_rows, sub_cols) of a block at `slots`.

    Big rows that agree on the exponents outside `slots` form a group:
    they differ only in the sub-variables, so an operator acting on those
    variables maps the group into itself with the sub-basis matrix. Every
    pair (row, col) within a group is listed once, with the sub-basis
    rows of its slot exponents. Groups ignore the degree, so off-degree
    entries of a raw block are copied as they are.
    """
    slots = np.asarray(slots, dtype=int)
    outside = np.ones(big.nvars, dtype=bool)
    outside[slots] = False
    # sub row of each big row, through the base-(d+1) code of its slot exponents
    base = max(big.degree, sub.degree) + 1
    place = base ** np.arange(len(slots), dtype=np.int64)
    lookup = np.full(base ** len(slots), -1, dtype=np.intp)
    lookup[sub.exponents @ place] = np.arange(sub.size)
    sub_of = lookup[big.exponents[:, slots] @ place]
    if (sub_of < 0).any():
        raise StateError(f"sub-basis of degree {sub.degree} misses slot exponents")
    if outside.any():
        # one byte string per row (exponents are far below 256): sorting
        # strings is much faster than np.unique(axis=0) on integer rows
        rest = np.ascontiguousarray(big.exponents[:, outside], dtype=np.uint8)
        _, group = np.unique(rest.view(f"S{rest.shape[1]}").ravel(), return_inverse=True)
    else:
        group = np.zeros(big.size, dtype=np.intp)
    # every row pairs with each row of its group, in ascending order
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    start = np.cumsum(counts) - counts
    reps = counts[group[order]]
    offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    rows = np.repeat(order, reps)
    cols = order[np.repeat(start[group[order]], reps) + offset]
    return rows, cols, sub_of[rows], sub_of[cols]


def embed_block(block: np.ndarray, sub: Basis, big: Basis, slots) -> np.ndarray:
    """Lift an operator on `sub` variables to the big basis, acting as
    the identity on all other variables."""
    out = np.zeros((big.size, big.size))
    a, b, sa, sb = _embedding(big, sub, slots)
    out[a, b] = block[sa, sb]
    return out


def _summed_embeddings(name: str, big: Basis, terms, diagonal: float = 0.0) -> OperatorMatrix:
    """sum of coeff * block lifted to `big` at `slots`, over the terms
    (block, sub, slots, coeff), plus `diagonal` times the identity.

    The (row, col, value) entries are listed term by term, the diagonal
    last, and np.bincount sums each (row, col) in that order, so the
    CSR data are the bits of a dense `+=` over the terms; coo.tocsr()
    sums duplicates in another order and moves entries at roundoff.
    No n x n array is formed.
    """
    n = big.size
    keys, vals = [], []
    for block, sub, slots, coeff in terms:
        a, b, sa, sb = _embedding(big, sub, slots)
        keys.append(a * n + b)
        vals.append(coeff * block[sa, sb])
    keys.append(np.arange(n) * (n + 1))
    vals.append(np.full(n, diagonal))
    key, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.bincount(inverse, weights=np.concatenate(vals), minlength=key.size)
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    csr = sparse.csr_matrix((data, key % n, indptr), shape=(n, n))
    return OperatorMatrix.from_raw(name, big, csr)


def v_slots(i: int):
    """Coordinate columns of tagged particle i in the joint ordering."""
    return np.arange(3 * i, 3 * i + 3)


def w_slots(p: ModelParams, j: int):
    """Coordinate columns of reservoir particle j (after all tagged)."""
    return np.arange(3 * (p.m + j), 3 * (p.m + j) + 3)


def _dense_basis(nvars: int, d: int, what: str) -> Basis:
    """make_basis(nvars, d), after a closed-form check that one dense
    operator on it fits in DENSE_BYTES_MAX; nothing is enumerated before."""
    rows = comb(nvars + d, d)
    dense = 8 * rows * rows
    if dense > DENSE_BYTES_MAX:
        raise ConfigError(
            f"{what} has {rows} rows; one dense operator needs {dense / 1e6:.3g} "
            f"MB, over the {DENSE_BYTES_MAX / 1e6:.3g} MB limit"
        )
    return make_basis(nvars, d)


def joint_basis(p: ModelParams, d: int) -> Basis:
    """Hermite basis of degree <= d on all 3(M+N) velocity components,
    size-checked by _dense_basis."""
    return _dense_basis(3 * (p.m + p.n), d, f"joint basis at M={p.m}, N={p.n}, degree {d}")


# ---------------------------------------------------------------------------
# model operators


def assemble_pair_rotation(kind: str, i: int, j: int, p: ModelParams,
                           d: int, basis: Basis | None = None) -> OperatorMatrix:
    """Collision average for one labeled pair on the joint basis.

    kind: 'system' (tagged i with tagged j), 'reservoir' (reservoir i
    with reservoir j), or 'interaction' (tagged i with reservoir j).
    Indices are zero-based within their populations. A caller that
    already holds the joint basis of (p, d) passes it as `basis`.
    """
    if kind == "system":
        if not (0 <= i < j < p.m):
            raise StateError(f"system pair ({i},{j}) out of range for m={p.m}")
        slots = np.concatenate([v_slots(i), v_slots(j)])
    elif kind == "reservoir":
        if not (0 <= i < j < p.n):
            raise StateError(f"reservoir pair ({i},{j}) out of range for n={p.n}")
        slots = np.concatenate([w_slots(p, i), w_slots(p, j)])
    elif kind == "interaction":
        if not (0 <= i < p.m and 0 <= j < p.n):
            raise StateError(f"interaction pair ({i},{j}) out of range")
        slots = np.concatenate([v_slots(i), w_slots(p, j)])
    else:
        raise StateError(f"unknown pair kind {kind!r}")
    big = joint_basis(p, d) if basis is None else basis
    return _summed_embeddings(f"pair[{kind},{i},{j}]", big,
                              [(pair_avg_block(d), make_basis(6, d), slots, 1.0)])


def assemble_T(m: int, d: int, particle: int = 0) -> OperatorMatrix:
    """Thermostat average for one tagged particle on the 3m-variable basis,
    size-checked by _dense_basis."""
    if not 0 <= particle < m:
        raise StateError(f"particle {particle} out of range for m={m}")
    basis = _dense_basis(3 * m, d, f"tagged basis at M={m}, degree {d}")
    return _summed_embeddings(f"thermostat[{particle}]", basis,
                              [(thermostat_block(d), make_basis(3, d), v_slots(particle), 1.0)])


def assemble_generator(kind: str, p: ModelParams, d: int,
                       basis: Basis | None = None) -> OperatorMatrix:
    """Full jump generator on the joint basis of degree <= d.

    kind 'reservoir': tagged-tagged + reservoir-reservoir +
    tagged-reservoir collisions. kind 'thermostat': the reduced dynamics
    where tagged-reservoir collisions are replaced by the thermostat
    average acting on tagged variables only (reservoir-internal
    collisions kept). Returned matrix is sum_e c_e (A_e - I) with every
    A_e an embedded averaging block. A caller that already holds the
    joint basis of (p, d) passes it as `basis`, so it is not enumerated
    again.
    """
    if kind not in ("reservoir", "thermostat"):
        raise StateError(f"unknown generator kind {kind!r}")
    big = joint_basis(p, d) if basis is None else basis
    pair = pair_avg_block(d)
    b6 = make_basis(6, d)
    terms = []

    if p.m >= 2 and p.lambda_s > 0:
        c = p.lambda_s / (p.m - 1)
        for i, j in itertools.combinations(range(p.m), 2):
            terms.append((pair, b6, np.concatenate([v_slots(i), v_slots(j)]), c))
    if p.lambda_r > 0:
        c = p.lambda_r / (p.n - 1)
        for i, j in itertools.combinations(range(p.n), 2):
            terms.append((pair, b6, np.concatenate([w_slots(p, i), w_slots(p, j)]), c))
    if p.mu > 0:
        if kind == "reservoir":
            c = p.mu / p.n
            for i in range(p.m):
                for j in range(p.n):
                    terms.append((pair, b6, np.concatenate([v_slots(i), w_slots(p, j)]), c))
        else:
            therm = thermostat_block(d)
            b3 = make_basis(3, d)
            terms.extend((therm, b3, v_slots(i), p.mu) for i in range(p.m))
    total = 0.0
    for *_, c in terms:
        total += c
    return _summed_embeddings(f"generator[{kind}]", big, terms, -total)


def symmetric_tensor_eigenvalues(m: int) -> np.ndarray:
    """Eigenvalues of the exact degree-m thermostat block.

    The coefficient tensor of a degree-m Hermite expansion is symmetric,
    and the thermostat average acts on it as E[(I - omega omega^T)^(x)m];
    this route expands that average with the closed-form sphere moments
    instead of the kernel's sphere rule. The block is cached, so after
    `thermostat_block(d)` has checked the kernel, degrees m <= d cost
    one eigvalsh each.
    """
    return np.linalg.eigvalsh(_exact_block("thermostat", m))


# ---------------------------------------------------------------------------
# conserved-quantity subspace and the spectral gap


def invariant_projector(p: ModelParams, d: int,
                        basis: Basis | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the conserved-quantity polynomials, per degree.

    Functions invariant under every momentum-preserving rotation of
    phase space are exactly the polynomials in the three total-momentum
    components and the total energy; the span of their monomials with
    weighted degree <= d is orthonormalized into U on the joint basis of
    (p, d), passed as `basis` if already enumerated.

    Returns one U_m per degree block m: the left singular vectors of the
    degree-m rows of U with singular value above 1/2. Every singular
    value must lie within IDEMPOTENCY_TOL of 0 or 1, else ToleranceError:
    that makes P_m = U_m U_m^T idempotent, so U U^T is block diagonal.
    """
    big = joint_basis(p, d) if basis is None else basis
    nvars = big.nvars
    mom = [poly_add(*[poly_coord(3 * t + c) for t in range(p.m + p.n)]) for c in range(3)]
    energy = poly_add(*[poly_mul(poly_coord(i), poly_coord(i)) for i in range(nvars)])

    vecs = []
    for a1 in range(d + 1):
        for a2 in range(d + 1 - a1):
            for a3 in range(d + 1 - a1 - a2):
                for b in range((d - a1 - a2 - a3) // 2 + 1):
                    poly = {(): 1.0}
                    for gen, power in zip(mom + [energy], (a1, a2, a3, b)):
                        for _ in range(power):
                            poly = poly_mul(poly, gen)
                    vecs.append(hermite_coeffs_from_poly(poly, big))
    stack = np.stack(vecs, axis=1)
    u = orth(stack)
    if u.shape[1] != stack.shape[1]:
        raise ToleranceError(
            f"conserved-quantity monomials not independent: rank {u.shape[1]} "
            f"of {stack.shape[1]}"
        )
    blocks = []
    for m in range(d + 1):
        left, sv, _ = np.linalg.svd(u[big.degree_slice(m)], full_matrices=False)
        defect = float(np.minimum(sv, np.abs(1.0 - sv)).max())
        if defect > IDEMPOTENCY_TOL:
            raise ToleranceError(
                f"invariant projector not idempotent in degree {m}: defect "
                f"{defect:.3e} exceeds {IDEMPOTENCY_TOL:.0e}"
            )
        blocks.append(left[:, sv > 0.5])
    return blocks


@dataclass(frozen=True)
class SpectralContext:
    """The operators of one configuration (p, d), each built at most once.

    The joint basis, the two generators and the per-degree invariant
    bases U_m are built on first use and then kept, so the distance
    curve and the gap of one configuration share them.
    """

    p: ModelParams
    d: int

    @cached_property
    def basis(self) -> Basis:
        return joint_basis(self.p, self.d)

    @cached_property
    def reservoir(self) -> OperatorMatrix:
        return assemble_generator("reservoir", self.p, self.d, basis=self.basis)

    @cached_property
    def thermostat(self) -> OperatorMatrix:
        return assemble_generator("thermostat", self.p, self.d, basis=self.basis)

    @cached_property
    def invariants(self) -> list[np.ndarray]:
        return invariant_projector(self.p, self.d, basis=self.basis)


def spectral_gap(ctx: SpectralContext) -> float:
    """Decay rate k of the reservoir generator off the conserved quantities.

    The generator G, held in CSR, is exactly block diagonal by total
    degree (OperatorMatrix.from_raw drops the off-degree entries), and
    so is the invariant projector, held as one orthonormal basis U_m per
    degree block; k is the minimum over blocks m of minus the top eigenvalue of

        G_m - s U_m U_m^T,    s = 2 ||G||_inf.

    Once G_m U_m is checked to vanish, this operator is G_m off the range
    of U_m and -s on it; every eigenvalue of the symmetric G lies in
    [-||G||_inf, 0], so the top one lies off the invariants. Only that
    eigenvalue is computed, by Lanczos on the sparse block with the shift
    applied as U_m (U_m^T x), so no block-sized dense matrix is formed.
    The start vector is a fixed-seed normal vector with its U_m part
    removed, so k is reproducible bit for bit. Blocks U_m spans (degree
    0) are skipped.

    Raises ToleranceError if a projector block is not idempotent to
    IDEMPOTENCY_TOL, if a generator block does not annihilate its
    invariants to KERNEL_TOL, if Lanczos does not converge, if its Ritz
    vector overlaps the invariants or its residual exceeds RITZ_TOL, or
    if the gap is nonpositive.
    """
    gen = ctx.reservoir
    shift = 2.0 * float(abs(gen.mat).sum(axis=1).max())
    gaps = []
    for m, u in enumerate(ctx.invariants):
        g = gen.block(m)
        kernel = float(np.abs(g @ u).max())
        if kernel > KERNEL_TOL:
            raise ToleranceError(
                f"generator does not annihilate invariants in degree {m}: "
                f"defect {kernel:.3e} exceeds {KERNEL_TOL:.0e}"
            )
        n = g.shape[0]
        if u.shape[1] == n:
            continue
        op = LinearOperator((n, n), dtype=float,
                            matvec=lambda x, g=g, u=u: g @ x - shift * (u @ (u.T @ x)))
        start = np.random.default_rng(0).standard_normal(n)
        start -= u @ (u.T @ start)
        try:
            theta, x = eigsh(op, k=1, which="LA", tol=0, v0=start)
        except ArpackNoConvergence as exc:
            raise ToleranceError(f"Lanczos did not converge in degree {m}: {exc}") from exc
        theta, x = float(theta[0]), x[:, 0]
        overlap = float(np.linalg.norm(u.T @ x))
        if overlap > RITZ_TOL:
            raise ToleranceError(
                f"Ritz vector overlaps the invariants in degree {m}: "
                f"{overlap:.3e} exceeds {RITZ_TOL:.0e}"
            )
        residual = float(np.linalg.norm(op @ x - theta * x))
        if residual > RITZ_TOL:
            raise ToleranceError(
                f"Lanczos residual in degree {m}: {residual:.3e} exceeds {RITZ_TOL:.0e}"
            )
        gaps.append(-theta)
    if not gaps:
        raise ToleranceError("invariants span the whole basis: no gap to measure")
    k_hat = min(gaps)
    if k_hat <= 0:
        raise ToleranceError(f"nonpositive spectral gap {k_hat:.3e}")
    return k_hat


# ---------------------------------------------------------------------------
# interaction-average variance identity


class Lemma2Result(NamedTuple):
    lhs: float             # || (1/N) sum_j R_1j u - T_1 u ||^2
    rhs: float             # exact identity value, see below
    variance_bound: float  # (1/N)(<u, T u> - <T u, T u>) >= lhs


def verify_lemma2(us: Sequence[HermiteCoeffs],
                  ctx: SpectralContext) -> list[Lemma2Result]:
    """Distance between the empirical collision average and its thermostat
    limit, against its exact closed form and its variance upper bound,
    for each function u of `us`.

    For a function u of the tagged velocities, expanding the square and
    using that distinct reservoir particles are independent given v:

        || (1/N) sum_j R_1j u - T_1 u ||^2
            = (1/N) ( <R_1j u, R_1j u> - <T_1 u, T_1 u> )         (rhs)
            <= (1/N) ( <u, T_1 u> - <T_1 u, T_1 u> )    (variance_bound)

    The inequality holds because the pair average has spectrum in [0, 1]
    (so R^2 <= R) and <u, R_1j u> = <u, T_1 u> for u depending only on
    the tagged particle; it is the form the convergence bound consumes
    and is strict unless u sits in an eigenspace with eigenvalue 0 or 1.
    All three numbers come from assembled matrices, on the joint basis of
    `ctx` at its degree. The functions share one tagged basis; each R_1j
    is embedded once and applied to all of them as one matrix product.
    Returns one result per function, in order.
    """
    p, d = ctx.p, ctx.d
    if not us:
        raise StateError("no functions to check")
    basis = us[0].basis
    if any(u.basis.index != basis.index for u in us):
        raise StateError("functions live on different bases")
    if basis.nvars != 3 * p.m:
        raise StateError(f"u must live on {3 * p.m} variables, got {basis.nvars}")
    if basis.degree > d:
        raise StateError("u degree exceeds requested truncation")
    big = ctx.basis
    tagged = np.arange(3 * p.m)

    def joint(cols: np.ndarray) -> np.ndarray:
        return np.stack([HermiteCoeffs(basis, c).embed(big, tagged).vec
                         for c in cols.T], axis=1)

    u = np.stack([c.vec for c in us], axis=1)
    u_joint = joint(u)
    acc = np.zeros_like(u_joint)
    second_moment = np.zeros(len(us))
    for j in range(p.n):
        op = assemble_pair_rotation("interaction", 0, j, p, d, basis=big)
        ru = op.mat @ u_joint
        acc += ru
        second_moment += np.einsum("ik,ik->k", ru, ru) / p.n
    tu = assemble_T(p.m, d, particle=0).mat @ u
    lhs = np.sum((acc / p.n - joint(tu)) ** 2, axis=0)

    tt = np.einsum("ik,ik->k", tu, tu)
    rhs = (second_moment - tt) / p.n
    variance_bound = (np.einsum("ik,ik->k", u, tu) - tt) / p.n
    return [Lemma2Result(float(a), float(b), float(c))
            for a, b, c in zip(lhs, rhs, variance_bound)]
