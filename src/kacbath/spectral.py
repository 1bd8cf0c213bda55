"""Exact finite matrices for the collision-average operators.

Every operator in the model is an average of compositions with
orthogonal maps of phase space, so each one preserves the total Hermite
degree and restricts exactly to the truncated basis of degree <= d: the
matrices built here are not discretizations but true restrictions.

Averaging over a collision direction factorizes through center-of-mass
coordinates: with s = (a + b)/sqrt(2), r = (a - b)/sqrt(2) a collision
is the identity on s and the reflection r -> r - 2 (r . omega) omega on
r. The six-variable pair average is therefore assembled from small
exactly-integrated pieces (a two-variable mixing rotation per coordinate
and a three-variable reflection average), and the thermostat operator is
its restriction to functions of the first particle alone. A direct
six-variable product-quadrature route and a closed-form tensor-moment
route cross-validate the assembly.

Every block comes from one quadrature kernel. A product Gauss-Hermite
grid carries the Gaussian weight; the basis is evaluated at the images of
the grid under the block's maps (one orthogonal map, or one reflected or
collided point set per sphere node) and averaged over the maps first,
then one weighted Gram product with the basis on the grid gives the
block. Rules are chosen by polynomial-degree exactness counts, and every
block is re-integrated at a strictly finer rule; disagreement raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import orth
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigError, QuadratureError, StateError, ToleranceError
from .hermite import (
    Basis,
    HermiteCoeffs,
    evaluate_basis,
    gauss_hermite_gamma,
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
    "sphere_moment_tensor",
    "tensor_T",
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
# Two quadrature refinement levels must agree entrywise to this.
REFINE_TOL = 1e-10
# Largest dense float64 operator on the joint basis, in bytes (8192
# rows). A SpectralContext holds two (its generators); the gap and the
# DOP853 cross-check work on sparse copies, and `evolve` diagonalises
# one degree block at a time. The largest size in use (d=3, M=1, N=8:
# 4060 rows) needs 132 MB per generator.
DENSE_BYTES_MAX = 2**29


@dataclass
class OperatorMatrix:
    """Dense matrix of an operator on a truncated Hermite basis.

    Degree-block structure is verified at construction and off-block
    roundoff is zeroed, so `mat` is exactly block diagonal by total
    degree.
    """

    name: str
    basis: Basis
    mat: np.ndarray

    @classmethod
    def from_raw(cls, name: str, basis: Basis, mat: np.ndarray) -> "OperatorMatrix":
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (basis.size, basis.size):
            raise StateError(f"{name}: matrix shape {mat.shape} vs basis {basis.size}")
        off = basis.degree_of[:, None] != basis.degree_of[None, :]
        worst = float(np.abs(mat[off]).max()) if off.any() else 0.0
        if worst > BLOCK_TOL:
            raise ToleranceError(
                f"{name}: off-degree-block magnitude {worst:.3e} exceeds {BLOCK_TOL:.0e}"
            )
        mat = mat.copy()
        mat[off] = 0.0
        return cls(name, basis, mat)

    def block(self, m: int) -> np.ndarray:
        sl = self.basis.degree_slice(m)
        return self.mat[sl, sl]


# ---------------------------------------------------------------------------
# quadrature-built blocks (cached per degree)

_cache: dict = {}


def _gauss_grid(nvars: int, npoints: int):
    """Product Gauss-Hermite rule on nvars variables: points (npoints**nvars,
    nvars), first variable slowest, and their weights."""
    nodes, wts = gauss_hermite_gamma(npoints)
    idx = np.array(list(itertools.product(range(npoints), repeat=nvars)))
    return nodes[idx], np.prod(wts[idx], axis=1)


def _averaged_gram(basis: Basis, pts: np.ndarray, w: np.ndarray, maps) -> np.ndarray:
    """Matrix of h -> sum_(c, y) c h(y) on `basis`, by the rule (pts, w).

    Each (c, y) in `maps` is a weight and the images y of all points under
    one map. The images are averaged pointwise first, then one weighted
    Gram product sum_q w_q h_a(x_q) avg_b(x_q) is formed. Columns of
    `pts` past the basis variables are integrated out.
    """
    avg = np.zeros((len(pts), basis.size))
    for c, y in maps:
        avg += c * evaluate_basis(basis, y)
    return (evaluate_basis(basis, pts[:, :basis.nvars]) * w[:, None]).T @ avg


def _mix_block_2var(d: int, extra: int = 0) -> np.ndarray:
    """Matrix of h -> h((x+y)/sqrt2, (x-y)/sqrt2), the per-coordinate
    center-of-mass rotation (a symmetric involution)."""
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    pts, w = _gauss_grid(2, d + 1 + extra)
    return _averaged_gram(make_basis(2, d), pts, w, [(1.0, pts @ u.T)])


def _reflection_avg_block(d: int, extra: int = 0) -> np.ndarray:
    """Average over omega of h -> h(r - 2 (r . omega) omega), 3 variables."""
    pts, w = _gauss_grid(3, d + 1 + extra)
    omegas, ow = sphere_rule(2 * d, extra=extra)
    maps = ((sw, pts - 2.0 * (pts @ om)[:, None] * om[None, :])
            for om, sw in zip(omegas, ow))
    return _averaged_gram(make_basis(3, d), pts, w, maps)


def _check_refinement(name: str, a: np.ndarray, b: np.ndarray):
    diff = float(np.abs(a - b).max())
    if diff > REFINE_TOL:
        raise QuadratureError(
            f"{name}: refinement levels disagree by {diff:.3e} (tol {REFINE_TOL:.0e})"
        )


def _pair_block_direct(d: int, extra: int = 0) -> np.ndarray:
    """Six-variable collision average by direct product quadrature.

    Used to cross-validate the factorized assembly for small d; cost
    grows as (d+1)^6 so it is not the production route.
    """
    pts, w = _gauss_grid(6, d + 1 + extra)
    a, b = pts[:, :3], pts[:, 3:]

    def collided(om):
        rel = ((a - b) @ om)[:, None] * om[None, :]
        return np.concatenate([a - rel, b + rel], axis=1)

    omegas, ow = sphere_rule(2 * d, extra=extra)
    maps = ((sw, collided(om)) for om, sw in zip(omegas, ow))
    return _averaged_gram(make_basis(6, d), pts, w, maps)


def pair_avg_block(d: int) -> np.ndarray:
    """Collision average over omega for one particle pair: the matrix of

        h(a, b) -> int h(a - ((a-b).omega) omega, b + ((a-b).omega) omega) dsigma

    on the six-variable basis of degree <= d. Assembled through
    center-of-mass factorization; every piece is re-integrated at a
    strictly finer rule, and for d <= 3 the direct six-variable
    quadrature must agree as well.
    """
    key = ("pair", d)
    if key in _cache:
        return _cache[key]
    b6 = make_basis(6, d)

    mix = _mix_block_2var(d)
    _check_refinement("pair mix block", mix, _mix_block_2var(d, extra=d + 1))
    refl = _reflection_avg_block(d)
    _check_refinement("pair reflection block", refl, _reflection_avg_block(d, extra=d + 1))

    b2 = make_basis(2, d)
    b3 = make_basis(3, d)
    mix_full = np.eye(b6.size)
    for pair in ((0, 3), (1, 4), (2, 5)):
        mix_full = mix_full @ embed_block(mix, b2, b6, pair)
    refl_full = embed_block(refl, b3, b6, (3, 4, 5))
    out = mix_full @ refl_full @ mix_full

    if d <= 3:
        _check_refinement("pair block (direct route)", out, _pair_block_direct(d))
    asym = float(np.abs(out - out.T).max())
    if asym > REFINE_TOL:
        raise ToleranceError(f"pair block asymmetry {asym:.3e}")
    out = 0.5 * (out + out.T)
    _cache[key] = OperatorMatrix.from_raw("pair_avg", b6, out).mat
    return _cache[key]


def _thermostat_block_quadrature(d: int, extra: int = 0) -> np.ndarray:
    """Thermostat average by (velocity x scalar) Gauss-Hermite x sphere.

    The background particle enters only through its component along
    omega, a scalar Gaussian s, giving v* = v + (s - v.omega) omega.
    """
    pts, w = _gauss_grid(4, d + 1 + extra)
    v, s = pts[:, :3], pts[:, 3]
    omegas, ow = sphere_rule(2 * d, extra=extra)
    maps = ((sw, v + (s - v @ om)[:, None] * om[None, :])
            for om, sw in zip(omegas, ow))
    return _averaged_gram(make_basis(3, d), pts, w, maps)


def thermostat_block(d: int) -> np.ndarray:
    """Matrix of the single-particle thermostat average on 3 variables.

    Restriction of the pair average to functions of the first particle
    (background velocity integrated out), cross-validated against the
    direct quadrature route at two refinement levels.
    """
    key = ("thermostat", d)
    if key in _cache:
        return _cache[key]
    b6 = make_basis(6, d)
    b3 = make_basis(3, d)
    pair = pair_avg_block(d)
    keep = [b6.index[tuple(list(e) + [0, 0, 0])] for e in b3.exponents]
    via_pair = pair[np.ix_(keep, keep)]

    direct = _thermostat_block_quadrature(d)
    _check_refinement("thermostat block", direct, _thermostat_block_quadrature(d, extra=2))
    _check_refinement("thermostat block (pair route)", via_pair, direct)
    _cache[key] = OperatorMatrix.from_raw("thermostat_avg", b3, via_pair).mat
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


def _accumulate_embedded(out: np.ndarray, block: np.ndarray, sub: Basis,
                         big: Basis, slots, coeff: float):
    a, b, sa, sb = _embedding(big, sub, slots)
    out[a, b] += coeff * block[sa, sb]


def v_slots(i: int):
    """Coordinate columns of tagged particle i in the joint ordering."""
    return np.arange(3 * i, 3 * i + 3)


def w_slots(p: ModelParams, j: int):
    """Coordinate columns of reservoir particle j (after all tagged)."""
    return np.arange(3 * (p.m + j), 3 * (p.m + j) + 3)


def joint_basis(p: ModelParams, d: int) -> Basis:
    """Hermite basis of degree <= d on all 3(M+N) velocity components.

    The size is checked in closed form before anything is enumerated:
    one dense operator on it must fit in DENSE_BYTES_MAX.
    """
    rows = comb(3 * (p.m + p.n) + d, d)
    dense = 8 * rows * rows
    if dense > DENSE_BYTES_MAX:
        raise ConfigError(
            f"joint basis at M={p.m}, N={p.n}, degree {d} has {rows} rows; "
            f"one dense operator needs {dense / 1e6:.3g} MB, over the "
            f"{DENSE_BYTES_MAX / 1e6:.3g} MB limit"
        )
    return make_basis(3 * (p.m + p.n), d)


# ---------------------------------------------------------------------------
# model operators


def assemble_pair_rotation(kind: str, i: int, j: int, p: ModelParams,
                           d: int) -> OperatorMatrix:
    """Collision average for one labeled pair on the joint basis.

    kind: 'system' (tagged i with tagged j), 'reservoir' (reservoir i
    with reservoir j), or 'interaction' (tagged i with reservoir j).
    Indices are zero-based within their populations.
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
    big = joint_basis(p, d)
    mat = embed_block(pair_avg_block(d), make_basis(6, d), big, slots)
    return OperatorMatrix.from_raw(f"pair[{kind},{i},{j}]", big, mat)


def assemble_T(m: int, d: int, particle: int = 0) -> OperatorMatrix:
    """Thermostat average for one tagged particle on the 3m-variable basis."""
    if not 0 <= particle < m:
        raise StateError(f"particle {particle} out of range for m={m}")
    basis = make_basis(3 * m, d)
    mat = embed_block(thermostat_block(d), make_basis(3, d), basis, v_slots(particle))
    return OperatorMatrix.from_raw(f"thermostat[{particle}]", basis, mat)


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
    g = np.zeros((big.size, big.size))
    total = 0.0

    if p.m >= 2 and p.lambda_s > 0:
        c = p.lambda_s / (p.m - 1)
        for i, j in itertools.combinations(range(p.m), 2):
            slots = np.concatenate([v_slots(i), v_slots(j)])
            _accumulate_embedded(g, pair, b6, big, slots, c)
            total += c
    if p.lambda_r > 0:
        c = p.lambda_r / (p.n - 1)
        for i, j in itertools.combinations(range(p.n), 2):
            slots = np.concatenate([w_slots(p, i), w_slots(p, j)])
            _accumulate_embedded(g, pair, b6, big, slots, c)
            total += c
    if p.mu > 0:
        if kind == "reservoir":
            c = p.mu / p.n
            for i in range(p.m):
                for j in range(p.n):
                    slots = np.concatenate([v_slots(i), w_slots(p, j)])
                    _accumulate_embedded(g, pair, b6, big, slots, c)
                    total += c
        else:
            therm = thermostat_block(d)
            b3 = make_basis(3, d)
            for i in range(p.m):
                _accumulate_embedded(g, therm, b3, big, v_slots(i), p.mu)
                total += p.mu
    g[np.diag_indices_from(g)] -= total
    return OperatorMatrix.from_raw(f"generator[{kind}]", big, g)


# ---------------------------------------------------------------------------
# tensor-moment route for the thermostat average


def sphere_moment_tensor(order: int) -> np.ndarray:
    """E[omega_{i1} ... omega_{i_order}] as a dense (3,)*order tensor.

    Odd orders vanish; even orders follow the recursion
    M_k = (1/(k+1)) sum_j delta_{i1 ij} (x) M_{k-2}, equivalent to the
    sum over pair matchings divided by 3 * 5 * ... * (k+1).
    """
    if order < 0:
        raise StateError("order must be >= 0")
    if order == 0:
        return np.array(1.0)
    if order % 2 == 1:
        return np.zeros((3,) * order)
    prev = sphere_moment_tensor(order - 2)
    out = np.zeros((3,) * order)
    for k in range(1, order):
        term = np.tensordot(np.eye(3), prev, axes=0)
        out += np.moveaxis(term, 1, k)
    return out / (order + 1)


def tensor_T(m: int) -> np.ndarray:
    """Thermostat action on rank-m coefficient tensors, as a 3^m x 3^m map.

    Closed form from E[(I - omega omega^T)^(x)m] expanded over subsets,
    with sphere moments summing pair matchings; cross-validated against
    sphere quadrature. m = 0 returns the identity on scalars.
    """
    if m < 0 or m > 6:
        raise StateError("tensor order must be in 0..6 (3^m blow-up beyond)")
    if m == 0:
        return np.ones((1, 1))
    letters = "abcdefghijkl"
    li, lj = letters[:m], letters[m:2 * m]
    big = np.zeros((3,) * (2 * m))
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            mom = sphere_moment_tensor(2 * r)
            operands, subs = [], []
            if r:
                operands.append(mom)
                subs.append("".join(li[k] + lj[k] for k in subset))
            for k in range(m):
                if k not in subset:
                    operands.append(np.eye(3))
                    subs.append(li[k] + lj[k])
            subscripts = ",".join(subs) + "->" + li + lj
            big += (-1) ** r * np.einsum(subscripts, *operands)
    out = big.reshape(3 ** m, 3 ** m)
    _check_refinement(f"tensor_T({m})", out, _tensor_T_quadrature(m))
    return out


def _tensor_T_quadrature(m: int) -> np.ndarray:
    """sum_k w_k A_k^(x)m over the nodes of sphere_rule(2m), A = I - omega omega^T.

    With a = ceil(m/2) and b = floor(m/2), the Kronecker powers X_k =
    A_k^(x)a and Y_k = A_k^(x)b are built for all nodes at once; entry
    ((i, j), (p, q)) of the sum is sum_k w_k X_k[i, p] Y_k[j, q], one
    weighted product X^T diag(w) Y with the rows and columns regrouped.
    """
    nodes, wts = sphere_rule(2 * m)
    a_nodes = np.eye(3) - nodes[:, :, None] * nodes[:, None, :]

    def power(r):
        """A_k^(x)r for every node k, each flattened to one row."""
        out = np.ones((len(nodes), 1, 1))
        for _ in range(r):
            size = 3 * out.shape[1]
            out = np.einsum("kip,kjq->kijpq", out, a_nodes).reshape(-1, size, size)
        return out.reshape(len(nodes), -1)

    a, b = (m + 1) // 2, m // 2
    quad = (power(a).T * wts) @ power(b)
    quad = quad.reshape(3 ** a, 3 ** a, 3 ** b, 3 ** b).transpose(0, 2, 1, 3)
    return quad.reshape(3 ** m, 3 ** m)


def symmetric_tensor_eigenvalues(m: int) -> np.ndarray:
    """Eigenvalues of tensor_T(m) restricted to symmetric tensors.

    These must coincide with the eigenvalues of the degree-m Hermite
    block of the thermostat operator: the coefficient tensor of a
    degree-m Hermite expansion is symmetric, and the thermostat average
    acts on it exactly by tensor_T(m).
    """
    t = tensor_T(m)
    if m == 0:
        return np.array([1.0])
    cols = []
    for combo in itertools.combinations_with_replacement(range(3), m):
        vec = np.zeros(3 ** m)
        perms = set(itertools.permutations(combo))
        for p in perms:
            idx = 0
            for c in p:
                idx = idx * 3 + c
            vec[idx] = 1.0
        cols.append(vec / np.sqrt(len(perms)))
    b = np.stack(cols, axis=1)
    return np.linalg.eigvalsh(b.T @ t @ b)


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

    The generator G is exactly block diagonal by total degree
    (OperatorMatrix.from_raw zeroes the off-degree entries), and so is
    the invariant projector, held as one orthonormal basis U_m per degree
    block; k is the minimum over blocks m of minus the top eigenvalue of

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
    csr = sparse.csr_matrix(gen.mat)
    shift = 2.0 * float(abs(csr).sum(axis=1).max())
    gaps = []
    for m, u in enumerate(ctx.invariants):
        sl = gen.basis.degree_slice(m)
        g = csr[sl, sl]
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


def verify_lemma2(u: HermiteCoeffs, p: ModelParams, d: int | None = None) -> Lemma2Result:
    """Distance between the empirical collision average and its thermostat
    limit, against its exact closed form and its variance upper bound.

    For a function u of the tagged velocities, expanding the square and
    using that distinct reservoir particles are independent given v:

        || (1/N) sum_j R_1j u - T_1 u ||^2
            = (1/N) ( <R_1j u, R_1j u> - <T_1 u, T_1 u> )         (rhs)
            <= (1/N) ( <u, T_1 u> - <T_1 u, T_1 u> )    (variance_bound)

    The inequality holds because the pair average has spectrum in [0, 1]
    (so R^2 <= R) and <u, R_1j u> = <u, T_1 u> for u depending only on
    the tagged particle; it is the form the convergence bound consumes
    and is strict unless u sits in an eigenspace with eigenvalue 0 or 1.
    All three numbers come from assembled matrices.
    """
    if d is None:
        d = u.basis.degree
    if u.basis.nvars != 3 * p.m:
        raise StateError(f"u must live on {3 * p.m} variables, got {u.basis.nvars}")
    if u.basis.degree > d:
        raise StateError("u degree exceeds requested truncation")
    big = joint_basis(p, d)
    u_joint = u.embed(big, np.arange(3 * p.m))

    acc = np.zeros(big.size)
    second_moment = 0.0
    for j in range(p.n):
        op = assemble_pair_rotation("interaction", 0, j, p, d)
        ru = op.mat @ u_joint.vec
        acc += ru
        second_moment += float(ru @ ru) / p.n
    t1 = assemble_T(p.m, d, particle=0)
    tu = t1.mat @ u.vec
    t1u_joint = HermiteCoeffs(u.basis, tu).embed(big, np.arange(3 * p.m))
    lhs = float(np.sum((acc / p.n - t1u_joint.vec) ** 2))

    rhs = (second_moment - float(tu @ tu)) / p.n
    variance_bound = float((u.vec @ tu - tu @ tu) / p.n)
    return Lemma2Result(lhs, rhs, variance_bound)
