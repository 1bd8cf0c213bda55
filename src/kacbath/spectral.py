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
reflection average, and each of its degree blocks is read from the codes
of its rows' coordinate pairs and particles; the thermostat operator
averages the co-isometry (v, s) -> v + (s - v . omega) omega, whose
background component s integrates out.

Every block comes from one symmetric-power kernel. A co-isometry
x -> A x maps the leading monomial x^beta of a degree-m Hermite function
to (A x)^beta, and a degree-preserving operator is fixed by its action on
leading monomials, so the degree-m block is the average over omega of
the coefficients of (A x)^beta on the C(m + n - 1, m) degree-m monomials,
rescaled. Those coefficients are polynomials of degree 2m in omega, so
one sphere rule of degree 2d integrates every block of degree <= d
exactly; no Gauss-Hermite grid in x is needed. Each block is cross-checked
against an exact route that shares no code with the kernel: the map's
rows r_c(x, omega) are expanded as polynomials, and every omega^gamma is
replaced by its closed-form sphere moment
E[omega^gamma] = prod_i (gamma_i - 1)!! / (|gamma| + 1)!! (even gamma;
0 otherwise) in exact rational arithmetic. The thermostat spectrum of
`verify-lemma3`'s second route is taken from the same exact blocks.

Every operator on a many-particle basis is one lift of those blocks.
`_collision_terms` lists the collision classes of both generators once,
as blocks on particles (units), over all N reservoir particles on the
joint basis and over d + 1 representatives weighted by the partners they
stand for on the reservoir-symmetric sector (`_sector_lift`, shared by
the sector generators and `verify_lemma2`). A `_Layout` codes every
column by its units' rows in the 3-variable basis, once per lift, and
holds two small tables per unit: a row with one unit put to rest, and a
row at rest with a code put in. One vectorised pass over each run of
classes that share a block lists every column's images, their sub rows
and rows read from those tables, and `_lift` sums the entries in
listing order, the diagonal last, so the joint generators are bitwise
the dense sum of the blocks. `_lift` is the one producer of operators,
and it checks each one for symmetry as it finishes it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import comb, factorial, prod, sqrt
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, QuadratureError, StateError, ToleranceError
from .hermite import (
    Basis,
    HermiteCoeffs,
    basis_rows,
    make_basis,
    sphere_rule,
    unit_codes,
)
from .kinematics import ModelParams
from .sector import SectorBasis, make_sector, sector_sizes

__all__ = [
    "OperatorMatrix",
    "pair_avg_block",
    "thermostat_block",
    "bath_map_blocks",
    "assemble_T",
    "assemble_generator",
    "assemble_sector_generator",
    "symmetric_tensor_eigenvalues",
    "invariant_projector",
    "SpectralContext",
    "GapBlock",
    "spectral_gap",
    "k_block",
    "conserved_count",
    "conserved_norm",
    "verify_lemma2",
]

# Off-degree-block entries must vanish to this tolerance before they are
# hard-zeroed; anything larger signals an assembly bug, not roundoff.
BLOCK_TOL = 1e-12
# An eigenvalue of a generator block within this fraction of ||G||_inf of
# zero counts as a conserved quantity: the kernel sits at roundoff (about
# 1e-15), far below every decay rate measured.
KERNEL_TOL = 1e-8
# A kernel block and its exact cross-check must agree entrywise to this.
REFINE_TOL = 1e-10
# Largest entry of |G - G^T| of an assembled generator.
SYMMETRY_TOL = 1e-10
# Largest dense float64 operator on a joint, tagged or sector basis, in
# bytes (8192 rows). Operators are held as their entries, and only their
# degree blocks are made dense. The `spectral` export streams its rows from
# the entries, and this bounds the text it writes, one cell per position
# (44 MB at d=3, M=1, N=8, 4060 rows). On the joint basis it sets the reach
# of `spectral` alone, since every other subcommand runs on the sector,
# whose size does not depend on N (14005 rows at M=1, d=7 is over it).
DENSE_BYTES_MAX = 2**29


@dataclass
class OperatorMatrix:
    """Matrix of an operator on a truncated Hermite basis, as its entries.

    `rows`, `cols` and `values` list the nonzero entries sorted row-major,
    each position once. Degree-block structure is verified at construction
    and off-block roundoff is dropped, so every entry lies inside a degree
    block, no entry is zero, and the entries of each block are one
    contiguous run.
    """

    name: str
    basis: Basis
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def from_raw(cls, name: str, basis: Basis, entries: tuple) -> "OperatorMatrix":
        """Check and store the entries (rows, cols, values) of an operator on
        `basis`, listing each position at most once."""
        n = basis.size
        rows, cols, values = (np.asarray(a) for a in entries)
        off = basis.degree_of[rows] != basis.degree_of[cols]
        worst = float(np.abs(values[off]).max()) if off.any() else 0.0
        # a NaN compares False, so it fails a check written as "not <="
        if not worst <= BLOCK_TOL:
            raise ToleranceError(
                f"{name}: off-degree-block magnitude {worst:.3e} exceeds {BLOCK_TOL:.0e}"
            )
        keep = np.flatnonzero(~off & (values != 0.0))
        keep = keep[np.argsort(rows[keep] * n + cols[keep], kind="stable")]
        return cls(name, basis, rows[keep], cols[keep], values[keep])

    def block(self, m: int) -> np.ndarray:
        """The dense degree-m block."""
        sl = self.basis.degree_slice(m)
        lo, hi = np.searchsorted(self.rows, (sl.start, sl.stop))
        out = np.zeros((sl.stop - sl.start,) * 2)
        out[self.rows[lo:hi] - sl.start, self.cols[lo:hi] - sl.start] = self.values[lo:hi]
        return out

    def __matmul__(self, x) -> np.ndarray:
        """G x for a vector or a matrix x with one row per basis function,
        each row's sum taken over its entries in column order."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(self.basis.size, -1)
        k = flat.shape[1]
        bins = (self.rows[:, None] * k + np.arange(k)).ravel()
        terms = (self.values[:, None] * flat[self.cols]).ravel()
        return np.bincount(bins, weights=terms, minlength=flat.size).reshape(x.shape)

    def norm_inf(self) -> float:
        """||G||_inf, the largest absolute row sum."""
        return float(np.bincount(self.rows, weights=np.abs(self.values),
                                 minlength=self.basis.size).max())


# ---------------------------------------------------------------------------
# collision-average blocks (cached per degree)

_cache: dict = {}

# the per-coordinate center-of-mass rotation (a symmetric involution)
_MIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _by_degree(n: int, d: int, block) -> np.ndarray:
    """The matrix on make_basis(n, d) whose degree-m block is block(m);
    off-degree entries are exactly 0."""
    basis = make_basis(n, d)
    out = np.zeros((basis.size, basis.size))
    for m in range(d + 1):
        sl = basis.degree_slice(m)
        out[sl, sl] = block(m)
    return out


def _power_sums(maps: np.ndarray, w: np.ndarray, d: int) -> np.ndarray:
    """Matrix of h -> sum_k w_k h(A_k x) on make_basis(n, d), for a batch
    (K, n, n) of maps.

    P[k, alpha, beta], the coefficient of x^alpha in (A_k x)^beta, follows
    from degree m - 1 through (A x)^beta = (A x)^(beta - e_c) (A x)_c, c the
    first nonzero exponent of beta:

        P[k, alpha, beta] = sum_j A_k[c, j] P[k, alpha - e_j, beta - e_c],

    for all maps and all columns of a degree at once; a row alpha - e_j
    with a negative entry reads a zero row. As in _exact_block, the Hermite
    block is then sqrt(alpha!/beta!) sum_k w_k P[k, alpha, beta].
    """
    k, n = maps.shape[:2]
    basis = make_basis(n, d)
    coef, blocks = np.ones((k, 1, 1)), [np.array([[w.sum()]])]
    for m in range(1, d + 1):
        low = basis.degree_slice(m - 1)
        exps = basis.exponents[basis.degree_slice(m)]
        first = np.argmax(exps > 0, axis=1)
        down = np.array([[basis.index.get(tuple(e), low.stop) - low.start
                          for e in alpha - np.eye(n, dtype=int)] for alpha in exps])
        padded = np.concatenate([coef, np.zeros((k, 1, coef.shape[2]))], axis=1)
        cols = padded[:, :, down[np.arange(len(exps)), first]]
        coef = sum(cols[:, down[:, j]] * maps[:, first, j][:, None, :] for j in range(n))
        root = np.sqrt([prod(map(factorial, e)) for e in exps.tolist()])
        blocks.append(root[:, None] * np.tensordot(w, coef, axes=1) / root)
    return _by_degree(n, d, blocks.__getitem__)


def _kernel_block(kind: str, d: int) -> np.ndarray:
    """Matrix of `kind` on the basis of degree <= d: the mix rotation, or the
    average of I - c omega omega^T (c = 2 reflection, 1 thermostat) over the
    nodes of sphere_rule(2d), exact for every block since a degree-m block
    has degree 2m in omega."""
    if kind == "mix":
        return _power_sums(_MIX[None], np.ones(1), d)
    nodes, w = sphere_rule(2 * d)
    c = {"reflection": 2.0, "thermostat": 1.0}[kind]
    return _power_sums(np.eye(3) - c * nodes[:, :, None] * nodes[:, None, :], w, d)


# ---------------------------------------------------------------------------
# the exact route: closed-form sphere moments in integer arithmetic


@cache
def _sphere_moment(gamma: tuple) -> Fraction:
    """E[omega^gamma] under the normalized measure on the unit sphere S^2:
    prod_i (gamma_i - 1)!! / (|gamma| + 1)!! if every gamma_i is even, else 0."""
    if any(g % 2 for g in gamma):
        return Fraction(0)
    return Fraction(prod(prod(range(g - 1, 0, -2)) for g in gamma),
                    prod(range(sum(gamma) + 1, 0, -2)))


def _sphere_entry(alpha: tuple, beta: tuple, c: int) -> int:
    """(2m + 1)!! times the coefficient of x^alpha in
    E_omega prod_i (x_i - c omega_i (omega.x))^beta_i, for |alpha| = |beta| = m.

    Taking j_i factors -c omega_i (omega.x) from the i-th power leaves
    x^(beta - j); the multinomial expansion of (omega.x)^|j| must then
    supply x^delta with delta = alpha - beta + j, and omega^delta with it.
    The moment of omega^(alpha - beta + 2j) is 0 for every j if alpha - beta
    has an odd entry, and otherwise has a denominator dividing (2|j| + 1)!!,
    which divides (2m + 1)!!.
    """
    if any((a - b) % 2 for a, b in zip(alpha, beta)):
        return 0
    top = prod(range(2 * sum(beta) + 1, 0, -2))
    total = 0
    choices = (range(max(0, b - a), b + 1) for a, b in zip(alpha, beta))
    for j in itertools.product(*choices):
        delta = [a - b + k for a, b, k in zip(alpha, beta, j)]
        r = sum(j)
        count = (prod(comb(b, k) for b, k in zip(beta, j)) * factorial(r)
                 // prod(factorial(k) for k in delta))
        moment = _sphere_moment(tuple(k + e for k, e in zip(j, delta)))
        total += (-c) ** r * count * moment.numerator * (top // moment.denominator)
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


def _moment_numerators(kind: str, m: int) -> tuple[list[list[int]], int]:
    """A_m[alpha][beta], the coefficient of x^alpha in E_omega prod_c
    r_c(x, omega)^beta_c over the degree-m exponents, as integers over one
    denominator: 1 for mix, (2m + 1)!! for the sphere kinds."""
    n, entry = _MOMENT_ENTRIES[kind]
    exps = _degree_exponents(n, m)
    den = 1 if kind == "mix" else prod(range(2 * m + 1, 0, -2))
    return [[entry(a, b) for b in exps] for a in exps], den


@cache
def _exact_block(kind: str, m: int) -> np.ndarray:
    """Degree-m Hermite block of `kind` from its exact moment matrix.

    h_alpha has leading monomial coefficient (2 pi)^(m/2) / sqrt(alpha!),
    and a degree-preserving operator is fixed by its action on leading
    monomials, so the Hermite block is sqrt(alpha!/beta!) A_m[alpha, beta].
    Each entry of A_m is rounded once, by the int / int division of its
    numerator by the common denominator. Cached per (kind, m) by
    functools.cache (`_cache` holds the assembled pair and thermostat
    blocks only) and read-only, since callers share it.
    """
    exps = _degree_exponents(_MOMENT_ENTRIES[kind][0], m)
    root = np.sqrt([float(prod(factorial(e) for e in a)) for a in exps])
    rows, den = _moment_numerators(kind, m)
    block = root[:, None] * np.array([[x / den for x in row] for row in rows]) / root[None, :]
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

    on the six-variable basis of degree <= d (particle a the first three
    variables), composed as mix o refl o mix from the kernel's mix and
    reflection blocks, each checked against its exact route. Every factor
    keeps the degree, so each degree block is built on its own, from the
    codes of its rows: mix acts on each coordinate pair (a_c, b_c), so an
    entry of the mix factor is the product of the three mix entries of the
    pairs' rows in make_basis(2, d); refl acts on particle b alone, so an
    entry of the refl factor is the reflection entry of b's rows in
    make_basis(3, d) where a's rows agree, and 0 elsewhere. Cached per
    degree and read-only, since every later generator reads it.
    """
    key = ("pair", d)
    if key in _cache:
        return _cache[key]
    mix = _checked_kernel("pair mix block", "mix", d)
    refl = _checked_kernel("pair reflection block", "reflection", d)
    b6 = make_basis(6, d)

    def composed(m: int) -> np.ndarray:
        exps = b6.exponents[b6.degree_slice(m)]
        pairs = [basis_rows(2, np.arange(2), exps[:, [c, c + 3]]) for c in range(3)]
        mix_m = reduce(np.multiply, (mix[np.ix_(c, c)] for c in pairs))
        a, b = unit_codes(exps).T
        out = mix_m @ np.where(a[:, None] == a, refl[np.ix_(b, b)], 0.0) @ mix_m
        asym = float(np.abs(out - out.T).max())
        if asym > REFINE_TOL:
            raise ToleranceError(f"pair block asymmetry {asym:.3e}")
        return 0.5 * (out + out.T)

    out = _by_degree(6, d, composed)
    out.flags.writeable = False
    _cache[key] = out
    return out


def thermostat_block(d: int) -> np.ndarray:
    """Matrix of the single-particle thermostat average on 3 variables: the
    collision is the co-isometry [I - omega omega^T, omega] of (v, s), so s
    integrates out and the kernel averages I - omega omega^T alone. Cached
    read-only, like pair_avg_block."""
    key = ("thermostat", d)
    if key in _cache:
        return _cache[key]
    block = _checked_kernel("thermostat block", "thermostat", d)
    block.flags.writeable = False
    _cache[key] = block
    return block


def bath_map_blocks(d: int) -> list[np.ndarray]:
    """The degree blocks m = 0..d of thermostat_block(d), the one-particle
    bath map T: read-only views, as the block itself is."""
    t, b3 = thermostat_block(d), make_basis(3, d)
    return [t[b3.degree_slice(m), b3.degree_slice(m)] for m in range(d + 1)]


# ---------------------------------------------------------------------------
# one lift for every operator


class _Layout(NamedTuple):
    """How a lift reads its columns and finds the rows of their images.

    Each column is cut into its particles (units), and codes[c, u] is the
    row of unit u of column c in make_basis(3, d), 0 for a unit at rest.
    Units of one group are interchangeable (the sector's reservoir slots);
    every other unit is a group of its own. For a row x and a code c,
    drop[g, x, c] is the row of x with one unit of group g and code c put
    to rest, put[g, x, c] the row of x with one unit of group g at rest
    given code c, and code 0 keeps x; -1 where that is no row. Row n and
    code S (the index -1 and the codes above make_basis(3, d)) are -1.
    """

    codes: np.ndarray  # (n, U)
    group: np.ndarray  # (U,)
    drop: np.ndarray   # (G, n + 1, S + 1)
    put: np.ndarray    # (G, n + 1, S + 1)


def _layout(degree: int, codes: np.ndarray, group: np.ndarray, x: np.ndarray,
            u: np.ndarray, rest: np.ndarray) -> _Layout:
    """The _Layout of the columns `codes` of a basis of degree <= `degree`,
    from the row rest[i] of each row x[i] with its unit u[i] (of nonzero
    code) at rest."""
    n = len(codes)
    shape = (int(group.max(initial=-1)) + 1, n + 1, comb(3 + degree, 3) + 1)
    drop, put = np.full(shape, -1, dtype=np.int32), np.full(shape, -1, dtype=np.int32)
    drop[:, :n, 0] = put[:, :n, 0] = np.arange(n)
    drop[group[u], x, codes[x, u]] = rest
    put[group[u], rest, codes[x, u]] = x
    return _Layout(codes, group, drop, put)


def _basis_layout(big: Basis) -> _Layout:
    """The layout of a make_basis basis, each particle a group of its own;
    the rows at rest follow in closed form."""
    codes = unit_codes(big.exponents)
    x, u = np.nonzero(codes)
    rest = big.exponents[x].reshape(len(x), codes.shape[1], 3)
    rest[np.arange(len(x)), u] = 0
    rest = basis_rows(big.nvars, np.arange(big.nvars), rest.reshape(len(x), big.nvars))
    return _layout(big.degree, codes, np.arange(codes.shape[1]), x, u, rest)


class _Run(NamedTuple):
    """Terms in a row of a lift that share their block: their units (T, s),
    weights (T, n) or (T, 1), and the block's tables. join[i] is the sub
    row of the codes with mixed-radix index i (radix S + 1), -1 above the
    sub degree; split holds the codes of each sub row, codes above S read
    as S; by_row, start and value list the block's nonzero entries column
    by column."""

    units: np.ndarray
    weight: np.ndarray
    join: np.ndarray
    split: np.ndarray
    degree: int
    by_row: np.ndarray
    start: np.ndarray
    value: np.ndarray


def _runs(lay: _Layout, terms) -> list[_Run]:
    """The terms (block, sub, units, weight), in order, as runs of terms that
    share block and sub."""
    grouped = []
    for block, sub, units, weight in terms:
        if not (grouped and grouped[-1][0] is block and grouped[-1][1] is sub):
            grouped.append((block, sub, [], []))
        grouped[-1][2].append(units)
        grouped[-1][3].append(weight)
    size = lay.drop.shape[2] - 1
    runs = []
    for block, sub, units, weights in grouped:
        split = np.minimum(unit_codes(sub.exponents), size)
        join = np.full((size + 1,) * split.shape[1], -1)
        join[tuple(split.T)] = np.arange(sub.size)
        by_col, by_row = np.nonzero(block.T)  # its nonzero entries, column by column
        # one weight per column where any term has them, else one per term
        weight = (np.array([np.broadcast_to(w, len(lay.codes)) for w in weights])
                  if any(np.ndim(w) for w in weights) else np.array(weights, dtype=float)[:, None])
        runs.append(_Run(np.array(units).reshape(len(units), -1), weight, join.ravel(),
                         split, sub.degree, by_row,
                         np.searchsorted(by_col, np.arange(sub.size + 1)),
                         block[by_row, by_col]))
    return runs


def _images(lay: _Layout, runs: list[_Run], lo: int, hi: int):
    """Entries (rows, cols, values) of weight * A over the terms of `runs`,
    on the columns lo..hi-1: A is the block on the term's units and the
    weight one number or one per column. Term by term, each column of
    nonzero weight lists the nonzero entries k of its block column in
    order. Its image keeps the column's codes off the term's units and puts
    on them the codes of sub row k: its row comes from the column's row
    with those units dropped, then the new codes put, all read from
    `lay`'s tables. Images with row -1 lie outside the basis."""
    n = len(lay.codes)
    size = lay.drop.shape[2] - 1
    drop, put = lay.drop.ravel(), lay.put.ravel()
    for run in runs:
        codes = lay.codes[lo:hi, run.units].transpose(1, 0, 2)  # (T, hi - lo, s)
        sub_of = run.join[np.ravel_multi_index(tuple(np.moveaxis(codes, 2, 0)),
                                               (size + 1,) * codes.shape[2])]
        if (sub_of < 0).any():
            raise StateError(f"sub-basis of degree {run.degree} misses slot exponents")
        weight = np.broadcast_to(run.weight, (len(run.weight), n))[:, lo:hi]
        count = np.diff(run.start)[sub_of] * (weight != 0)
        t, c = np.nonzero(count)
        count, first, codes = count[t, c], run.start[sub_of[t, c]], codes[t, c]
        base = lay.group[run.units[t]] * (n + 1)  # each unit's table, as an offset in rows
        rows = c + lo
        for i in range(codes.shape[1]):
            rows = drop[(base[:, i] + rows) * (size + 1) + codes[:, i]]
        at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        k = run.by_row[at]
        rows = np.repeat(rows, count)
        for i in range(codes.shape[1]):
            rows = put[(np.repeat(base[:, i], count) + rows) * (size + 1) + run.split[k, i]]
        yield rows, np.repeat(c + lo, count), run.value[at] * np.repeat(weight[t, c], count)


# Most elements of the dense accumulator of one chunk of columns in _lift,
# for blocks that keep the degree (8 MB).
_CHUNK = 2**20


def _chunks(basis) -> list[tuple[int, int]]:
    """Column ranges for _lift: the whole basis if its square fits in
    _CHUNK, else ranges inside one degree block, of block rows x columns
    within _CHUNK."""
    if basis.size ** 2 <= _CHUNK:
        return [(0, basis.size)]
    out = []
    for m in range(basis.degree + 1):
        sl = basis.degree_slice(m)
        width = max(1, _CHUNK // (sl.stop - sl.start))
        out += [(lo, min(lo + width, sl.stop)) for lo in range(sl.start, sl.stop, width)]
    return out


def _summed(lay: _Layout, runs: list[_Run], lo: int, hi: int, diagonal: np.ndarray):
    """The entries (rows, cols, values) of columns lo..hi-1, summed by
    np.bincount into a dense (rows, hi - lo) array in listing order, the
    diagonal last: every position gets its terms in order, which are the
    bits of a dense `+=` over the terms."""
    own = np.arange(lo, hi)
    rows, cols, vals = (np.concatenate(a) for a in zip(
        *_images(lay, runs, lo, hi), (own, own, diagonal[lo:hi])))
    keep = rows >= 0
    rows, cols, vals = rows[keep], cols[keep] - lo, vals[keep]
    top = int(rows.min())  # the rows in reach: the degree block, unless a block leaks
    acc = np.bincount((rows - top) * (hi - lo) + cols, weights=vals,
                      minlength=(int(rows.max()) + 1 - top) * (hi - lo))
    at = np.flatnonzero(acc != 0.0)  # faster than on the floats
    return at // (hi - lo) + top, at % (hi - lo) + lo, acc[at]


def _check_symmetric(op: OperatorMatrix) -> OperatorMatrix:
    """op, once no entry of |G - G^T| exceeds SYMMETRY_TOL: the Krylov route
    of evolve and every eigvalsh (which reads one triangle) assume a
    symmetric operator, and _lift checks each one once, when it is built.
    Each entry (i, j) is compared with its mirror (j, i), read as 0 where
    that is not listed."""
    if not op.values.size:
        return op
    n = op.basis.size
    key, mirror = op.rows * n + op.cols, op.cols * n + op.rows
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    skew = np.abs(op.values - np.where(key[at] == mirror, op.values[at], 0.0))
    worst = int(skew.argmax())  # the first NaN, if there is one
    if not skew[worst] <= SYMMETRY_TOL:
        raise StateError(
            f"{op.name}: not symmetric in degree {op.basis.degree_of[op.rows[worst]]} "
            f"(defect {skew[worst]:.3e})"
        )
    return op


def _lift(name: str, basis, lay: _Layout, terms, root: np.ndarray,
          diagonal) -> OperatorMatrix:
    """sum of weight * A over the terms (see _images), plus `diagonal` (one
    number or one per column), scaled by root[col] / root[row], summed a
    chunk of columns at a time (_chunks, _summed), and checked for symmetry
    (_check_symmetric). No n x n array is formed past _CHUNK elements."""
    runs = _runs(lay, terms)
    diagonal = np.broadcast_to(diagonal, basis.size)
    parts = [_summed(lay, runs, lo, hi, diagonal) for lo, hi in _chunks(basis)]
    row, col, data = (np.concatenate(a) for a in zip(*parts))
    del parts  # copied above; free them before from_raw makes its own copies
    data *= root[col]
    data /= root[row]
    return _check_symmetric(OperatorMatrix.from_raw(name, basis, (row, col, data)))


def _check_dense(rows: int, what: str) -> None:
    """Raise ConfigError unless one dense operator on `rows` rows fits in
    DENSE_BYTES_MAX; callers count the rows without building the basis."""
    dense = 8 * rows * rows
    if dense > DENSE_BYTES_MAX:
        raise ConfigError(
            f"{what} has {rows} rows; one dense operator needs {dense / 1e6:.3g} "
            f"MB, over the {DENSE_BYTES_MAX / 1e6:.3g} MB limit"
        )


def _dense_basis(nvars: int, d: int, what: str) -> Basis:
    """make_basis(nvars, d), size-checked by _check_dense."""
    _check_dense(comb(nvars + d, d), what)
    return make_basis(nvars, d)


def joint_basis(p: ModelParams, d: int) -> Basis:
    """Hermite basis of degree <= d on all 3(M+N) velocity components,
    size-checked by _dense_basis."""
    return _dense_basis(3 * (p.m + p.n), d, f"joint basis at M={p.m}, N={p.n}, degree {d}")


def _check_sector(p: ModelParams, d: int) -> None:
    """_check_dense on the reservoir-symmetric sector of (p, d), counted by
    sector_sizes without building it."""
    _check_dense(sum(sector_sizes(p, d)),
                 f"reservoir-symmetric sector at M={p.m}, N={p.n}, degree {d}")


# ---------------------------------------------------------------------------
# model operators


def assemble_T(m: int, d: int) -> OperatorMatrix:
    """Thermostat average for tagged particle 0 on the 3m-variable basis,
    size-checked by _dense_basis: the `bath_map` export. Every other reader
    of T takes thermostat_block(d) or its sector lift."""
    basis = _dense_basis(3 * m, d, f"tagged basis at M={m}, degree {d}")
    return _lift("thermostat[0]", basis, _basis_layout(basis),
                 [(thermostat_block(d), make_basis(3, d), (0,), 1.0)],
                 np.ones(basis.size), 0.0)


def _collision_terms(kind: str, p: ModelParams, d: int, partner: Sequence) -> tuple:
    """The collision classes of the generator of `kind` as lift terms
    (block, sub, units, weight), and the sum of the weights in term order:
    tagged pairs at rate lambda_s / (M - 1), reservoir pairs at lambda_r /
    (N - 1), and each tagged particle with each reservoir particle at mu / N
    ('reservoir') or with the thermostat at mu ('thermostat'). Tagged
    particle i is unit i and reservoir particle j unit M + j; collisions
    with reservoir particle j < len(partner) are weighted by partner[j] too."""
    if kind not in ("reservoir", "thermostat"):
        raise StateError(f"unknown generator kind {kind!r}")
    pair, b6 = pair_avg_block(d), make_basis(6, d)
    terms = []
    if p.m >= 2 and p.lambda_s > 0:
        c = p.lambda_s / (p.m - 1)
        terms += [(pair, b6, (i, j), c) for i, j in itertools.combinations(range(p.m), 2)]
    if p.lambda_r > 0:
        c = p.lambda_r / (p.n - 1)
        terms += [(pair, b6, (p.m + i, p.m + j), c * partner[j])
                  for i, j in itertools.combinations(range(len(partner)), 2)]
    if p.mu > 0 and kind == "reservoir":
        c = p.mu / p.n
        terms += [(pair, b6, (i, p.m + j), c * partner[j])
                  for i in range(p.m) for j in range(len(partner))]
    elif p.mu > 0:
        block, b3 = thermostat_block(d), make_basis(3, d)
        terms += [(block, b3, (i,), p.mu) for i in range(p.m)]
    return terms, reduce(np.add, [weight for *_, weight in terms], 0.0)


def assemble_generator(kind: str, p: ModelParams, d: int) -> OperatorMatrix:
    """Full jump generator on the joint basis of degree <= d.

    kind 'reservoir': tagged-tagged + reservoir-reservoir +
    tagged-reservoir collisions. kind 'thermostat': the reduced dynamics
    where tagged-reservoir collisions are replaced by the thermostat
    average acting on tagged variables only (reservoir-internal
    collisions kept). Returned matrix is sum_e c_e (A_e - I) with every
    A_e an embedded averaging block.
    """
    big = joint_basis(p, d)
    terms, total = _collision_terms(kind, p, d, [1.0] * p.n)
    return _lift(f"generator[{kind}]", big, _basis_layout(big), terms,
                 np.ones(big.size), -total)


def _sector_lift(p: ModelParams, sec: SectorBasis):
    """The weight of each of the d + 1 reservoir slots of the sector's
    representatives, per column, and lift(name, terms, diagonal): `_lift`
    onto `sec`.

    The representative of an orbit lives on M tagged and d + 1 reservoir
    particles: tagged exponent first, then the support on reservoir
    particles 0..r-1, zero on the rest. Slots below r stand for
    themselves, slot r for each of the N - r fresh particles, and later
    slots for none; each image's row is the orbit of its exponents.
    """
    d, n = sec.degree, sec.size
    r = np.count_nonzero(sec.support, axis=1)
    partner = [np.where(j < r, 1.0, np.where(j == r, p.n - r, 0.0)) for j in range(d + 1)]
    # units: the M tagged particles, one group each, then the d + 1
    # reservoir slots, one group, since an orbit only sees their codes'
    # multiset; a row with one unit at rest has that tagged code zeroed, or
    # that support entry dropped (the support stays descending)
    tagged = unit_codes(sec.tagged)
    codes = np.hstack([tagged, sec.support, np.zeros((n, 1), dtype=sec.support.dtype)])
    x, u = np.nonzero(codes)
    own = u < p.m
    rest = tagged[x]
    rest[own, u[own]] = 0
    gone = np.where(own, d, u - p.m)  # the support entry dropped, d for none
    support = np.take_along_axis(codes[x, p.m:], np.arange(d) + (np.arange(d) >= gone[:, None]),
                                 axis=1)
    lay = _layout(d, codes, np.minimum(np.arange(codes.shape[1]), p.m), x, u,
                  sec.find(rest, support))

    def lift(name: str, terms, diagonal) -> OperatorMatrix:
        return _lift(name, sec, lay, terms, np.sqrt(sec.orbit_size), diagonal)

    return partner, lift


def assemble_sector_generator(kind: str, p: ModelParams, sec: SectorBasis) -> OperatorMatrix:
    """The generator of `kind` (see assemble_generator) on the
    reservoir-symmetric sector `sec` of (p, d).

    Entry (a, b) is <e_a, G e_b> = sqrt(|O_b| / |O_a|) sum_{x in O_a} G[x, y_b]
    for one representative y_b of orbit b: tagged exponent first, then the
    support on reservoir particles 0..r-1, zero on the rest. G y_b sums
    c_e (A_e - I) phi_y over the collisions e that move it: tagged pairs,
    reservoir pairs inside the support, each support particle with a fresh
    partner (particle r standing for all N - r of them), each tagged
    particle with a support particle and with a fresh partner (again N - r
    times), or the thermostat on each tagged particle; collisions between
    fresh particles fix phi_y: the joint collision list on d + 1 reservoir
    particles.
    """
    partner, lift = _sector_lift(p, sec)
    terms, total = _collision_terms(kind, p, sec.degree, partner)
    return lift(f"sector generator[{kind}]", terms, -total)


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


def invariant_projector(sec: SectorBasis) -> list[np.ndarray]:
    """Orthonormal basis of the conserved-quantity polynomials on the
    reservoir-symmetric sector `sec`, per degree, in closed form.

    Functions invariant under every momentum-preserving rotation of
    phase space are exactly the polynomials in the three total-momentum
    components P and the total energy E = |x|^2. Rotations preserve each
    Hermite degree, so the degree-m part of that subspace is spanned by the
    degree-m Hermite parts of the homogeneous P^a E^b with |a| + 2b = m. A
    degree-m monomial x^alpha is sqrt(alpha!) (2 pi)^(-m/2) h_alpha plus
    lower degrees (the leading-monomial fact of `_exact_block`), and P^a E^b
    is symmetric in the reservoir particles, so its entry on orbit row a is
    sqrt(|O_a|) sqrt(alpha!) (2 pi)^(-m/2) c_alpha, with x^alpha the row's
    representative and c_alpha its coefficient in P^a E^b.

    c_alpha factors over the coordinates: expanding E^b over the squares of
    each coordinate, coordinate c takes b_c = (sum_i alpha_ic - a_c) / 2 of
    them, so c_alpha = b! prod_c a_c! [t^b_c] prod_i g_alpha_ic(t), with
    g_e(t) = sum_{j <= e/2} t^j / (j! (e - 2j)!), and c_alpha = 0 unless
    every b_c is a nonnegative integer. A particle at rest has g_0 = 1, so
    c_alpha is the same at every N.

    Returns one U_m per degree block m of `sec`: those columns, each scaled
    to unit norm (so b! prod_c a_c! and (2 pi)^(-m/2), common to a column,
    drop out), orthonormalized by an SVD. Raises ToleranceError, naming the
    degree, if they are not independent.
    """
    d = sec.degree
    alpha = np.concatenate([sec.tagged.reshape(sec.size, -1, 3),
                            sec.single.exponents[sec.support]], axis=1)
    fact = np.array([float(factorial(e)) for e in range(d + 1)])
    g = np.array([[1.0 / (fact[j] * fact[e - 2 * j]) if 2 * j <= e else 0.0
                   for j in range(d // 2 + 1)] for e in range(d + 1)])
    # series[row, c, j] = [t^j] prod_i g_alpha_ic(t), one particle at a time
    series = g[alpha[:, 0]]
    for i in range(1, alpha.shape[1]):
        f = g[alpha[:, i]]
        series = np.stack([np.einsum("rcj,rcj->rc", series[..., :j + 1], f[..., j::-1])
                           for j in range(g.shape[1])], axis=-1)
    sums = alpha.sum(axis=1)
    root = np.sqrt(sec.orbit_size * fact[alpha].prod(axis=(1, 2)))

    blocks = []
    for m in range(d + 1):
        sl = sec.degree_slice(m)
        a = np.array([a for a in itertools.product(range(m + 1), repeat=3)
                      if sum(a) <= m and (m - sum(a)) % 2 == 0])
        half, odd = np.divmod(sums[sl, None, :] - a, 2)  # b_c per (row, column, c)
        picked = series[sl][np.arange(sl.stop - sl.start)[:, None, None], np.arange(3),
                            np.maximum(half, 0)]
        stack = np.where((odd == 0) & (half >= 0), picked, 0.0).prod(axis=2) * root[sl, None]
        u, s, _ = np.linalg.svd(stack / np.linalg.norm(stack, axis=0), full_matrices=False)
        rank = int(np.count_nonzero(s > np.finfo(float).eps * max(stack.shape) * s[0]))
        if rank != stack.shape[1]:
            raise ToleranceError(
                f"conserved-quantity polynomials of degree {m} not independent: "
                f"rank {rank} of {stack.shape[1]}"
            )
        blocks.append(u)
    return blocks


class GapBlock(NamedTuple):
    """One degree block m >= 1 of the sector reservoir generator, as
    spectral_gap reads it."""

    degree: int
    kappa: float        # minus the largest eigenvalue off the kernel
    multiplicity: int   # eigenvalues within the kernel tolerance of -kappa
    kernel_count: int   # eigenvalues within it of 0: conserved_count(degree)


@dataclass(frozen=True)
class SpectralContext:
    """The operators of one configuration (p, d), each built at most once.

    All of them live on the reservoir-symmetric sector: the sector basis,
    which verify_lemma2 lifts its collision averages onto, the conserved
    quantities U_m (invariant_projector), and both generators, which the
    distance curve evolves; the gap reads the spectrum of each degree block
    of the reservoir one and checks its kernel against U_m (gap_blocks).
    Each is built on first use and then kept. The sector's size is checked
    when the context is made, so a caller that makes it first refuses a
    sector over DENSE_BYTES_MAX before it builds any basis of its own.
    """

    p: ModelParams
    d: int

    def __post_init__(self):
        _check_sector(self.p, self.d)

    @cached_property
    def sector(self) -> SectorBasis:
        return make_sector(self.p, self.d)

    @cached_property
    def invariants(self) -> list[np.ndarray]:
        return invariant_projector(self.sector)

    @cached_property
    def sector_reservoir(self) -> OperatorMatrix:
        return assemble_sector_generator("reservoir", self.p, self.sector)

    @cached_property
    def sector_thermostat(self) -> OperatorMatrix:
        return assemble_sector_generator("thermostat", self.p, self.sector)

    @cached_property
    def gap_blocks(self) -> list[GapBlock]:
        """The spectrum of each degree block m >= 1 of the sector reservoir
        generator, as spectral_gap reads it, once _check_kernel has passed
        it (see there)."""
        if self.d < 1:
            raise StateError("degree cap 0 has no block off the constants to measure a gap in")
        gen = self.sector_reservoir
        tol = KERNEL_TOL * gen.norm_inf()
        blocks = []
        for m in range(1, self.d + 1):
            block = gen.block(m)
            evals = np.linalg.eigvalsh(block)
            kernel = _check_kernel(m, evals, block @ self.invariants[m], tol)
            top = float(evals[evals < -tol].max())
            blocks.append(GapBlock(m, -top, int(np.count_nonzero(np.abs(evals - top) <= tol)),
                                   kernel))
        return blocks


def conserved_count(m: int) -> int:
    """Number of the P^a E^b with |a| + 2b = m (P the total momentum, E the
    total energy): sum over b <= m/2 of C(m - 2b + 2, 2), that is 3, 7, 13,
    22, 34, 50 for m = 1..6."""
    return sum(comb(m - 2 * b + 2, 2) for b in range(m // 2 + 1))


def _check_kernel(m: int, evals: np.ndarray, moved: np.ndarray, tol: float) -> int:
    """The kernel count of a degree-m sector reservoir block G_m with
    eigenvalues evals, once the kernel is the span of U_m (moved = G_m U_m).
    Every P^a E^b lies in the sector, so there must be exactly
    conserved_count(m) eigenvalues within tol of 0 and none above, and
    max|G_m U_m| <= tol: the count and the span together pin the kernel.
    Raises ToleranceError naming the degree and what failed otherwise."""
    count = int(np.count_nonzero(np.abs(evals) <= tol))
    above = int(np.count_nonzero(evals > tol))
    want = conserved_count(m)
    if count != want or above:
        raise ToleranceError(
            f"sector generator in degree {m}: {count} eigenvalues within "
            f"{tol:.1e} of 0 and {above} above, expected {want} conserved "
            f"quantities and none above"
        )
    worst = float(np.abs(moved).max())
    if not worst <= tol:
        raise ToleranceError(
            f"sector generator in degree {m}: max|G U| = {worst:.3e} over {tol:.1e}, "
            f"so its kernel is not the span of the conserved quantities"
        )
    return count


def spectral_gap(ctx: SpectralContext) -> float:
    """Decay rate k of the reservoir generator off the conserved quantities.

    Read from the reservoir generator on the reservoir-symmetric sector
    (ctx.sector_reservoir), exactly block diagonal by total degree. Each
    degree block m >= 1 has its whole spectrum taken by a dense eigvalsh
    and its kernel checked by _check_kernel, by its count and against the
    closed-form U_m of ctx.invariants; kappa_m is minus the largest
    eigenvalue off the kernel, and k the minimum over the blocks.

    The sector holds the functions symmetric in the reservoir particles,
    where the flow of data on the tagged velocities stays, so k is the
    rate at which such data relax. On the whole joint space it only bounds
    the gap from above, since a slower mode not symmetric in the reservoir
    would not be seen; it has matched the joint-basis gap to 1e-12 at every
    shape where both were computed (tests/gap_oracle.py). The sector
    blocks have the same number of rows at every N >= d, so k is measured
    at any N, where the joint basis stops at N = 41 (d = 2) and N = 10
    (d = 3).

    Each kappa_m stays in ctx.gap_blocks with its multiplicity and the
    block's kernel count, so that `gap` reports which block sets k without
    a second eigensolve. Raises StateError at degree cap 0, which has no
    block to measure, and ToleranceError if a block's kernel is not the
    span of the conserved quantities.
    """
    return min(block.kappa for block in ctx.gap_blocks)


def k_block(ctx: SpectralContext) -> GapBlock:
    """The block that sets k: the lowest degree whose kappa_m lies within
    the kernel tolerance (the one the multiplicities are counted at) of the
    smallest, so that blocks with equal rates name the first of them."""
    tol = KERNEL_TOL * ctx.sector_reservoir.norm_inf()
    k = min(block.kappa for block in ctx.gap_blocks)
    return next(block for block in ctx.gap_blocks if block.kappa - k <= tol)


def conserved_norm(ctx: SpectralContext, c: np.ndarray) -> float:
    """Norm of the projection of c, a vector on ctx.sector, onto the
    conserved quantities in degrees m >= 1: sqrt(sum_m ||U_m^T c_m||^2)
    over the closed-form U_m of ctx.invariants, with no eigensolve.

    For mean-one data h0 this is ||Pi h0 - 1||, the long-time limit of the
    reservoir flow, wherever the kernel of the sector reservoir generator is
    the span of the U_m. ctx.gap_blocks checks that first, so this raises
    as spectral_gap does where it is not: at mu = 0 the tagged particles'
    own momenta join the kernel, and the reservoir flow keeps more of h0."""
    ctx.gap_blocks  # the kernel checks, run once per context
    return sqrt(sum(float(np.sum((u.T @ c[ctx.sector.degree_slice(m)]) ** 2))
                    for m, u in enumerate(ctx.invariants) if m >= 1))


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

    Both averages over j are symmetric in the reservoir particles, so they
    are read on `ctx.sector`, at the same cost for every N: a lift of the
    pair block over the d + 1 representative reservoir slots, each
    weighted by the partners it stands for over N, is (1/N) sum_j R_1j,
    and a lift of its square has the quadratic form
    (1/N) sum_j ||R_1j u||^2. T_1 is the lift of thermostat_block(ctx.d)
    onto tagged particle 0 of the same sector. u and T_1 u are their own
    orbit sums, on the rows SectorBasis.rows_of gives the tagged basis,
    and variance_bound reads T_1 u back at those rows. The functions share
    one tagged basis of degree <= ctx.d.
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
    sec = ctx.sector
    partner, lift = _sector_lift(p, sec)
    pair, b6 = pair_avg_block(d), make_basis(6, d)

    def average(name: str, block: np.ndarray) -> OperatorMatrix:
        """(1/N) sum_j of `block` on tagged particle 0 and reservoir particle j."""
        return lift(name, [(block, b6, (0, p.m + j), w / p.n)
                           for j, w in enumerate(partner)], 0.0)

    # functions of the tagged velocities, each its own orbit sum
    tagged = sec.rows_of(basis.exponents, np.zeros((basis.size, 0), dtype=int))
    u = np.stack([c.vec for c in us], axis=1)
    u_sec = np.zeros((sec.size, len(us)))
    u_sec[tagged] = u
    tu_sec = lift("thermostat[0]", [(thermostat_block(d), make_basis(3, d), (0,), 1.0)],
                  0.0) @ u_sec
    tu = tu_sec[tagged]
    lhs = np.sum((average("interaction average", pair) @ u_sec - tu_sec) ** 2, axis=0)
    second_moment = np.einsum("ik,ik->k", u_sec,
                              average("interaction second moment", pair @ pair) @ u_sec)

    tt = np.einsum("ik,ik->k", tu, tu)
    rhs = (second_moment - tt) / p.n
    variance_bound = (np.einsum("ik,ik->k", u, tu) - tt) / p.n
    return [Lemma2Result(float(a), float(b), float(c))
            for a, b, c in zip(lhs, rhs, variance_bound)]
