"""The reservoir-symmetric sector of the joint Hermite space.

Both generators commute with every permutation of the N reservoir
particles, and data that depend on the tagged velocities alone are
symmetric in them, so the flow of such data never leaves the functions
symmetric in the reservoir particles. The normalised orbit sums

    e_a = |O_a|^(-1/2) sum_{x in O_a} phi_x

of the joint Hermite functions phi_x over the orbits O_a of the
permutation group on joint exponents are an orthonormal basis of that
sector. An orbit is fixed by its tagged exponent and its support: the
multiset of the r nonzero reservoir 3-exponents, r <= d. It holds
N! / ((N - r)! prod_k m_k!) joint functions, m_k the multiplicities in
the support. Degree m has the same number of rows for every N >= m
(1, 6, 27, 102, 348, 1095, 3249 for m = 0..6 at M = 1), so a sector
computation costs the same at every reservoir size.

A row is found by its orbit key: the codes of the M tagged particles
(each particle's row in the 3-variable basis), then the reservoir codes
in descending order, padded with 0 to d entries. `SectorBasis.find`
searches the keys, sorted once per basis; `rows_of` and `tagged_coeffs`
key joint exponents through it, and the lifts of `kacbath.spectral`
build their tables of orbits with a particle put to rest or put in from
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial, prod

import numpy as np

from .errors import StateError
from .hermite import Basis, HermiteCoeffs, make_basis, unit_codes
from .kinematics import ModelParams

__all__ = ["SectorBasis", "sector_sizes", "make_sector"]


def sector_sizes(p: ModelParams, d: int) -> list[int]:
    """Rows of the sector per degree m = 0..d, counted without building it:
    a tagged exponent of degree t times a support of degree m - t on at
    most N particles."""
    supports = [sum(len(sup) <= p.n for sup in level) for level in _supports(d)]
    return [sum(comb(t + 3 * p.m - 1, t) * supports[m - t] for t in range(m + 1))
            for m in range(d + 1)]


@dataclass
class SectorBasis:
    """Normalised orbit sums of joint Hermite functions, graded by degree.

    Row a is the orbit, among n reservoir particles, of the tagged
    exponent `tagged[a]` with the support `support[a]`: rows of `single`
    (the 3-variable basis, row 0 the zero exponent), in descending order
    and padded with 0 to `degree` entries. Rows are contiguous by degree,
    and the orbit sizes are exact integers rounded once to float.
    """

    n: int
    degree: int
    single: Basis = field(repr=False)
    tagged: np.ndarray = field(repr=False)      # (size, 3m) tagged exponents
    support: np.ndarray = field(repr=False)     # (size, degree) rows of `single`
    orbit_size: np.ndarray = field(repr=False)  # (size,) |O_a|
    index: dict = field(repr=False)             # (tagged, support) tuples -> row
    degree_of: np.ndarray = field(repr=False)   # (size,) total degree per row
    _keys: np.ndarray = field(repr=False)       # sorted orbit keys of the rows
    _order: np.ndarray = field(repr=False)      # row of each sorted key

    @property
    def size(self) -> int:
        return self.degree_of.size

    def degree_slice(self, m: int) -> slice:
        """Rows of homogeneous degree m."""
        lo, hi = np.searchsorted(self.degree_of, [m, m + 1])
        return slice(int(lo), int(hi))

    def find(self, tagged: np.ndarray, support: np.ndarray) -> np.ndarray:
        """Row of each orbit given by its key: the codes (rows of `single`)
        of its M tagged particles (k, M) and its support (k, degree), in
        descending order and padded with 0; -1 for a key that is no row."""
        key = _row_keys(tagged, support)
        at = np.minimum(np.searchsorted(self._keys, key), self.size - 1)
        return np.where(self._keys[at] == key, self._order[at], -1)

    def rows_of(self, tagged: np.ndarray, reservoir: np.ndarray) -> np.ndarray:
        """Row of the orbit of each joint exponent, given as its tagged part
        (k, 3m) and the 3-exponents of any L reservoir particles (k, 3L);
        the particles not listed carry exponent zero. StateError if one lies
        outside the sector."""
        k, d = len(tagged), self.degree
        tagged, codes = unit_codes(tagged), unit_codes(reservoir)
        support = np.zeros((k, max(d, codes.shape[1])), dtype=np.intp)
        support[:, :codes.shape[1]] = -np.sort(-codes, axis=1)
        top = max(int(tagged.max(initial=0)), int(support.max(initial=0)))
        rows = (self.find(tagged, support[:, :d]) if top < self.single.size
                else np.full(k, -1))
        if support[:, d:].any() or (rows < 0).any():
            raise StateError(f"exponent outside the sector of degree {d} at N={self.n}")
        return rows

    def tagged_coeffs(self, h: HermiteCoeffs) -> HermiteCoeffs:
        """Data h on the 3m tagged variables in this basis: a function of the
        tagged velocities alone is its own orbit sum."""
        nz = np.nonzero(h.vec)[0]
        vec = np.zeros(self.size)
        vec[self.rows_of(h.basis.exponents[nz], np.zeros((nz.size, 0), dtype=int))] = h.vec[nz]
        return HermiteCoeffs(self, vec)


def _row_keys(tagged: np.ndarray, support: np.ndarray) -> np.ndarray:
    """One byte string per orbit key (tagged codes, support); every code is
    below the size of `single`, which fits 16 bits at every degree allowed."""
    rows = np.ascontiguousarray(np.hstack([tagged, support]), dtype=np.uint16)
    return rows.view(f"S{2 * rows.shape[1]}").ravel()


@cache
def _supports(d: int) -> tuple[tuple[tuple, ...], ...]:
    """supports[s]: descending tuples of nonzero rows of make_basis(3, d)
    with total degree s, for s = 0..d; cached per degree."""
    single = make_basis(3, d)
    out = [[] for _ in range(d + 1)]

    def extend(prefix: tuple, total: int, top: int):
        out[total].append(prefix)
        for code in range(min(top, single.size - 1), 0, -1):
            step = int(single.degree_of[code])
            if total + step <= d:
                extend(prefix + (code,), total + step, code)

    extend((), 0, single.size - 1)
    return tuple(map(tuple, out))


def make_sector(p: ModelParams, d: int) -> SectorBasis:
    """The sector basis of degree <= d; within a degree the rows run over
    the tagged degree from high to low, so tagged-only rows come first."""
    if d < 0:
        raise StateError(f"invalid sector degree {d}")
    single = make_basis(3, d)
    tagged_basis = make_basis(3 * p.m, d)
    supports = _supports(d)
    tagged, support, orbit = [], [], []
    for m in range(d + 1):
        for t in range(m, -1, -1):
            for sup in supports[m - t]:
                if len(sup) > p.n:
                    continue
                mult = prod(factorial(sup.count(c)) for c in set(sup))
                size = prod(range(p.n - len(sup) + 1, p.n + 1)) // mult
                for row in range(*tagged_basis.degree_slice(t).indices(tagged_basis.size)):
                    tagged.append(tagged_basis.exponents[row])
                    support.append(sup + (0,) * (d - len(sup)))
                    orbit.append(float(size))
    tagged = np.array(tagged, dtype=np.int64).reshape(len(orbit), 3 * p.m)
    support = np.array(support, dtype=np.intp).reshape(len(orbit), d)
    degree_of = tagged.sum(axis=1) + single.degree_of[support].sum(axis=1)
    assert degree_of.size == sum(sector_sizes(p, d))
    index = {(tuple(map(int, a)), tuple(map(int, s))): i
             for i, (a, s) in enumerate(zip(tagged, support))}
    keys = _row_keys(unit_codes(tagged), support)
    order = np.argsort(keys, kind="stable")
    return SectorBasis(p.n, d, single, tagged, support, np.array(orbit),
                       index, degree_of, keys[order], order)
