"""The per-term lift, kept as an oracle for `spectral._lift`.

The package lifts a run of collision terms that share a block in one
pass, reading every image's row from code tables. The route here handles
one term at a time: it ranks the term's slot exponents with
`hermite.basis_rows`, scans the block's nonzero entries, and finds each
image's row from a per-term table (joint and tagged bases) or from the
image's orbit key (the sector, `orbit_rows`). It sums the entries as the
package does, term by term with the diagonal last, so both must agree
bitwise on the same blocks. Its terms carry variable slots, not units.
"""

import itertools
from functools import reduce

import numpy as np

from kacbath.errors import StateError
from kacbath.hermite import Basis, basis_rows, make_basis
from kacbath.kinematics import ModelParams
from kacbath.sector import SectorBasis
from kacbath.spectral import OperatorMatrix, pair_avg_block, thermostat_block


def v_slots(i: int) -> np.ndarray:
    """Coordinate columns of tagged particle i in the joint ordering."""
    return np.arange(3 * i, 3 * i + 3)


def w_slots(p: ModelParams, j: int) -> np.ndarray:
    """Coordinate columns of reservoir particle j (after all tagged)."""
    return np.arange(3 * (p.m + j), 3 * (p.m + j) + 3)


def images(local: np.ndarray, terms, image_rows):
    """Entries (rows, cols, values) of weight * A for each term (block, sub,
    slots, weight), with A = `block` on the `slots` variables of the column
    exponents `local` and the weight one number or one per column. Each
    column of nonzero weight lists the nonzero entries k of its block
    column; image_rows(slots, sub, sub_of, k, cols) gives their rows, and
    images with row -1 lie outside the basis and are dropped."""
    for block, sub, slots, weight in terms:
        slots = np.asarray(slots)
        exps = local[:, slots]
        if (exps.sum(axis=1) > sub.degree).any():
            raise StateError(f"sub-basis of degree {sub.degree} misses slot exponents")
        sub_of = basis_rows(sub.nvars, np.arange(sub.nvars), exps)
        weight = np.broadcast_to(weight, sub_of.shape)
        live = np.flatnonzero(weight)
        by_col, by_row = np.nonzero(block.T)
        start = np.searchsorted(by_col, np.arange(sub.size + 1))
        first, count = start[sub_of[live]], np.diff(start)[sub_of[live]]
        cols = np.repeat(live, count)
        at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(cols.size)
        k = by_row[at]
        vals = block[k, sub_of[cols]] * weight[cols]
        rows = image_rows(slots, sub, sub_of, k, cols)
        keep = rows >= 0
        yield rows[keep], cols[keep], vals[keep]


def joint_rows(big: Basis):
    """image_rows on a make_basis basis: per term a table indexed by (the
    row of the column with the slots zeroed, sub row) holds every column,
    and -1 an image above the degree."""
    pos = np.argsort(big.exponents == 0, axis=1, kind="stable")[:, :big.degree]
    val = np.take_along_axis(big.exponents, pos, axis=1)

    def rows(slots, sub, sub_of, k, cols):
        zeroed = basis_rows(big.nvars, pos, np.where(np.isin(pos, slots), 0, val))
        table = np.full((big.size, sub.size), -1, dtype=np.intp)
        table[zeroed, sub_of] = np.arange(big.size)
        return table[zeroed[cols], k]

    return rows


def orbit_rows(sec: SectorBasis, tagged: np.ndarray, reservoir: np.ndarray) -> np.ndarray:
    """Row of the orbit of each joint exponent (tagged part, reservoir
    3-exponents), from byte keys of (tagged exponent, descending support)
    searched among the sector's own; StateError outside the sector."""
    def keys(t, s):
        rows = np.ascontiguousarray(np.hstack([t, s]), dtype=np.uint16)
        return rows.view(f"S{2 * rows.shape[1]}").ravel()

    d = sec.degree
    have = keys(sec.tagged, sec.support)
    order = np.argsort(have, kind="stable")
    have = have[order]
    codes = basis_rows(3, np.arange(3), reservoir.reshape(-1, 3))
    codes = codes.reshape(len(tagged), reservoir.shape[1] // 3)
    support = np.zeros((len(tagged), max(d, codes.shape[1])), dtype=np.intp)
    support[:, :codes.shape[1]] = -np.sort(-codes, axis=1)
    key = keys(tagged, support[:, :d])
    at = np.minimum(np.searchsorted(have, key), sec.size - 1)
    if (support[:, d:].any() or (support[:, :1] >= sec.single.size).any()
            or (have[at] != key).any()):
        raise StateError(f"exponent outside the sector of degree {d} at N={sec.n}")
    return order[at]


def lift(name: str, basis, local: np.ndarray, terms, image_rows, root: np.ndarray,
         diagonal) -> OperatorMatrix:
    """sum of weight * A over the terms, plus `diagonal`, scaled by
    root[col] / root[row]; np.bincount sums each (row, col) in listing
    order, the diagonal last."""
    n = basis.size
    diag = np.arange(n)
    entries = itertools.chain(images(local, terms, image_rows),
                              [(diag, diag, np.broadcast_to(diagonal, n))])
    keys, vals = zip(*((rows * n + cols, v) for rows, cols, v in entries))
    key, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.bincount(inverse, weights=np.concatenate(vals), minlength=key.size)
    row, col = np.divmod(key, n)
    return OperatorMatrix.from_raw(name, basis, (row, col, data * root[col] / root[row]))


def collision_terms(kind: str, p: ModelParams, d: int, partner) -> tuple:
    """The lift terms of the generator of `kind` with variable slots, and
    the sum of their weights, in `spectral._collision_terms`' order."""
    pair, b6 = pair_avg_block(d), make_basis(6, d)
    terms = []
    if p.m >= 2 and p.lambda_s > 0:
        c = p.lambda_s / (p.m - 1)
        terms += [(pair, b6, np.concatenate([v_slots(i), v_slots(j)]), c)
                  for i, j in itertools.combinations(range(p.m), 2)]
    if p.lambda_r > 0:
        c = p.lambda_r / (p.n - 1)
        terms += [(pair, b6, np.concatenate([w_slots(p, i), w_slots(p, j)]), c * partner[j])
                  for i, j in itertools.combinations(range(len(partner)), 2)]
    if p.mu > 0 and kind == "reservoir":
        c = p.mu / p.n
        terms += [(pair, b6, np.concatenate([v_slots(i), w_slots(p, j)]), c * partner[j])
                  for i in range(p.m) for j in range(len(partner))]
    elif p.mu > 0:
        terms += [(thermostat_block(d), make_basis(3, d), v_slots(i), p.mu)
                  for i in range(p.m)]
    return terms, reduce(np.add, [weight for *_, weight in terms], 0.0)


def generator(kind: str, p: ModelParams, d: int) -> OperatorMatrix:
    big = make_basis(3 * (p.m + p.n), d)
    terms, total = collision_terms(kind, p, d, [1.0] * p.n)
    return lift(f"generator[{kind}]", big, big.exponents, terms, joint_rows(big),
                np.ones(big.size), -total)


def assemble_T(m: int, d: int) -> OperatorMatrix:
    basis = make_basis(3 * m, d)
    return lift("thermostat[0]", basis, basis.exponents,
                [(thermostat_block(d), make_basis(3, d), v_slots(0), 1.0)],
                joint_rows(basis), np.ones(basis.size), 0.0)


def pair_rotation(name: str, slots, d: int, big: Basis) -> OperatorMatrix:
    """The pair average on the `slots` variables of the joint basis `big`."""
    return lift(name, big, big.exponents, [(pair_avg_block(d), make_basis(6, d), slots, 1.0)],
                joint_rows(big), np.ones(big.size), 0.0)


def sector_lift(p: ModelParams, sec: SectorBasis):
    """The partner weights of the d + 1 reservoir slots and lift(name,
    terms, diagonal) onto `sec`, as `spectral._sector_lift` gives them."""
    d = sec.degree
    r = np.count_nonzero(sec.support, axis=1)
    local = np.zeros((sec.size, 3 * (p.m + d + 1)), dtype=np.int64)
    local[:, :3 * p.m] = sec.tagged
    local[:, 3 * p.m:3 * (p.m + d)] = sec.single.exponents[sec.support].reshape(sec.size, -1)
    partner = [np.where(j < r, 1.0, np.where(j == r, p.n - r, 0.0)) for j in range(d + 1)]

    def image_rows(slots, sub, sub_of, k, cols):
        exps = local[cols]
        exps[:, slots] = sub.exponents[k]
        return orbit_rows(sec, exps[:, :3 * p.m], exps[:, 3 * p.m:])

    def run(name: str, terms, diagonal) -> OperatorMatrix:
        return lift(name, sec, local, terms, image_rows, np.sqrt(sec.orbit_size), diagonal)

    return partner, run


def sector_generator(kind: str, p: ModelParams, sec: SectorBasis) -> OperatorMatrix:
    partner, run = sector_lift(p, sec)
    terms, total = collision_terms(kind, p, sec.degree, partner)
    return run(f"sector generator[{kind}]", terms, -total)


def lemma2_averages(p: ModelParams, sec: SectorBasis) -> list[OperatorMatrix]:
    """The three sector lifts of `spectral.verify_lemma2`: the thermostat
    average on tagged particle 0, then (1/N) sum_j of the pair block and of
    its square on tagged particle 0 and reservoir j."""
    partner, run = sector_lift(p, sec)
    d = sec.degree
    pair, b6 = pair_avg_block(d), make_basis(6, d)
    thermostat = run("thermostat[0]", [(thermostat_block(d), make_basis(3, d), v_slots(0), 1.0)],
                     0.0)
    return [thermostat] + [
        run(name, [(block, b6, np.concatenate([v_slots(0), w_slots(p, j)]), w / p.n)
                   for j, w in enumerate(partner)], 0.0)
        for name, block in (("interaction average", pair),
                            ("interaction second moment", pair @ pair))]
