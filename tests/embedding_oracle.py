"""Per-row embedding of small blocks, kept as an oracle for the assembly.

The package lifts an operator on a few variables to a many-variable
basis through index arrays built in numpy (`spectral._embedding`). The
route here walks the big basis row by row, groups rows by their
exponents outside the slots in a dict, and scatters the block into each
group with one `np.ix_`; `generator` sums such lifts into a dense
matrix. Tests compare the package against it bitwise.
"""

import itertools

import numpy as np

from kacbath.hermite import Basis, make_basis
from kacbath.kinematics import ModelParams
from kacbath.spectral import pair_avg_block, thermostat_block


def slot_groups(big: Basis, sub: Basis, slots):
    """Group the big basis by the exponents outside `slots`.

    Within a group all members differ only in the sub-variables, so an
    operator acting on those variables maps the group into itself with
    the sub-basis matrix.
    """
    slots = np.asarray(slots, dtype=int)
    rest_cols = np.setdiff1d(np.arange(big.nvars), slots)
    sub_part = big.exponents[:, slots]
    rest_part = big.exponents[:, rest_cols].astype(np.int8)
    groups: dict = {}
    for row in range(big.size):
        sid = sub.index[tuple(sub_part[row])]
        groups.setdefault(rest_part[row].tobytes(), ([], []))
        g = groups[rest_part[row].tobytes()]
        g[0].append(row)
        g[1].append(sid)
    return [(np.array(ids), np.array(sids)) for ids, sids in groups.values()]


def embed_block(block: np.ndarray, sub: Basis, big: Basis, slots) -> np.ndarray:
    """Lift an operator on `sub` variables to the big basis, acting as
    the identity on all other variables."""
    out = np.zeros((big.size, big.size))
    for ids, sids in slot_groups(big, sub, slots):
        out[np.ix_(ids, ids)] = block[np.ix_(sids, sids)]
    return out


def accumulate_embedded(out: np.ndarray, block: np.ndarray, sub: Basis,
                        big: Basis, slots, coeff: float):
    for ids, sids in slot_groups(big, sub, slots):
        out[np.ix_(ids, ids)] += coeff * block[np.ix_(sids, sids)]


def _slots(*particles) -> np.ndarray:
    """Coordinate columns of the given particles, tagged ones first, then
    the reservoir at offset M."""
    return np.concatenate([np.arange(3 * k, 3 * k + 3) for k in particles])


def generator(kind: str, p: ModelParams, d: int) -> np.ndarray:
    """Dense jump generator sum_e c_e (A_e - I) on the joint basis.

    Each collision's block is added into one dense matrix in the order
    system pairs, reservoir pairs, then tagged-reservoir pairs (kind
    'reservoir') or thermostat averages (kind 'thermostat'); the
    diagonal -sum_e c_e is subtracted last.
    """
    big = make_basis(3 * (p.m + p.n), d)
    pair, b6 = pair_avg_block(d), make_basis(6, d)
    terms = []
    if p.m >= 2 and p.lambda_s > 0:
        terms += [(pair, b6, _slots(i, j), p.lambda_s / (p.m - 1))
                  for i, j in itertools.combinations(range(p.m), 2)]
    if p.lambda_r > 0:
        terms += [(pair, b6, _slots(p.m + i, p.m + j), p.lambda_r / (p.n - 1))
                  for i, j in itertools.combinations(range(p.n), 2)]
    if p.mu > 0 and kind == "reservoir":
        terms += [(pair, b6, _slots(i, p.m + j), p.mu / p.n)
                  for i in range(p.m) for j in range(p.n)]
    elif p.mu > 0:
        terms += [(thermostat_block(d), make_basis(3, d), _slots(i), p.mu)
                  for i in range(p.m)]
    out = np.zeros((big.size, big.size))
    total = 0.0
    for block, sub, slots, coeff in terms:
        accumulate_embedded(out, block, sub, big, slots, coeff)
        total += coeff
    out[np.diag_indices_from(out)] -= total
    return out
