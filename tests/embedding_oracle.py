"""Per-row embedding of small blocks, kept as an oracle for the assembly.

The package lifts an operator on a few variables to a many-variable
basis through index arrays built in numpy (`spectral._embedding`). The
route here walks the big basis row by row, groups rows by their
exponents outside the slots in a dict, and scatters the block into each
group with one `np.ix_`. Tests compare the package against it bitwise.
"""

import numpy as np

from kacbath.hermite import Basis


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
