"""The joint-basis route of the Lemma-2 check, kept as an oracle.

The package reads both collision averages over the reservoir on the
reservoir-symmetric sector (`spectral.verify_lemma2`). The route here
embeds each of the N interaction pair rotations R_1j into the joint
Hermite basis of all 3(M + N) velocity components and applies them one
by one, so it stops where the joint basis does (N = 41 at d = 2, N = 10
at d = 3). `assemble_pair_rotation` also serves the tests of a single
pair rotation: symmetry, spectrum and the pair invariants.
"""

import numpy as np

from kacbath.errors import StateError
from kacbath.hermite import Basis, HermiteCoeffs
from kacbath.kinematics import ModelParams
from kacbath.spectral import Lemma2Result, OperatorMatrix, SpectralContext, assemble_T, joint_basis

from lift_oracle import pair_rotation, v_slots, w_slots


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
    return pair_rotation(f"pair[{kind},{i},{j}]", slots, d,
                         joint_basis(p, d) if basis is None else basis)


def verify_lemma2(us, ctx: SpectralContext) -> list[Lemma2Result]:
    """lhs, rhs and variance_bound of `spectral.verify_lemma2` on the joint
    basis of `ctx`: each R_1j is embedded once and applied to all the
    functions as one matrix product, and the squares are summed over j."""
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
    big = joint_basis(p, d)
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
        ru = op @ u_joint
        acc += ru
        second_moment += np.einsum("ik,ik->k", ru, ru) / p.n
    tu = assemble_T(p.m, d) @ u
    lhs = np.sum((acc / p.n - joint(tu)) ** 2, axis=0)

    tt = np.einsum("ik,ik->k", tu, tu)
    rhs = (second_moment - tt) / p.n
    variance_bound = (np.einsum("ik,ik->k", u, tu) - tt) / p.n
    return [Lemma2Result(float(a), float(b), float(c))
            for a, b, c in zip(lhs, rhs, variance_bound)]
