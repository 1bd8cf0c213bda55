"""Gauss-Hermite x sphere quadrature of the collision-average blocks at
refined rules, and the pair average by direct six-variable quadrature.

The package builds every block with its symmetric-power kernel and
checks it against the base-rule quadrature (`spectral._mix_block_2var`,
`spectral._reflection_avg_block`, `spectral._thermostat_block_quadrature`).
The refined rules here raise every Gauss-Hermite and sphere order by
EXTRA, and `pair_block_direct` integrates the six-variable collision
itself at the base rule rather than composing mix o refl o mix. Tests
compare the kernel blocks with them. Cost grows as (d + 1 + EXTRA)^nvars
grid points per sphere node, and (d + 1)^6 for the direct route.
"""

import numpy as np

from kacbath.hermite import make_basis, sphere_rule
from kacbath.spectral import _MIX, _averaged_gram, _gauss_grid

EXTRA = 2


def _refined_sphere(d: int):
    # sphere_rule(2k) has k + 1 Gauss-Legendre nodes in cos(theta)
    return sphere_rule(2 * (d + EXTRA))


def mix_block(d: int) -> np.ndarray:
    pts, w = _gauss_grid(2, d + 1 + EXTRA)
    return _averaged_gram(make_basis(2, d), pts, w, [(1.0, pts @ _MIX.T)])


def reflection_block(d: int) -> np.ndarray:
    pts, w = _gauss_grid(3, d + 1 + EXTRA)
    omegas, ow = _refined_sphere(d)
    maps = ((sw, pts - 2.0 * (pts @ om)[:, None] * om[None, :])
            for om, sw in zip(omegas, ow))
    return _averaged_gram(make_basis(3, d), pts, w, maps)


def thermostat_block(d: int) -> np.ndarray:
    pts, w = _gauss_grid(4, d + 1 + EXTRA)
    v, s = pts[:, :3], pts[:, 3]
    omegas, ow = _refined_sphere(d)
    maps = ((sw, v + (s - v @ om)[:, None] * om[None, :])
            for om, sw in zip(omegas, ow))
    return _averaged_gram(make_basis(3, d), pts, w, maps)


def pair_block_direct(d: int) -> np.ndarray:
    """Six-variable collision average by direct product quadrature."""
    pts, w = _gauss_grid(6, d + 1)
    a, b = pts[:, :3], pts[:, 3:]

    def collided(om):
        rel = ((a - b) @ om)[:, None] * om[None, :]
        return np.concatenate([a - rel, b + rel], axis=1)

    omegas, ow = sphere_rule(2 * d)
    maps = ((sw, collided(om)) for om, sw in zip(omegas, ow))
    return _averaged_gram(make_basis(6, d), pts, w, maps)
