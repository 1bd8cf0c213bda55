"""Gauss-Hermite x sphere quadrature of the collision-average blocks, at
the base rule and at refined rules, and the pair average by direct
six-variable quadrature.

The package builds every block with its symmetric-power kernel, which
needs only a sphere rule, and checks it against the exact sphere-moment
route. The routes here integrate the collision in x as well: a product
Gauss-Hermite grid in x (and in the background component s for the
thermostat) times a sphere rule in omega. At the base rule (extra = 0)
the grid has d + 1 points per variable and the sphere rule degree 2d,
exact for every block entry; `extra` raises both orders. Tests compare
the kernel blocks with them. `pair_block_direct` integrates the
six-variable collision itself at the base rule rather than composing
mix o refl o mix. Cost grows as (d + 1 + extra)^nvars grid points per
sphere node, and (d + 1)^6 for the direct route.
"""

import itertools

import numpy as np
from numpy.polynomial.hermite import hermgauss

from kacbath.hermite import Basis, evaluate_basis, make_basis, sphere_rule

EXTRA = 2

# the per-coordinate center-of-mass rotation
MIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def gauss_hermite_gamma(npoints: int):
    """Nodes/weights for int f(x) exp(-pi x^2) dx; weights sum to 1.

    Exact for polynomials of degree <= 2*npoints - 1.
    """
    y, w = hermgauss(npoints)
    return y / np.sqrt(np.pi), w / np.sqrt(np.pi)


def gauss_grid(nvars: int, npoints: int):
    """Product Gauss-Hermite rule on nvars variables: points (npoints**nvars,
    nvars), first variable slowest, and their weights."""
    nodes, wts = gauss_hermite_gamma(npoints)
    idx = np.array(list(itertools.product(range(npoints), repeat=nvars)))
    return nodes[idx], np.prod(wts[idx], axis=1)


def averaged_gram(basis: Basis, pts: np.ndarray, w: np.ndarray, maps) -> np.ndarray:
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


def mix_block(d: int, extra: int = EXTRA) -> np.ndarray:
    """h -> h((x+y)/sqrt2, (x-y)/sqrt2) on 2 variables."""
    pts, w = gauss_grid(2, d + 1 + extra)
    return averaged_gram(make_basis(2, d), pts, w, [(1.0, pts @ MIX.T)])


def reflection_block(d: int, extra: int = EXTRA) -> np.ndarray:
    """The average over omega of h -> h(r - 2 (r . omega) omega)."""
    pts, w = gauss_grid(3, d + 1 + extra)
    omegas, ow = sphere_rule(2 * (d + extra))
    maps = ((sw, pts - 2.0 * (pts @ om)[:, None] * om[None, :])
            for om, sw in zip(omegas, ow))
    return averaged_gram(make_basis(3, d), pts, w, maps)


def thermostat_block(d: int, extra: int = EXTRA) -> np.ndarray:
    """The thermostat collision v -> v + (s - v.omega) omega in (v, s), s the
    background particle's Gaussian component along omega."""
    pts, w = gauss_grid(4, d + 1 + extra)
    v, s = pts[:, :3], pts[:, 3]
    omegas, ow = sphere_rule(2 * (d + extra))
    maps = ((sw, v + (s - v @ om)[:, None] * om[None, :])
            for om, sw in zip(omegas, ow))
    return averaged_gram(make_basis(3, d), pts, w, maps)


def pair_block_direct(d: int) -> np.ndarray:
    """Six-variable collision average by direct product quadrature."""
    pts, w = gauss_grid(6, d + 1)
    a, b = pts[:, :3], pts[:, 3:]

    def collided(om):
        rel = ((a - b) @ om)[:, None] * om[None, :]
        return np.concatenate([a - rel, b + rel], axis=1)

    omegas, ow = sphere_rule(2 * d)
    maps = ((sw, collided(om)) for om, sw in zip(omegas, ow))
    return averaged_gram(make_basis(6, d), pts, w, maps)
