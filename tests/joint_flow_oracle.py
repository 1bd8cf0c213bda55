"""The distance curve on the joint Hermite basis, kept as an oracle for
the reservoir-symmetric sector route.

The package evolves both flows on the sector (`evolution.distance_curve`).
The route here assembles both generators on the joint basis of all
3(M + N) velocity components, embeds the tagged data with the reservoir
factor constant, evolves each flow with `evolve` (Krylov, with its dense
eigendecomposition cross-check) and takes the norm of the difference. The joint basis grows
like N^d, so this fits small N only. Tests compare the two.
"""

import numpy as np

from kacbath.evolution import evolve
from kacbath.hermite import HermiteCoeffs
from kacbath.kinematics import ModelParams
from kacbath.spectral import assemble_generator


def distance_curves(p: ModelParams, d: int, h0s: list[HermiteCoeffs],
                    times) -> list[np.ndarray]:
    """||h_t - h~_t|| at `times` for each tagged datum of `h0s`, from the
    two joint generators of (p, d), each assembled once."""
    gens = [assemble_generator(kind, p, d) for kind in ("reservoir", "thermostat")]
    big = gens[0].basis
    curves = []
    for h0 in h0s:
        c0 = h0.embed(big, np.arange(3 * p.m))
        res, bath = (evolve(g, c0, times) for g in gens)
        curves.append(np.array([np.linalg.norm(a.vec - b.vec) for a, b in zip(res, bath)]))
    return curves
