"""Numerical laboratory for a tagged particle system exchanging momentum
with either a finite reservoir or an infinite Gaussian bath.

The package assembles the exact jump-process generators on truncated
Hermite spaces, evolves densities under both couplings, measures the
distance between the two flows, and checks it against a closed-form
bound built from a projector contraction constant, a spectral gap, and
the bath map's dispersion. A stochastic simulator provides an
independent particle-level cross-check of the same moments.

The package namespace holds the names the README's examples import;
everything else is imported from its module (kacbath.spectral,
kacbath.evolution, kacbath.jump, ...).
"""

from .bounds import anisotropic_pair_data, bound_curve, measured_bound_params
from .evolution import default_time_grid, distance_curve
from .jump import BlockObservable, EquilibriumInit, SimConfig, run_ensemble
from .kinematics import ModelParams
from .spectral import SpectralContext

__version__ = "0.1.0"

__all__ = [
    "BlockObservable",
    "EquilibriumInit",
    "ModelParams",
    "SimConfig",
    "SpectralContext",
    "anisotropic_pair_data",
    "bound_curve",
    "default_time_grid",
    "distance_curve",
    "measured_bound_params",
    "run_ensemble",
]
