"""Numerical laboratory for a tagged particle system exchanging momentum
with either a finite reservoir or an infinite Gaussian bath.

The package assembles the exact jump-process generators on truncated
Hermite spaces, evolves densities under both couplings, measures the
distance between the two flows, and checks it against a closed-form
bound built from a projector contraction constant, a spectral gap, and
the bath map's dispersion. A stochastic simulator provides an
independent particle-level cross-check of the same moments.
"""

from .bounds import (
    BoundCurve,
    BoundParams,
    ScalingRow,
    ScalingStudy,
    anisotropic_pair_data,
    bound_curve,
    bump_peak,
    estimate_l,
    lambda_rate,
    make_bound_params,
    scaling_study,
)
from .config import CONFIG_SCHEMA, RunConfig, config_from_dict, load_config
from .errors import (
    ConfigError,
    DegenerateBoundError,
    HorizonError,
    IntegrationError,
    KacbathError,
    NegativeWeightError,
    QuadratureError,
    StateError,
    ToleranceError,
    UnitVectorError,
)
from .evolution import (
    DistanceCurve,
    default_time_grid,
    distance_curve,
    evolve,
    long_time_limit,
)
from .hermite import Basis, HermiteCoeffs, evaluate_basis, make_basis
from .jump import (
    BlockObservable,
    EquilibriumInit,
    MomentRecord,
    PerturbationInit,
    RateTable,
    SimConfig,
    event_rates,
    hermite_observable,
    run_ensemble,
)
from .kinematics import (
    JointState,
    ModelParams,
    pair_collide,
    total_energy,
    total_momentum,
)
from .projector import (
    BoundConstant,
    Lemma1Estimate,
    estimate_lemma1_ratio,
    lemma1_constant,
)
from .randomness import GAMMA_SIGMA, RngStream
from .spectral import (
    Lemma2Result,
    OperatorMatrix,
    SpectralContext,
    assemble_T,
    assemble_generator,
    assemble_pair_rotation,
    invariant_projector,
    joint_basis,
    spectral_gap,
    symmetric_tensor_eigenvalues,
    verify_lemma2,
)

__version__ = "0.1.0"

__all__ = [
    "BoundConstant",
    "BoundCurve",
    "BoundParams",
    "Basis",
    "BlockObservable",
    "CONFIG_SCHEMA",
    "ConfigError",
    "DegenerateBoundError",
    "DistanceCurve",
    "EquilibriumInit",
    "GAMMA_SIGMA",
    "HermiteCoeffs",
    "HorizonError",
    "IntegrationError",
    "JointState",
    "KacbathError",
    "Lemma1Estimate",
    "Lemma2Result",
    "ModelParams",
    "MomentRecord",
    "NegativeWeightError",
    "OperatorMatrix",
    "PerturbationInit",
    "QuadratureError",
    "RateTable",
    "RngStream",
    "RunConfig",
    "ScalingRow",
    "ScalingStudy",
    "SimConfig",
    "SpectralContext",
    "StateError",
    "ToleranceError",
    "UnitVectorError",
    "anisotropic_pair_data",
    "assemble_T",
    "assemble_generator",
    "assemble_pair_rotation",
    "bound_curve",
    "bump_peak",
    "config_from_dict",
    "default_time_grid",
    "distance_curve",
    "estimate_l",
    "estimate_lemma1_ratio",
    "evaluate_basis",
    "event_rates",
    "evolve",
    "hermite_observable",
    "invariant_projector",
    "joint_basis",
    "lambda_rate",
    "lemma1_constant",
    "load_config",
    "long_time_limit",
    "make_basis",
    "make_bound_params",
    "pair_collide",
    "run_ensemble",
    "scaling_study",
    "spectral_gap",
    "symmetric_tensor_eigenvalues",
    "total_energy",
    "total_momentum",
    "verify_lemma2",
]
