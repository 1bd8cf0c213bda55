"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""


class KacbathError(Exception):
    """Base class for all package errors."""


class ConfigError(KacbathError):
    """Invalid run configuration (schema violation, inconsistent sizes)."""


class UnitVectorError(KacbathError):
    """A direction argument was not a unit vector to tolerance."""


class StateError(KacbathError):
    """A particle state violates its contract (shape, finiteness)."""


class ToleranceError(KacbathError):
    """A numerical self-check failed beyond its allowed tolerance."""


class QuadratureError(ToleranceError):
    """A collision-average block built by sphere quadrature (the kernel)
    and its exact sphere-moment cross-check disagree beyond tolerance."""


class IntegrationError(ToleranceError):
    """The Krylov and dense-eigendecomposition routes of evolve disagree."""


class DegenerateBoundError(KacbathError):
    """Bound constants are degenerate (k too close to mu/3); use the
    limiting form mu * l * t * exp(-mu t / 3) instead."""


class NegativeWeightError(KacbathError):
    """An initial perturbation is large enough to make the sampling
    density negative somewhere; reduce epsilon."""
