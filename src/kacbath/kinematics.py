"""States and elastic collision maps for the coupled particle model.

The model tracks M tagged particles (velocities v_1..v_M) and N reservoir
particles (w_1..w_N), each a point in R^3. All interactions are binary
energy-and-momentum-exchanging collisions along a unit direction omega:

    a' = a - ((a - b) . omega) omega
    b' = b + ((a - b) . omega) omega

which swap the omega-components of the pair and leave the orthogonal
components untouched. The same kernel serves tagged-tagged,
reservoir-reservoir, tagged-reservoir and tagged-thermostat collisions;
only the bookkeeping of who keeps their post-collision velocity differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StateError, UnitVectorError

__all__ = [
    "ModelParams",
    "JointState",
    "pair_collide",
    "total_energy",
    "total_momentum",
]

# Directions must be unit vectors to this tolerance; collisions refuse to
# renormalize silently since a skewed omega breaks energy conservation.
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Sizes and collision rates of the coupled system.

    lambda_s: rate of tagged-tagged collisions (inactive when m == 1)
    lambda_r: rate of reservoir-reservoir collisions
    mu: rate of tagged-reservoir (or tagged-thermostat) collisions
    """

    m: int
    n: int
    lambda_s: float = 1.0
    lambda_r: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise StateError(f"need at least one tagged particle, got m={self.m}")
        if self.n < 2:
            raise StateError(f"need at least two reservoir particles, got n={self.n}")
        for name in ("lambda_s", "lambda_r", "mu"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise StateError(f"{name} must be finite and >= 0, got {val}")


@dataclass
class JointState:
    """Velocities of the full system: v is (M, 3), w is (N, 3)."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.v.ndim != 2 or self.v.shape[1] != 3 or self.v.shape[0] < 1:
            raise StateError(f"v must be (M, 3) with M >= 1, got {self.v.shape}")
        if self.w.ndim != 2 or self.w.shape[1] != 3 or self.w.shape[0] < 1:
            raise StateError(f"w must be (N, 3) with N >= 1, got {self.w.shape}")
        if not (np.isfinite(self.v).all() and np.isfinite(self.w).all()):
            raise StateError("velocities must be finite")


def _check_unit(omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1] != 3:
        raise UnitVectorError(f"direction must have 3 components, got shape {omega.shape}")
    err = np.abs(np.sqrt(np.sum(omega * omega, axis=-1)) - 1.0)
    if np.any(err > UNIT_TOL):
        raise UnitVectorError(
            f"direction deviates from unit length by {float(np.max(err)):.3e} "
            f"(tolerance {UNIT_TOL:.0e})"
        )
    return omega


def pair_collide(a, b, omega):
    """Collide velocities a and b along unit direction omega.

    Accepts single vectors or broadcastable batches with trailing axis 3.
    Returns (a', b'). The map is an involution and conserves a + b and
    |a|^2 + |b|^2 exactly (up to roundoff).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    omega = _check_unit(omega)
    rel = np.sum((a - b) * omega, axis=-1, keepdims=True)
    return a - rel * omega, b + rel * omega


def total_energy(state: JointState) -> float:
    """Sum of |v_i|^2 + |w_j|^2 (particle masses are 1)."""
    return float(np.sum(state.v * state.v) + np.sum(state.w * state.w))


def total_momentum(state: JointState) -> np.ndarray:
    """Vector sum of all velocities, shape (3,)."""
    return np.asarray(state.v.sum(axis=0) + state.w.sum(axis=0))
