"""Reproducible random sources for the simulators and estimators.

Everything that draws randomness goes through an RngStream: a named
(seed, stream_id) pair backed by numpy's PCG64 via SeedSequence spawn
keys. Identical pairs reproduce identical draws on a given build, and
distinct stream ids give statistically independent streams, so blocks
of ensemble members can be distributed across workers without
coordination.

The background velocity distribution is the Gaussian with density
exp(-pi |x|^2), i.e. independent coordinates of variance 1/(2 pi).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA_SIGMA",
    "RngStream",
    "sample_gamma_vec3",
    "sample_unit_sphere",
    "haar_special_orthogonal",
    "sample_momentum_preserving_rotation",
]

# Standard deviation of each velocity coordinate under exp(-pi |x|^2).
GAMMA_SIGMA = 1.0 / np.sqrt(2.0 * np.pi)


class RngStream:
    """One independent, reproducible random stream.

    Streams with the same (seed, stream_id) produce identical draws;
    different stream_ids under one seed are independent.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self.rng = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_gamma_vec3(stream: RngStream, size: int | None = None) -> np.ndarray:
    """Velocities from the background Gaussian: (3,) or (size, 3)."""
    shape = 3 if size is None else (size, 3)
    return stream.rng.normal(0.0, GAMMA_SIGMA, shape)


def sample_unit_sphere(stream: RngStream, size: int | None = None) -> np.ndarray:
    """Uniform unit vectors in R^3 by normalizing Gaussian draws."""
    shape = (3,) if size is None else (size, 3)
    g = stream.rng.standard_normal(shape)
    norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
    # A zero draw has probability zero; resample defensively if it happens.
    while np.any(norm == 0.0):
        bad = (norm == 0.0).ravel()
        g[bad] = stream.rng.standard_normal((int(bad.sum()), 3))
        norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
    return np.squeeze(g / norm) if size is None else g / norm


def haar_special_orthogonal(k: int, stream: RngStream) -> np.ndarray:
    """Haar-distributed rotation from SO(k).

    QR of a Gaussian matrix with the R-diagonal sign fix gives Haar on
    O(k); a reflection with negative determinant is pushed into SO(k) by
    flipping one fixed column, which preserves Haar measure on the
    rotation component.
    """
    g = stream.rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sample_momentum_preserving_rotation(frame, stream: RngStream) -> np.ndarray:
    """Random rotation of the full phase space fixing total momentum.

    `frame` is a MomentumFrame (see projector module). The returned
    matrix O is in SO(3(M+N)), acts as the identity on the three
    momentum directions of the frame, and is Haar-uniform on the
    orthogonal complement. Energy |z|^2 and total momentum are both
    preserved, so O leaves the background Gaussian invariant.
    """
    d = frame.dim
    comp = frame.complement_slots
    q = haar_special_orthogonal(len(comp), stream)
    s = np.eye(d)
    s[np.ix_(comp, comp)] = q
    return frame.p @ s @ frame.p.T
