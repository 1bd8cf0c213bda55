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
from numpy.random import PCG64, Generator, SeedSequence

__all__ = [
    "GAMMA_SIGMA",
    "RngStream",
    "sample_gamma_vec3",
    "sample_unit_sphere",
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
        seq = SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self.rng = Generator(PCG64(seq))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_gamma_vec3(stream: RngStream, size: int) -> np.ndarray:
    """`size` velocities from the background Gaussian, (size, 3)."""
    return stream.rng.normal(0.0, GAMMA_SIGMA, (size, 3))


def sample_unit_sphere(stream: RngStream, size: int) -> np.ndarray:
    """`size` uniform unit vectors in R^3, (size, 3), by normalizing
    Gaussian draws."""
    g = stream.rng.standard_normal((size, 3))
    norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
    # A zero draw has probability zero; resample defensively if it happens.
    while np.any(norm == 0.0):
        bad = (norm == 0.0).ravel()
        g[bad] = stream.rng.standard_normal((int(bad.sum()), 3))
        norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
    return g / norm

