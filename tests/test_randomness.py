"""Seeded streams, background-Gaussian draws, sphere and rotation samplers."""

import numpy as np
import pytest

from kacbath.randomness import GAMMA_SIGMA, RngStream, sample_gamma_vec3, sample_unit_sphere
from rotation_oracle import (
    build_frame,
    haar_special_orthogonal,
    sample_momentum_preserving_rotation,
)


def test_gamma_sigma_value():
    # per-coordinate variance of exp(-pi |x|^2) is 1/(2 pi)
    assert GAMMA_SIGMA == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=0)


def test_streams_reproducible_and_independent():
    a1 = RngStream(42, 0).rng.standard_normal(8)
    a2 = RngStream(42, 0).rng.standard_normal(8)
    b = RngStream(42, 1).rng.standard_normal(8)
    c = RngStream(43, 0).rng.standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert np.max(np.abs(a1 - b)) > 1e-6
    assert np.max(np.abs(a1 - c)) > 1e-6


def test_gamma_moments():
    stream = RngStream(7, 0)
    x = sample_gamma_vec3(stream, 200_000)
    assert x.shape == (200_000, 3)
    assert abs(x.mean()) < 3e-3
    assert abs(x.var() - 1.0 / (2.0 * np.pi)) < 2e-3


def test_unit_sphere_isotropy():
    stream = RngStream(3, 0)
    om = sample_unit_sphere(stream, 100_000)
    np.testing.assert_allclose(np.linalg.norm(om, axis=1), 1.0, atol=1e-12)
    # E[omega omega^T] = I/3
    second = om[:, :, None] * om[:, None, :]
    np.testing.assert_allclose(second.mean(axis=0), np.eye(3) / 3.0, atol=5e-3)


def test_haar_rotation_is_special_orthogonal():
    for k in (3, 5, 8):
        q = haar_special_orthogonal(k, RngStream(1, k))
        np.testing.assert_allclose(q @ q.T, np.eye(k), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


def test_haar_rotation_invariance_spot_check():
    # distribution of a fixed row under Haar is uniform on the sphere:
    # compare second moments against I/k
    k = 4
    rows = np.array([
        haar_special_orthogonal(k, RngStream(99, i))[0] for i in range(20_000)
    ])
    second = (rows[:, :, None] * rows[:, None, :]).mean(axis=0)
    np.testing.assert_allclose(second, np.eye(k) / k, atol=6e-3)


def test_momentum_preserving_rotation_fixes_mean_directions():
    frame = build_frame(2, 3)
    rot = sample_momentum_preserving_rotation(frame, RngStream(5, 0))
    dim = frame.dim
    np.testing.assert_allclose(rot @ rot.T, np.eye(dim), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    for g in frame.g.T:
        np.testing.assert_allclose(rot @ g, g, atol=1e-12)
    # a generic state keeps its total momentum and its energy
    z = RngStream(5, 1).rng.normal(0.0, GAMMA_SIGMA, dim)
    zr = rot @ z
    assert np.linalg.norm(zr) == pytest.approx(np.linalg.norm(z), rel=1e-12)
    sums = z.reshape(-1, 3).sum(axis=0)
    sums_r = zr.reshape(-1, 3).sum(axis=0)
    np.testing.assert_allclose(sums_r, sums, atol=1e-10)
