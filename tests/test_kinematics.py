"""Collision kinematics: frozen examples, conservation, involution."""

import numpy as np
import pytest

from kacbath import ModelParams
from kacbath.errors import StateError, UnitVectorError
from kacbath.kinematics import JointState, pair_collide, total_energy, total_momentum

RT2 = 1.0 / np.sqrt(2.0)


def test_pair_collide_frozen_example():
    a = np.array([2.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    omega = np.array([RT2, RT2, 0.0])
    astar, bstar = pair_collide(a, b, omega)
    # transferred component: ((a-b).omega) omega = (1/sqrt2)(1,1,0)/sqrt2
    np.testing.assert_allclose(astar, [1.5, -0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(bstar, [0.5, 1.5, 0.0], atol=1e-15)


def test_pair_collide_axis_aligned():
    a = np.array([1.0, 2.0, 0.0])
    b = np.zeros(3)
    astar, bstar = pair_collide(a, b, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(astar, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(bstar, [0.0, 2.0, 0.0], atol=1e-15)


def test_pair_collide_rejects_non_unit_direction():
    with pytest.raises(UnitVectorError):
        pair_collide(np.ones(3), np.zeros(3), np.array([1.0, 1.0, 0.0]))


def test_batched_collisions_conserve_and_invert():
    rng = np.random.default_rng(2024)
    count = 1000
    a = rng.normal(size=(count, 3))
    b = rng.normal(size=(count, 3))
    om = rng.normal(size=(count, 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)

    astar, bstar = pair_collide(a, b, om)
    e0 = np.sum(a * a, axis=1) + np.sum(b * b, axis=1)
    e1 = np.sum(astar * astar, axis=1) + np.sum(bstar * bstar, axis=1)
    assert np.max(np.abs(e1 - e0) / e0) < 1e-12
    np.testing.assert_allclose(astar + bstar, a + b, atol=1e-12)

    aback, bback = pair_collide(astar, bstar, om)
    assert np.max(np.abs(aback - a)) < 1e-12
    assert np.max(np.abs(bback - b)) < 1e-12


def test_relative_velocity_component_swaps():
    # the omega-component of a-b flips sign; the orthogonal part is untouched
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=3), rng.normal(size=3)
    om = rng.normal(size=3)
    om /= np.linalg.norm(om)
    astar, bstar = pair_collide(a, b, om)
    rel0, rel1 = a - b, astar - bstar
    assert abs(np.dot(rel1, om) + np.dot(rel0, om)) < 1e-14
    perp0 = rel0 - np.dot(rel0, om) * om
    perp1 = rel1 - np.dot(rel1, om) * om
    np.testing.assert_allclose(perp0, perp1, atol=1e-14)


def test_joint_state_shape_checks():
    with pytest.raises(StateError):
        JointState(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(StateError):
        JointState(np.zeros((0, 3)), np.zeros((3, 3)))
    s = JointState(np.ones((2, 3)), np.zeros((3, 3), dtype=int))
    assert s.v.shape == (2, 3) and s.w.shape == (3, 3)
    assert s.w.dtype == float


def test_totals():
    s = JointState(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 2.0, 0.0]]))
    assert total_energy(s) == pytest.approx(5.0, abs=0)
    np.testing.assert_allclose(total_momentum(s), [1.0, 2.0, 0.0])


def test_model_params_validation():
    p = ModelParams(2, 4)
    assert p.lambda_s == 1.0 and p.mu == 1.0
    with pytest.raises(StateError):
        ModelParams(0, 4)
    with pytest.raises(StateError):
        ModelParams(1, 0)
    with pytest.raises(StateError):
        ModelParams(1, 2, mu=-0.5)
