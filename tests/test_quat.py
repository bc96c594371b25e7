"""Quaternion helpers against the Rodrigues formula and closed forms."""

import math

import numpy as np
import pytest

from zvnav.quat import (
    quat_between,
    quat_conj,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    rotmat_from_quat,
    rotvec_from_quat,
    skew,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def rodrigues(phi):
    """Independent rotation-matrix oracle."""
    theta = np.linalg.norm(phi)
    if theta == 0.0:
        return np.eye(3)
    u = phi / theta
    K = skew(u)
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


def test_quarter_turn_about_z():
    q = quat_from_rotvec(np.array([0.0, 0.0, math.pi / 2]))
    R = rotmat_from_quat(q)
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(R @ [0, 1, 0], [-1, 0, 0], atol=1e-12)


def test_rotmat_matches_rodrigues():
    rng = np.random.default_rng(21)
    for _ in range(200):
        phi = rng.uniform(-math.pi, math.pi, 3) * rng.uniform(0, 1)
        np.testing.assert_allclose(
            rotmat_from_quat(quat_from_rotvec(phi)), rodrigues(phi), atol=1e-12
        )


def test_rotmat_is_special_orthogonal():
    rng = np.random.default_rng(22)
    for _ in range(50):
        q = quat_normalize(rng.standard_normal(4))
        R = rotmat_from_quat(q)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_rotvec_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-12, math.pi - 1e-6)
        phi = axis * angle
        back = rotvec_from_quat(quat_from_rotvec(phi))
        np.testing.assert_allclose(back, phi, rtol=1e-9, atol=1e-12)


def test_rotvec_small_angle_series():
    phi = np.array([1e-10, -2e-10, 0.5e-10])
    q = quat_from_rotvec(phi)
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(rotvec_from_quat(q), phi, rtol=1e-6, atol=1e-20)


def test_mul_identity_and_inverse():
    rng = np.random.default_rng(24)
    q = quat_normalize(rng.standard_normal(4))
    np.testing.assert_allclose(quat_mul(q, IDENTITY), q, atol=1e-15)
    np.testing.assert_allclose(quat_mul(IDENTITY, q), q, atol=1e-15)
    np.testing.assert_allclose(quat_mul(q, quat_conj(q)), IDENTITY, atol=1e-12)


def test_mul_composes_rotations():
    rng = np.random.default_rng(25)
    for _ in range(50):
        q1 = quat_normalize(rng.standard_normal(4))
        q2 = quat_normalize(rng.standard_normal(4))
        left = rotmat_from_quat(quat_mul(q1, q2))
        right = rotmat_from_quat(q1) @ rotmat_from_quat(q2)
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_normalize_rejects_degenerate():
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))


class TestQuatBetween:
    def test_random_pairs(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            R = rotmat_from_quat(quat_between(a, b))
            np.testing.assert_allclose(R @ a, b, atol=1e-12)

    def test_parallel(self):
        v = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(quat_between(v, v), IDENTITY, atol=1e-15)

    def test_antiparallel(self):
        for v in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
            v = np.asarray(v)
            R = rotmat_from_quat(quat_between(v, -v))
            np.testing.assert_allclose(R @ v, -v, atol=1e-12)


def test_skew_is_cross_product():
    rng = np.random.default_rng(27)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)
    # a (4, 2, 3) stack gives each vector's own matrix
    a, b = rng.standard_normal((2, 4, 2, 3))
    K = skew(a)
    assert K.shape == (4, 2, 3, 3)
    for i in np.ndindex(4, 2):
        assert np.array_equal(K[i], skew(a[i]))
    np.testing.assert_allclose((K @ b[..., None])[..., 0], np.cross(a, b), atol=1e-15)
