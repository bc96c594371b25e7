"""Unit-quaternion helpers for attitude bookkeeping.

Hamilton convention, components ordered [w, x, y, z]. A state quaternion
q maps body vectors into the navigation frame: v_nav = R(q) @ v_body.
Body-rate integration composes on the right: q <- q * exp(w * dt).
"""

from __future__ import annotations

import math

import numpy as np

# Below this the cross product in quat_between counts as parallel.
_SMALL_ANGLE = 1e-8


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions (4,) or of stacks of them (n, 4)."""
    aw, ax, ay, az = np.asarray(a).T
    bw, bx, by, bz = np.asarray(b).T
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q) * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = math.sqrt(float(q @ q))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError(f"cannot normalize quaternion with norm {n}")
    return q / n


def quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    """Exact exponential map: rotation vector (axis * angle) to quaternion.

    ``phi`` is one vector of shape (3,) or a stack of shape (..., 3); the
    result has shape (4,) or (..., 4).
    """
    phi = np.asarray(phi, dtype=float)
    angle = np.hypot(np.hypot(phi[..., 0], phi[..., 1]), phi[..., 2])
    half = 0.5 * angle
    # k = sin(x/2)/x. Below about 1e-8 it rounds to the series value
    # 1/2 - x^2/48 = 1/2; at x = 0, phi is zero and any finite k will do,
    # so the divisor becomes 1 there instead of forming 0/0.
    k = np.sin(half) / (angle + (angle == 0.0))
    return np.concatenate((np.cos(half)[..., None], k[..., None] * phi), axis=-1)


def rotmat_from_quat(q: np.ndarray) -> np.ndarray:
    """Direction cosine matrix R(q), body to navigation: (3, 3) for one
    quaternion (4,), (n, 3, 3) for a stack (n, 4)."""
    w, x, y, z = np.asarray(q).T
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    rows = [
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def quat_between(v_from: np.ndarray, v_to: np.ndarray) -> np.ndarray:
    """Minimal rotation taking unit vector v_from onto unit vector v_to."""
    c = float(np.dot(v_from, v_to))
    axis = np.cross(v_from, v_to)
    s = float(np.linalg.norm(axis))
    if s < _SMALL_ANGLE:
        if c > 0.0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        # antiparallel: rotate half a turn about any axis normal to v_from
        helper = np.array([1.0, 0.0, 0.0])
        if abs(v_from[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = np.cross(v_from, helper)
        axis /= np.linalg.norm(axis)
        return np.array([0.0, *axis])
    angle = math.atan2(s, c)
    return quat_from_rotvec(axis / s * angle)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(a) @ b = a x b. ``v`` is one vector (3,)
    or a stack (..., 3); the result is (3, 3) or (..., 3, 3)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    o = np.zeros_like(x)
    return np.stack([np.stack(row, axis=-1) for row in
                     ((o, -z, y), (z, o, -x), (-y, x, o))], axis=-2)
