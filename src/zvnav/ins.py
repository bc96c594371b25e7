"""Strapdown mechanization with a 9-state error filter and zero-velocity updates.

The nominal state is position, velocity, and a body-to-navigation
quaternion; the filter tracks the covariance of the error state
[dp, dv, dpsi] (m, m/s, rad) with the attitude error defined
multiplicatively on the left: R_true = (I + skew(dpsi)) @ R_hat.

Navigation frame: z up, gravity g_vec = (0, 0, -gravity_mag). The
accelerometer measures specific force in the body frame,
a_meas = R^T (a_true - g_vec), so at rest R @ a_meas + g_vec = 0.

One loop drives the filter: propagate on every sample interval, and
apply a zero-velocity update where the causal detector window ending at
the current sample scores above the adaptive threshold. Where a lane
decides depends on what its threshold needs: a c3 = 0 lane needs only
the statistic and t, so it decides before the loop; a c3 != 0 lane needs
the filter's speed evidence xi, so it decides in the loop, on Python
floats. The threshold trace is built once, after the loop, from the
decisions applied. Every lane starts at rest (p = v = 0) from the
attitude levelled from its recording's first second. The loop steps an
(R recordings x C configs) grid of lanes at once for the longest
recording's n steps; a shorter recording takes no-op steps past its end,
as costly as real ones (a 30 s plus a 5 s walk: +18% over ending the 5 s
lanes early). run_recordings is the general call (one per sweep),
run_pipeline its one-recording, one-lane case.

A step splits into its input-only factors, built _BLOCK = 64 steps per
numpy call (_step_inputs), and the state-dependent rest (_propagate); the
split keeps every float operation, so it moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

try:
    # np.linalg.inv's own LAPACK gufunc, without its wrapper: the same S^-1 bit
    # for bit. CI pins numpy 2.4.6, and the golden digests would catch a change.
    from numpy.linalg._umath_linalg import inv as _inv
except ImportError:  # a numpy that moved its private module: the wrapper
    _inv = np.linalg.inv

from .core import NoiseModel, Recording, validate_stream
from .detectors import get_detector
from .errors import ConfigError, NumericalError, StreamFormatError
from .quat import quat_between, quat_conj, quat_from_rotvec, quat_mul, quat_normalize
from .quat import rotmat_from_quat, skew
from .threshold import ThresholdParams, log_threshold, log_threshold_lane

_E_Z = np.array([0.0, 0.0, 1.0])

# Default 1-sigma of the initial error state: 1 mm, 1 mm/s, 1 mrad.
DEFAULT_INIT_STD = (1e-3, 1e-3, 1e-3)

# Leading span of a stream, in seconds, that align_from_standstill levels from.
ALIGN_SPAN_S = 1.0

# Above this 1-norm condition estimate of the velocity covariance the
# speed evidence is unreliable; callers fall back to the uninformative prior.
XI_COND_BOUND = 1e12


def process_noise(noise: NoiseModel, t: np.ndarray) -> tuple[float, float]:
    """The white-noise densities (accel_psd, gyro_psd) driving the error
    state: the model's own when it sets them, else sigma_a and sigma_w over
    the square root of the median sample rate of ``t``. A sigma whose density
    at that rate has no finite positive square is a configuration error
    naming the sigma and the rate."""
    if noise.accel_psd is not None:
        return noise.accel_psd, noise.gyro_psd
    rate = 1.0 / float(np.median(np.diff(t)))
    root = math.sqrt(rate)
    for name, sigma in (("sigma_a", noise.sigma_a), ("sigma_w", noise.sigma_w)):
        density = sigma / root
        if not (density > 0.0 and math.isfinite(density * density)):
            raise ConfigError(
                f"{name}={sigma!r} at the median sample rate {rate:.6g} Hz gives a "
                f"process noise density {density!r} without a finite positive square"
            )
    return noise.sigma_a / root, noise.sigma_w / root


def default_initial_covariance() -> np.ndarray:
    """9x9 covariance of the initial error state [dp, dv, dpsi]."""
    stds = np.repeat(np.asarray(DEFAULT_INIT_STD, dtype=float), 3)
    return np.diag(stds**2)


def align_from_standstill(rec: Recording) -> np.ndarray:
    """The unit attitude quaternion (4,) levelled from the first ALIGN_SPAN_S
    of the recording, taken as standstill: gravity fixes roll and pitch,
    heading starts at zero (minimal rotation onto the vertical)."""
    mean = rec.accel[rec.t <= rec.t[0] + ALIGN_SPAN_S].mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm <= 0.0 or not math.isfinite(norm):
        raise NumericalError("cannot align: mean accelerometer vector is degenerate")
    return quat_normalize(quat_between(mean / norm, _E_Z))


# Constant operators of the step, built from quat_mul and skew so each
# formula exists once (e_a are the basis quaternions):
# - q * b = q @ (_QMUL @ b) and a * q = (a @ _QMUL_L).reshape(4, 4) @ q;
# - R(q) = sum_ab q_a q_b _ROT[4a + b], from R(q) v = vec(q * (0, v) * q^-1),
#   diagonal in the homogeneous form w^2 + x^2 - y^2 - z^2 (|q| = 1);
# - F = I + dt * (_F_DT + f_nav @ _F_SKEW): dt I in the (dp, dv) block and
#   -dt skew(f_nav) in the (dv, dpsi) block.
_E4 = np.eye(4)
_QMUL = np.array([[quat_mul(a, b) for b in _E4] for a in _E4]).transpose(0, 2, 1)
_ROT = np.array([[[quat_mul(quat_mul(a, e), quat_conj(b))[1:] for e in _E4[1:]]
                  for b in _E4] for a in _E4]).transpose(0, 1, 3, 2).reshape(16, 3, 3)
# the same operators laid out for stacks: for b of shape (R, 4),
# (b @ _QMUL_B).reshape(R, 4, 4) is _QMUL @ b per row, and for a of shape
# (R, 3), (a @ _ROT_A).reshape(R, 16, 3) is _ROT @ a per row
_QMUL_B = np.ascontiguousarray(_QMUL.reshape(16, 4).T)
_QMUL_L = _QMUL.reshape(4, 16)
_ROT_A = np.ascontiguousarray(_ROT.transpose(2, 0, 1).reshape(3, 48))
_F_DT = np.zeros((9, 9))
_F_DT[0:3, 3:6] = np.eye(3)
_F_SKEW = np.zeros((3, 9, 9))
_F_SKEW[:, 3:6, 6:9] = [-skew(e) for e in np.eye(3)]
_F_SKEW = _F_SKEW.reshape(3, 81)
_EYE3, _EYE9 = np.eye(3), np.eye(9)
_BLOCK = 64  # steps per _step_inputs block, 1.8 kB per step and recording


def _unit(q):
    return q / np.sqrt(np.vecdot(q, q)[..., None])


def _process_rate(psd: tuple[float, float]) -> np.ndarray:
    """Covariance growth per second of [dp, dv, dpsi] (diagonal) from the
    densities (accel_psd, gyro_psd)."""
    accel_psd, gyro_psd = psd
    return np.diag(np.repeat([0.0, accel_psd**2, gyro_psd**2], 3))


def _step_inputs(accel, dq, dt, q_rate):
    """The state-free factors of m _propagate steps on R recordings, built
    _BLOCK steps at a time so that they take O(_BLOCK) memory, not O(m).
    From the specific force accel (m, R, 3), gyro increment dq = exp(gyro *
    dt) (m, R, 4), dt (m, R) and covariance growth rate q_rate (R, 1, 9, 9),
    yields per step accel @ _ROT_A, dq @ _QMUL_B, dt, I + dt _F_DT, dt q_rate."""
    for k in range(0, len(dt), _BLOCK):
        d = dt[k:k + _BLOCK, :, None, None, None]
        yield from zip((accel[k:k + _BLOCK] @ _ROT_A).reshape(d.shape[:2] + (16, 3)),
                       (dq[k:k + _BLOCK] @ _QMUL_B).reshape(d.shape[:2] + (4, 4)),
                       d[..., 0], _EYE9 + d * _F_DT, d * q_rate)


def _propagate(p, v, q, P, step, g_vec):
    """One mechanization and covariance step for C lanes on each of R
    recordings: p, v (R, C, 3), q (R, C, 4), P (R, C, 9, 9), and ``step``
    the _step_inputs factors that its C lanes share. Velocity uses the
    pre-step attitude, position the post-step velocity. F adds dt [f_nav]x
    to the factor I + dt _F_DT; their supports are disjoint, so F is exactly
    I + dt (_F_DT + [f_nav]x). Returns new arrays."""
    rot, qmul, dt, F, noise = step
    qq = (q[..., :, None] * q[..., None, :]).reshape(*q.shape[:2], 16)
    f_nav = qq @ rot
    v = v + (f_nav + g_vec) * dt
    p = p + v * dt
    q = _unit(q @ qmul)
    F = F + dt[..., None] * (f_nav @ _F_SKEW).reshape(P.shape)
    P = F @ P @ F.mT + noise
    return p, v, q, 0.5 * (P + P.mT)


def _zupt(p, v, q, P, r_var):
    """Zero-velocity update (z = 0 - v_hat, H = [0 I 0], noise r_var) for a
    stack of lanes of any leading shape; the error folds into the nominal
    state, attitude by left-multiplying its small-angle quaternion. P is
    symmetric, so K^T = S^-1 H P, and the Joseph form (I - K H) P (I - K H)^T
    + r K K^T is built from the velocity rows HP and columns: A = P - K HP,
    then A - (A H^T) K^T + r K K^T. A singular S raises at any errstate."""
    HP = P[..., 3:6, :]
    S = HP[..., 3:6] + r_var * _EYE3
    try:
        with np.errstate(all="ignore", invalid="raise"):
            S_inv = _inv(S)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:  # the gufunc, the wrapper
        raise NumericalError(
            f"innovation covariance not invertible: {S.tolist()}"
        ) from exc
    Kt = S_inv @ HP
    if not np.isfinite(Kt).all():
        raise NumericalError(f"innovation covariance ill-formed: {S.tolist()}")
    K = Kt.mT
    dx = (-v[..., None, :] @ Kt)[..., 0, :]
    left = (quat_from_rotvec(dx[..., 6:9]) @ _QMUL_L).reshape(q.shape + (4,))
    q = _unit((left @ q[..., None])[..., 0])
    A = P - K @ HP
    P = A - A[..., 3:6] @ Kt + r_var * (K @ Kt)
    return p + dx[..., 0:3], v + dx[..., 3:6], q, 0.5 * (P + P.mT)


def _coast(p, v, q, P, G, fb, dt, g_vec, q_rate):
    """The m = len(dt) _propagate steps of one lane with no update between,
    in closed form (equal to rounding). p, v (3,), q (4,), P (9, 9) is the
    state before them, G (m + 1, 4) the prefix attitude before and at each
    step and fb (m, 3) the specific force in it (_coast_inputs): q_k = L G_k
    with L = q G_0^-1. As F_j = I + dt_j A_j with A_i A_j A_l = 0, steps 1..k
    take [[I, T_k I, -[M]x], [0, I, -[N_k]x], [0, 0, I]], with T_k = sum dt_j,
    N_k = sum dt_j f_j, M = sum dt_j (T_k - T_j) f_j over j <= k. Returns the
    end state and, per step, v and P_vv, whose noise part sum_j dt_j (q_a I
    + q_g [N_k - N_j]x [N_k - N_j]x^T) comes from prefix sums of dt N, dt NN^T."""
    L = quat_mul(q, quat_conj(G[0]))
    f = fb @ rotmat_from_quat(L).T
    dt1 = dt[:, None]
    vs = np.cumsum(np.vstack([v, (f + g_vec) * dt1]), axis=0)[1:]
    p = np.cumsum(np.vstack([p, vs * dt1]), axis=0)[-1]
    q = _unit(quat_mul(L, G[-1]))
    T = np.cumsum(dt)
    N = np.cumsum(f * dt1, axis=0)
    Nx = skew(N)
    Pvv = P[3:6, 3:6] + P[3:6, 6:9] @ Nx - Nx @ P[6:9, 3:6] - Nx @ P[6:9, 6:9] @ Nx
    NN = N[:, :, None] * N[:, None, :]
    NS1 = N[:, :, None] * np.cumsum(N * dt1, axis=0)[:, None, :]
    W = T[:, None, None] * NN - NS1 - NS1.swapaxes(1, 2) + np.cumsum(NN * dt[:, None, None], 0)
    q_a, q_g = q_rate[3, 3], q_rate[6, 6]
    Pvv += (q_a * T + q_g * np.trace(W, axis1=1, axis2=2))[:, None, None] * _EYE3 - q_g * W
    # End: Phi P Phi^T + sum_j dt_j B_j Q B_j^T, B_j = [[tau_j I, -[M_j]x], [I,
    # -[N_m - N_j]x], [0, I]] the (dv, dpsi) columns of the steps after j = 0..m.
    tau = T[-1] - np.r_[0.0, T]
    c = (dt * tau[1:])[:, None] * f
    B = np.zeros((len(tau), 9, 6))
    B[:, 0:3, 0:3] = tau[:, None, None] * _EYE3
    B[:, 3:6, 0:3] = B[:, 6:9, 3:6] = _EYE3
    B[:, 0:3, 3:6] = -skew(c.sum(axis=0) - np.cumsum(np.vstack([np.zeros(3), c]), axis=0))
    B[:, 3:6, 3:6] = -skew(N[-1] - np.vstack([np.zeros(3), N]))
    Phi = np.hstack([_EYE9[:, :3], B[0]])
    noise = B[1:] * (dt1 * np.repeat([q_a, q_g], 3))[:, None, :]
    P = Phi @ P @ Phi.T + np.tensordot(noise, B[1:], axes=([0, 2], [0, 2]))
    return p, vs[-1], q, 0.5 * (P + P.T), vs, Pvv


def _xi_terms(S, v, maximum):
    """The speed evidence xi = v^T S^-1 v, elementwise over S (3 rows of 3)
    and v (3) as floats (``maximum`` = max) or arrays (np.maximum folded; the
    two differ only on NaN, which fails the rule). Returns xi clipped at 0
    and whether it stands: not where det S <= 0, the 1-norm condition
    estimate exceeds XI_COND_BOUND or a value is not finite."""
    (a, s01, s02), (s10, d, s12), (s20, s21, f) = S
    b = 0.5 * (s01 + s10)
    c = 0.5 * (s02 + s20)
    e = 0.5 * (s12 + s21)
    A = d * f - e * e
    B = c * e - b * f
    C = b * e - c * d
    det = a * A + b * B + c * C
    D = a * f - c * c
    E = b * c - a * e
    G = a * d - b * b
    # the inverse is symmetric: its six distinct entries
    i00, i01, i02, i11, i12, i22 = A / det, B / det, C / det, D / det, E / det, G / det
    norm_s = maximum(abs(a) + abs(b) + abs(c), abs(b) + abs(d) + abs(e),
                     abs(c) + abs(e) + abs(f))
    norm_inv = maximum(abs(i00) + abs(i01) + abs(i02), abs(i01) + abs(i11) + abs(i12),
                       abs(i02) + abs(i12) + abs(i22))
    v0, v1, v2 = v
    x0 = i00 * v0 + i01 * v1 + i02 * v2
    x1 = i01 * v0 + i11 * v1 + i12 * v2
    x2 = i02 * v0 + i12 * v1 + i22 * v2
    value = v0 * x0 + v1 * x1 + v2 * x2
    ok = (det > 0.0) & (det * 0.0 == 0.0) & (value * 0.0 == 0.0) \
        & (norm_s * norm_inv <= XI_COND_BOUND)  # x * 0 == 0 exactly when x is finite
    return maximum(value, 0.0), ok  # clip roundoff just below zero


def _xi(S, v):
    """_xi_terms of one lane, S nested lists and v a list (plain floats are
    cheap per sample); NaN where it does not stand, and callers then drop
    the speed term (uninformative prior fallback)."""
    try:
        value, ok = _xi_terms(S, v, max)
    except ZeroDivisionError:  # det S == 0
        return math.nan
    return value if ok else math.nan


def _xi_stack(S, v):
    """_xi over a stack: S (K, 3, 3), v (K, 3); NaN marks the fallback."""
    with np.errstate(all="ignore"):
        value, ok = _xi_terms(S.transpose(1, 2, 0), v.T, lambda *xs: reduce(np.maximum, xs))
    return np.where(ok, value, np.nan)


class _LaneTraces(NamedTuple):
    trajectory: np.ndarray  # (n, L, 3), NaN past the end of a lane's recording
    decisions: np.ndarray  # (n, L), True where the lane applied an update
    log_gamma: np.ndarray  # (n, L), NaN where no threshold was formed
    q: np.ndarray  # (L, 4) final attitude
    P: np.ndarray  # (L, 9, 9) final covariance


def _filter_lanes(t, accel, gyro, q0, cov0, noise, psd, first_window, *,
                  lanes, logl) -> _LaneTraces:
    """The filter loop: C lanes on each of R recordings, stepped together.

    ``t``, ``accel``, ``gyro``, ``q0``, ``psd`` and ``logl`` hold one entry
    per recording, ``psd`` its densities (accel_psd, gyro_psd) from
    :func:`process_noise`; ``noise`` gives gravity and the update noise.
    Lane r * C + c runs recording r under lanes[c] for n steps, n the
    longest recording, from p = v = 0, attitude q0[r] and covariance cov0.
    Step 0, and each step past a recording's last sample, is a no-op step
    (dt = 0, the identity gyro increment, the last time held, a NaN
    statistic): it leaves p, v and a symmetric P as they were and never
    fires. From sample first_window on, a lane applies a zero-velocity
    update where logl[k] exceeds log_threshold(lanes[c], t_k - t_last, xi),
    t_last being its last update (t_0 before the first). xi comes from the
    covariance before the update it gates, only where c3 != 0; NaN (the
    uninformative fallback) drops the c3 term.

    A c3 = 0 lane needs no filter state: it decides before the loop, from
    the statistic and t (_decide). A c3 != 0 lane decides in the loop, on
    the Python floats of its xi (log_threshold_lane). The loop applies
    those decisions; the threshold trace is built once, after it, from the
    decisions applied and the xi of each step (a no-op step keeps its
    recording's last xi), and its logl > log_gamma must equal them.

    A floating-point error (overflow, say, on a finite but huge input)
    raises NumericalError naming the first sample k at which the loop, or
    the threshold at k, hits it.
    """
    R = len(t)
    n = max(map(len, t))
    # step k integrates sample k - 1 over dts[k] = t_k - t_{k-1}
    ts = np.empty((n, R, 1))
    dts = np.zeros((n, R))
    accels = np.zeros((n, R, 3))
    dqs = np.tile([1.0, 0.0, 0.0, 0.0], (n, R, 1))
    logls = np.full((n, R, 1), np.nan)
    for r in range(R):
        m = len(t[r])
        ts[:m, r, 0], ts[m:, r, 0] = t[r], t[r][-1]
        dts[:m, r], dqs[:m, r] = _increments(t[r], gyro[r])
        accels[1:m, r] = accel[r][:-1]
        logls[:m, r, 0] = logl[r]
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    q_rate = np.array([_process_rate(x) for x in psd])[:, None]
    r_var = noise.sigma_zupt**2
    C = len(lanes)

    fires = np.zeros((n, R, C), dtype=bool)  # the updates each lane applies
    xi_lanes = []  # (r, c, lane, t, logl) of each c3 != 0 lane, t and logl as floats
    for r in range(R):
        floats = None  # shared by the recording's c3 != 0 lanes
        for c, lane in enumerate(lanes):
            if lane.c3 == 0.0:
                fires[:len(t[r]), r, c] = _decide(lane, t[r], logl[r], first_window)
            else:
                floats = floats or (t[r].tolist(), logl[r].tolist())
                xi_lanes.append((r, c, lane, *floats))
    fired_before = np.count_nonzero(fires, axis=(1, 2)).tolist()
    xis = np.full((n, len(xi_lanes)), np.nan)  # xi of each c3 != 0 lane at each step
    xi_row = [math.nan] * len(xi_lanes)  # the last, kept through no-op steps
    t_last = [t_r[0] for _, _, _, t_r, _ in xi_lanes]

    p, v = np.zeros((R, C, 3)), np.zeros((R, C, 3))
    q = np.repeat(np.array(q0)[:, None], C, 1)
    P = np.tile(cov0, (R, C, 1, 1))
    trajectory = np.empty((n, R, C, 3))
    log_gamma = np.full((n, R, C), np.nan)
    k = 0  # building the first block of step inputs can fail before step 0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for k, step in enumerate(_step_inputs(accels, dqs, dts, q_rate)):
                p, v, q, P = _propagate(p, v, q, P, step, g_vec)
                if k >= first_window:
                    fire = fires[k]
                    fired = fired_before[k]
                    if xi_lanes:
                        S, vel = P[..., 3:6, 3:6].tolist(), v.tolist()
                        for j, (r, c, lane, t_r, logl_r) in enumerate(xi_lanes):
                            if k < len(t_r):  # a no-op step computes no new xi
                                xi = xi_row[j] = _xi(S[r][c], vel[r][c])
                                if logl_r[k] > log_threshold_lane(lane, t_r[k] - t_last[j], xi):
                                    fire[r, c] = True
                                    t_last[j] = t_r[k]
                                    fired += 1
                        xis[k] = xi_row
                    if fired:
                        if fired == fire.size:  # no gather when every lane fires
                            p, v, q, P = _zupt(p, v, q, P, r_var)
                        else:
                            p[fire], v[fire], q[fire], P[fire] = _zupt(
                                p[fire], v[fire], q[fire], P[fire], r_var)
                trajectory[k] = p
        except (FloatingPointError, NumericalError) as exc:
            # a threshold that failed at an earlier sample is the first error
            _threshold_trace(log_gamma, lanes, ts, fires, xis, xi_lanes, first_window, k)
            raise NumericalError(f"filter failed at sample {k}: {exc}") from exc
        _threshold_trace(log_gamma, lanes, ts, fires, xis, xi_lanes, first_window, n)
    if not (np.isfinite(p).all() and np.isfinite(P).all()):
        raise NumericalError("filter state became non-finite")
    decisions = logls > log_gamma
    if not np.array_equal(decisions, fires):
        k = int(np.argmax((decisions != fires).any(axis=(1, 2))))
        raise NumericalError(f"threshold trace disagrees with the update applied at sample {k}")
    for r in range(R):
        trajectory[len(t[r]):, r] = np.nan
    L = R * C
    return _LaneTraces(trajectory.reshape(n, L, 3), decisions.reshape(n, L),
                       log_gamma.reshape(n, L), q.reshape(L, 4), P.reshape(L, 9, 9))


def _decide(lane, t, logl, first_window) -> np.ndarray:
    """The updates of a c3 = 0 lane on one recording, from the sample times
    ``t`` and the statistic ``logl`` alone: one comparison when c2 = 0, else
    a scan on floats that moves t_last to each update."""
    fire = np.zeros(len(t), dtype=bool)
    if lane.c2 == 0.0:  # c1 + 0 * dt is c1 for every dt
        fire[first_window:] = logl[first_window:] > log_threshold_lane(lane, 0.0, None)
        return fire
    t = t.tolist()
    t_last = t[0]
    for k, x in enumerate(logl[first_window:].tolist(), first_window):
        if x > log_threshold_lane(lane, t[k] - t_last, None):
            fire[k] = True
            t_last = t[k]
    return fire


_TRACE_BLOCK = 256  # steps per log_threshold call of _threshold_trace; bounds its temporaries


def _threshold_trace(log_gamma, lanes, ts, fires, xis, xi_lanes, first_window, end):
    """Fill log_gamma (n, R, C) at steps first_window .. end - 1 from the
    updates ``fires`` the loop applied (t_last: the time of the last one
    before each step, t_0 before the first) and the xi of each c3 != 0 lane
    (``xis``, one column per ``xi_lanes`` entry), _TRACE_BLOCK steps per
    log_threshold call. A floating-point error raises NumericalError at the
    first sample whose threshold hits it."""
    R, C = fires.shape[1:]
    coef = SimpleNamespace(**{name: np.array([[getattr(lane, name) for lane in lanes]])
                              for name in ("c1", "c2", "c3")})
    xr = [r for r, *_ in xi_lanes]
    xc = [c for _, c, *_ in xi_lanes]
    rows = np.arange(R)[:, None]
    last = np.zeros((R, C), dtype=np.intp)  # the last update before the block, or step 0
    for k0 in range(first_window, end, _TRACE_BLOCK):
        k1 = min(k0 + _TRACE_BLOCK, end)
        steps = np.arange(k0, k1)[:, None, None]
        before = np.maximum.accumulate(np.concatenate(
            [last[None], np.where(fires[k0:k1], steps, 0)]), axis=0)
        last = before[-1]
        dt = ts[k0:k1] - ts[before[:-1], rows, 0]
        xi = None
        if xi_lanes:
            xi = np.full((k1 - k0, R, C), np.nan)
            xi[:, xr, xc] = xis[k0:k1]
        try:
            log_gamma[k0:k1] = log_threshold(coef, dt, xi)
        except FloatingPointError:
            for i in range(k1 - k0):  # the first step whose threshold fails
                try:
                    log_threshold(coef, dt[i], None if xi is None else xi[i])
                except FloatingPointError as exc:
                    raise NumericalError(f"filter failed at sample {k0 + i}: {exc}") from exc
            raise


def _increments(t, gyro):
    """Per step k: dt[k] = t_k - t_{k-1}, dq[k] = exp(gyro_{k-1} dt[k]); dt[0] = 0, dq[0] = 1."""
    dt = np.diff(t, prepend=t[0])
    return dt, quat_from_rotvec(np.vstack([np.zeros(3), gyro[:-1]]) * dt[:, None])


def _coast_inputs(t, accel, gyro):
    """Per step k of one recording: dt[k] and dq[k] (_increments), the prefix
    attitude G[k] = dq[0] ... dq[k] and the specific force
    fb[k] = R(G[k-1]) accel[k-1] in it."""
    dt, dq = _increments(t, gyro)
    with np.errstate(all="ignore"):  # a coast that reads a non-finite value fails
        G = dq.copy()  # a log-depth scan
        span = 1
        while span < len(t):
            G[span:] = quat_mul(G[:-span], G[span:])
            span *= 2
        G = _unit(G)
        fb = np.zeros((len(t), 3))
        fb[1:] = (rotmat_from_quat(G[:-1]) @ accel[:-1, :, None])[..., 0]
    return dt, dq, G, fb


def _label_pass(t, accel, gyro, q0, cov0, noise, psd, zupts, xi_mask) -> np.ndarray:
    """One lane on one recording under supplied decisions, from p = v = 0,
    attitude q0 and covariance cov0, driven by the densities ``psd``
    (accel_psd, gyro_psd), with an update at each sample k >= 1
    where zupts[k] is set, stepped from update to update: one
    _propagate and one _zupt per update sample, one _coast per run of
    samples between. Returns xi, in sample order, on the samples k >= 1 in
    xi_mask (before that sample's update), without fallbacks. A coast sample
    with a non-finite v or P_vv fails, as a floating-point error does, with
    a NumericalError naming the sample."""
    dt, dq, G, fb = _coast_inputs(t, accel, gyro)
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    q_rate = _process_rate(psd)
    r_var = noise.sigma_zupt**2
    # the state as a stack of one lane on one recording, as _propagate takes it
    p, v, q, P = (x[None, None] for x in (np.zeros(3), np.zeros(3), q0, cov0))
    xis = []
    a = 0  # the last update, or the start
    updates = np.flatnonzero(np.asarray(zupts[1:], dtype=bool)) + 1
    steps = _step_inputs(accel[updates - 1, None], dq[updates, None], dt[updates, None],
                         q_rate[None, None])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for u in [*updates.tolist(), len(t)]:
                if u - a > 1:  # coast over samples a+1 .. u-1
                    with np.errstate(all="ignore"):
                        *end, vs, Pvv = _coast(p[0, 0], v[0, 0], q[0, 0], P[0, 0], G[a:u],
                                               fb[a + 1:u], dt[a + 1:u], g_vec, q_rate)
                    good = np.isfinite(vs).all(1) & np.isfinite(Pvv).all((1, 2))
                    good[-1] &= all(np.isfinite(x).all() for x in end)
                    if not good.all():
                        k = a + 1 + int(np.argmin(good))
                        raise NumericalError("state became non-finite in a coast")
                    p, v, q, P = (x[None, None] for x in end)
                    sel = xi_mask[a + 1:u]
                    xis.append(_xi_stack(Pvv[sel], vs[sel]))
                if u == len(t):
                    break
                k = u
                p, v, q, P = _propagate(p, v, q, P, next(steps), g_vec)
                if xi_mask[u]:
                    xis.append([_xi(P[0, 0, 3:6, 3:6].tolist(), v[0, 0].tolist())])
                p, v, q, P = _zupt(p, v, q, P, r_var)
                a = u
        except (FloatingPointError, NumericalError) as exc:
            raise NumericalError(f"filter failed at sample {k}: {exc}") from exc
    xis = np.concatenate([[], *xis])
    return xis[~np.isnan(xis)]


@dataclass(frozen=True)
class RunReport:
    """Outcome of one pipeline run.

    Trace arrays span the whole stream; entries before the first full
    detector window (the first window_samples - 1 samples) hold NaN in
    the statistic and threshold traces and False in the decisions.
    """

    recording_id: str
    trajectory: np.ndarray
    decisions: np.ndarray
    logl_trace: np.ndarray
    log_gamma_trace: np.ndarray
    loop_closure_error_m: float
    params_used: dict = field(default_factory=dict)

    @property
    def zupt_count(self) -> int:
        return int(self.decisions.sum())


def run_recordings(
    recs: list[Recording], detector: str, lanes, noise: NoiseModel, *,
    window_samples: int = 5,
) -> list[list[RunReport]]:
    """Run detector + filter over each recording once per ThresholdParams in
    ``lanes``, stepping every (recording, lane) pair together in one loop.
    Returns, per recording in order, one report per lane in order, each
    named by its recording's ``id``.

    Per recording, in order, so the first bad one raises: the sampling-period
    check (validate_stream), the trace of the detector named ``detector``,
    the process noise densities (:func:`process_noise`: the model's own, or
    derived at the recording's median rate) and the initial attitude
    (align_from_standstill). Every lane starts at rest with the default
    covariance. Recordings may differ in length and sample rate.
    """
    if not recs:
        return []
    logls, q0s, psds = [], [], []
    for rec in recs:
        if len(rec.t) < 2:
            raise StreamFormatError(f"recording {rec.id}: pipeline needs at least 2 samples")
        validate_stream(rec)
        spec = get_detector(detector)
        logls.append(spec.trace(rec.accel, rec.gyro, window_samples, noise))
        psds.append(process_noise(noise, rec.t))
        q0s.append(align_from_standstill(rec))
    cov0 = default_initial_covariance()

    def lanes_of(rs):
        return _filter_lanes([recs[r].t for r in rs], [recs[r].accel for r in rs],
                             [recs[r].gyro for r in rs], [q0s[r] for r in rs], cov0, noise,
                             [psds[r] for r in rs], window_samples - 1, lanes=lanes,
                             logl=[logls[r] for r in rs])

    try:
        out = lanes_of(range(len(recs)))
    except NumericalError as exc:
        if len(recs) == 1:
            raise NumericalError(f"recording {recs[0].id}: {exc}") from exc
        for r, rec in enumerate(recs):  # the first that fails on its own
            try:
                lanes_of([r])
            except NumericalError as own:
                raise NumericalError(f"recording {rec.id}: {own}") from exc
        raise
    reports = []
    for r, (rec, logl, (accel_psd, gyro_psd)) in enumerate(zip(recs, logls, psds)):
        shared = {
            "detector": spec.name,
            "window_samples": window_samples,
            "sigma_a": noise.sigma_a,
            "sigma_w": noise.sigma_w,
            "gravity_mag": noise.gravity_mag,
            "sigma_zupt": noise.sigma_zupt,
            "accel_psd": accel_psd,
            "gyro_psd": gyro_psd,
            "xi_cond_bound": XI_COND_BOUND,
        }
        n = len(rec.t)
        row = []
        for c, lane in enumerate(lanes):
            b = r * len(lanes) + c
            trajectory = out.trajectory[:n, b]
            row.append(RunReport(
                recording_id=rec.id,
                trajectory=trajectory,
                decisions=out.decisions[:n, b],
                logl_trace=logl,
                log_gamma_trace=out.log_gamma[:n, b],
                loop_closure_error_m=float(np.linalg.norm(trajectory[-1] - trajectory[0])),
                params_used={**shared, "c1": lane.c1, "c2": lane.c2, "c3": lane.c3},
            ))
        reports.append(row)
    return reports


def run_pipeline(rec: Recording, detector: str, threshold_params: ThresholdParams,
                 noise: NoiseModel, *, window_samples: int = 5) -> RunReport:
    """Run detector + filter over one recording and report traces and drift:
    run_recordings with the one recording ``rec`` and the one lane
    ``threshold_params``."""
    ((report,),) = run_recordings([rec], detector, [threshold_params], noise,
                                  window_samples=window_samples)
    return report
