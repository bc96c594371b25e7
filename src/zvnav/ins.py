"""Strapdown mechanization with a 9-state error filter and zero-velocity updates.

The nominal state is position, velocity, and a body-to-navigation
quaternion; the filter tracks the covariance of the error state
[dp, dv, dpsi] (m, m/s, rad) with the attitude error defined
multiplicatively on the left: R_true = (I + skew(dpsi)) @ R_hat.

Navigation frame: z up, gravity g_vec = (0, 0, -gravity_mag). The
accelerometer measures specific force in the body frame,
a_meas = R^T (a_true - g_vec), so at rest R @ a_meas + g_vec = 0.

One loop drives the filter: propagate on every sample interval, score
the causal detector window ending at the current sample, compare against
the adaptive threshold, and apply a zero-velocity update when the
statistic crosses it. It steps an (R recordings x C configs) grid of
lanes at once; recordings may differ in length, and a recording's lanes
retire after its last sample. run_recordings is the general call (one
per sweep), run_pipeline its one-recording, one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .core import NoiseModel, stream_to_arrays, validate_stream
from .detectors import get_detector
from .errors import ConfigError, NumericalError, StreamFormatError
from .quat import quat_between, quat_conj, quat_from_rotvec, quat_mul, quat_normalize
from .quat import rotmat_from_quat, skew
from .threshold import ThresholdParams, log_threshold

_QUAT_NORM_TOL = 1e-6
_E_Z = np.array([0.0, 0.0, 1.0])

# Default 1-sigma of the initial error state: 1 mm, 1 mm/s, 1 mrad.
DEFAULT_INIT_STD = (1e-3, 1e-3, 1e-3)

# Above this 1-norm condition estimate of the velocity covariance the
# speed evidence is unreliable; callers fall back to the uninformative prior.
XI_COND_BOUND = 1e12


@dataclass(frozen=True)
class NavState:
    """Nominal navigation state: position m, velocity m/s, attitude quaternion."""

    p: np.ndarray
    v: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        v = np.asarray(self.v, dtype=float).reshape(3)
        q = np.asarray(self.q, dtype=float).reshape(4)
        if not (np.isfinite(p).all() and np.isfinite(v).all() and np.isfinite(q).all()):
            raise ValueError("navigation state must be finite")
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > _QUAT_NORM_TOL:
            raise ValueError(f"quaternion norm {norm} too far from 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "q", q / norm)

    @classmethod
    def identity(cls) -> "NavState":
        return cls(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


@dataclass(frozen=True)
class NavCovariance:
    """9x9 covariance of the error state [dp, dv, dpsi]."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.shape != (9, 9):
            raise ValueError(f"covariance must be 9x9, got {P.shape}")
        if not np.isfinite(P).all():
            raise ValueError("covariance must be finite")
        asym = float(np.abs(P - P.T).max())
        if asym > 1e-9 * (1.0 + float(np.abs(P).max())):
            raise ValueError(f"covariance asymmetry {asym} exceeds tolerance")
        object.__setattr__(self, "P", P)


@dataclass(frozen=True)
class ProcessNoise:
    """Continuous-time white-noise densities driving the error state."""

    accel_psd: float  # m/s^2 per sqrt(Hz)
    gyro_psd: float  # rad/s per sqrt(Hz)

    def __post_init__(self):
        for name, value in (("accel_psd", self.accel_psd), ("gyro_psd", self.gyro_psd)):
            if not (value > 0.0 and math.isfinite(value * value)):  # _process_rate squares it
                raise ValueError(f"{name} must be positive with a finite square, got {value}")

    @classmethod
    def from_sample_noise(cls, noise: NoiseModel, sample_rate: float) -> "ProcessNoise":
        """Interpret per-sample sigmas as white noise at the given rate."""
        if not sample_rate > 0.0:
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        root = math.sqrt(sample_rate)
        return cls(accel_psd=noise.sigma_a / root, gyro_psd=noise.sigma_w / root)


def derived_process_noise(noise: NoiseModel, t: np.ndarray) -> ProcessNoise:
    """:meth:`ProcessNoise.from_sample_noise` at the median sample rate of
    ``t``. A sigma whose density at that rate has no finite positive square
    is a configuration error naming the sigma and the rate."""
    rate = 1.0 / float(np.median(np.diff(t)))
    for name, sigma in (("sigma_a", noise.sigma_a), ("sigma_w", noise.sigma_w)):
        density = sigma / math.sqrt(rate)
        if not (density > 0.0 and math.isfinite(density * density)):
            raise ConfigError(
                f"{name}={sigma!r} at the median sample rate {rate:.6g} Hz gives a "
                f"process noise density {density!r} without a finite positive square"
            )
    return ProcessNoise.from_sample_noise(noise, rate)


def default_initial_covariance() -> NavCovariance:
    stds = np.repeat(np.asarray(DEFAULT_INIT_STD, dtype=float), 3)
    return NavCovariance(np.diag(stds**2))


def align_from_standstill(stream, noise: NoiseModel, duration_s: float = 1.0) -> NavState:
    """Level the platform from early standstill data: gravity fixes roll and
    pitch, heading starts at zero (minimal rotation onto the vertical)."""
    t, accel, _ = stream_to_arrays(stream)
    if len(t) == 0:
        raise StreamFormatError("cannot align from an empty stream")
    mask = t <= t[0] + duration_s
    mean = accel[mask].mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm <= 0.0 or not math.isfinite(norm):
        raise NumericalError("cannot align: mean accelerometer vector is degenerate")
    q = quat_normalize(quat_between(mean / norm, _E_Z))
    return NavState(np.zeros(3), np.zeros(3), q)


# Constant operators of the step, built from quat_mul and skew so each
# formula exists once (e_a are the basis quaternions):
# - q * b = q @ (_QMUL @ b) and a * q = (a @ _QMUL.reshape(4, 16)).reshape(4, 4) @ q;
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
_ROT_A = np.ascontiguousarray(_ROT.transpose(2, 0, 1).reshape(3, 48))
_F_DT = np.zeros((9, 9))
_F_DT[0:3, 3:6] = np.eye(3)
_F_SKEW = np.zeros((3, 9, 9))
_F_SKEW[:, 3:6, 6:9] = [-skew(e) for e in np.eye(3)]
_F_SKEW = _F_SKEW.reshape(3, 81)
_EYE3, _EYE9 = np.eye(3), np.eye(9)


def _unit(q):
    return q / np.sqrt((q[..., None, :] @ q[..., :, None])[..., 0])


def _process_rate(pn: ProcessNoise) -> np.ndarray:
    """Covariance growth per second of [dp, dv, dpsi] (diagonal)."""
    return np.diag(np.repeat([0.0, pn.accel_psd**2, pn.gyro_psd**2], 3))


def _propagate(p, v, q, P, accel, dq, dt, g_vec, q_rate):
    """One mechanization and covariance step for C lanes on each of R
    recordings: p, v (R, C, 3), q (R, C, 4), P (R, C, 9, 9). A recording's
    specific force accel (R, 3), gyro increment dq = exp(gyro * dt) (R, 4),
    dt (R,) and covariance growth rate q_rate (R, 1, 9, 9) are shared by its
    C lanes. Returns new arrays."""
    R, C = q.shape[:2]
    qq = (q[..., :, None] * q[..., None, :]).reshape(R, C, 16)
    f_nav = qq @ (accel @ _ROT_A).reshape(R, 16, 3)
    dt = dt[:, None, None]
    v = v + (f_nav + g_vec) * dt
    p = p + v * dt
    q = _unit(q @ (dq @ _QMUL_B).reshape(R, 4, 4))
    dt = dt[..., None]
    F = _EYE9 + dt * (_F_DT + (f_nav @ _F_SKEW).reshape(R, C, 9, 9))
    P = F @ P @ F.swapaxes(-1, -2) + dt * q_rate
    return p, v, q, 0.5 * (P + P.swapaxes(-1, -2))


def _zupt(p, v, q, P, r_var):
    """Zero-velocity update for a stack of lanes of any leading shape (see
    zupt_update). P is symmetric, so K^T = S^-1 H P, and the Joseph form
    (I - K H) P (I - K H)^T + r K K^T is built from the velocity rows and
    columns: A = P - K H P, then A - (A H^T) K^T + r K K^T."""
    S = P[..., 3:6, 3:6] + r_var * _EYE3
    try:
        Kt = np.linalg.inv(S) @ P[..., 3:6, :]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance not invertible: {S.tolist()}"
        ) from exc
    if not np.isfinite(Kt).all():
        raise NumericalError(f"innovation covariance ill-formed: {S.tolist()}")
    K = Kt.swapaxes(-1, -2)
    dx = (-v[..., None, :] @ Kt)[..., 0, :]
    left = (quat_from_rotvec(dx[..., 6:9]) @ _QMUL.reshape(4, 16)).reshape(q.shape + (4,))
    q = _unit((left @ q[..., None])[..., 0])
    A = P - K @ P[..., 3:6, :]
    P = A - A[..., 3:6] @ Kt + r_var * (K @ Kt)
    return p + dx[..., 0:3], v + dx[..., 3:6], q, 0.5 * (P + P.swapaxes(-1, -2))


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


def propagate(state: NavState, cov: NavCovariance, sample, dt: float, noise: NoiseModel,
              pn: ProcessNoise) -> tuple[NavState, NavCovariance]:
    """Integrate one IMU sample over dt and grow the covariance.

    Velocity uses the pre-step attitude; position uses the post-step
    velocity; the quaternion advances by the exact exponential of
    gyro * dt. dt must be positive.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    dt = float(dt)
    gyro = np.asarray(sample.gyro, dtype=float)
    p, v, q, P = _propagate(
        state.p[None, None], state.v[None, None], state.q[None, None], cov.P[None, None],
        np.asarray(sample.accel, dtype=float)[None], quat_from_rotvec(gyro * dt)[None],
        np.array([dt]), np.array([0.0, 0.0, -noise.gravity_mag]), _process_rate(pn),
    )
    return NavState(p[0, 0], v[0, 0], q[0, 0]), NavCovariance(P[0, 0])


def zupt_update(state: NavState, cov: NavCovariance,
                noise: NoiseModel) -> tuple[NavState, NavCovariance]:
    """Apply the pseudo-measurement "velocity is zero" (noise sigma_zupt).

    Measurement z = 0 - v_hat with H = [0 I 0]; the estimated error is
    folded into the nominal state (attitude by left-multiplying the
    small-angle quaternion) and the covariance follows the Joseph form,
    then is symmetrized.
    """
    p, v, q, P = _zupt(
        state.p[None], state.v[None], state.q[None], cov.P[None], noise.sigma_zupt**2
    )
    return NavState(p[0], v[0], q[0]), NavCovariance(P[0])


def _xi_terms(S, v, cond_bound, maximum):
    """The speed evidence xi = v^T S^-1 v, elementwise over S (3 rows of 3)
    and v (3) as floats (``maximum`` = max) or arrays (np.maximum folded; the
    two differ only on NaN, which fails the rule). Returns xi clipped at 0
    and whether it stands: not where det S <= 0, the 1-norm condition
    estimate exceeds cond_bound or a value is not finite."""
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
        & (norm_s * norm_inv <= cond_bound)  # x * 0 == 0 exactly when x is finite
    return maximum(value, 0.0), ok  # clip roundoff just below zero


def _xi(S, v, cond_bound):
    """_xi_terms of one lane, S nested lists and v a list (plain floats are
    cheap per sample); NaN where it does not stand, and callers then drop
    the speed term (uninformative prior fallback)."""
    try:
        value, ok = _xi_terms(S, v, cond_bound, max)
    except ZeroDivisionError:  # det S == 0
        return math.nan
    return value if ok else math.nan


def _xi_stack(S, v, cond_bound):
    """_xi over a stack: S (K, 3, 3), v (K, 3); NaN marks the fallback."""
    with np.errstate(all="ignore"):
        value, ok = _xi_terms(S.transpose(1, 2, 0), v.T, cond_bound,
                              lambda *xs: reduce(np.maximum, xs))
    return np.where(ok, value, np.nan)


def xi(state: NavState, cov: NavCovariance, cond_bound: float = XI_COND_BOUND):
    """Public form of the speed evidence; None signals the fallback."""
    value = _xi(cov.P[3:6, 3:6].tolist(), state.v.tolist(), cond_bound)
    return None if math.isnan(value) else value


class _LaneTraces(NamedTuple):
    trajectory: np.ndarray  # (n, L, 3), NaN past the end of a lane's recording
    decisions: np.ndarray  # (n, L), True where the lane applied an update
    log_gamma: np.ndarray  # (n, L), NaN where no threshold was formed
    q: np.ndarray  # (L, 4) final attitude
    P: np.ndarray  # (L, 9, 9) final covariance


def _filter_lanes(t, accel, gyro, state0, cov0, noise, pn, first_window, *,
                  lanes, logl) -> _LaneTraces:
    """The filter loop: C lanes on each of R recordings, stepped together.

    ``t``, ``accel``, ``gyro``, ``state0``, ``pn`` and ``logl`` hold one
    entry per recording, or are one recording's values. Lane r * C + c runs
    recording r under lanes[c] from (state0[r], cov0); n is the longest
    recording, and a recording's lanes retire after its last sample. From
    sample first_window on, a lane applies a zero-velocity update where
    logl[k] exceeds log_threshold(lanes[c], t_k - t_last, xi), t_last being
    its last update (t_0 before the first). xi comes from the covariance
    before the update it gates, only where c3 != 0; NaN (the uninformative
    fallback) drops the c3 term.

    A floating-point error in the loop (overflow, say, on a finite but huge
    input) raises NumericalError naming the sample k at which it occurred.
    """
    if isinstance(state0, NavState):  # one recording
        t, accel, gyro, state0, pn, logl = [t], [accel], [gyro], [state0], [pn], [logl]
    R = len(t)
    # longest first, so the active recordings at step k are a prefix
    order = sorted(range(R), key=lambda r: -len(t[r]))
    ends = [len(t[r]) for r in order]
    n = ends[0]
    # per-step inputs in sorted order; step k integrates sample k - 1 over
    # dts[k] = t_k - t_{k-1}. Entries past a recording's end are never read.
    ts = np.zeros((n, R, 1))
    dts = np.zeros((n, R))
    accels = np.zeros((n, R, 3))
    dqs = np.zeros((n, R, 4))
    logls = np.full((n, R, 1), np.nan)
    for j, r in enumerate(order):
        m = ends[j]
        ts[:m, j, 0] = t[r]
        dts[1:m, j] = np.diff(t[r])
        accels[1:m, j] = accel[r][:-1]
        dqs[1:m, j] = quat_from_rotvec(gyro[r][:-1] * dts[1:m, j, None])
        logls[:m, j, 0] = logl[r]
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    q_rate = np.array([_process_rate(pn[r]) for r in order])[:, None]
    r_var = noise.sigma_zupt**2
    C = len(lanes)
    # lane-stacked coefficients, each of shape (1, C)
    c1, c2, c3 = np.array([(lane.c1, lane.c2, lane.c3) for lane in lanes]).T[:, None]
    coef = SimpleNamespace(c1=c1, c2=c2, c3=c3)
    xi_lanes = [c for c, lane in enumerate(lanes) if lane.c3 != 0.0]
    xi_buf = np.full((R, C), np.nan)  # NaN: no speed evidence

    p, v, q = (np.repeat(np.array([getattr(state0[r], x) for r in order])[:, None], C, 1)
               for x in "pvq")
    P = np.tile(cov0.P, (R, C, 1, 1))
    trajectory = np.empty((n, R, C, 3))
    decisions = np.zeros((n, R, C), dtype=bool)
    log_gamma = np.full((n, R, C), np.nan)
    traj, dec, lgam = trajectory, decisions, log_gamma  # the active recordings
    q_end = np.empty((R, C, 4))
    P_end = np.empty((R, C, 9, 9))
    t_last = np.repeat(ts[0], C, 1)
    active = R
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for k in range(n):
                while ends[active - 1] == k:  # the last active recording has ended
                    active -= 1
                    q_end[active], P_end[active] = q[active], P[active]
                    traj[k:, active] = np.nan
                    p, v, q, P, t_last, q_rate, xi_buf = (
                        x[:active] for x in (p, v, q, P, t_last, q_rate, xi_buf))
                    ts, dts, accels, dqs, logls, traj, dec, lgam = (
                        x[:, :active] for x in (ts, dts, accels, dqs, logls, traj, dec, lgam))
                if k:
                    p, v, q, P = _propagate(p, v, q, P, accels[k], dqs[k], dts[k], g_vec,
                                            q_rate)
                if k >= first_window:
                    for c in xi_lanes:
                        for r in range(active):
                            xi_buf[r, c] = _xi(P[r, c, 3:6, 3:6].tolist(), v[r, c].tolist(),
                                               XI_COND_BOUND)
                    lg = log_threshold(coef, ts[k] - t_last, xi_buf if xi_lanes else None)
                    lgam[k] = lg
                    fire = logls[k] > lg  # NaN never passes
                    fired = np.count_nonzero(fire)
                    if fired:
                        if fired == fire.size:  # no gather when every lane fires
                            p, v, q, P = _zupt(p, v, q, P, r_var)
                        else:
                            p[fire], v[fire], q[fire], P[fire] = _zupt(
                                p[fire], v[fire], q[fire], P[fire], r_var)
                        dec[k] = fire
                        np.copyto(t_last, ts[k], where=fire)
                traj[k] = p
        except (FloatingPointError, NumericalError) as exc:
            raise NumericalError(f"filter failed at sample {k}: {exc}") from exc
    q_end[:active], P_end[:active] = q, P
    ends_at = np.array(ends) - 1
    if not (np.isfinite(trajectory[ends_at, np.arange(R)]).all() and np.isfinite(P_end).all()):
        raise NumericalError("filter state became non-finite")
    if order != sorted(order):  # back to input order
        back = np.argsort(order)
        trajectory, decisions, log_gamma, q_end, P_end = (
            trajectory[:, back], decisions[:, back], log_gamma[:, back], q_end[back],
            P_end[back])
    L = R * C
    return _LaneTraces(trajectory.reshape(n, L, 3), decisions.reshape(n, L),
                       log_gamma.reshape(n, L), q_end.reshape(L, 4), P_end.reshape(L, 9, 9))


def _coast_inputs(t, accel, gyro):
    """Per step k of one recording: dt[k] = t_k - t_{k-1}, the gyro increment
    dq[k] (dt[0] = 0, dq[0] = 1), the prefix attitude G[k] = dq[0] ... dq[k]
    and the specific force fb[k] = R(G[k-1]) accel[k-1] in it."""
    dt = np.diff(t, prepend=t[0])
    dq = quat_from_rotvec(np.vstack([np.zeros(3), gyro[:-1]]) * dt[:, None])
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


def _label_pass(t, accel, gyro, state0, cov0, noise, pn, zupts, xi_mask) -> np.ndarray:
    """One lane on one recording under supplied decisions, an update at each
    sample k >= 1 where zupts[k] is set, stepped from update to update: one
    _propagate and one _zupt per update sample, one _coast per run of
    samples between. Returns xi, in sample order, on the samples k >= 1 in
    xi_mask (before that sample's update), without fallbacks. A coast sample
    with a non-finite v or P_vv fails, as a floating-point error does, with
    a NumericalError naming the sample."""
    dt, dq, G, fb = _coast_inputs(t, accel, gyro)
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    q_rate = _process_rate(pn)
    r_var = noise.sigma_zupt**2
    # the state as a stack of one lane on one recording, as _propagate takes it
    p, v, q, P = (x[None, None] for x in (state0.p, state0.v, state0.q, cov0.P))
    xis = []
    a = 0  # the last update, or the start
    updates = (np.flatnonzero(np.asarray(zupts[1:], dtype=bool)) + 1).tolist()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for u in [*updates, len(t)]:
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
                    xis.append(_xi_stack(Pvv[sel], vs[sel], XI_COND_BOUND))
                if u == len(t):
                    break
                k = u
                p, v, q, P = _propagate(p, v, q, P, accel[u - 1:u], dq[u:u + 1], dt[u:u + 1],
                                        g_vec, q_rate[None, None])
                if xi_mask[u]:
                    xis.append([_xi(P[0, 0, 3:6, 3:6].tolist(), v[0, 0].tolist(),
                                    XI_COND_BOUND)])
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
    streams, detector, lanes, noise: NoiseModel, pn: ProcessNoise | None = None,
    init=None, *, window_samples: int = 5, recording_ids=None,
) -> list[list[RunReport]]:
    """Run detector + filter over each stream once per ThresholdParams in
    ``lanes``, stepping every (stream, lane) pair together in one loop.
    Returns, per stream in order, one report per lane in order.

    Validation, the detector trace, the process noise (when ``pn`` is None)
    and the initial state are computed per stream, in order, so the first
    bad stream raises. Streams may differ in length and sample rate.
    ``init`` applies to every stream: None (level each from its first
    second of data, default covariance), a NavState (default covariance),
    or a (NavState, NavCovariance) pair.
    """
    if not streams:
        return []
    recording_ids = recording_ids or [""] * len(streams)
    ts, accels, gyros, logls, states, pns = [], [], [], [], [], []
    for stream in streams:
        t, accel, gyro = stream_to_arrays(stream)
        if len(t) < 2:
            raise StreamFormatError("pipeline needs at least 2 samples")
        validate_stream((t, accel, gyro)).raise_if_bad()
        spec = get_detector(detector)
        logls.append(spec.trace(accel, gyro, window_samples, noise))
        pns.append(derived_process_noise(noise, t) if pn is None else pn)
        if init is None:
            states.append(align_from_standstill((t, accel, gyro), noise))
        else:
            states.append(init if isinstance(init, NavState) else init[0])
        ts.append(t)
        accels.append(accel)
        gyros.append(gyro)
    cov0 = default_initial_covariance() if init is None or isinstance(init, NavState) \
        else init[1]

    try:
        out = _filter_lanes(ts, accels, gyros, states, cov0, noise, pns, window_samples - 1,
                            lanes=lanes, logl=logls)
    except NumericalError as exc:
        if len(ts) == 1:
            raise NumericalError(f"recording {recording_ids[0]}: {exc}") from exc
        for r, rec_id in enumerate(recording_ids):  # the first that fails on its own
            try:
                _filter_lanes(ts[r], accels[r], gyros[r], states[r], cov0, noise, pns[r],
                              window_samples - 1, lanes=lanes, logl=logls[r])
            except NumericalError as own:
                raise NumericalError(f"recording {rec_id}: {own}") from exc
        raise
    reports = []
    for r, (t, logl, rate, rec_id) in enumerate(zip(ts, logls, pns, recording_ids)):
        shared = {
            "detector": spec.name,
            "window_samples": window_samples,
            "sigma_a": noise.sigma_a,
            "sigma_w": noise.sigma_w,
            "gravity_mag": noise.gravity_mag,
            "sigma_zupt": noise.sigma_zupt,
            "accel_psd": rate.accel_psd,
            "gyro_psd": rate.gyro_psd,
            "xi_cond_bound": XI_COND_BOUND,
        }
        n = len(t)
        row = []
        for c, lane in enumerate(lanes):
            b = r * len(lanes) + c
            trajectory = out.trajectory[:n, b]
            row.append(RunReport(
                recording_id=rec_id,
                trajectory=trajectory,
                decisions=out.decisions[:n, b],
                logl_trace=logl,
                log_gamma_trace=out.log_gamma[:n, b],
                loop_closure_error_m=float(np.linalg.norm(trajectory[-1] - trajectory[0])),
                params_used={**shared, "c1": lane.c1, "c2": lane.c2, "c3": lane.c3},
            ))
        reports.append(row)
    return reports


def run_pipeline(stream, detector, threshold_params: ThresholdParams, noise: NoiseModel,
                 pn: ProcessNoise | None = None, init=None, *, window_samples: int = 5,
                 recording_id: str = "") -> RunReport:
    """Run detector + filter over one stream and report traces and drift:
    run_recordings with the one stream ``stream`` and the one lane
    ``threshold_params``; ``recording_id`` names it."""
    ((report,),) = run_recordings([stream], detector, [threshold_params], noise, pn, init,
                                  window_samples=window_samples,
                                  recording_ids=[recording_id])
    return report
