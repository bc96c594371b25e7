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
statistic crosses it. It steps B lanes at once, one lane being one
(recording, threshold config) pair; run_pipeline is its one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import NoiseModel, stream_to_arrays, validate_stream
from .detectors import get_detector
from .errors import NumericalError, StreamFormatError
from .quat import quat_between, quat_conj, quat_from_rotvec, quat_mul, quat_normalize
from .quat import skew
from .threshold import ThresholdParams

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
        if not (self.accel_psd > 0.0 and math.isfinite(self.accel_psd)):
            raise ValueError(f"accel_psd must be positive, got {self.accel_psd}")
        if not (self.gyro_psd > 0.0 and math.isfinite(self.gyro_psd)):
            raise ValueError(f"gyro_psd must be positive, got {self.gyro_psd}")

    @classmethod
    def from_sample_noise(cls, noise: NoiseModel, sample_rate: float) -> "ProcessNoise":
        """Interpret per-sample sigmas as white noise at the given rate."""
        if not sample_rate > 0.0:
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        root = math.sqrt(sample_rate)
        return cls(accel_psd=noise.sigma_a / root, gyro_psd=noise.sigma_w / root)


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
_F_DT = np.zeros((9, 9))
_F_DT[0:3, 3:6] = np.eye(3)
_F_SKEW = np.zeros((3, 9, 9))
_F_SKEW[:, 3:6, 6:9] = [-skew(e) for e in np.eye(3)]
_F_SKEW = _F_SKEW.reshape(3, 81)
_EYE3, _EYE9 = np.eye(3), np.eye(9)
_H = _EYE9[3:6]  # the update measures velocity


def _unit(q):
    return q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]


def _process_rate(pn: ProcessNoise) -> np.ndarray:
    """Covariance growth per second of [dp, dv, dpsi] (diagonal)."""
    return np.diag(np.repeat([0.0, pn.accel_psd**2, pn.gyro_psd**2], 3))


def _propagate(p, v, q, P, accel, dq, dt, g_vec, q_rate):
    """One mechanization and covariance step for B lanes: p, v (B, 3),
    q (B, 4), P (B, 9, 9). The specific force (3,) and the gyro increment
    dq = exp(gyro * dt) (4,) are shared by the lanes. Returns new arrays."""
    qq = (q[:, :, None] * q[:, None, :]).reshape(-1, 16)
    f_nav = qq @ (_ROT @ accel)
    v = v + (f_nav + g_vec) * dt
    p = p + v * dt
    q = _unit(q @ (_QMUL @ dq))
    F = _EYE9 + dt * (_F_DT + (f_nav @ _F_SKEW).reshape(-1, 9, 9))
    P = F @ P @ F.transpose(0, 2, 1) + dt * q_rate
    return p, v, q, 0.5 * (P + P.transpose(0, 2, 1))


def _zupt(p, v, q, P, r_var):
    """Zero-velocity update for B lanes (see zupt_update)."""
    S = P[:, 3:6, 3:6] + r_var * _EYE3
    try:
        Kt = np.linalg.solve(S, P[:, :, 3:6].transpose(0, 2, 1))  # (P H^T S^-1)^T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"innovation covariance not invertible: {S.tolist()}"
        ) from exc
    if not np.isfinite(Kt).all():
        raise NumericalError(f"innovation covariance ill-formed: {S.tolist()}")
    K = Kt.transpose(0, 2, 1)
    dx = (-v[:, None, :] @ Kt)[:, 0]
    left = (quat_from_rotvec(dx[:, 6:9]) @ _QMUL.reshape(4, 16)).reshape(-1, 4, 4)
    q = _unit((left @ q[:, :, None])[:, :, 0])
    IKH = _EYE9 - K @ _H
    P = IKH @ P @ IKH.transpose(0, 2, 1) + r_var * (K @ Kt)
    return p + dx[:, 0:3], v + dx[:, 3:6], q, 0.5 * (P + P.transpose(0, 2, 1))


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
        state.p[None], state.v[None], state.q[None], cov.P[None],
        np.asarray(sample.accel, dtype=float), quat_from_rotvec(gyro * dt), dt,
        np.array([0.0, 0.0, -noise.gravity_mag]), _process_rate(pn),
    )
    return NavState(p[0], v[0], q[0]), NavCovariance(P[0])


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


def _xi(S, v, cond_bound):
    """Speed evidence xi = v^T S^-1 v with S the velocity covariance block.

    ``S`` is the 3x3 block as nested lists and ``v`` a list of 3 floats:
    plain floats keep this cheap per sample. Returns None when S is
    singular or its 1-norm condition estimate exceeds cond_bound; callers
    then drop the speed term (uninformative prior fallback).
    """
    (a, s01, s02), (s10, d, s12), (s20, s21, f) = S
    b = 0.5 * (s01 + s10)
    c = 0.5 * (s02 + s20)
    e = 0.5 * (s12 + s21)
    A = d * f - e * e
    B = c * e - b * f
    C = b * e - c * d
    det = a * A + b * B + c * C
    if not math.isfinite(det) or det <= 0.0:
        return None
    D = a * f - c * c
    E = b * c - a * e
    G = a * d - b * b
    inv = (
        (A / det, B / det, C / det),
        (B / det, D / det, E / det),
        (C / det, E / det, G / det),
    )
    norm_s = max(
        abs(a) + abs(b) + abs(c), abs(b) + abs(d) + abs(e), abs(c) + abs(e) + abs(f)
    )
    norm_inv = max(
        abs(inv[0][0]) + abs(inv[0][1]) + abs(inv[0][2]),
        abs(inv[1][0]) + abs(inv[1][1]) + abs(inv[1][2]),
        abs(inv[2][0]) + abs(inv[2][1]) + abs(inv[2][2]),
    )
    if norm_s * norm_inv > cond_bound:
        return None
    v0, v1, v2 = v
    x0 = inv[0][0] * v0 + inv[0][1] * v1 + inv[0][2] * v2
    x1 = inv[1][0] * v0 + inv[1][1] * v1 + inv[1][2] * v2
    x2 = inv[2][0] * v0 + inv[2][1] * v1 + inv[2][2] * v2
    value = v0 * x0 + v1 * x1 + v2 * x2
    if not math.isfinite(value):
        return None
    return max(value, 0.0)  # clip roundoff just below zero


def xi(state: NavState, cov: NavCovariance, cond_bound: float = XI_COND_BOUND):
    """Public form of the speed evidence; None signals the fallback."""
    return _xi(cov.P[3:6, 3:6].tolist(), state.v.tolist(), cond_bound)


class _LaneTraces(NamedTuple):
    trajectory: np.ndarray  # (n, B, 3)
    decisions: np.ndarray  # (n, B), True where the lane applied an update
    log_gamma: np.ndarray  # (n, B), NaN where no threshold was formed
    xi: list  # the one lane's speed evidence on the xi_mask samples
    q: np.ndarray  # (B, 4) final attitude
    P: np.ndarray  # (B, 9, 9) final covariance


def _filter_lanes(t, accel, gyro, state0, cov0, noise, pn, first_window, *,
                  lanes=(), logl=None, zupts=None, xi_mask=None) -> _LaneTraces:
    """The filter loop: B lanes stepped together over one recording.

    The lanes share the samples and (state0, cov0); each has its own state,
    covariance and ThresholdParams. From sample first_window on, a lane
    applies a zero-velocity update where logl[k] exceeds its threshold
    c1 + c2 * (t_k - t_last) + c3 * xi, t_last being its last update (t_0
    before the first). xi comes from the covariance before the update it
    gates, only where c3 != 0; a None xi drops the c3 term. With supplied
    ``zupts`` (n,) in place of lanes and logl, one lane applies an update
    where zupts[k] is set and records xi on the samples in xi_mask.
    """
    n = len(t)
    dts = np.diff(t)
    dqs = quat_from_rotvec(gyro[:-1] * dts[:, None])  # gyro increments, once
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    q_rate = _process_rate(pn)
    r_var = noise.sigma_zupt**2
    B = len(lanes)
    if zupts is not None:
        zupts, B = np.asarray(zupts, dtype=bool).reshape(n, 1), 1
    c1 = np.array([lane.c1 for lane in lanes])
    c2 = np.array([lane.c2 for lane in lanes])
    xi_lanes = [(i, lane.c3) for i, lane in enumerate(lanes) if lane.c3 != 0.0]
    p, v, q = (np.tile(x, (B, 1)) for x in (state0.p, state0.v, state0.q))
    P = np.tile(cov0.P, (B, 1, 1))
    trajectory = np.empty((n, B, 3))
    decisions = np.zeros((n, B), dtype=bool)
    log_gamma = np.full((n, B), np.nan)
    t_last = np.full(B, t[0])
    xis = []
    for k in range(n):
        if k:
            p, v, q, P = _propagate(
                p, v, q, P, accel[k - 1], dqs[k - 1], dts[k - 1], g_vec, q_rate
            )
        if k >= first_window:
            if zupts is None:
                lg = c1 + c2 * (t[k] - t_last)
                for i, c3 in xi_lanes:
                    ev = _xi(P[i, 3:6, 3:6].tolist(), v[i].tolist(), XI_COND_BOUND)
                    if ev is not None:
                        lg[i] += c3 * ev
                log_gamma[k] = lg
                fire = logl[k] > lg  # NaN never passes
            else:
                if xi_mask[k]:
                    ev = _xi(P[0, 3:6, 3:6].tolist(), v[0].tolist(), XI_COND_BOUND)
                    if ev is not None:
                        xis.append(ev)
                fire = zupts[k]
            fired = np.count_nonzero(fire)
            if fired:
                if fired == B:  # no gather when every lane fires
                    p, v, q, P = _zupt(p, v, q, P, r_var)
                else:
                    i = np.flatnonzero(fire)
                    p[i], v[i], q[i], P[i] = _zupt(p[i], v[i], q[i], P[i], r_var)
                decisions[k] = fire
                t_last[fire] = t[k]
        trajectory[k] = p
    if not (np.isfinite(trajectory).all() and np.isfinite(P).all()):
        raise NumericalError("filter state became non-finite")
    return _LaneTraces(trajectory, decisions, log_gamma, xis, q, P)


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


def run_lanes(
    stream, detector, lanes, noise: NoiseModel, pn: ProcessNoise | None = None,
    init=None, *, window_samples: int = 5, recording_id: str = "",
) -> list[RunReport]:
    """Run detector + filter over one stream once per ThresholdParams in
    ``lanes``, stepping the lanes together; one report per lane, in order.

    Validation, the detector trace, the process noise and the initial state
    are computed once for all lanes. ``init`` may be None (level from the
    first second of data, default covariance), a NavState (default
    covariance), or a (NavState, NavCovariance) pair.
    """
    t, accel, gyro = stream_to_arrays(stream)
    if len(t) < 2:
        raise StreamFormatError("pipeline needs at least 2 samples")
    validate_stream((t, accel, gyro)).raise_if_bad()
    spec = get_detector(detector)
    logl = spec.trace(accel, gyro, window_samples, noise)

    if pn is None:
        median_period = float(np.median(np.diff(t)))
        pn = ProcessNoise.from_sample_noise(noise, 1.0 / median_period)
    if init is None:
        state0 = align_from_standstill((t, accel, gyro), noise)
        cov0 = default_initial_covariance()
    elif isinstance(init, NavState):
        state0, cov0 = init, default_initial_covariance()
    else:
        state0, cov0 = init

    out = _filter_lanes(t, accel, gyro, state0, cov0, noise, pn, window_samples - 1,
                        lanes=lanes, logl=logl)
    shared = {
        "detector": spec.name,
        "window_samples": window_samples,
        "sigma_a": noise.sigma_a,
        "sigma_w": noise.sigma_w,
        "gravity_mag": noise.gravity_mag,
        "sigma_zupt": noise.sigma_zupt,
        "accel_psd": pn.accel_psd,
        "gyro_psd": pn.gyro_psd,
        "xi_cond_bound": XI_COND_BOUND,
    }
    reports = []
    for b, lane in enumerate(lanes):
        trajectory = out.trajectory[:, b]
        reports.append(RunReport(
            recording_id=recording_id,
            trajectory=trajectory,
            decisions=out.decisions[:, b],
            logl_trace=logl,
            log_gamma_trace=out.log_gamma[:, b],
            loop_closure_error_m=float(np.linalg.norm(trajectory[-1] - trajectory[0])),
            params_used={**shared, "c1": lane.c1, "c2": lane.c2, "c3": lane.c3},
        ))
    return reports


def run_pipeline(stream, detector, threshold_params: ThresholdParams, noise: NoiseModel,
                 pn: ProcessNoise | None = None, init=None, **kwargs) -> RunReport:
    """Run detector + filter over one stream and report traces and drift:
    run_lanes with the one lane ``threshold_params`` (same keywords)."""
    (report,) = run_lanes(stream, detector, [threshold_params], noise, pn, init,
                          **kwargs)
    return report
