"""Synthetic foot-mounted IMU generator with exact ground truth.

A recording is built on the sample grid as a sequence of phases:
standstill lead-in, alternating swing and stance segments, standstill
tail. Stance samples repeat the exact same position floats, so the
discrete velocity there is exactly zero and the stationary labels are
exact by construction. Swing moves the foot along a minimum-jerk arc.

The ideal IMU signals come from discrete inverse mechanization: the
exact algebraic inverse of the strapdown integrator in `ins`, so a
noise-free recording round-trips through the filter to within float
rounding. White Gaussian noise per the NoiseModel is added on top.

The foot pitches at a constant nonzero rate through every stance
(heel-to-toe rocking), with the rate growing with gait speed and
jittered per step, so stance windows carry gyro energy. Each swing has
a launch / coast / landing structure: mid-swing the foot translates at
constant velocity while pitching at a constant moderate rate, so coast
windows score in the same likelihood band as dirty stances despite the
foot moving at full speed. Thresholds deep enough to catch every stance
therefore fire mid-swing, which is the tension an adaptive threshold
resolves downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import NoiseModel, Recording
from .errors import CalibrationDataError, ConfigError
from .ins import _label_pass, default_initial_covariance, process_noise
from .quat import quat_conj, quat_mul, rotmat_from_quat

PHASE_STANDSTILL = 0
PHASE_STANCE = 1
PHASE_SWING = 2

# Stance rocking model: pitch rate at the reference speed, how fast the
# rate grows with speed, and the per-step lognormal spread. These are the
# knobs that control how much slow and fast stance windows overlap.
REF_SPEED = 1.389  # m/s, 5 km/h
ROCK_RATE_REF = 0.2  # rad/s pitch rate during stance at REF_SPEED
ROCK_SPEED_EXP = 2.5
ROCK_JITTER_SIGMA = 0.5
FOOT_LIFT = 0.06  # m, peak swing-phase foot clearance

# Swing structure: smooth velocity ramp-up until LAUNCH_END, constant
# velocity coast, ramp-down from LAND_START. Pitch follows the same shape,
# so the coast pitch rate is tied to the rocking amplitudes of the
# surrounding stances. An independent yaw wiggle during the coast keeps
# coast windows dirtier than the stances of the same gait while leaving
# them inside the fixed-threshold sweep range.
SWING_LAUNCH_END = 0.3
SWING_LAND_START = 0.7
YAW_RATE_REF = 0.9  # rad/s coast yaw rate at REF_SPEED
YAW_SPEED_EXP = 2.5
YAW_JITTER_SIGMA = 0.45

LEAD_IN_S = 2.0
LEAD_OUT_S = 1.0


@dataclass(frozen=True)
class GaitProfile:
    """Walking parameters for the generator.

    speed, step_length and cadence must be mutually consistent within
    10%. A zero speed with zero step_length is the degenerate standstill
    profile: the recording contains no steps at all.
    """

    speed: float  # m/s
    step_length: float  # m
    stance_fraction: float  # fraction of the gait cycle spent on the ground
    cadence: float  # steps/s
    sample_rate: float  # Hz
    noise: NoiseModel
    seed: int

    def __post_init__(self):
        if self.speed < 0 or self.step_length < 0:
            raise ConfigError("speed and step_length must be non-negative")
        if (self.speed == 0) != (self.step_length == 0):
            raise ConfigError("zero speed requires zero step_length and vice versa")
        if not 0.0 < self.stance_fraction < 1.0:
            raise ConfigError(
                f"stance_fraction must lie in (0, 1), got {self.stance_fraction}"
            )
        if not self.cadence > 0:
            raise ConfigError(f"cadence must be positive, got {self.cadence}")
        if not self.sample_rate > 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.speed > 0:
            nominal = self.step_length * self.cadence
            if abs(self.speed - nominal) > 0.1 * nominal:
                raise ConfigError(
                    f"speed {self.speed} inconsistent with step_length*cadence "
                    f"{nominal} (more than 10% off)"
                )


def normal_profile(noise: NoiseModel | None = None, seed: int = 0) -> GaitProfile:
    """5 km/h walk."""
    return GaitProfile(
        speed=1.389,
        step_length=0.992,
        stance_fraction=0.55,
        cadence=1.4,
        sample_rate=250.0,
        noise=noise or NoiseModel(sigma_a=0.2, sigma_w=0.02),
        seed=seed,
    )


def fast_profile(noise: NoiseModel | None = None, seed: int = 0) -> GaitProfile:
    """7 km/h hurried gait: shorter ground contact, harder foot dynamics."""
    return GaitProfile(
        speed=1.944,
        step_length=1.111,
        stance_fraction=0.40,
        cadence=1.75,
        sample_rate=250.0,
        noise=noise or NoiseModel(sigma_a=0.2, sigma_w=0.02),
        seed=seed,
    )


@dataclass(frozen=True)
class LabeledRecording:
    """Simulator output: IMU stream plus exact ground truth.

    ``stationary[k]`` is True exactly when the discrete true velocity at
    sample k is zero. ``phase`` distinguishes standstill, stance and
    swing samples so calibration can tell rest from ground contact.
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    stationary: np.ndarray
    true_positions: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        shapes = {
            "accel": (n, 3),
            "gyro": (n, 3),
            "stationary": (n,),
            "true_positions": (n, 3),
            "phase": (n,),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def path_length_m(self) -> float:
        return float(np.linalg.norm(np.diff(self.true_positions, axis=0), axis=1).sum())

    def to_recording(self, rec_id: str, gait_tag: str | None = None) -> Recording:
        return Recording(
            id=rec_id,
            t=self.t.copy(),
            accel=self.accel.copy(),
            gyro=self.gyro.copy(),
            gait_tag=gait_tag,
            loop_length_m=self.path_length_m,
            stationary=self.stationary.copy(),
        )


def _smoothstep5(u: np.ndarray) -> np.ndarray:
    """Monotone 0 -> 1 ramp with zero velocity and acceleration at both ends."""
    return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def _coast_progress(tau: np.ndarray) -> np.ndarray:
    """Piecewise 0 -> 1 progress: smooth speed-up, constant-rate coast,
    smooth slow-down. Rate and acceleration are zero at both ends; the rate
    is exactly constant on the coast. The coast rate is m per unit tau."""
    a, b = SWING_LAUNCH_END, SWING_LAND_START
    m = 2.0 / (1.0 + b - a)

    def ramp_area(u):  # integral of the cubic rate ramp 3u^2 - 2u^3
        return u**3 - 0.5 * u**4

    s = np.empty_like(tau)
    lo = tau <= a
    mid = (tau > a) & (tau < b)
    hi = tau >= b
    s[lo] = m * a * ramp_area(tau[lo] / a)
    s[mid] = 0.5 * m * a + m * (tau[mid] - a)
    s[hi] = 1.0 - m * (1.0 - b) * ramp_area((1.0 - tau[hi]) / (1.0 - b))
    return s


def _lift_profile(tau: np.ndarray) -> np.ndarray:
    """0 -> 0 clearance bump: smooth rise, flat coast at 1, smooth fall.
    Flat coast keeps vertical acceleration exactly zero mid-swing."""
    a, b = SWING_LAUNCH_END, SWING_LAND_START
    z = np.ones_like(tau)
    lo = tau <= a
    hi = tau >= b
    z[lo] = _smoothstep5(tau[lo] / a)
    z[hi] = _smoothstep5((1.0 - tau[hi]) / (1.0 - b))
    return z


def _yaw_pitch_quats(psi, theta):
    """Component arrays of the quaternion for R = Rz(psi) @ Ry(theta)."""
    cp, sp = np.cos(0.5 * psi), np.sin(0.5 * psi)
    ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return cp * ct, -sp * st, cp * st, sp * ct


def _ideal_imu(v, psi, theta, dts, gravity_mag):
    """Discrete inverse mechanization: the exact algebraic inverse of the
    strapdown integrator in `ins`, on the true velocity and attitude grids.
    Returns noise-free body-frame specific force and angular rate."""
    n = len(psi)
    q = np.column_stack(_yaw_pitch_quats(psi, theta))
    acc_nav = (v[1:] - v[:-1]) / dts[:, None]
    acc_nav[:, 2] += gravity_mag  # remove g_vec = (0, 0, -g)
    R = rotmat_from_quat(q)
    accel = np.empty((n, 3))
    accel[:-1] = np.einsum("kji,kj->ki", R[:-1], acc_nav)  # R^T @ acc_nav
    accel[-1] = accel[-2]  # the last sample drives no integration step
    # body rate from relative quaternions conj(q_k) * q_{k+1}
    rel = quat_mul(quat_conj(q[:-1]), q[1:])
    dw, vec = rel[:, 0], rel[:, 1:]
    flip = dw < 0.0
    dw = np.where(flip, -dw, dw)
    vec[flip] *= -1.0
    s = np.linalg.norm(vec, axis=1)
    safe = np.where(s > 1e-15, s, 1.0)
    scale = np.where(s > 1e-15, 2.0 * np.arctan2(s, dw) / safe, 2.0)
    gyro = np.empty((n, 3))
    gyro[:-1] = vec * (scale / dts)[:, None]
    gyro[-1] = gyro[-2]
    return accel, gyro


def simulate(
    profile: GaitProfile,
    duration: float,
    path: str = "closed-loop",
    *,
    noise_scale: float = 1.0,
) -> LabeledRecording:
    """Generate one labeled recording of the given duration.

    ``path`` is "closed-loop" (walk out along +x, walk back to the exact
    start; needs an even step count) or "straight" (keep going along +x).
    ``noise_scale`` scales the additive sensor noise; 0 gives the ideal
    signals for round-trip checks.
    """
    if path not in ("closed-loop", "straight"):
        raise ConfigError(f"path must be 'closed-loop' or 'straight', got {path!r}")
    if not 0 < duration <= 3600.0:
        raise ConfigError(f"duration must lie in (0, 3600] s, got {duration}")
    if not 0 <= noise_scale < math.inf:
        raise ConfigError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    fs = profile.sample_rate
    n = int(round(duration * fs)) + 1
    t = np.arange(n) / fs
    rng = np.random.default_rng(profile.seed)

    x = np.zeros(n)
    z = np.zeros(n)
    theta = np.zeros(n)
    psi = np.zeros(n)
    phase = np.full(n, PHASE_STANDSTILL, dtype=np.int8)

    if profile.speed > 0:
        cycle = 1.0 / profile.cadence
        n_stance = int(round(profile.stance_fraction * cycle * fs))
        n_swing = int(round((1.0 - profile.stance_fraction) * cycle * fs))
        if n_stance < 2:
            raise ConfigError(
                f"infeasible profile: stance covers {n_stance} samples, need >= 2"
            )
        if n_swing < 2:
            raise ConfigError(
                f"infeasible profile: swing covers {n_swing} samples, need >= 2"
            )
        n_cycle = n_stance + n_swing
        n_lead = int(round(LEAD_IN_S * fs))
        n_tail_min = int(round(LEAD_OUT_S * fs))
        n_steps = (n - n_lead - n_tail_min) // n_cycle
        if path == "closed-loop":
            n_steps -= n_steps % 2
        if n_steps < 2:
            raise ConfigError(
                f"duration {duration} s too short: fits {max(n_steps, 0)} steps "
                "after lead-in/out, need >= 2 (two gait cycles)"
            )
        half = n_steps // 2
        L = profile.step_length
        if path == "closed-loop":
            # pinned targets: identical floats on the way out and back, so
            # the final stance lands exactly on the start
            targets = [L * j for j in range(1, half + 1)]
            targets += [L * (half - i) for i in range(1, half + 1)]
        else:
            targets = [L * j for j in range(1, n_steps + 1)]

        rock_rate_mean = ROCK_RATE_REF * (profile.speed / REF_SPEED) ** ROCK_SPEED_EXP
        yaw_rate_mean = YAW_RATE_REF * (profile.speed / REF_SPEED) ** YAW_SPEED_EXP
        stance_T = n_stance / fs
        swing_T = n_swing / fs
        cursor = n_lead
        prev_x = 0.0
        prev_theta = 0.0
        tau_sw = np.arange(1, n_swing + 1) / n_swing
        s_sw = _coast_progress(tau_sw)
        lift_sw = FOOT_LIFT * _lift_profile(tau_sw)
        tri_sw = np.clip(
            np.minimum(tau_sw - SWING_LAUNCH_END, SWING_LAND_START - tau_sw), 0.0, None
        )
        k_st = np.arange(1, n_stance + 1) / n_stance
        for target in targets:
            rate = rock_rate_mean * rng.lognormal(0.0, ROCK_JITTER_SIGMA)
            yaw_rate = yaw_rate_mean * rng.lognormal(0.0, YAW_JITTER_SIGMA)
            r = 0.5 * rate * stance_T  # rocking half-amplitude for this step
            sl = slice(cursor, cursor + n_swing)
            x[sl] = prev_x + (target - prev_x) * s_sw
            x[cursor + n_swing - 1] = target  # exact touchdown float
            z[sl] = lift_sw
            # pitch shares the coast shape, so mid-swing the foot turns at a
            # constant rate set by the neighboring rocking amplitudes
            theta[sl] = prev_theta + (r - prev_theta) * s_sw
            # toe-in/out wiggle: constant-magnitude yaw rate across the coast
            psi[sl] = yaw_rate * swing_T * tri_sw
            phase[sl] = PHASE_SWING
            cursor += n_swing
            sl = slice(cursor, cursor + n_stance)
            x[sl] = target
            z[sl] = 0.0
            theta[sl] = r * (1.0 - 2.0 * k_st)
            phase[sl] = PHASE_STANCE
            cursor += n_stance
            prev_x = target
            prev_theta = -r
        x[cursor:] = prev_x
        theta[cursor:] = prev_theta

    p = np.column_stack([x, np.zeros(n), z])
    dts = np.diff(t)
    v = np.zeros((n, 3))
    v[1:] = (p[1:] - p[:-1]) / dts[:, None]
    stationary = (v == 0.0).all(axis=1)

    accel, gyro = _ideal_imu(v, psi, theta, dts, profile.noise.gravity_mag)

    if noise_scale > 0.0:
        accel += noise_scale * profile.noise.sigma_a * rng.standard_normal((n, 3))
        gyro += noise_scale * profile.noise.sigma_w * rng.standard_normal((n, 3))

    return LabeledRecording(
        t=t,
        accel=accel,
        gyro=gyro,
        stationary=stationary,
        true_positions=p,
        phase=phase,
    )


class CalibrationSets(NamedTuple):
    """Start indices of the calibration windows, ascending within each set,
    plus the reference swing speed evidence. The window starting at s covers
    samples s .. s+n-1, so a detector trace scores it at ``trace[s + n - 1]``."""

    stationary: np.ndarray
    midstance: np.ndarray
    swing: np.ndarray
    xi_star: float | None


def _bool_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as (start, end-exclusive) pairs."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]


def _phase_array(rec) -> np.ndarray:
    """Use explicit phase codes when present; otherwise treat the first and
    last stationary runs as standstill and interior ones as stances. A final
    stance that flows straight into the tail standstill is absorbed by it."""
    phase = getattr(rec, "phase", None)
    if phase is not None:
        return np.asarray(phase)
    labels = np.asarray(rec.stationary, dtype=bool)
    phase = np.full(len(labels), PHASE_SWING, dtype=np.int8)
    runs = _bool_runs(labels)
    for i, (s, e) in enumerate(runs):
        code = PHASE_STANDSTILL if i in (0, len(runs) - 1) else PHASE_STANCE
        phase[s:e] = code
    return phase


def _reference_xi_median(rec, noise: NoiseModel, swing_mask) -> float:
    """Median speed evidence over swing from a label-driven filter pass.

    Ground-truth labels stand in for the detector, so the estimate does
    not depend on any threshold choice. The pass starts at rest with the
    identity attitude and takes its first decision at sample 1. Its process
    noise is :func:`zvnav.ins.process_noise` over the whole recording.
    """
    swing_mask = np.asarray(swing_mask, dtype=bool)
    if not swing_mask.any():
        raise CalibrationDataError("no usable swing samples for the speed evidence")
    psd = process_noise(noise, np.asarray(rec.t, dtype=float))
    # the pass is causal, so samples after the last swing sample cannot change xi
    end = int(np.flatnonzero(swing_mask)[-1]) + 1
    xis = _label_pass(rec.t[:end], rec.accel[:end], rec.gyro[:end],
                      np.array([1.0, 0.0, 0.0, 0.0]), default_initial_covariance(), noise, psd,
                      np.asarray(rec.stationary)[:end], swing_mask[:end])
    if not xis.size:
        raise CalibrationDataError("no usable swing samples for the speed evidence")
    return float(np.median(xis))


def extract_calibration_sets(
    rec,
    n_window: int,
    *,
    noise: NoiseModel,
    reference_xi: bool = True,
) -> CalibrationSets:
    """Split a labeled recording into the three calibration window sets.

    Standstill windows (perfectly at rest) feed the stationary set; the
    centered window of each stance interval feeds the midstance set (one
    per step); windows fully inside swing feed the swing set. Each set is
    an array of window start indices; any empty set raises. ``rec`` needs
    t/accel/gyro arrays and stationary labels; explicit phase codes are
    used when available. xi_star, from a label-driven filter pass under
    ``noise`` (its process noise densities, or ones derived at the
    recording's median rate), is None unless ``reference_xi`` is set (the
    informative prior needs it).
    """
    if n_window < 1:
        raise ValueError(f"window length must be >= 1, got {n_window}")
    if getattr(rec, "stationary", None) is None:
        raise CalibrationDataError("recording carries no stationary labels")
    labels = np.asarray(rec.stationary, dtype=bool)
    phase = _phase_array(rec)

    def starts_inside(mask, one_per_run=False):
        starts = []
        for s, e in _bool_runs(mask):
            if e - s < n_window:
                continue
            if one_per_run:
                starts.append(s + (e - s - n_window) // 2)
            else:
                starts.extend(range(s, e - n_window + 1))
        return np.array(starts, dtype=np.intp)

    stationary = starts_inside((phase == PHASE_STANDSTILL) & labels)
    midstance = starts_inside((phase == PHASE_STANCE) & labels, one_per_run=True)
    swing_mask = phase == PHASE_SWING
    swing = starts_inside(swing_mask)
    for name, starts in (
        ("stationary", stationary),
        ("midstance", midstance),
        ("swing", swing),
    ):
        if not starts.size:
            raise CalibrationDataError(f"{name} calibration set is empty")
    if not reference_xi:
        return CalibrationSets(stationary, midstance, swing, None)
    xi_star = _reference_xi_median(rec, noise, swing_mask)
    return CalibrationSets(stationary, midstance, swing, xi_star)


def make_corpus(
    n_normal: int = 10,
    n_fast: int = 10,
    duration: float = 30.0,
    noise: NoiseModel | None = None,
    base_seed: int = 1000,
) -> list[Recording]:
    """Closed-loop mixed-gait corpus; per-recording seeds derive from base_seed."""
    nm = noise or NoiseModel(sigma_a=0.2, sigma_w=0.02)
    recordings = []
    for i in range(n_normal):
        lab = simulate(normal_profile(nm, seed=base_seed + i), duration)
        recordings.append(lab.to_recording(f"normal-{i:02d}", "normal"))
    for i in range(n_fast):
        lab = simulate(fast_profile(nm, seed=base_seed + 500 + i), duration)
        recordings.append(lab.to_recording(f"fast-{i:02d}", "fast"))
    return recordings
