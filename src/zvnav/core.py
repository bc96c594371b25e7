"""Shared data model for IMU streams, recordings, and noise parameters.

Units are SI throughout: seconds, m/s^2, rad/s. The navigation frame is
z-up; a body at rest with identity attitude measures a specific force of
(0, 0, +gravity_mag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StreamFormatError

GRAVITY_DEFAULT = 9.81  # m/s^2, configurable everywhere it is used


@dataclass(frozen=True)
class NoiseModel:
    """Sensor noise assumptions shared by the detector and the filter.

    Parameters
    ----------
    sigma_a : float
        Accelerometer noise standard deviation per sample, m/s^2.
    sigma_w : float
        Gyroscope noise standard deviation per sample, rad/s.
    gravity_mag : float
        Local gravity magnitude, m/s^2.
    sigma_zupt : float
        Zero-velocity pseudo-measurement noise standard deviation, m/s.
    accel_psd, gyro_psd : float or None
        Continuous-time white-noise densities driving the filter's error
        state, m/s^2 and rad/s per sqrt(Hz). Set both or neither; None
        derives them from sigma_a and sigma_w at the stream's median sample
        rate (:func:`zvnav.ins.process_noise`).
    """

    sigma_a: float
    sigma_w: float
    gravity_mag: float = GRAVITY_DEFAULT
    sigma_zupt: float = 0.01
    accel_psd: float | None = None
    gyro_psd: float | None = None

    def __post_init__(self):
        if (self.accel_psd is None) != (self.gyro_psd is None):
            raise ValueError("accel_psd and gyro_psd must be set together")
        for name in ("sigma_a", "sigma_w", "gravity_mag", "sigma_zupt", "accel_psd", "gyro_psd"):
            value = getattr(self, name)
            # the filter squares it
            if value is not None and not (math.isfinite(value * value) and value > 0.0):
                raise ValueError(f"{name} must be positive with a finite square, got {value}")


# Largest relative deviation of a sample period from the stream's median.
PERIOD_REL_TOL = 0.1


def validate_stream(rec: Recording) -> None:
    """Check near-uniform sampling, the one stream check that
    :class:`Recording` leaves to the commands that need a sample rate.

    Each sample period is compared against the median period; a relative
    deviation beyond ``PERIOD_REL_TOL`` raises StreamFormatError, naming
    the recording, whose ``index`` is the first offending sample.
    """
    if len(rec.t) < 2:
        return
    dt = np.diff(rec.t)
    median = float(np.median(dt))
    rel_dev = np.abs(dt - median) / median
    max_dev = float(rel_dev.max())
    if max_dev > PERIOD_REL_TOL:
        i = int(np.argmax(rel_dev > PERIOD_REL_TOL)) + 1
        raise StreamFormatError(
            f"recording {rec.id}: sampling period deviates {max_dev:.1%} from median "
            f"{median:.6g} s at sample {i}",
            index=i,
        )


@dataclass
class Recording:
    """An ingested or simulated IMU recording plus evaluation metadata.

    ``gait_tag`` groups recordings in sweep tables (e.g. "normal" / "fast");
    ``loop_length_m`` marks a closed loop of known path length, which is what
    qualifies the recording for loop-closure RMSE aggregation. ``stationary``
    carries per-sample ground-truth labels when available.

    Building one is the stream check of shape, length, finiteness and
    increasing time; a failure raises StreamFormatError, whose ``index`` is
    the first bad sample where there is one.
    """

    id: str
    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    gait_tag: str | None = None
    loop_length_m: float | None = None
    stationary: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        n = len(self.t)
        if self.accel.shape != (n, 3) or self.gyro.shape != (n, 3):
            raise StreamFormatError(
                f"recording {self.id}: accel/gyro must have shape ({n}, 3)"
            )
        if n == 0:
            raise StreamFormatError(f"recording {self.id}: empty stream")
        bad = ~(np.isfinite(self.t) & np.isfinite(self.accel).all(axis=1)
                & np.isfinite(self.gyro).all(axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            raise StreamFormatError(
                f"recording {self.id}: non-finite value at sample {i}", index=i
            )
        back = np.diff(self.t) <= 0
        if back.any():
            i = int(np.argmax(back)) + 1
            raise StreamFormatError(
                f"recording {self.id}: non-increasing time at sample {i}", index=i
            )
        if self.stationary is not None:
            self.stationary = np.asarray(self.stationary, dtype=bool)
            if self.stationary.shape != (n,):
                raise StreamFormatError(
                    f"recording {self.id}: labels must have shape ({n},)"
                )

    def __len__(self) -> int:
        return len(self.t)
