"""Shared data model for IMU streams, windows, and noise parameters.

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


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class ImuSample:
    """One IMU measurement.

    Parameters
    ----------
    t : float
        Sample time in seconds, non-negative.
    accel : array_like, shape (3,)
        Specific force in m/s^2.
    gyro : array_like, shape (3,)
        Angular rate in rad/s.
    """

    t: float
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "accel", _as_vec3(self.accel, "accel"))
        object.__setattr__(self, "gyro", _as_vec3(self.gyro, "gyro"))
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"sample time must be finite and non-negative, got {self.t}")
        if not (np.isfinite(self.accel).all() and np.isfinite(self.gyro).all()):
            raise ValueError("sample components must be finite")


@dataclass(frozen=True)
class ImuWindow:
    """A fixed-length run of consecutive samples; detector statistics are per window.

    ``start_index`` is the stream position of the first sample, so the window
    built at stream position n covers samples n .. n+len-1.
    """

    samples: tuple[ImuSample, ...]
    start_index: int

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("window must contain at least one sample")
        times = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise StreamFormatError("window sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.samples)

    def accel_matrix(self) -> np.ndarray:
        """Stacked accelerometer samples, shape (N, 3)."""
        return np.array([s.accel for s in self.samples])

    def gyro_matrix(self) -> np.ndarray:
        """Stacked gyroscope samples, shape (N, 3)."""
        return np.array([s.gyro for s in self.samples])


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
    """

    sigma_a: float
    sigma_w: float
    gravity_mag: float = GRAVITY_DEFAULT
    sigma_zupt: float = 0.01

    def __post_init__(self):
        for name in ("sigma_a", "sigma_w", "gravity_mag", "sigma_zupt"):
            value = getattr(self, name)
            if not (math.isfinite(value * value) and value > 0.0):  # the filter squares it
                raise ValueError(f"{name} must be positive with a finite square, got {value}")


@dataclass(frozen=True)
class StreamDiagnostics:
    """Result of :func:`validate_stream`."""

    ok: bool
    n_samples: int
    median_period: float
    max_rel_period_dev: float
    first_bad_index: int | None
    message: str

    def raise_if_bad(self):
        if not self.ok:
            raise StreamFormatError(self.message, index=self.first_bad_index)


# Largest relative deviation of a sample period from the stream's median.
PERIOD_REL_TOL = 0.1


def validate_stream(stream, rel_tol: float = PERIOD_REL_TOL) -> StreamDiagnostics:
    """Check monotone time, finite values, and near-uniform sampling.

    Accepts what :func:`stream_to_arrays` accepts. The sampling period is
    compared against the median period; deviations beyond ``rel_tol``
    (relative) are flagged.
    """
    t, accel, gyro = stream_to_arrays(stream)
    n = len(t)
    if n == 0:
        return StreamDiagnostics(False, 0, math.nan, math.nan, None, "empty stream")

    bad_t = ~np.isfinite(t)
    bad_a = ~np.isfinite(accel).all(axis=1)
    bad_w = ~np.isfinite(gyro).all(axis=1)
    bad = bad_t | bad_a | bad_w
    if bad.any():
        i = int(np.argmax(bad))
        return StreamDiagnostics(
            False, n, math.nan, math.nan, i, f"non-finite value at sample {i}"
        )

    if n == 1:
        return StreamDiagnostics(True, 1, math.nan, 0.0, None, "ok")

    dt = np.diff(t)
    if (dt <= 0).any():
        i = int(np.argmax(dt <= 0)) + 1
        return StreamDiagnostics(
            False, n, math.nan, math.nan, i, f"non-increasing time at sample {i}"
        )

    median = float(np.median(dt))
    rel_dev = np.abs(dt - median) / median
    max_dev = float(rel_dev.max())
    if max_dev > rel_tol:
        i = int(np.argmax(rel_dev > rel_tol)) + 1
        return StreamDiagnostics(
            False,
            n,
            median,
            max_dev,
            i,
            f"sampling period deviates {max_dev:.1%} from median {median:.6g} s "
            f"at sample {i}",
        )
    return StreamDiagnostics(True, n, median, max_dev, None, "ok")


def stream_to_arrays(stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize a stream to ``(t, accel, gyro)`` float arrays.

    Accepts an array triple or an object exposing ``t``/``accel``/``gyro``
    attributes (e.g. Recording).
    """
    if hasattr(stream, "t"):
        stream = (stream.t, stream.accel, stream.gyro)
    t, accel, gyro = (np.asarray(x, dtype=float) for x in stream)
    return t, accel, gyro


@dataclass
class Recording:
    """An ingested or simulated IMU recording plus evaluation metadata.

    ``gait_tag`` groups recordings in sweep tables (e.g. "normal" / "fast");
    ``loop_length_m`` marks a closed loop of known path length, which is what
    qualifies the recording for loop-closure RMSE aggregation. ``stationary``
    carries per-sample ground-truth labels when available.
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
        if not (
            np.isfinite(self.t).all()
            and np.isfinite(self.accel).all()
            and np.isfinite(self.gyro).all()
        ):
            raise StreamFormatError(f"recording {self.id}: non-finite values")
        if n > 1 and (np.diff(self.t) <= 0).any():
            i = int(np.argmax(np.diff(self.t) <= 0)) + 1
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

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])
