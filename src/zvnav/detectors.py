"""Log-likelihood-ratio statistics for zero-velocity detection.

Both detectors score a window of IMU samples; larger (less negative)
values favor the stationary hypothesis. Additive constants from the
moving-hypothesis model are set to zero: they shift every window by the
same amount and are absorbed by the threshold intercept during
calibration, so decisions are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ImuWindow, NoiseModel
from .errors import DegenerateWindowError

# Window-mean accelerometer norms at or below this are treated as degenerate:
# no usable gravity direction.
DEGENERATE_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LogLikelihoodRatio:
    """Detector statistic for one window; ``window_index`` is the start index."""

    value: float
    window_index: int


def shoe_log_lr(window: ImuWindow, noise: NoiseModel) -> LogLikelihoodRatio:
    """Stance-hypothesis detector statistic for one window.

    Computes

        log L = -1/2 * sum_k [ ||a_k - g*u||^2 / sigma_a^2
                               + ||w_k||^2 / sigma_w^2 ]

    where u is the unit vector along the window-mean accelerometer reading.
    Always <= 0; zero only when every residual vanishes exactly.

    Raises
    ------
    DegenerateWindowError
        If the window-mean accelerometer vector has zero norm. Callers
        scoring a stream may substitute the previous window's direction;
        :func:`shoe_log_lr_trace` does exactly that.

    The value is :func:`shoe_log_lr_trace` over the window alone, so the
    statistic has one formula.
    """
    accel = window.accel_matrix()
    if np.linalg.norm(accel.mean(axis=0)) <= DEGENERATE_NORM_TOL:
        raise _no_direction(window.start_index)
    value = shoe_log_lr_trace(accel, window.gyro_matrix(), len(window), noise)[-1]
    return LogLikelihoodRatio(float(value), window.start_index)


def are_log_lr(window: ImuWindow, noise: NoiseModel) -> LogLikelihoodRatio:
    """Angular-rate-energy detector statistic for one window.

    log L = -1/2 * sum_k ||w_k||^2 / sigma_w^2. Equals the gyro term of
    :func:`shoe_log_lr` on the same window. The value is
    :func:`are_log_lr_trace` over the window alone.
    """
    value = are_log_lr_trace(
        window.accel_matrix(), window.gyro_matrix(), len(window), noise
    )[-1]
    return LogLikelihoodRatio(float(value), window.start_index)


def _no_direction(start: int) -> DegenerateWindowError:
    return DegenerateWindowError(
        f"window at index {start}: mean accelerometer norm is zero"
    )


def check_gravity_direction(accel: np.ndarray, starts: np.ndarray, n: int) -> None:
    """Raise as :func:`shoe_log_lr` would for the first of the windows
    starting at ``starts`` whose mean accelerometer vector has zero norm.

    :func:`shoe_log_lr_trace` carries a direction across such windows, so
    code that reads scores from a trace checks here the windows that must
    have a direction of their own.
    """
    means = sliding_window_view(accel, n, axis=0)[starts].mean(axis=2)
    bad = np.flatnonzero(np.linalg.norm(means, axis=1) <= DEGENERATE_NORM_TOL)
    if bad.size:
        raise _no_direction(int(starts[bad[0]]))


def _window_views(accel, gyro, n):
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    if len(accel) < n:
        return None, None
    # shape (m, 3, n): one slab per window end index n-1 .. len-1
    return (
        sliding_window_view(accel, n, axis=0),
        sliding_window_view(gyro, n, axis=0),
    )


# A huge finite sample overflows the sums of the windows that hold it; the
# traces score those windows -inf (or NaN) without a warning: never stationary.
@np.errstate(over="ignore", invalid="ignore")
def shoe_log_lr_trace(
    accel: np.ndarray, gyro: np.ndarray, n: int, noise: NoiseModel
) -> np.ndarray:
    """Per-sample SHOE statistic over a whole stream.

    Entry k scores the causal window ending at sample k; the first n-1
    entries are NaN (window not yet available). Degenerate windows reuse
    the most recent valid mean direction; a stream whose first window is
    degenerate raises.
    """
    out = np.full(len(accel), np.nan)
    aw, gw = _window_views(accel, gyro, n)
    if aw is None:
        return out
    mean = aw.mean(axis=2)
    norms = np.linalg.norm(mean, axis=1)
    degenerate = norms <= DEGENERATE_NORM_TOL
    if degenerate.any():
        if degenerate[0]:
            raise DegenerateWindowError(
                "first window has zero mean accelerometer norm; no direction to carry"
            )
        # forward-fill each degenerate window with the last valid direction
        src = np.where(~degenerate, np.arange(len(mean)), 0)
        src = np.maximum.accumulate(src)
        mean = mean[src]
        norms = norms[src]
    u = mean / norms[:, None]
    residual = aw - (noise.gravity_mag * u)[:, :, None]
    acc_term = (residual**2).sum(axis=(1, 2)) / noise.sigma_a**2
    gyr_term = (gw**2).sum(axis=(1, 2)) / noise.sigma_w**2
    out[n - 1 :] = -0.5 * (acc_term + gyr_term)
    return out


@np.errstate(over="ignore", invalid="ignore")
def are_log_lr_trace(
    accel: np.ndarray, gyro: np.ndarray, n: int, noise: NoiseModel
) -> np.ndarray:
    """Per-sample angular-rate-energy statistic; NaN during window warm-up."""
    out = np.full(len(gyro), np.nan)
    _, gw = _window_views(accel, gyro, n)
    if gw is None:
        return out
    out[n - 1 :] = -0.5 * (gw**2).sum(axis=(1, 2)) / noise.sigma_w**2
    return out


@dataclass(frozen=True)
class DetectorSpec:
    """A named detector: per-window form plus the vectorized stream form."""

    name: str
    per_window: Callable[[ImuWindow, NoiseModel], LogLikelihoodRatio]
    trace: Callable[[np.ndarray, np.ndarray, int, NoiseModel], np.ndarray]


DETECTORS: dict[str, DetectorSpec] = {
    "shoe": DetectorSpec("shoe", shoe_log_lr, shoe_log_lr_trace),
    "are": DetectorSpec("are", are_log_lr, are_log_lr_trace),
}


def get_detector(detector) -> DetectorSpec:
    """Resolve a detector by name or spec."""
    if isinstance(detector, DetectorSpec):
        return detector
    if isinstance(detector, str):
        try:
            return DETECTORS[detector]
        except KeyError:
            raise ValueError(
                f"unknown detector {detector!r}; expected one of {sorted(DETECTORS)}"
            ) from None
    raise TypeError(f"cannot interpret {detector!r} as a detector")
