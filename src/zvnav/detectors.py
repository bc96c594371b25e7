"""Log-likelihood-ratio statistics for zero-velocity detection.

Both detectors score every causal window of a stream at once, and one
window as the last entry of that trace; larger (less negative) values
favor the stationary hypothesis. Additive constants from the
moving-hypothesis model are set to zero: they shift every window by the
same amount and are absorbed by the threshold intercept during
calibration, so decisions are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import NoiseModel
from .errors import DegenerateWindowError

# Window-mean accelerometer norms at or below this are treated as degenerate:
# no usable gravity direction.
DEGENERATE_NORM_TOL = 1e-12


def shoe_log_lr(accel: np.ndarray, gyro: np.ndarray, noise: NoiseModel) -> float:
    """Stance-hypothesis statistic of one window, its rows accel, gyro (n, 3):

        log L = -1/2 * sum_k [ ||a_k - g*u||^2 / sigma_a^2
                               + ||w_k||^2 / sigma_w^2 ]

    u the unit vector along the window-mean accelerometer reading; always
    <= 0. It is the last entry of :func:`shoe_log_lr_trace` over the rows, so
    the formula exists once, and raises DegenerateWindowError where u is
    undefined (zero mean norm)."""
    return float(shoe_log_lr_trace(accel, gyro, len(accel), noise)[-1])


def are_log_lr(accel: np.ndarray, gyro: np.ndarray, noise: NoiseModel) -> float:
    """Angular-rate-energy statistic of one window, -1/2 * sum_k ||w_k||^2 /
    sigma_w^2 (the gyro term of :func:`shoe_log_lr`): the last entry of
    :func:`are_log_lr_trace` over the rows."""
    return float(are_log_lr_trace(accel, gyro, len(accel), noise)[-1])


def check_gravity_direction(accel: np.ndarray, starts: np.ndarray, n: int) -> None:
    """Raise DegenerateWindowError, naming its start index, for the first of
    the n-sample windows starting at ``starts`` whose mean accelerometer
    vector has zero norm.

    :func:`shoe_log_lr_trace` carries a direction across such windows, so
    code that reads scores from a trace checks here the windows that must
    have a direction of their own.
    """
    means = sliding_window_view(accel, n, axis=0)[starts].mean(axis=2)
    bad = np.flatnonzero(np.linalg.norm(means, axis=1) <= DEGENERATE_NORM_TOL)
    if bad.size:
        raise DegenerateWindowError(
            f"window at index {int(starts[bad[0]])}: mean accelerometer norm is zero"
        )


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
    """A named detector: its one-window form ``(accel, gyro, noise) -> float``
    and its vectorized stream form ``(accel, gyro, n, noise) -> trace``."""

    name: str
    # No library code scores single windows; the field stays because
    # perfbench/spans.py builds DetectorSpec positionally with three fields.
    per_window: Callable[[np.ndarray, np.ndarray, NoiseModel], float]
    trace: Callable[[np.ndarray, np.ndarray, int, NoiseModel], np.ndarray]


DETECTORS: dict[str, DetectorSpec] = {
    "shoe": DetectorSpec("shoe", shoe_log_lr, shoe_log_lr_trace),
    "are": DetectorSpec("are", are_log_lr, are_log_lr_trace),
}


def get_detector(name: str) -> DetectorSpec:
    """The registered detector called ``name``; ValueError for any other name."""
    try:
        return DETECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; expected one of {sorted(DETECTORS)}"
        ) from None
