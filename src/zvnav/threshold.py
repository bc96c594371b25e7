"""Adaptive decision threshold for the zero-velocity detectors.

The detector statistic is compared against a log-domain threshold

    log gamma = c1 + c2 * dt + c3 * xi

where dt is the time since the last accepted zero-velocity update and xi
is a filter-derived speed evidence term. The same quantity can be built
from an explicit decision model: an exponentially decaying loss factor in
dt composed with a logistic prior on the stationary hypothesis driven by
xi. Both routes are implemented independently and must agree through the
coefficient identities c1 = beta2 + log(alpha), c2 = -theta, c3 = beta1;
tests hold them to that.

Sign conventions: larger statistic favors "stationary". c2 < 0 makes the
threshold easier to cross the longer no update has fired; c3 > 0 makes
it harder while the filter believes the platform is moving.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationDataError, ConfigError

# Open-unit-interval clamp for the logistic prior: keeps log-odds finite.
_PRIOR_MIN = sys.float_info.min
_PRIOR_MAX = math.nextafter(1.0, 0.0)

PRIOR_MODES = ("informative", "uninformative")


@dataclass(frozen=True)
class LossParams:
    """Exponential loss factor: eta(dt) = max(alpha * exp(-theta * dt), floor).

    ``floor`` puts a lower limit on the factor; 0 disables it.
    """

    alpha: float
    theta: float
    floor: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if self.theta < 0.0 or not math.isfinite(self.theta):
            raise ConfigError(f"theta must be finite and >= 0, got {self.theta}")
        if self.floor < 0.0 or not math.isfinite(self.floor):
            raise ConfigError(f"floor must be finite and >= 0, got {self.floor}")


@dataclass(frozen=True)
class PriorParams:
    """Stationary-hypothesis prior.

    Informative mode: p(stationary) = 1 / (1 + exp(beta1 * xi + beta2)).
    Uninformative mode: exactly 1/2 regardless of xi or the betas.
    """

    beta1: float = 0.0
    beta2: float = 0.0
    mode: str = "informative"

    def __post_init__(self):
        if not math.isfinite(self.beta1) or not math.isfinite(self.beta2):
            raise ConfigError(f"prior coefficients must be finite, got {self}")
        if self.mode not in PRIOR_MODES:
            raise ConfigError(
                f"prior mode must be one of {PRIOR_MODES}, got {self.mode!r}"
            )

    @classmethod
    def uninformative(cls) -> "PriorParams":
        return cls(0.0, 0.0, "uninformative")


@dataclass(frozen=True)
class ThresholdParams:
    """Direct parameterization of log gamma = c1 + c2 * dt + c3 * xi.

    A fixed threshold is c2 = c3 = 0; then log gamma == c1 bit-for-bit.
    """

    c1: float
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c2 > 0.0:
            warnings.warn(
                "c2 > 0: threshold rises with time since the last update, so "
                "long gaps become harder to close; check the calibration data",
                stacklevel=3,  # the caller of the generated __init__
            )


def loss_factor(loss: LossParams, dt: float) -> float:
    """eta(dt) = max(alpha * exp(-theta * dt), floor)."""
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return max(loss.alpha * math.exp(-loss.theta * dt), loss.floor)


def hypothesis_prior(prior: PriorParams, xi: float) -> float:
    """Prior probability of the stationary hypothesis.

    Informative mode evaluates the logistic in beta1 * xi + beta2, clamped
    into the open unit interval so log-odds downstream stay finite.
    Uninformative mode returns exactly 1/2 and ignores xi.
    """
    if prior.mode == "uninformative":
        return 0.5
    if xi < 0.0:
        raise ValueError(f"xi must be >= 0 with an informative prior, got {xi}")
    z = prior.beta1 * xi + prior.beta2
    if z >= 0.0:
        ez = math.exp(-z)
        p = ez / (1.0 + ez)
    else:
        p = 1.0 / (1.0 + math.exp(z))
    return min(max(p, _PRIOR_MIN), _PRIOR_MAX)


def threshold_from_bayes(
    loss: LossParams, prior: PriorParams, dt: float, xi: float
) -> float:
    """Composed route: log gamma = log eta(dt) + log((1 - p) / p)."""
    eta = loss_factor(loss, dt)
    p = hypothesis_prior(prior, xi)
    return math.log(eta) + math.log((1.0 - p) / p)


def params_from_bayes(loss: LossParams, prior: PriorParams) -> ThresholdParams:
    """Collapse a loss/prior model into direct threshold coefficients.

    Informative prior: c1 = beta2 + log(alpha), c2 = -theta, c3 = beta1.
    Uninformative prior: the log-odds term is identically 0, so
    c1 = log(alpha), c2 = -theta, c3 = 0. Valid while the loss floor does
    not bind; a binding floor has no direct-form equivalent.
    """
    if prior.mode == "uninformative":
        return ThresholdParams(c1=math.log(loss.alpha), c2=-loss.theta, c3=0.0)
    return ThresholdParams(
        c1=prior.beta2 + math.log(loss.alpha), c2=-loss.theta, c3=prior.beta1
    )


def log_threshold(params, dt, xi):
    """Direct route, elementwise: ``params.c1``/``c2``/``c3``, ``dt`` and
    ``xi`` may be scalars or broadcastable arrays (one entry per lane).

    ``xi=None`` means no speed evidence and drops the c3 term; so does a NaN
    entry of an array ``xi``, which leaves c1 + c2 * dt bit for bit. The
    detector fires where its statistic strictly exceeds this value: a tie
    or a NaN statistic never fires.
    """
    if np.minimum.reduce(dt, axis=None) < 0.0:  # np.min without its wrapper
        raise ValueError(f"dt must be >= 0, got {dt}")
    value = params.c1 + params.c2 * dt
    if xi is None:
        return value
    return np.where(np.isnan(xi), value, value + params.c3 * xi)[()]


def interp_quantile(values, q: float) -> float:
    """Quantile with Weibull plotting positions and linear extrapolation.

    Sorted sample x_(i) sits at probability i / (n + 1). Quantiles between
    plotting positions interpolate linearly; quantiles outside them
    extrapolate along the nearest segment, so a small-epsilon quantile of
    a small sample can land below the observed minimum. A single-point
    sample returns that point for every q.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise CalibrationDataError("cannot take a quantile of an empty sample")
    if np.isnan(x).any():
        raise CalibrationDataError("quantile input contains NaN")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    x = np.sort(x)
    n = x.size
    if n == 1:
        return float(x[0])
    pos = np.arange(1, n + 1) / (n + 1)
    if q < pos[0]:
        lo, hi, plo, phi = x[0], x[1], pos[0], pos[1]
    elif q > pos[-1]:
        lo, hi, plo, phi = x[-2], x[-1], pos[-2], pos[-1]
    else:
        return float(np.interp(q, pos, x))
    return float(lo + (q - plo) * (hi - lo) / (phi - plo))


def calibrate(
    stationary_logl,
    midstance_logl,
    swing_logl,
    swing_xi_star: float | None,
    dtau: float,
    epsilon: float,
) -> ThresholdParams:
    """Fit threshold coefficients from labeled detector statistics.

    c1 is the epsilon-quantile of the perfectly-stationary statistics:
    at rest, roughly a fraction epsilon of windows fall below it. c2
    ramps the threshold so it reaches the epsilon-quantile of midstance
    statistics dtau seconds after the last update. c3 places the
    (1 - epsilon)-quantile of swing statistics, evaluated at the typical
    swing speed evidence xi*, exactly on the threshold halfway through
    the ramp. xi* of None or 0 selects the uninformative prior: c3 = 0
    and the third condition is skipped.

    Raises CalibrationDataError for empty or NaN-carrying inputs and
    ConfigError for parameters outside their domain.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    if not dtau > 0.0 or not math.isfinite(dtau):
        raise ConfigError(f"dtau must be positive and finite, got {dtau}")
    for name, sample in (
        ("stationary", stationary_logl),
        ("midstance", midstance_logl),
        ("swing", swing_logl),
    ):
        if len(np.atleast_1d(np.asarray(sample, dtype=float))) == 0:
            raise CalibrationDataError(f"{name} statistic sample is empty")
    c1 = interp_quantile(stationary_logl, epsilon)
    c2 = (interp_quantile(midstance_logl, epsilon) - c1) / dtau
    if swing_xi_star is None or swing_xi_star == 0.0:
        c3 = 0.0
    else:
        if not math.isfinite(swing_xi_star) or swing_xi_star < 0.0:
            raise ConfigError(
                f"swing speed evidence must be finite and > 0, got {swing_xi_star}"
            )
        q_swing = interp_quantile(swing_logl, 1.0 - epsilon)
        c3 = (q_swing - c1 - c2 * dtau / 2.0) / swing_xi_star
    return ThresholdParams(c1=c1, c2=c2, c3=c3)
