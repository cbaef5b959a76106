"""Weibull and empirical survival math shared by fitting, prediction and simulation.

All times are in seconds. Powers of the form (t/scale)^shape are evaluated as
exp(shape * (log t - log scale)) so extreme shapes do not overflow before the
outer exp can absorb them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeibullParams",
    "EmpiricalSurvival",
    "weibull_pdf",
    "weibull_survival",
    "weibull_hazard",
    "weibull_survival_inverse",
    "ks_statistic",
    "empirical_survival_at",
]

_EXP_CLAMP = 700.0  # exp(709) is the float64 ceiling


@dataclass(frozen=True, slots=True)
class WeibullParams:
    """Scale (seconds) and shape of one user's Weibull response-time law.

    Slotted: ``ModelDynamics`` builds one per lookup from its table, and the
    streaming estimator keeps one per observed user.
    """

    scale: float
    shape: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")
        if not (math.isfinite(self.shape) and self.shape > 0):
            raise ValueError(f"shape must be a positive finite real, got {self.shape}")


@dataclass(frozen=True)
class EmpiricalSurvival:
    """Empirical survival function of a set of observed delays.

    Uses the right-continuous ">= t" convention: the value at t is the
    fraction of delays that are at least t, so the function starts at 1.
    """

    delays: tuple[float, ...]

    def __post_init__(self):
        if len(self.delays) == 0:
            raise ValueError("empirical survival needs at least one delay")
        previous = 0.0
        for d in self.delays:
            if not (math.isfinite(d) and d >= 0):
                raise ValueError(f"delays must be nonnegative finite reals, got {d}")
            if d < previous:
                raise ValueError("delays must be sorted nondecreasing")
            previous = d

    @classmethod
    def from_delays(cls, delays) -> "EmpiricalSurvival":
        return cls(tuple(sorted(float(d) for d in delays)))

    @property
    def count(self) -> int:
        return len(self.delays)


def _log_ratio_power(p: WeibullParams, t):
    """(t/scale)^shape computed in log space, clamped against overflow."""
    z = p.shape * (np.log(t) - math.log(p.scale))
    return np.exp(np.minimum(z, _EXP_CLAMP))


def _log_hazard(p: WeibullParams, t, name: str):
    """t as an array, and the log of the hazard at t, for t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError(f"{name} requires t > 0")
    return t_arr, (math.log(p.shape) - math.log(p.scale)
                   + (p.shape - 1.0) * (np.log(t_arr) - math.log(p.scale)))


def weibull_pdf(p: WeibullParams, t):
    """Density (shape/scale)*(t/scale)^(shape-1)*exp(-(t/scale)^shape) for t > 0."""
    t_arr, log_h = _log_hazard(p, t, "pdf")
    out = np.exp(np.minimum(log_h, _EXP_CLAMP) - _log_ratio_power(p, t_arr))
    return float(out) if np.isscalar(t) else out


def _survival(t: float, log_scale: float, shape: float) -> float:
    """Survival at a float t >= 0 in Python floats; unchecked, so NaN gives NaN."""
    if t == 0.0:
        return 1.0
    return math.exp(-math.exp(min(shape * (math.log(t) - log_scale), _EXP_CLAMP)))


def weibull_survival(p: WeibullParams, t):
    """Survival exp(-(t/scale)^shape); equals 1 at t = 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("survival requires t >= 0")
    if np.isscalar(t):
        return _survival(float(t_arr), math.log(p.scale), p.shape)
    with np.errstate(divide="ignore"):  # log 0 = -inf gives survival 1
        return np.exp(-_log_ratio_power(p, t_arr))


def weibull_hazard(p: WeibullParams, t):
    """Hazard rate (shape/scale)*(t/scale)^(shape-1) for t > 0; equals pdf/survival."""
    _, log_h = _log_hazard(p, t, "hazard")
    out = np.exp(np.minimum(log_h, _EXP_CLAMP))
    return float(out) if np.isscalar(t) else out


def weibull_survival_inverse(p: WeibullParams, s: float) -> float:
    """Time t with survival(t) = s, for s in (0, 1]: scale * (-ln s)^(1/shape)."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"survival inverse requires 0 < s <= 1, got {s}")
    if s == 1.0:
        return 0.0
    return p.scale * math.exp(math.log(-math.log(s)) / p.shape)


def ks_statistic(model: WeibullParams, sample: EmpiricalSurvival) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the model CDF and the sample.

    Supremum of |empirical CDF - model CDF| over the sample's jump points,
    checking both sides of each jump.
    """
    d = np.asarray(sample.delays, dtype=float)
    n = d.size
    cdf = 1.0 - weibull_survival(model, d)
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = np.max(steps - cdf)
    d_minus = np.max(cdf - (steps - 1.0 / n))
    return float(max(d_plus, d_minus, 0.0))


def empirical_survival_at(e: EmpiricalSurvival, t: float) -> float:
    """Fraction of delays that are >= t."""
    if t < 0:
        raise ValueError("empirical survival requires t >= 0")
    return (e.count - bisect_left(e.delays, t)) / e.count
