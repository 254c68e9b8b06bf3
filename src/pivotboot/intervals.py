"""Confidence intervals built by inverting the pivot statistics.

Each recipe takes the centered weights alone, centers at the matching point
estimate and uses the two-sided normal cutoff z = Phi^{-1}(1 - alpha/2):

    population mean    weighted-mean estimate  +/- z S_n sqrt(V^2) / sum|c|
    sample mean        resampled mean          +/- z S_n sqrt(V^2)
    finite-pop mean    resampled mean          +/- z S*  sqrt(V^2)
    super-pop mean     weighted-mean estimate  +/- z S*  sqrt(V^2) / sum|c|
    ECDF value         F*(x) +/- z sqrt(F*(1-F*)) sqrt(V^2)
    CDF value          F*(x) +/- z sqrt(F*(1-F*)) sqrt(V^2) / sum|c|

Membership of the target is equivalent to |pivot| <= z for the first five
(G*, T*, T**, G**, alpha1-hat-hat), not for the CDF interval: it centres at
F*(x), while alpha2-hat-hat weighs its indicators by |c|.
"""

from __future__ import annotations

import enum
import math

from . import RECIPES
from .errors import DegenerateScaleError, Frozen
from .estimators import (
    Sample,
    bootstrap_ecdf,
    bootstrap_mean,
    bootstrap_std,
    sample_std,
    weighted_mean_estimator,
)
from .gaussian import normal_quantile
from .weights import CenteredWeights

__all__ = [
    "RECIPES",
    "IntervalTarget",
    "Interval",
    "normal_quantile",
    "ci_population_mean",
    "ci_sample_mean",
    "ci_finite_pop_mean",
    "ci_superpop_mean",
    "ci_ecdf",
]


class IntervalTarget(enum.Enum):
    POPULATION_MEAN = "population_mean"
    SAMPLE_MEAN = "sample_mean"
    FINITE_POP_MEAN = "finite_pop_mean"
    SUPER_POP_MEAN = "super_pop_mean"
    ECDF_VALUE = "ecdf_value"
    CDF_VALUE = "cdf_value"


class Interval(Frozen):
    """Closed interval with its nominal level and producing recipe."""

    __slots__ = ("lo", "hi", "level", "target", "recipe", "clamped")

    def __init__(self, lo: float, hi: float, level: float, target: IntervalTarget, recipe: str,
                 clamped: bool = False) -> None:
        if not lo <= hi:  # NaN ends fail too
            raise ValueError("interval bounds out of order")
        if not 0.0 < level < 1.0:
            raise ValueError("confidence level must lie in (0, 1)")
        self.__setstate__((lo, hi, level, target, recipe, clamped))

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _two_sided_cutoff(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return normal_quantile(1.0 - alpha / 2.0)


def _mean_interval(target: IntervalTarget, recipe: str, s: Sample, cw: CenteredWeights,
                   alpha: float, *, resampled: bool, population: bool) -> Interval:
    """centre +/- z scale sqrt(V^2) / divisor, checked in the order alpha, weights, scale,
    centre: the scale is S* if ``resampled``, else S_n; a ``population`` form centres at
    the weighted-mean estimate with divisor sum|c|, the others at the resampled mean with 1."""
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    scale = bootstrap_std(s, cw.weights) if resampled else sample_std(s)
    center_value = weighted_mean_estimator(s, cw) if population else bootstrap_mean(s, cw.weights)
    half = z * scale * norm / (cw.sum_abs if population else 1.0)  # x / 1.0 is exactly x
    return Interval(center_value - half, center_value + half, 1.0 - alpha, target, recipe)


def ci_population_mean(s: Sample, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval for the underlying population mean."""
    return _mean_interval(IntervalTarget.POPULATION_MEAN, "ci_population_mean", s, cw, alpha,
                          resampled=False, population=True)


def ci_sample_mean(s: Sample, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval covering the observed sample mean."""
    return _mean_interval(IntervalTarget.SAMPLE_MEAN, "ci_sample_mean", s, cw, alpha,
                          resampled=False, population=False)


def ci_finite_pop_mean(s: Sample, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval covering a finite-population mean, scaled by the resampled
    standard deviation (the sample here plays the role of the population)."""
    return _mean_interval(IntervalTarget.FINITE_POP_MEAN, "ci_finite_pop_mean", s, cw, alpha,
                          resampled=True, population=False)


def ci_superpop_mean(s: Sample, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval for the mean of the infinite super-population behind the
    observed finite population."""
    return _mean_interval(IntervalTarget.SUPER_POP_MEAN, "ci_superpop_mean", s, cw, alpha,
                          resampled=True, population=True)


def ci_ecdf(s: Sample, cw: CenteredWeights, x: float, alpha: float,
            target: IntervalTarget) -> Interval:
    """Pointwise interval at ``x`` for the ECDF (target ECDF_VALUE) or the
    underlying CDF (target CDF_VALUE), clamped to [0, 1]."""
    if target not in (IntervalTarget.ECDF_VALUE, IntervalTarget.CDF_VALUE):
        raise ValueError("target must be ECDF_VALUE or CDF_VALUE")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    f_star = bootstrap_ecdf(s, cw.weights, x)
    spread = f_star * (1.0 - f_star)
    if spread <= 0.0:
        raise DegenerateScaleError(f"resampled ECDF is degenerate at x={x!r}")
    half = z * math.sqrt(spread) * norm
    if target is IntervalTarget.CDF_VALUE:
        half /= cw.sum_abs  # positive: cw.norm has raised unless some centered value is not zero
    lo, hi = f_star - half, f_star + half
    clamped = lo < 0.0 or hi > 1.0
    recipe = "ci_ecdf" if target is IntervalTarget.ECDF_VALUE else "ci_cdf"
    return Interval(max(lo, 0.0), min(hi, 1.0), 1.0 - alpha, target, recipe, clamped=clamped)
