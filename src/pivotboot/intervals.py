"""Confidence intervals built by inverting the pivot statistics.

Each recipe centers at the matching point estimate and uses the two-sided
normal cutoff z = Phi^{-1}(1 - alpha/2):

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
from dataclasses import dataclass

from .errors import (
    DegenerateScaleError,
    DegenerateWeightsError,
    ZeroBootstrapVarianceError,
    ZeroVarianceError,
)
from .estimators import (
    Sample,
    bootstrap_ecdf,
    bootstrap_mean,
    bootstrap_variance,
    weighted_mean_estimator,
)
from .gaussian import normal_quantile
from .weights import CenteredWeights, WeightVector

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

# Names of the six recipes, in the table's order above: the ``ci`` methods
# of the command line and the recipes of the coverage harness.
RECIPES = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")


class IntervalTarget(enum.Enum):
    POPULATION_MEAN = "population_mean"
    SAMPLE_MEAN = "sample_mean"
    FINITE_POP_MEAN = "finite_pop_mean"
    SUPER_POP_MEAN = "super_pop_mean"
    ECDF_VALUE = "ecdf_value"
    CDF_VALUE = "cdf_value"


@dataclass(frozen=True)
class Interval:
    """Closed interval with its nominal level and producing recipe."""

    lo: float
    hi: float
    level: float
    target: IntervalTarget
    recipe: str
    clamped: bool = False

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must lie in (0, 1)")

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _two_sided_cutoff(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return normal_quantile(1.0 - alpha / 2.0)


def ci_population_mean(s: Sample, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval for the underlying population mean."""
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    if s.variance <= 0.0:
        raise ZeroVarianceError("sample variance is zero")
    center_value = weighted_mean_estimator(s, cw)  # raises on sum_abs == 0
    half = z * s.std * norm / cw.sum_abs
    return Interval(center_value - half, center_value + half, 1.0 - alpha,
                    IntervalTarget.POPULATION_MEAN, "ci_population_mean")


def ci_sample_mean(s: Sample, w: WeightVector, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval covering the observed sample mean."""
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    if s.variance <= 0.0:
        raise ZeroVarianceError("sample variance is zero")
    center_value = bootstrap_mean(s, w)
    half = z * s.std * norm
    return Interval(center_value - half, center_value + half, 1.0 - alpha,
                    IntervalTarget.SAMPLE_MEAN, "ci_sample_mean")


def ci_finite_pop_mean(s: Sample, w: WeightVector, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval covering a finite-population mean, scaled by the resampled
    standard deviation (the sample here plays the role of the population)."""
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    resampled_var = bootstrap_variance(s, w)
    if resampled_var <= 0.0:
        raise ZeroBootstrapVarianceError("resampled variance is zero")
    center_value = bootstrap_mean(s, w)
    half = z * math.sqrt(resampled_var) * norm
    return Interval(center_value - half, center_value + half, 1.0 - alpha,
                    IntervalTarget.FINITE_POP_MEAN, "ci_finite_pop_mean")


def ci_superpop_mean(s: Sample, w: WeightVector, cw: CenteredWeights, alpha: float) -> Interval:
    """Interval for the mean of the infinite super-population behind the
    observed finite population."""
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    resampled_var = bootstrap_variance(s, w)
    if resampled_var <= 0.0:
        raise ZeroBootstrapVarianceError("resampled variance is zero")
    center_value = weighted_mean_estimator(s, cw)
    half = z * math.sqrt(resampled_var) * norm / cw.sum_abs
    return Interval(center_value - half, center_value + half, 1.0 - alpha,
                    IntervalTarget.SUPER_POP_MEAN, "ci_superpop_mean")


def ci_ecdf(
    s: Sample,
    w: WeightVector,
    cw: CenteredWeights,
    x: float,
    alpha: float,
    target: IntervalTarget,
) -> Interval:
    """Pointwise interval at ``x`` for the ECDF (target ECDF_VALUE) or the
    underlying CDF (target CDF_VALUE), clamped to [0, 1]."""
    if target not in (IntervalTarget.ECDF_VALUE, IntervalTarget.CDF_VALUE):
        raise ValueError("target must be ECDF_VALUE or CDF_VALUE")
    z = _two_sided_cutoff(alpha)
    norm = cw.norm
    f_star = bootstrap_ecdf(s, w, x)
    spread = f_star * (1.0 - f_star)
    if spread <= 0.0:
        raise DegenerateScaleError(f"resampled ECDF is degenerate at x={x!r}")
    half = z * math.sqrt(spread) * norm
    if target is IntervalTarget.CDF_VALUE:
        if cw.sum_abs <= 0.0:
            raise DegenerateWeightsError("absolute centered weights sum to zero")
        half /= cw.sum_abs
    lo, hi = f_star - half, f_star + half
    clamped = lo < 0.0 or hi > 1.0
    recipe = "ci_ecdf" if target is IntervalTarget.ECDF_VALUE else "ci_cdf"
    return Interval(max(lo, 0.0), min(hi, 1.0), 1.0 - alpha, target, recipe, clamped=clamped)
