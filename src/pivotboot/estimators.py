"""Point estimators: sample moments, resampled mean/variance, the scales S_n and S*, ECDFs.

Sample variance uses divisor ``n`` and the resampled variance divisor ``m``;
every downstream pivot and interval formula assumes these conventions.
Values are tuples of floats, reduced with ``weights.dot`` and
``weights.total`` in numpy's order, so this module loads no numpy.
"""

from __future__ import annotations

import math

from .errors import (DegenerateWeightsError, DimensionMismatchError, Frozen,
                     ZeroBootstrapVarianceError, ZeroVarianceError)
from .weights import CenteredWeights, WeightVector, dot, float_tuple, total

__all__ = [
    "Sample",
    "bootstrap_mean",
    "bootstrap_variance",
    "sample_std",
    "bootstrap_std",
    "weighted_mean_estimator",
    "ecdf",
    "bootstrap_ecdf",
]


class Sample(Frozen):
    """Immutable observation vector with its finite mean and variance
    (divisor n), computed once from a private copy of the values."""

    __slots__ = ("values", "mean", "variance")

    def __init__(self, values: tuple[float, ...]) -> None:
        values = float_tuple(values, "sample values")
        # An overflow (or the inf - inf it can leave) is the ValueError below.
        mean = total(values) / len(values)
        centered = [v - mean for v in values]
        variance = dot(centered, centered) / len(values)
        for name, value in (("mean", mean), ("variance", variance)):
            if not math.isfinite(value):
                raise ValueError(f"sample {name} overflows")
        self.__setstate__((values, mean, variance))

    @classmethod
    def from_values(cls, values) -> "Sample":
        return cls(values)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _check_lengths(s: Sample, n: int) -> None:
    if s.n != n:
        raise DimensionMismatchError(f"sample length {s.n} != weight length {n}")


def bootstrap_mean(s: Sample, w: WeightVector) -> float:
    """Resampled mean: sum_i w_i x_i / m."""
    _check_lengths(s, w.n)
    return dot(w.counts, s.values) / w.m


def bootstrap_variance(s: Sample, w: WeightVector) -> float:
    """Resampled variance about the resampled mean, divisor m; exactly 0.0
    when every resampled value is the same one."""
    resampled_mean = bootstrap_mean(s, w)
    deviations = [v - resampled_mean for v in s.values]
    variance = dot(w.counts, [d * d for d in deviations]) / w.m
    # The resampled mean of one repeated value x can round away from x and
    # leave a variance of about (1e-16 x)^2; only that small a variance
    # needs the exact test.
    if variance <= 1e-28 * resampled_mean * resampled_mean:
        drawn = [v for v, c in zip(s.values, w.counts) if c > 0]
        if min(drawn) == max(drawn):
            return 0.0
    return variance


def sample_std(s: Sample) -> float:
    """S_n, the scale of the S_n pivots and intervals; :class:`ZeroVarianceError` if zero."""
    if s.variance <= 0.0:
        raise ZeroVarianceError("sample variance is zero")
    return s.std


def bootstrap_std(s: Sample, w: WeightVector) -> float:
    """S* = sqrt(bootstrap_variance), the scale of the resampled-scale pivots and
    intervals; :class:`ZeroBootstrapVarianceError` if zero."""
    variance = bootstrap_variance(s, w)
    if variance <= 0.0:
        raise ZeroBootstrapVarianceError("resampled variance is zero")
    return math.sqrt(variance)


def weighted_mean_estimator(s: Sample, cw: CenteredWeights) -> float:
    """Absolute-centered-weight average: sum |c_i| x_i / sum |c_i|."""
    _check_lengths(s, len(cw.values))
    if cw.sum_abs <= 0.0:
        raise DegenerateWeightsError("absolute centered weights sum to zero")
    return dot(list(map(abs, cw.values)), s.values) / cw.sum_abs


def ecdf(s: Sample, x: float) -> float:
    """Empirical distribution function #{x_i <= x}/n (ties use <=)."""
    return sum(v <= x for v in s.values) / s.n


def bootstrap_ecdf(s: Sample, w: WeightVector, x: float) -> float:
    """Resampled empirical distribution function: sum_i (w_i/m) 1(x_i <= x)."""
    _check_lengths(s, w.n)
    return dot(w.counts, _indicators(s, x)) / w.m


def _indicators(s: Sample, x: float) -> list[float]:
    """The indicator data 1(x_i <= x), as floats."""
    return [1.0 if v <= x else 0.0 for v in s.values]
