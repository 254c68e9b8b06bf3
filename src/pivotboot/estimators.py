"""Point estimators: sample moments, resampled mean/variance, the scales S_n and S*, ECDFs.

Sample variance uses divisor ``n`` and the resampled variance divisor ``m``;
every downstream pivot and interval formula assumes these conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateWeightsError, DimensionMismatchError, ZeroBootstrapVarianceError,
                     ZeroVarianceError)
from .weights import CenteredWeights, WeightVector, dot, frozen_array

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


@dataclass(frozen=True)
class Sample:
    """Immutable observation vector with its finite mean and variance
    (divisor n), computed once from a private copy of the values."""

    values: np.ndarray
    mean: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self) -> None:
        values = frozen_array(self.values, "sample values")
        # An overflow (or the inf - inf it can leave) is the ValueError below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(values.mean())
            centered = values - mean
            variance = float(dot(centered, centered) / values.size)
        for name, value in (("mean", mean), ("variance", variance)):
            if not math.isfinite(value):
                raise ValueError(f"sample {name} overflows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)

    @classmethod
    def from_values(cls, values) -> "Sample":
        return cls(values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


def _check_lengths(s: Sample, n: int) -> None:
    if s.n != n:
        raise DimensionMismatchError(f"sample length {s.n} != weight length {n}")


def bootstrap_mean(s: Sample, w: WeightVector) -> float:
    """Resampled mean: sum_i w_i x_i / m."""
    _check_lengths(s, w.n)
    return float(dot(w.counts, s.values) / w.m)


def bootstrap_variance(s: Sample, w: WeightVector) -> float:
    """Resampled variance about the resampled mean, divisor m; exactly 0.0
    when every resampled value is the same one."""
    resampled_mean = bootstrap_mean(s, w)
    deviations = s.values - resampled_mean
    variance = float(dot(w.counts, deviations * deviations) / w.m)
    # The resampled mean of one repeated value x can round away from x and
    # leave a variance of about (1e-16 x)^2; only that small a variance
    # needs the exact test.
    if variance <= 1e-28 * resampled_mean * resampled_mean:
        drawn = s.values[w.counts > 0]
        if drawn.min() == drawn.max():
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
    return float(np.sqrt(variance))


def weighted_mean_estimator(s: Sample, cw: CenteredWeights) -> float:
    """Absolute-centered-weight average: sum |c_i| x_i / sum |c_i|."""
    _check_lengths(s, cw.values.size)
    if cw.sum_abs <= 0.0:
        raise DegenerateWeightsError("absolute centered weights sum to zero")
    return float(dot(np.abs(cw.values), s.values) / cw.sum_abs)


def ecdf(s: Sample, x: float) -> float:
    """Empirical distribution function #{x_i <= x}/n (ties use <=)."""
    return float(np.count_nonzero(s.values <= x)) / s.n


def bootstrap_ecdf(s: Sample, w: WeightVector, x: float) -> float:
    """Resampled empirical distribution function: sum_i (w_i/m) 1(x_i <= x)."""
    _check_lengths(s, w.n)
    return float(dot(w.counts, (s.values <= x).astype(float)) / w.m)
