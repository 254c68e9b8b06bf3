"""Point estimators: sample moments, resampled mean/variance, ECDFs.

Sample variance uses divisor ``n`` and the resampled variance divisor ``m``;
every downstream pivot and interval formula assumes these conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightsError, DimensionMismatchError
from .weights import CenteredWeights, WeightVector, dot

__all__ = [
    "Sample",
    "bootstrap_mean",
    "bootstrap_variance",
    "weighted_mean_estimator",
    "ecdf",
    "bootstrap_ecdf",
]


@dataclass(frozen=True)
class Sample:
    """Immutable observation vector with its mean and variance (divisor n),
    computed once from a private copy of the values."""

    values: np.ndarray
    mean: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("a sample needs at least one observation")
        if not np.isfinite(values).all():
            raise ValueError("sample values must be finite")
        values.setflags(write=False)
        mean = float(values.mean())
        centered = values - mean
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", float(dot(centered, centered) / values.size))

    @classmethod
    def from_values(cls, values) -> "Sample":
        return cls(values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


def _check_lengths(s: Sample, w: WeightVector) -> None:
    if s.n != w.n:
        raise DimensionMismatchError(f"sample length {s.n} != weight length {w.n}")


def bootstrap_mean(s: Sample, w: WeightVector) -> float:
    """Resampled mean: sum_i w_i x_i / m."""
    _check_lengths(s, w)
    return float(dot(w.counts, s.values) / w.m)


def bootstrap_variance(s: Sample, w: WeightVector) -> float:
    """Resampled variance about the resampled mean, divisor m; exactly 0.0
    when every resampled value is the same one."""
    _check_lengths(s, w)
    resampled_mean = dot(w.counts, s.values) / w.m
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


def weighted_mean_estimator(s: Sample, cw: CenteredWeights) -> float:
    """Absolute-centered-weight average: sum |c_i| x_i / sum |c_i|."""
    if s.n != cw.values.size:
        raise DimensionMismatchError(f"sample length {s.n} != weight length {cw.values.size}")
    if cw.sum_abs <= 0.0:
        raise DegenerateWeightsError("absolute centered weights sum to zero")
    return float(dot(np.abs(cw.values), s.values) / cw.sum_abs)


def ecdf(s: Sample, x: float) -> float:
    """Empirical distribution function #{x_i <= x}/n (ties use <=)."""
    return float(np.count_nonzero(s.values <= x)) / s.n


def bootstrap_ecdf(s: Sample, w: WeightVector, x: float) -> float:
    """Resampled empirical distribution function: sum_i (w_i/m) 1(x_i <= x)."""
    _check_lengths(s, w)
    return float(dot(w.counts, (s.values <= x).astype(float)) / w.m)
