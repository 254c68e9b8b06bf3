"""Standard normal CDF, density, and quantile.

The quantile is the standard library's ``statistics.NormalDist().inv_cdf``
(Wichura's algorithm AS241), accurate to a few units in the last place;
coverage experiments depend on these cutoffs, so approximation error has to
stay negligible next to Monte Carlo noise.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import DomainError

__all__ = ["normal_cdf", "normal_pdf", "normal_quantile"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1).

    Raises :class:`DomainError` outside the open unit interval.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)
