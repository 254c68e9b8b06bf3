"""Exact calibration of the replicate cutoff: the law of the count Y.

The classical cutoff for comparing a Studentized mean against B replicate
pivots is the nu = (B+1)(1-alpha)-th smallest replicate.  Its calibration
rests on the count Y of negative components in a B-dimensional Gaussian
vector with unit variances and all correlations equal to 1/2.  Writing
Z_b = (Z_0 + U_b)/sqrt(2) with i.i.d. standard normal Z_0, U_1, ..., U_B
reproduces exactly that covariance, so the orthant probability with l
negative components reduces to the one-dimensional integral

    integral  phi(z) Phi(-z)^l (1 - Phi(-z))^(B-l) dz
            = Beta(l+1, B-l+1) = l! (B-l)! / (B+1)!

and Y is uniform on {0, ..., B}.  The refined cutoff picks the order
statistic whose exact asymptotic coverage (y+1)/(B+1) first reaches the
nominal level, y = ceil((B+1)(1-alpha)) - 1; a Monte Carlo (Genz-type)
evaluation of the same quantity at B = 9 gives 0.9000169 where the closed
form is exactly 0.9.  :func:`y_distribution` checks the uniform law by
quadrature, summed with the correctly rounded ``math.fsum``; its pmf is
within 3e-14 (relative) of 1/(B+1) for any B it takes.

This module imports only the standard library, so ``pivotboot ydist``
loads no numpy.  The order-statistic conventions of the cutoffs are
described in :mod:`pivotboot.multi_bootstrap`.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import DomainError, Frozen, NonIntegerRankError
from .gaussian import normal_cdf, normal_pdf

__all__ = ["YDistribution", "GENZ_LEVEL_B9", "orthant_probability",
           "orthant_probability_closed_form", "y_distribution", "y_quantile",
           "classical_cutoff_rank"]

# Monte Carlo (Genz algorithm) value of P(Y <= 8) at B = 9, kept for
# reference next to the exact 0.9; the two differ by 1.69e-5.
GENZ_LEVEL_B9 = 0.9000169


class YDistribution(Frozen):
    """Probability mass function of the negative-component count Y on {0..B}."""

    __slots__ = ("pmf", "B")

    def __init__(self, pmf: tuple[float, ...]) -> None:
        try:
            pmf = tuple(map(float, pmf))
        except TypeError as exc:
            raise ValueError("pmf must be a non-empty 1-D sequence") from exc
        if not all(map(math.isfinite, pmf)):
            raise ValueError("pmf must be finite")
        if len(pmf) < 3:
            raise ValueError("pmf must have B + 1 entries with B >= 2")
        if min(pmf) < 0 or abs(math.fsum(pmf) - 1.0) > 1e-10:
            raise ValueError("pmf entries must be nonnegative and sum to 1")
        self.__setstate__((pmf, len(pmf) - 1))

    def cumulative(self) -> tuple[float, ...]:
        return tuple(itertools.accumulate(self.pmf))


@functools.cache
def _orthant_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Trapezoid weights h phi(z) on an even grid of z in [-12, 12] (phi <
    1e-31 beyond), and Phi(-z).  The grid is numpy's linspace: z_k = -12 +
    k h, the last node exactly 12.  It converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 2014)."""
    h = 24.0 / (nodes - 1)
    z = [-12.0 + k * h for k in range(nodes - 1)] + [12.0]
    return tuple(h * normal_pdf(zk) for zk in z), tuple(normal_cdf(-zk) for zk in z)


def _check_orthant(B: int, l: int) -> None:
    if not 1 <= B <= 1000 or not 0 <= l <= B:  # the rule's node count grows with B
        raise DomainError(f"need B in [1, 1000] and l in [0, B], got B = {B}, l = {l}")


def orthant_probability(B: int, l: int) -> float:
    """Probability that exactly the first l of the B equicorrelated Gaussian
    components are negative and the rest positive, via 1-D quadrature."""
    _check_orthant(B, l)
    weights, lower = _orthant_rule(100 + 50 * math.isqrt(B))
    return math.fsum(w * (p**l * (1.0 - p) ** (B - l)) for w, p in zip(weights, lower))


def orthant_probability_closed_form(B: int, l: int) -> float:
    """Exact value of the orthant integral: l! (B-l)! / (B+1)!."""
    _check_orthant(B, l)
    return float(Fraction(math.factorial(l) * math.factorial(B - l), math.factorial(B + 1)))


def y_distribution(B: int) -> YDistribution:
    """Distribution of the negative-component count: pmf[l] = C(B,l) * orthant,
    for B up to 1000 (C(B, l) overflows a float from B = 1030)."""
    if not 2 <= B <= 1000:
        raise DomainError(f"B must lie in [2, 1000], got {B}")
    return YDistribution([math.comb(B, l) * orthant_probability(B, l) for l in range(B + 1)])


def _check_cutoff(B: int, alpha: float) -> None:
    if B < 2 or not 0.0 < alpha < 1.0:
        raise DomainError(f"need B >= 2 and alpha in (0, 1), got B = {B}, alpha = {alpha}")


def y_quantile(B: int, alpha: float) -> int:
    """Smallest y with P(Y <= y) >= 1 - alpha.

    Under the exact uniform law P(Y <= y) = (y+1)/(B+1) this is
    ceil((B+1)(1-alpha)) - 1, evaluated in rational arithmetic so that exact
    boundaries such as (B+1)(1-alpha) = 4 are not lost to rounding.
    """
    _check_cutoff(B, alpha)
    return math.ceil((B + 1) * (1 - Fraction(alpha))) - 1


def classical_cutoff_rank(B: int, alpha: float) -> int:
    """Classical order-statistic rank nu = (B+1)(1-alpha), 1-based from the
    smallest replicate.  Defined only when nu is an integer."""
    _check_cutoff(B, alpha)
    nu_real = (B + 1) * (1.0 - alpha)
    nu = round(nu_real)
    if abs(nu_real - nu) > 1e-9:
        raise NonIntegerRankError(f"(B+1)(1-alpha) = {nu_real!r} is not an integer")
    return int(nu)


def _cutoff_index(B: int, alpha: float) -> int:
    """The refined cutoff's 0-based order-statistic index, clamped to the
    maximum.  The refined interval and the replicate-cutoff harness read it."""
    return min(y_quantile(B, alpha), B - 1)
