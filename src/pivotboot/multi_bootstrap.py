"""Replicate-based bootstrap cutoffs and their exact calibration.

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
quadrature; its pmf is within 3e-14 (relative) of 1/(B+1) for any B it takes.

Order-statistic conventions (both count from the smallest replicate):

* classical rank nu is 1-based, so nu = B picks the maximum;
* the refined index y is 0-based, so y = B - 1 picks the maximum, and the
  boundary case y = B (nominal level above B/(B+1)) is clamped to the
  maximum as well.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonIntegerRankError
from .estimators import Sample, sample_std
from .gaussian import normal_cdf, normal_pdf
from .pivots import t_star
from .weights import (WeightVector, center, dot, draw_multinomial_batch, draw_multinomial_weights,
                      frozen_array, nondegenerate)

__all__ = [
    "ReplicateSet",
    "YDistribution",
    "GENZ_LEVEL_B9",
    "orthant_probability",
    "orthant_probability_closed_form",
    "y_distribution",
    "y_quantile",
    "classical_cutoff_rank",
    "draw_replicates",
    "refined_contains",
]

# Monte Carlo (Genz algorithm) value of P(Y <= 8) at B = 9, kept for
# reference next to the exact 0.9; the two differ by 1.69e-5.
GENZ_LEVEL_B9 = 0.9000169


@dataclass(frozen=True)
class ReplicateSet:
    """Values of the signed-weight pivot over B independent weight draws."""

    values: np.ndarray
    degenerate_redraws: int = 0
    B: int = field(init=False)

    def __post_init__(self) -> None:
        values = frozen_array(self.values, "replicate values")
        if values.size < 2:
            raise ValueError("a replicate set needs B >= 2 values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "B", values.size)


@dataclass(frozen=True)
class YDistribution:
    """Probability mass function of the negative-component count Y on {0..B}."""

    pmf: np.ndarray
    B: int = field(init=False)

    def __post_init__(self) -> None:
        pmf = frozen_array(self.pmf, "pmf")
        if pmf.size < 3:
            raise ValueError("pmf must have B + 1 entries with B >= 2")
        if (pmf < 0).any() or abs(pmf.sum() - 1.0) > 1e-10:
            raise ValueError("pmf entries must be nonnegative and sum to 1")
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "B", pmf.size - 1)

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.pmf)


@functools.cache
def _orthant_rule(nodes: int) -> np.ndarray:
    """Rows: trapezoid weights h phi(z) on an even grid of z in [-12, 12]
    (phi < 1e-31 beyond), and Phi(-z); read-only (shared by the cache).  It
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    z, h = np.linspace(-12.0, 12.0, nodes, retstep=True)
    rule = np.array([(h * normal_pdf(zk), normal_cdf(-zk)) for zk in z]).T
    rule.setflags(write=False)
    return rule


def _check_orthant(B: int, l: int) -> None:
    if not 1 <= B <= 1000 or not 0 <= l <= B:  # the rule's node count grows with B
        raise DomainError(f"need B in [1, 1000] and l in [0, B], got B = {B}, l = {l}")


def orthant_probability(B: int, l: int) -> float:
    """Probability that exactly the first l of the B equicorrelated Gaussian
    components are negative and the rest positive, via 1-D quadrature."""
    _check_orthant(B, l)
    weights, lower = _orthant_rule(100 + 50 * math.isqrt(B))
    # Python's float pow, the C library's: np.power rounds differently on AVX-512 CPUs
    return float(dot(weights, [p**l * (1.0 - p) ** (B - l) for p in lower.tolist()]))


def orthant_probability_closed_form(B: int, l: int) -> float:
    """Exact value of the orthant integral: l! (B-l)! / (B+1)!."""
    _check_orthant(B, l)
    return float(Fraction(math.factorial(l) * math.factorial(B - l), math.factorial(B + 1)))


def y_distribution(B: int) -> YDistribution:
    """Distribution of the negative-component count: pmf[l] = C(B,l) * orthant,
    for B up to 1000 (C(B, l) overflows a float from B = 1030)."""
    if not 2 <= B <= 1000:
        raise DomainError(f"B must lie in [2, 1000], got {B}")
    pmf = [math.comb(B, l) * orthant_probability(B, l) for l in range(B + 1)]
    return YDistribution(pmf)


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


def draw_replicates(
    s: Sample, B: int, m: int, stream: np.random.Generator
) -> ReplicateSet:
    """Compute the signed-weight pivot on B independent multinomial draws.

    Each of the B slots takes the stream's next weight row (one batch call
    draws the first B) and evaluates :func:`~pivotboot.pivots.t_star` on it.
    A row whose counts are all equal (its centered weights all vanish) leaves
    the pivot undefined; the stream's next row replaces it, within the budget
    of :func:`~pivotboot.weights.nondegenerate`, counted in
    ``degenerate_redraws``.  Only the B rows kept are centered.
    """
    sample_std(s)  # ZeroVarianceError before any draw
    if B < 2:
        raise DomainError("B must be at least 2")
    rows = itertools.chain(draw_multinomial_batch(s.n, m, B, stream),  # then one row a call
                           (draw_multinomial_weights(s.n, m, stream).counts
                            for _ in itertools.count()))
    draws = [nondegenerate(rows.__next__) for _ in range(B)]
    return ReplicateSet([t_star(s, center(WeightVector(row))) for row, _ in draws],
                        degenerate_redraws=sum(redraws for _, redraws in draws))


def _cutoff_index(B: int, alpha: float) -> int:
    """The refined cutoff's 0-based order-statistic index, clamped to the
    maximum.  The replicate-cutoff harness reads it here too."""
    return min(y_quantile(B, alpha), B - 1)


def refined_contains(t_value: float, reps: ReplicateSet, alpha: float) -> bool:
    """Whether ``t_value`` falls below the refined replicate cutoff.

    The cutoff is the order statistic indexed by y_quantile(B, alpha),
    0-based from the smallest replicate and clamped to the maximum (see the
    module docstring for the convention).  A value equal to the cutoff
    counts as inside: ``t_value <= cutoff``.
    """
    ordered = np.sort(reps.values)
    return bool(t_value <= ordered[_cutoff_index(reps.B, alpha)])
