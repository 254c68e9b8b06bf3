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
quadrature; its pmf is exact to about 1e-13 for any B it accepts.

Order-statistic conventions (both count from the smallest replicate):

* classical rank nu is 1-based, so nu = B picks the maximum;
* the refined index y is 0-based, so y = B - 1 picks the maximum, and the
  boundary case y = B (nominal level above B/(B+1)) is clamped to the
  maximum as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NonIntegerRankError, ZeroVarianceError
from .estimators import Sample
from .gaussian import normal_cdf, normal_pdf
from .pivots import t_star
from .weights import center, draw_multinomial_batch, draw_multinomial_weights, nondegenerate

# center, draw_multinomial_weights and t_star are draw_replicates' per-row
# reference path (tests/test_multi_bootstrap.py); perfbench/layers.py wraps
# them by these names in this module.

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
    B: int
    m: int
    degenerate_redraws: int = 0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.B < 2 or values.size != self.B:
            raise ValueError("a replicate set needs B >= 2 values")


@dataclass(frozen=True)
class YDistribution:
    """Probability mass function of the negative-component count Y on {0..B}."""

    B: int
    pmf: np.ndarray

    def __post_init__(self) -> None:
        pmf = np.array(self.pmf, dtype=float)
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)
        if self.B < 2 or pmf.size != self.B + 1:
            raise ValueError("pmf must have B + 1 entries with B >= 2")
        if np.any(pmf < 0) or abs(pmf.sum() - 1.0) > 1e-10:
            raise ValueError("pmf entries must be nonnegative and sum to 1")

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.pmf)


@functools.cache
def _orthant_rule(nodes: int) -> np.ndarray:
    """Rows: Gauss-Legendre weights on z in [-12, 12] (phi < 1e-31 beyond)
    times phi(z), and Phi(-z), at the nodes; read-only (shared by the cache)."""
    x, w = leggauss(nodes)
    rule = np.array([(12.0 * wk * normal_pdf(z), normal_cdf(-z)) for wk, z in zip(w, 12.0 * x)]).T
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
    return float(weights @ (lower**l * (1.0 - lower) ** (B - l)))


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
    return YDistribution(B=B, pmf=pmf)


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

    The B weight rows come from one batched draw, which yields the same rows
    as B one-row draws.  Rows whose centered weights all vanish leave the
    pivot undefined; each is replaced by the next row of the same stream,
    drawn one at a time after the batch, within the budget of
    :func:`~pivotboot.weights.nondegenerate`, and counted in
    ``degenerate_redraws``.  The values equal :func:`~pivotboot.pivots.t_star`
    on each accepted row.
    """
    if s.variance <= 0.0:
        raise ZeroVarianceError("sample variance is zero")
    if B < 2:
        raise DomainError("B must be at least 2")

    def centered(counts: np.ndarray) -> np.ndarray:
        return counts / m - 1.0 / s.n

    batch = centered(draw_multinomial_batch(s.n, m, B, stream))
    rows = iter(zip(batch, np.vecdot(batch, batch)))

    def draw() -> tuple[np.ndarray, float]:
        row = next(rows, None)
        if row is None:  # the batch is used up: only after a degenerate row
            values = centered(draw_multinomial_batch(s.n, m, 1, stream)[0])
            row = values, float(values @ values)
        return row

    draws = [nondegenerate(draw) for _ in range(B)]
    accepted = np.array([values for values, _ in draws])
    # np.vecdot takes, row by row, the dot product ``@`` takes of one row,
    # so these are t_star's values (the golden reports pin them).
    norms = np.sqrt(np.vecdot(accepted, accepted))
    return ReplicateSet(values=np.vecdot(accepted, s.values) / (s.std * norms), B=B, m=m,
                        degenerate_redraws=sum(redraws for _, redraws in draws))


@functools.lru_cache(maxsize=64)
def _cutoff_index(B: int, alpha: float) -> int:
    """The refined cutoff's 0-based order-statistic index, clamped to the
    maximum; cached because :func:`refined_contains` asks for it on every
    call.  The replicate-cutoff harness reads it here too."""
    return min(y_quantile(B, alpha), B - 1)


def refined_contains(t_value: float, reps: ReplicateSet, alpha: float) -> bool:
    """Whether ``t_value`` falls below the refined replicate cutoff.

    The cutoff is the order statistic indexed by y_quantile(B, alpha),
    0-based from the smallest replicate and clamped to the maximum (see the
    module docstring for the convention).  Ties are resolved by a stable
    sort, so the comparison is deterministic.
    """
    ordered = np.sort(reps.values, kind="stable")
    return bool(t_value <= ordered[_cutoff_index(reps.B, alpha)])
