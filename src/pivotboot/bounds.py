"""Finite-sample normal-approximation error bound and rate functions.

`berry_esseen_bound` evaluates a deterministic upper bound on the
probability that the conditional law of a weighted pivot strays from the
standard normal by more than ``delta``.  The bound is a sum of two terms: a
third-moment term driven by the sixth moment of a single multinomial count,
and a Chebyshev term controlling the fluctuation of the squared weight norm
around its mean.  `convergence_rate` gives the asymptotic order of that
bound for each pivot family.
"""

from __future__ import annotations

import enum
import math

from .errors import Frozen, InadmissibleParamsError

__all__ = [
    "BoundParams",
    "RateKind",
    "delta_n",
    "bound_terms",
    "berry_esseen_bound",
    "convergence_rate",
    "sixth_moment_expression",
]

# Published universal constant for the classical normal-approximation
# inequality; callers may override.
DEFAULT_UNIVERSAL_CONSTANT = 0.56


class BoundParams(Frozen):
    """Inputs of the error bound.

    ``third_abs_moment_ratio`` is E|X-mu|^3 / sigma^(3/2) for the data law
    and ``p_var_dev`` the probability that the sample variance deviates from
    sigma^2 by more than eps1^2; both describe a known data distribution and
    are supplied by the caller (analytically or via Monte Carlo).
    Admissibility requires 0 < eps < 1 and delta > (eps1/eps)^2 + p_var_dev + eps2.
    """

    __slots__ = "n", "m", "delta", "eps", "eps1", "eps2", "third_abs_moment_ratio", "p_var_dev", "C"

    def __init__(self, n: int, m: int, delta: float, eps: float, eps1: float, eps2: float,
                 third_abs_moment_ratio: float, p_var_dev: float = 0.0,
                 C: float = DEFAULT_UNIVERSAL_CONSTANT) -> None:
        # plain ints so the large n**3 * m products never overflow
        self.__setstate__((int(n), int(m), delta, eps, eps1, eps2, third_abs_moment_ratio,
                           p_var_dev, C))
        if self.n < 1 or self.m < 1:
            raise InadmissibleParamsError("n and m must be at least 1")
        if not (self.delta > 0 and 0 < self.eps < 1):  # the first term has (1 - eps)^-3
            raise InadmissibleParamsError("delta must be positive and eps in (0, 1)")
        for name in ("delta", "eps1", "eps2", "third_abs_moment_ratio", "p_var_dev", "C"):
            if not math.isfinite(getattr(self, name)):
                raise InadmissibleParamsError(f"{name} must be finite")
        if self.eps1 < 0 or self.eps2 < 0:
            raise InadmissibleParamsError("eps1 and eps2 cannot be negative")
        if not 0.0 <= self.p_var_dev <= 1.0:
            raise InadmissibleParamsError("p_var_dev must lie in [0, 1]")
        if self.third_abs_moment_ratio <= 0 or self.C <= 0:
            raise InadmissibleParamsError("moment ratio and C must be positive")
        slack = (self.eps1 / self.eps) ** 2 + self.p_var_dev + self.eps2
        if not self.delta > slack:
            raise InadmissibleParamsError(
                f"requires delta > (eps1/eps)^2 + p_var_dev + eps2 "
                f"({self.delta!r} <= {slack!r})"
            )


class RateKind(enum.Enum):
    G_STAR_RATE = "g_star_rate"
    T_STAR_RATE = "t_star_rate"
    G_DOUBLE_STAR_RATE = "g_double_star_rate"
    T_DOUBLE_STAR_RATE = "t_double_star_rate"


def sixth_moment_expression(n: int, m: int) -> float:
    """Sixth central moment bound for a single multinomial count:
    15 m^3/n^3 + 25 m^2/n^2 + m/n, for the sizes the weights module draws."""
    if n < 1 or not 1 <= m < 2**63:  # numpy draws counts as int64
        raise ValueError("n must be at least 1 and m in [1, 2**63)")
    return 15.0 * m**3 / n**3 + 25.0 * m**2 / n**2 + m / n


def delta_n(p: BoundParams) -> float:
    """Normalized slack entering the third-moment term.

    This is the printed form, which adds eps2 in the numerator; the
    admissibility inequality implies a subtracted-eps2 reading, and both are
    positive for admissible parameters.
    """
    numerator = p.delta - (p.eps1 / p.eps) ** 2 - p.p_var_dev + p.eps2
    return numerator / (p.C * p.third_abs_moment_ratio)


def bound_terms(p: BoundParams) -> tuple[float, float]:
    """The two summands of the bound.

    The statements for the absolute-weight and the signed-weight pivot
    share this identical right-hand side.
    """
    n, m = p.n, p.m
    if n < 2:
        raise InadmissibleParamsError("the bound is singular at n = 1")
    dn = delta_n(p)
    one_less = 1.0 - 1.0 / n

    first = (
        dn ** (-2.0)
        * (1.0 - p.eps) ** (-3.0)
        * one_less ** (-3.0)
        * (n / m**3 + n**2 / m**3)
        * sixth_moment_expression(n, m)
    )

    bracket = (
        one_less / (n**3 * m**3)
        + one_less**4 / m**3
        + (m - 1.0) * one_less**2 / (n * m**3)
        + 4.0 * (n - 1.0) / (n**3 * m)
        + 1.0 / m**2
        - 1.0 / (n * m**2)
        + (n - 1.0) / (n**3 * m**3)
        + 4.0 * (n - 1.0) / (n**2 * m**3)
        - one_less**2 / m**2
    )
    second = p.eps ** (-2.0) * m**2 / one_less * bracket
    return first, second


def berry_esseen_bound(p: BoundParams) -> float:
    """Evaluate the full two-term error bound."""
    first, second = bound_terms(p)
    return first + second


def convergence_rate(kind: RateKind, n: int, m: int) -> float:
    """Order of the normal-approximation error for the given pivot family.

    Sample-scale families decay like max(m/n^2, 1/m); resampled-scale
    families pick up the extra n/m^2 branch from estimating the variance on
    the resample.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    rate = max(m / n**2, 1.0 / m)
    if kind in (RateKind.G_DOUBLE_STAR_RATE, RateKind.T_DOUBLE_STAR_RATE):
        rate = max(rate, n / m**2)
    elif kind not in (RateKind.G_STAR_RATE, RateKind.T_STAR_RATE):
        raise ValueError(f"unknown rate kind: {kind!r}")
    return rate
