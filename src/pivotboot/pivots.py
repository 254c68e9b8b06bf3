"""Pivot statistics for mean and distribution-function inference.

All pivots share the same skeleton: a weighted sum of (possibly centered)
observations over a scale built from a variance estimate and a weight norm.
Writing c_i = w_i/m - 1/n, V^2 = sum c_i^2, S_n^2 the sample variance
(divisor n) and S*^2 the resampled variance (divisor m):

    student_t        (xbar - mu) / (S_n / sqrt(n))
    t_star           sum c_i x_i          / (S_n  sqrt(V^2))
    g_star           sum |c_i| (x_i - mu) / (S_n  sqrt(V^2))
    t_double_star    sum c_i x_i          / (S*   sqrt(V^2))
    g_double_star    sum |c_i| (x_i - mu) / (S*   sqrt(V^2))
    t_tilde          sum c_i x_i          / (S*  / sqrt(m))
    g_tilde          sum |c_i| (x_i - mu) / (S*  / sqrt(m))

The empirical variants apply the same formulas to indicator data
1(x_i <= x), with scale sqrt(F(1-F)) in place of the standard deviation; the
"hat" forms use the plain ECDF F_n(x) there and the "hat-hat" forms the
resampled ECDF F*(x).  The *1 family uses signed weights on the indicators,
the *2 family absolute weights on indicators centered at a known CDF value.
Each pivot takes the centered weights alone: S*, F*(x) and m are read from
the weight vector they carry.

Zero denominators raise typed errors rather than yielding NaN, so that
simulation harnesses can count degenerate draws.
"""

from __future__ import annotations

import enum
import math

from .errors import DegenerateScaleError, MuArityError
from .estimators import (Sample, _check_lengths, _indicators, bootstrap_ecdf, bootstrap_std, ecdf,
                         sample_std)
from .weights import CenteredWeights, dot

__all__ = [
    "PivotKind",
    "student_t",
    "t_star",
    "g_star",
    "starred_variant",
    "empirical_pivot",
]


class PivotKind(enum.Enum):
    STUDENT_T = "student_t"
    T_STAR = "t_star"
    G_STAR = "g_star"
    T_DOUBLE_STAR = "t_double_star"
    G_DOUBLE_STAR = "g_double_star"
    T_TILDE = "t_tilde"
    G_TILDE = "g_tilde"
    ALPHA1_HAT = "alpha1_hat"
    ALPHA1_HAT_HAT = "alpha1_hat_hat"
    ALPHA2_HAT = "alpha2_hat"
    ALPHA2_HAT_HAT = "alpha2_hat_hat"


_STARRED = {
    PivotKind.T_DOUBLE_STAR,
    PivotKind.G_DOUBLE_STAR,
    PivotKind.T_TILDE,
    PivotKind.G_TILDE,
}
EMPIRICAL_KINDS = {
    PivotKind.ALPHA1_HAT,
    PivotKind.ALPHA1_HAT_HAT,
    PivotKind.ALPHA2_HAT,
    PivotKind.ALPHA2_HAT_HAT,
}


def student_t(s: Sample, mu: float) -> float:
    """Classical Studentized mean: (xbar - mu) / (S_n / sqrt(n))."""
    return (s.mean - mu) / (sample_std(s) / math.sqrt(s.n))


def t_star(s: Sample, cw: CenteredWeights) -> float:
    """Signed-weight pivot for the sample mean.

    Identically equals (resampled mean - sample mean) / (S_n sqrt(V^2)).
    """
    scale = sample_std(s)
    _check_lengths(s, len(cw.values))
    return dot(cw.values, s.values) / (scale * cw.norm)


def g_star(s: Sample, cw: CenteredWeights, mu: float) -> float:
    """Absolute-weight pivot for the population mean ``mu``."""
    scale = sample_std(s)
    _check_lengths(s, len(cw.values))
    return _g_sum(s, cw, mu) / (scale * cw.norm)


def _g_sum(s: Sample, cw: CenteredWeights, mu: float) -> float:
    """sum |c_i| (x_i - mu)."""
    return dot(list(map(abs, cw.values)), [v - mu for v in s.values])


def starred_variant(kind: PivotKind, s: Sample, cw: CenteredWeights,
                    mu: float | None = None) -> float:
    """Evaluate a pivot scaled by the resampled standard deviation.

    ``mu`` is required for the G forms and forbidden for the T forms.
    Double-star forms use the weight norm sqrt(V^2); tilde forms use
    1/sqrt(m) instead.
    """
    if kind not in _STARRED:
        raise ValueError(f"{kind} is not a resampled-scale pivot")
    g_form = kind in (PivotKind.G_DOUBLE_STAR, PivotKind.G_TILDE)
    if g_form and mu is None:
        raise MuArityError(f"{kind.value} requires mu")
    if not g_form and mu is not None:
        raise MuArityError(f"{kind.value} does not take mu")
    resampled_std = bootstrap_std(s, cw.weights)
    numerator = _g_sum(s, cw, mu) if g_form else dot(cw.values, s.values)
    if kind in (PivotKind.T_DOUBLE_STAR, PivotKind.G_DOUBLE_STAR):
        return numerator / (resampled_std * cw.norm)
    return numerator / (resampled_std / math.sqrt(cw.weights.m))


def empirical_pivot(kind: PivotKind, s: Sample, cw: CenteredWeights, x: float,
                    f_true: float | None = None, inverse_root_m_scale: bool = False) -> float:
    """Evaluate a distribution-function pivot at the point ``x``.

    ``f_true`` (the CDF value being estimated, in (0,1)) is required for the
    *2 kinds and forbidden for the *1 kinds.  ``inverse_root_m_scale``
    replaces the weight norm sqrt(V^2) by 1/sqrt(m), an asymptotically
    equivalent scale licensed for these pivots only.
    """
    if kind not in EMPIRICAL_KINDS:
        raise ValueError(f"{kind} is not an empirical-distribution pivot")
    absolute = kind in (PivotKind.ALPHA2_HAT, PivotKind.ALPHA2_HAT_HAT)
    if absolute:
        if f_true is None:
            raise MuArityError(f"{kind.value} requires f_true")
        if not 0.0 < f_true < 1.0:
            raise DegenerateScaleError("f_true must lie strictly inside (0, 1)")
    elif f_true is not None:
        raise MuArityError(f"{kind.value} does not take f_true")

    weight_norm = cw.norm  # weight degeneracy checked even if substituted
    if inverse_root_m_scale:
        weight_norm = 1.0 / math.sqrt(cw.weights.m)

    if kind in (PivotKind.ALPHA1_HAT, PivotKind.ALPHA2_HAT):
        f_scale = ecdf(s, x)
    else:
        f_scale = bootstrap_ecdf(s, cw.weights, x)
    spread = f_scale * (1.0 - f_scale)
    if spread <= 0.0:
        raise DegenerateScaleError(f"distribution scale vanishes at x={x!r}")
    _check_lengths(s, len(cw.values))

    indicators = _indicators(s, x)
    if absolute:
        numerator = dot(list(map(abs, cw.values)), [i - f_true for i in indicators])
    else:
        numerator = dot(cw.values, indicators)
    return numerator / (math.sqrt(spread) * weight_norm)
