"""Helpers shared by several test modules."""

from fractions import Fraction

import numpy as np

from pivotboot.weights import WeightVector


def mw(counts) -> WeightVector:
    arr = np.asarray(counts, dtype=float)
    return WeightVector(arr)


def bound_oracle(n, m, delta, eps, eps1, eps2, ratio, p_var_dev=0.0, C=0.56):
    """The two terms of the finite-sample error bound, transcribed
    independently of ``bounds``: exact rational arithmetic for everything
    that depends only on (n, m), floats only at the outermost products, and
    a different term grouping than the library's."""
    dn = (delta - (eps1 / eps) ** 2 - p_var_dev + eps2) / (C * ratio)
    q = 1 - Fraction(1, n)
    sixth = 15 * Fraction(m, n) ** 3 + 25 * Fraction(m, n) ** 2 + Fraction(m, n)
    first = (
        dn ** (-2)
        * (1 - eps) ** (-3)
        * float(q ** (-3) * Fraction(n + n * n, m**3) * sixth)
    )
    bracket = (
        q / (n**3 * m**3)
        + q**4 / m**3
        + (m - 1) * q**2 / (n * m**3)
        + Fraction(4 * (n - 1), n**3 * m)
        + Fraction(1, m**2)
        - Fraction(1, n * m**2)
        + Fraction(n - 1, n**3 * m**3)
        + Fraction(4 * (n - 1), n**2 * m**3)
        - q**2 / m**2
    )
    second = eps ** (-2) * float(Fraction(m**2) / q * bracket)
    return first, second
