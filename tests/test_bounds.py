"""Bound tests: the dual-transcription oracle lives here, written in rational
arithmetic with different term grouping than the library implementation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pivotboot.bounds import (
    BoundParams,
    RateKind,
    berry_esseen_bound,
    bound_terms,
    convergence_rate,
    delta_n,
)
from pivotboot.errors import InadmissibleParamsError


def bound_oracle(n, m, delta, eps, eps1, eps2, ratio, p_var_dev=0.0, C=0.56):
    """Independent transcription: exact rational arithmetic for everything
    that depends only on (n, m), floats only at the outermost products."""
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


def params(n, m, **kw):
    defaults = dict(delta=0.5, eps=0.5, eps1=0.1, eps2=0.1,
                    third_abs_moment_ratio=1.0, p_var_dev=0.0, C=0.56)
    defaults.update(kw)
    return BoundParams(n=n, m=m, **defaults)


class TestDeltaN:
    def test_all_reductions(self):
        p = BoundParams(n=2, m=2, delta=1.0, eps=0.5, eps1=0.0, eps2=0.0,
                        third_abs_moment_ratio=1.0, C=1.0)
        assert delta_n(p) == pytest.approx(1.0)

    def test_hand_value(self):
        p = BoundParams(n=2, m=2, delta=0.5, eps=0.5, eps1=0.1, eps2=0.1,
                        third_abs_moment_ratio=2.0, C=0.56)
        assert delta_n(p) == pytest.approx(0.5)

    def test_boundary_inadmissible(self):
        # (eps1/eps)^2 = delta exactly
        with pytest.raises(InadmissibleParamsError, match="delta >"):
            BoundParams(n=2, m=2, delta=1.0, eps=0.5, eps1=0.5, eps2=0.0,
                        third_abs_moment_ratio=1.0, C=1.0)

    def test_eps_must_lie_below_one(self):
        # the first term carries (1 - eps)^-3: eps = 1 divides by zero and
        # eps > 1 made the bound negative
        for eps in (1.0, 1.2, float("nan")):
            with pytest.raises(InadmissibleParamsError, match="eps in \\(0, 1\\)"):
                params(50, 50, eps=eps)
        assert berry_esseen_bound(params(50, 50, eps=0.999)) > 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["delta", "eps", "eps1", "eps2", "third_abs_moment_ratio",
                                       "p_var_dev", "C"])
    def test_non_finite_parameter_named(self, field, value):
        # nan in the ratio or C gave a NaN first term, and inf a ZeroDivisionError
        with pytest.raises(InadmissibleParamsError, match=rf"\b{field}\b"):
            params(50, 50, **{field: value})


class TestBerryEsseenBound:
    def test_singular_at_n_one(self):
        with pytest.raises(InadmissibleParamsError):
            berry_esseen_bound(params(1, 10))

    def test_dual_transcription_on_grid(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 2000))
            m = int(rng.integers(1, 2000))
            delta = float(rng.uniform(0.3, 1.5))
            eps = float(rng.uniform(0.2, 0.9))
            eps1 = float(rng.uniform(0.0, 0.2 * eps))
            eps2 = float(rng.uniform(0.0, 0.1))
            ratio = float(rng.uniform(0.5, 4.0))
            if not delta > (eps1 / eps) ** 2 + eps2:
                continue
            p = BoundParams(n=n, m=m, delta=delta, eps=eps, eps1=eps1, eps2=eps2,
                            third_abs_moment_ratio=ratio)
            first, second = bound_terms(p)
            o_first, o_second = bound_oracle(n, m, delta, eps, eps1, eps2, ratio)
            assert first == pytest.approx(o_first, rel=1e-12)
            total, o_total = first + second, o_first + o_second
            assert total == pytest.approx(o_total, rel=1e-12)
            checked += 1

    def test_spec_grid_point(self):
        p = params(100, 100)
        first, second = bound_terms(p)
        o_first, o_second = bound_oracle(100, 100, 0.5, 0.5, 0.1, 0.1, 1.0)
        assert first + second == pytest.approx(o_first + o_second, rel=1e-12)

    def test_equal_sizes_halving(self):
        n = 10**6
        ratio = berry_esseen_bound(params(2 * n, 2 * n)) / berry_esseen_bound(params(n, n))
        assert 0.45 <= ratio <= 0.55

    def test_monotone_tail(self):
        values = [berry_esseen_bound(params(n, n))
                  for n in np.unique(np.logspace(3, 6, 40).astype(int))]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestConvergenceRate:
    def test_examples(self):
        assert convergence_rate(RateKind.G_STAR_RATE, 100, 100) == pytest.approx(0.01)
        assert convergence_rate(RateKind.G_DOUBLE_STAR_RATE, 100, 10) == pytest.approx(1.0)
        for n in (1, 7, 100, 12345):
            assert convergence_rate(RateKind.T_STAR_RATE, n, n) == pytest.approx(1.0 / n)

    def test_double_star_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 5000))
            m = int(rng.integers(1, 5000))
            star = convergence_rate(RateKind.G_STAR_RATE, n, m)
            double = convergence_rate(RateKind.G_DOUBLE_STAR_RATE, n, m)
            assert double >= star

    def test_extra_branch_is_the_gap_when_dominant(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 5000))
            m = int(rng.integers(1, 5000))
            star = convergence_rate(RateKind.T_STAR_RATE, n, m)
            double = convergence_rate(RateKind.T_DOUBLE_STAR_RATE, n, m)
            extra = n / m**2
            if extra >= star:
                assert double == pytest.approx(extra)
                assert double - star == pytest.approx(extra - star)
            else:
                assert double == pytest.approx(star)
