"""Interval tests: quantile accuracy, frozen interval values, dualities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pivotboot.errors import (
    DegenerateScaleError,
    DegenerateWeightsError,
    DomainError,
    ZeroBootstrapVarianceError,
    ZeroVarianceError,
)
from pivotboot.estimators import Sample, ecdf
from pivotboot.gaussian import normal_cdf, normal_quantile
from pivotboot.intervals import (
    Interval,
    IntervalTarget,
    ci_ecdf,
    ci_finite_pop_mean,
    ci_population_mean,
    ci_sample_mean,
    ci_superpop_mean,
)
from pivotboot.pivots import PivotKind, empirical_pivot, g_star, starred_variant, t_star
from pivotboot.rng import substream
from pivotboot.weights import WeightScheme, WeightVector, center, draw_multinomial_weights


def mw(counts) -> WeightVector:
    arr = np.asarray(counts, dtype=float)
    return WeightVector(arr, float(arr.sum()), WeightScheme.MULTINOMIAL)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_anchor_constants(self):
        assert normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-5)
        assert normal_quantile(0.9000169) == pytest.approx(1.281648, abs=1e-5)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                normal_quantile(bad)

    def test_against_scipy_oracle(self):
        grid = np.concatenate([
            np.linspace(1e-9, 1 - 1e-9, 2001),
            [1e-12, 1e-7, 0.02425, 0.5, 0.97575, 1 - 1e-7],
        ])
        for p in grid:
            assert abs(normal_quantile(float(p)) - ndtri(p)) < 1e-9

    def test_cdf_roundtrip(self):
        for p in (0.001, 0.3, 0.5, 0.77, 0.9999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


ONE_ZERO = Sample.from_values([1.0, 0.0])
THREE = Sample.from_values([1.0, 0.0, 2.0])


class TestPopulationMeanInterval:
    def test_hand_example(self):
        cw = center(mw([2, 0]), 2)
        interval = ci_population_mean(ONE_ZERO, cw, 0.1)
        assert interval.lo == pytest.approx(-0.081542, abs=1e-5)
        assert interval.hi == pytest.approx(1.081542, abs=1e-5)
        assert interval.target is IntervalTarget.POPULATION_MEAN

    def test_alpha_near_one_collapses(self):
        cw = center(mw([2, 0]), 2)
        interval = ci_population_mean(ONE_ZERO, cw, 1 - 1e-12)
        assert interval.width < 1e-6
        assert interval.lo == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeightsError):
            ci_population_mean(ONE_ZERO, center(mw([1, 1]), 2), 0.1)


class TestSampleMeanInterval:
    def test_hand_example(self):
        w = mw([2, 0])
        interval = ci_sample_mean(ONE_ZERO, w, center(w, 2), 0.1)
        assert interval.lo == pytest.approx(0.418458, abs=1e-5)
        assert interval.hi == pytest.approx(1.581542, abs=1e-5)
        assert ONE_ZERO.mean in interval

    def test_constant_data(self):
        w = mw([2, 0])
        with pytest.raises(ZeroVarianceError):
            ci_sample_mean(Sample.from_values([3.0, 3.0]), w, center(w, 2), 0.1)

    def test_degenerate_weights(self):
        w = mw([1, 1])
        with pytest.raises(DegenerateWeightsError):
            ci_sample_mean(ONE_ZERO, w, center(w, 2), 0.1)


class TestFinitePopInterval:
    def test_hand_example(self):
        w = mw([2, 1, 0])
        interval = ci_finite_pop_mean(THREE, w, center(w, 3), 0.1)
        assert interval.lo == pytest.approx(2 / 3 - 0.365523, abs=1e-5)
        assert interval.hi == pytest.approx(2 / 3 + 0.365523, abs=1e-5)

    def test_zero_resampled_variance(self):
        w = mw([2, 0])
        with pytest.raises(ZeroBootstrapVarianceError):
            ci_finite_pop_mean(ONE_ZERO, w, center(w, 2), 0.1)


class TestSuperPopInterval:
    def test_hand_example(self):
        w = mw([2, 1, 0])
        interval = ci_superpop_mean(THREE, w, center(w, 3), 0.1)
        assert interval.lo == pytest.approx(1.5 - 0.548285, abs=1e-5)
        assert interval.hi == pytest.approx(1.5 + 0.548285, abs=1e-5)

    def test_degenerate_weights(self):
        w = mw([1, 1, 1])
        with pytest.raises(DegenerateWeightsError):
            ci_superpop_mean(THREE, w, center(w, 3), 0.1)


class TestEcdfInterval:
    def test_hand_example_with_clamping(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([2, 0, 1])
        interval = ci_ecdf(s, w, center(w, 3), 2.0, 0.1, IntervalTarget.ECDF_VALUE)
        assert interval.lo == pytest.approx(2 / 3 - 0.365523, abs=1e-5)
        assert interval.hi == 1.0
        assert interval.clamped

    def test_below_min_degenerate_scale(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([2, 0, 1])
        with pytest.raises(DegenerateScaleError):
            ci_ecdf(s, w, center(w, 3), 0.0, 0.1, IntervalTarget.ECDF_VALUE)

    def test_equal_weights_degenerate(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([1, 1, 1])
        with pytest.raises(DegenerateWeightsError):
            ci_ecdf(s, w, center(w, 3), 2.0, 0.1, IntervalTarget.ECDF_VALUE)

    def test_cdf_target_scales_by_abs_sum(self):
        s = Sample.from_values([1.0, 2.0, 3.0, 7.0])
        w = mw([2, 0, 1, 1])
        cw = center(w, 4)
        a = ci_ecdf(s, w, cw, 2.5, 0.2, IntervalTarget.ECDF_VALUE)
        b = ci_ecdf(s, w, cw, 2.5, 0.2, IntervalTarget.CDF_VALUE)
        if not (a.clamped or b.clamped):
            assert b.width == pytest.approx(a.width / cw.sum_abs, rel=1e-12)


def random_instance(r: int, n: int = 9):
    values = substream(20, "data", r).standard_normal(n) * 2.0 + 0.5
    s = Sample.from_values(values)
    for k in range(50):
        w = draw_multinomial_weights(n, n + 3, substream(20, "w", r, k))
        cw = center(w, n)
        if cw.sum_squares > 0:
            return s, w, cw
    raise AssertionError("no draw")


class TestDualities:
    def test_population_mean_duality(self):
        z = normal_quantile(1 - 0.1 / 2)
        for r in range(200):
            s, w, cw = random_instance(r)
            interval = ci_population_mean(s, cw, 0.1)
            for mu in (interval.lo + 1e-12, interval.hi - 1e-12,
                       (interval.lo + interval.hi) / 2):
                assert abs(g_star(s, cw, mu)) <= z + 1e-10
            for mu in (interval.lo - 1e-6 * (1 + interval.width),
                       interval.hi + 1e-6 * (1 + interval.width)):
                assert abs(g_star(s, cw, mu)) > z - 1e-10

    def test_sample_mean_duality(self):
        z = normal_quantile(1 - 0.1 / 2)
        for r in range(200):
            s, w, cw = random_instance(r)
            interval = ci_sample_mean(s, w, cw, 0.1)
            inside = s.mean in interval
            assert inside == (abs(t_star(s, cw)) <= z + 1e-10)

    def test_finite_pop_duality(self):
        z = normal_quantile(1 - 0.1 / 2)
        hits = 0
        for r in range(200):
            s, w, cw = random_instance(r)
            try:
                interval = ci_finite_pop_mean(s, w, cw, 0.1)
                pivot = starred_variant(PivotKind.T_DOUBLE_STAR, s, w, cw)
            except ZeroBootstrapVarianceError:
                continue
            hits += 1
            assert (s.mean in interval) == (abs(pivot) <= z + 1e-10)
        assert hits > 150

    # Properties: membership agrees with |pivot| <= z off a rounding-width
    # band around the boundary.  The target sits at a random multiple of the
    # half-width from the centre, often within 5% of an end of the interval.
    @given(r=st.integers(0, 10**6), n=st.integers(2, 30), alpha=st.floats(0.01, 0.5),
           offset=st.one_of(st.floats(-3.0, 3.0), st.floats(0.95, 1.05), st.floats(-1.05, -0.95)))
    @settings(max_examples=200, deadline=None)
    def test_superpop_duality_property(self, r, n, alpha, offset):
        s, w, cw = random_instance(r, n)
        try:
            interval = ci_superpop_mean(s, w, cw, alpha)
        except ZeroBootstrapVarianceError:
            assume(False)
        mu = (interval.lo + interval.hi) / 2 + offset * interval.width / 2
        pivot = starred_variant(PivotKind.G_DOUBLE_STAR, s, w, cw, mu=mu)
        z = normal_quantile(1 - alpha / 2)
        assume(abs(abs(pivot) - z) > 1e-9)
        assert (mu in interval) == (abs(pivot) <= z)

    @given(r=st.integers(0, 10**6), n=st.integers(2, 30), alpha=st.floats(0.01, 0.5),
           offset=st.one_of(st.floats(-3.0, 3.0), st.floats(0.95, 1.05), st.floats(-1.05, -0.95)))
    @settings(max_examples=200, deadline=None)
    def test_population_duality_property(self, r, n, alpha, offset):
        s, w, cw = random_instance(r, n)
        interval = ci_population_mean(s, cw, alpha)
        mu = (interval.lo + interval.hi) / 2 + offset * interval.width / 2
        pivot = g_star(s, cw, mu)
        z = normal_quantile(1 - alpha / 2)
        assume(abs(abs(pivot) - z) > 1e-9)
        assert (mu in interval) == (abs(pivot) <= z)

    # The sample-mean recipes have a fixed target, the sample mean, so the
    # level is set from the pivot instead: z = |pivot| * ratio, often within
    # 5% of the boundary.
    @pytest.mark.parametrize("recipe, pivot", [
        (ci_sample_mean, lambda s, w, cw: t_star(s, cw)),
        (ci_finite_pop_mean, lambda s, w, cw: starred_variant(PivotKind.T_DOUBLE_STAR, s, w, cw)),
    ], ids=["sample", "finitepop"])
    @given(r=st.integers(0, 10**6), n=st.integers(2, 30),
           ratio=st.one_of(st.floats(0.2, 3.0), st.floats(0.95, 1.05)))
    @settings(max_examples=200, deadline=None)
    def test_sample_mean_duality_property(self, recipe, pivot, r, n, ratio):
        s, w, cw = random_instance(r, n)
        try:
            value = pivot(s, w, cw)
        except ZeroBootstrapVarianceError:  # finitepop only
            assume(False)
        alpha = 2 * normal_cdf(-abs(value) * ratio)
        assume(1e-9 < alpha < 1.0)  # 1 - alpha/2 must stay below 1.0 in doubles
        interval = recipe(s, w, cw, alpha)
        z = normal_quantile(1 - alpha / 2)
        assume(abs(abs(value) - z) > 1e-9)
        assert (s.mean in interval) == (abs(value) <= z)

    @given(r=st.integers(0, 10**6), n=st.integers(2, 30), alpha=st.floats(0.01, 0.5),
           x=st.floats(-4.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_ecdf_duality_property(self, r, n, alpha, x):
        s, w, cw = random_instance(r, n)
        try:
            interval = ci_ecdf(s, w, cw, x, alpha, IntervalTarget.ECDF_VALUE)
        except DegenerateScaleError:
            assume(False)
        pivot = empirical_pivot(PivotKind.ALPHA1_HAT_HAT, s, w, cw, x)
        z = normal_quantile(1 - alpha / 2)
        assume(abs(abs(pivot) - z) > 1e-9)
        assert (ecdf(s, x) in interval) == (abs(pivot) <= z)


class TestIntervalGeometry:
    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan),
                                        (1.0, 0.0)])
    def test_nan_or_reversed_ends_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="out of order"):
            Interval(lo, hi, 0.9, IntervalTarget.POPULATION_MEAN, "population")

    def test_monotone_nesting(self):
        for r in range(50):
            s, w, cw = random_instance(r)
            wide = ci_population_mean(s, cw, 0.05)
            narrow = ci_population_mean(s, cw, 0.2)
            assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi

    def test_shift_equivariance(self):
        shift = 2.75
        for r in range(50):
            s, w, cw = random_instance(r)
            shifted = Sample.from_values(s.values + shift)
            a = ci_population_mean(s, cw, 0.1)
            b = ci_population_mean(shifted, cw, 0.1)
            assert b.lo == pytest.approx(a.lo + shift, rel=1e-12, abs=1e-12)
            assert b.hi == pytest.approx(a.hi + shift, rel=1e-12, abs=1e-12)
            c = ci_sample_mean(s, w, cw, 0.1)
            d = ci_sample_mean(shifted, w, cw, 0.1)
            assert d.lo == pytest.approx(c.lo + shift, rel=1e-12, abs=1e-12)
            assert d.hi == pytest.approx(c.hi + shift, rel=1e-12, abs=1e-12)


class TestQuantileExtremes:
    def test_subnormal_tail_does_not_overflow(self):
        import math
        for p in (5e-324, 1e-310, 1e-300):
            value = normal_quantile(p)
            assert math.isfinite(value) and value < -37.0
