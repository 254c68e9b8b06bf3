"""Interval tests: quantile accuracy, frozen interval values, dualities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pivotboot.errors import (
    DegenerateScaleError,
    DegenerateWeightsError,
    DimensionMismatchError,
    DomainError,
    MuArityError,
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
from pivotboot.multi_bootstrap import draw_replicates
from pivotboot.pivots import PivotKind, empirical_pivot, g_star, starred_variant, t_star
from pivotboot.rng import substream
from pivotboot.weights import CenteredWeights, center, draw_multinomial_weights

from helpers import mw


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
        cw = center(mw([2, 0]))
        interval = ci_population_mean(ONE_ZERO, cw, 0.1)
        assert interval.lo == pytest.approx(-0.081542, abs=1e-5)
        assert interval.hi == pytest.approx(1.081542, abs=1e-5)
        assert interval.target is IntervalTarget.POPULATION_MEAN

    def test_alpha_near_one_collapses(self):
        cw = center(mw([2, 0]))
        interval = ci_population_mean(ONE_ZERO, cw, 1 - 1e-12)
        assert interval.width < 1e-6
        assert interval.lo == pytest.approx(0.5, abs=1e-6)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeightsError):
            ci_population_mean(ONE_ZERO, center(mw([1, 1])), 0.1)

    def test_hand_built_weights_take_their_own_norms(self):
        # The norms come from the weights; a caller-given sum_squares of 1e6
        # would widen this interval to (-821.9, 822.9).
        with pytest.raises(TypeError):
            CenteredWeights(mw([2, 0]), sum_squares=1e6, sum_abs=1.0)
        interval = ci_population_mean(ONE_ZERO, CenteredWeights(mw([2, 0])), 0.1)
        assert interval.lo == pytest.approx(-0.081542, abs=1e-5)
        assert interval.hi == pytest.approx(1.081542, abs=1e-5)


class TestSampleMeanInterval:
    def test_hand_example(self):
        w = mw([2, 0])
        interval = ci_sample_mean(ONE_ZERO, center(w), 0.1)
        assert interval.lo == pytest.approx(0.418458, abs=1e-5)
        assert interval.hi == pytest.approx(1.581542, abs=1e-5)
        assert ONE_ZERO.mean in interval

    def test_constant_data(self):
        w = mw([2, 0])
        with pytest.raises(ZeroVarianceError):
            ci_sample_mean(Sample.from_values([3.0, 3.0]), center(w), 0.1)

    def test_degenerate_weights(self):
        w = mw([1, 1])
        with pytest.raises(DegenerateWeightsError):
            ci_sample_mean(ONE_ZERO, center(w), 0.1)


class TestFinitePopInterval:
    def test_hand_example(self):
        w = mw([2, 1, 0])
        interval = ci_finite_pop_mean(THREE, center(w), 0.1)
        assert interval.lo == pytest.approx(2 / 3 - 0.365523, abs=1e-5)
        assert interval.hi == pytest.approx(2 / 3 + 0.365523, abs=1e-5)

    def test_zero_resampled_variance(self):
        w = mw([2, 0])
        with pytest.raises(ZeroBootstrapVarianceError):
            ci_finite_pop_mean(ONE_ZERO, center(w), 0.1)


class TestSuperPopInterval:
    def test_hand_example(self):
        w = mw([2, 1, 0])
        interval = ci_superpop_mean(THREE, center(w), 0.1)
        assert interval.lo == pytest.approx(1.5 - 0.548285, abs=1e-5)
        assert interval.hi == pytest.approx(1.5 + 0.548285, abs=1e-5)

    def test_degenerate_weights(self):
        w = mw([1, 1, 1])
        with pytest.raises(DegenerateWeightsError):
            ci_superpop_mean(THREE, center(w), 0.1)


class TestEcdfInterval:
    def test_hand_example_with_clamping(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([2, 0, 1])
        interval = ci_ecdf(s, center(w), 2.0, 0.1, IntervalTarget.ECDF_VALUE)
        assert interval.lo == pytest.approx(2 / 3 - 0.365523, abs=1e-5)
        assert interval.hi == 1.0
        assert interval.clamped

    def test_below_min_degenerate_scale(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([2, 0, 1])
        with pytest.raises(DegenerateScaleError):
            ci_ecdf(s, center(w), 0.0, 0.1, IntervalTarget.ECDF_VALUE)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, x):
        # not read as a degenerate ECDF, which F*(x) = nan, 1 or 0 would give
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([2, 0, 1])
        with pytest.raises(ValueError, match="x must be finite"):
            ci_ecdf(s, center(w), x, 0.1, IntervalTarget.CDF_VALUE)

    @pytest.mark.parametrize("target", [IntervalTarget.ECDF_VALUE, IntervalTarget.CDF_VALUE],
                             ids=lambda target: target.name)
    def test_equal_weights_degenerate(self, target):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([1, 1, 1])
        with pytest.raises(DegenerateWeightsError):
            ci_ecdf(s, center(w), 2.0, 0.1, target)

    def test_cdf_target_scales_by_abs_sum(self):
        s = Sample.from_values([1.0, 2.0, 3.0, 7.0])
        w = mw([2, 0, 1, 1])
        cw = center(w)
        a = ci_ecdf(s, cw, 2.5, 0.2, IntervalTarget.ECDF_VALUE)
        b = ci_ecdf(s, cw, 2.5, 0.2, IntervalTarget.CDF_VALUE)
        if not (a.clamped or b.clamped):
            assert b.width == pytest.approx(a.width / cw.sum_abs, rel=1e-12)


def random_instance(r: int, n: int = 9):
    values = substream(20, "data", r).standard_normal(n) * 2.0 + 0.5
    s = Sample.from_values(values)
    for k in range(50):
        w = draw_multinomial_weights(n, n + 3, substream(20, "w", r, k))
        cw = center(w)
        if cw.sum_squares > 0:
            return s, cw
    raise AssertionError("no draw")


class TestDualities:
    def test_population_mean_duality(self):
        z = normal_quantile(1 - 0.1 / 2)
        for r in range(200):
            s, cw = random_instance(r)
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
            s, cw = random_instance(r)
            interval = ci_sample_mean(s, cw, 0.1)
            inside = s.mean in interval
            assert inside == (abs(t_star(s, cw)) <= z + 1e-10)

    def test_finite_pop_duality(self):
        z = normal_quantile(1 - 0.1 / 2)
        hits = 0
        for r in range(200):
            s, cw = random_instance(r)
            try:
                interval = ci_finite_pop_mean(s, cw, 0.1)
                pivot = starred_variant(PivotKind.T_DOUBLE_STAR, s, cw)
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
        s, cw = random_instance(r, n)
        try:
            interval = ci_superpop_mean(s, cw, alpha)
        except ZeroBootstrapVarianceError:
            assume(False)
        mu = (interval.lo + interval.hi) / 2 + offset * interval.width / 2
        pivot = starred_variant(PivotKind.G_DOUBLE_STAR, s, cw, mu=mu)
        z = normal_quantile(1 - alpha / 2)
        assume(abs(abs(pivot) - z) > 1e-9)
        assert (mu in interval) == (abs(pivot) <= z)

    @given(r=st.integers(0, 10**6), n=st.integers(2, 30), alpha=st.floats(0.01, 0.5),
           offset=st.one_of(st.floats(-3.0, 3.0), st.floats(0.95, 1.05), st.floats(-1.05, -0.95)))
    @settings(max_examples=200, deadline=None)
    def test_population_duality_property(self, r, n, alpha, offset):
        s, cw = random_instance(r, n)
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
        (ci_sample_mean, t_star),
        (ci_finite_pop_mean, lambda s, cw: starred_variant(PivotKind.T_DOUBLE_STAR, s, cw)),
    ], ids=["sample", "finitepop"])
    @given(r=st.integers(0, 10**6), n=st.integers(2, 30),
           ratio=st.one_of(st.floats(0.2, 3.0), st.floats(0.95, 1.05)))
    @settings(max_examples=200, deadline=None)
    def test_sample_mean_duality_property(self, recipe, pivot, r, n, ratio):
        s, cw = random_instance(r, n)
        try:
            value = pivot(s, cw)
        except ZeroBootstrapVarianceError:  # finitepop only
            assume(False)
        alpha = 2 * normal_cdf(-abs(value) * ratio)
        assume(1e-9 < alpha < 1.0)  # 1 - alpha/2 must stay below 1.0 in doubles
        interval = recipe(s, cw, alpha)
        z = normal_quantile(1 - alpha / 2)
        assume(abs(abs(value) - z) > 1e-9)
        assert (s.mean in interval) == (abs(value) <= z)

    @given(r=st.integers(0, 10**6), n=st.integers(2, 30), alpha=st.floats(0.01, 0.5),
           x=st.floats(-4.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_ecdf_duality_property(self, r, n, alpha, x):
        s, cw = random_instance(r, n)
        try:
            interval = ci_ecdf(s, cw, x, alpha, IntervalTarget.ECDF_VALUE)
        except DegenerateScaleError:
            assume(False)
        pivot = empirical_pivot(PivotKind.ALPHA1_HAT_HAT, s, cw, x)
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
            s, cw = random_instance(r)
            wide = ci_population_mean(s, cw, 0.05)
            narrow = ci_population_mean(s, cw, 0.2)
            assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi

    def test_shift_equivariance(self):
        shift = 2.75
        for r in range(50):
            s, cw = random_instance(r)
            shifted = Sample.from_values(np.array(s.values) + shift)
            a = ci_population_mean(s, cw, 0.1)
            b = ci_population_mean(shifted, cw, 0.1)
            assert b.lo == pytest.approx(a.lo + shift, rel=1e-12, abs=1e-12)
            assert b.hi == pytest.approx(a.hi + shift, rel=1e-12, abs=1e-12)
            c = ci_sample_mean(s, cw, 0.1)
            d = ci_sample_mean(shifted, cw, 0.1)
            assert d.lo == pytest.approx(c.lo + shift, rel=1e-12, abs=1e-12)
            assert d.hi == pytest.approx(c.hi + shift, rel=1e-12, abs=1e-12)


class TestQuantileExtremes:
    def test_subnormal_tail_does_not_overflow(self):
        import math
        for p in (5e-324, 1e-310, 1e-300):
            value = normal_quantile(p)
            assert math.isfinite(value) and value < -37.0


# Double-fault inputs: each pivot and recipe checks in a fixed order (for the
# recipes alpha, weight norm, scale, centre), so two faults at once raise the
# first check's error.  CONSTANT has zero sample variance and zero resampled
# variance under any weights; FLAT centres to all zeros; ONE_DRAW resamples
# only THREE's first value; FOUR has the wrong length for CONSTANT.
CONSTANT = Sample.from_values([2.0, 2.0, 2.0])
FLAT, ONE_DRAW, FOUR = mw([1, 1, 1]), mw([3, 0, 0]), mw([2, 1, 1, 0])
RECIPE_CALLS = {
    "population": ci_population_mean,
    "sample": ci_sample_mean,
    "finitepop": ci_finite_pop_mean,
    "superpop": ci_superpop_mean,
    "ecdf": lambda s, cw, alpha: ci_ecdf(s, cw, 1.0, alpha, IntervalTarget.ECDF_VALUE),
    "cdf": lambda s, cw, alpha: ci_ecdf(s, cw, 1.0, alpha, IntervalTarget.CDF_VALUE),
}
STARRED = (PivotKind.T_DOUBLE_STAR, PivotKind.G_DOUBLE_STAR, PivotKind.T_TILDE,
           PivotKind.G_TILDE)


def starred(kind, s, w, mu=2.0):
    """starred_variant with mu where the kind takes it."""
    g_form = kind in (PivotKind.G_DOUBLE_STAR, PivotKind.G_TILDE)
    return starred_variant(kind, s, center(w), mu if g_form else None)


DOUBLE_FAULTS = {
    # zero sample variance with degenerate weights
    "t_star/zero-var+flat": (lambda: t_star(CONSTANT, center(FLAT)), ZeroVarianceError),
    "g_star/zero-var+flat": (lambda: g_star(CONSTANT, center(FLAT), 2.0), ZeroVarianceError),
    **{f"{kind.value}/zero-var+flat": (lambda kind=kind: starred(kind, CONSTANT, FLAT),
                                       ZeroBootstrapVarianceError) for kind in STARRED},
    "alpha1_hat/zero-var+flat": (
        lambda: empirical_pivot(PivotKind.ALPHA1_HAT, CONSTANT, center(FLAT), 2.0),
        DegenerateWeightsError),
    "alpha2_hat_hat/zero-var+flat": (
        lambda: empirical_pivot(PivotKind.ALPHA2_HAT_HAT, CONSTANT, center(FLAT), 2.0,
                                f_true=0.5),
        DegenerateWeightsError),
    "draw_replicates/zero-var+B1": (
        lambda: draw_replicates(CONSTANT, 1, 3, substream(1, "order")), ZeroVarianceError),
    **{f"ci_{name}/zero-var+flat": (lambda call=call: call(CONSTANT, center(FLAT), 0.1),
                                    DegenerateWeightsError)
       for name, call in RECIPE_CALLS.items()},
    # zero resampled variance with a bad alpha, or with a bad centring value
    **{f"ci_{name}/zero-resampled-var+alpha": (
        lambda call=call: call(THREE, center(ONE_DRAW), 1.5), ValueError)
       for name, call in RECIPE_CALLS.items()},
    "t_double_star/zero-resampled-var+mu": (
        lambda: starred_variant(PivotKind.T_DOUBLE_STAR, THREE, center(ONE_DRAW), 2.0),
        MuArityError),
    "alpha1_hat_hat/zero-resampled-var+f_true": (
        lambda: empirical_pivot(PivotKind.ALPHA1_HAT_HAT, THREE, center(ONE_DRAW), 1.0,
                                f_true=0.5),
        MuArityError),
    # mismatched lengths with zero sample variance
    "t_star/length+zero-var": (lambda: t_star(CONSTANT, center(FOUR)), ZeroVarianceError),
    "g_star/length+zero-var": (lambda: g_star(CONSTANT, center(FOUR), 2.0),
                               ZeroVarianceError),
    **{f"{kind.value}/length+zero-var": (lambda kind=kind: starred(kind, CONSTANT, FOUR),
                                         DimensionMismatchError) for kind in STARRED},
    "alpha1_hat/length+zero-var": (
        lambda: empirical_pivot(PivotKind.ALPHA1_HAT, CONSTANT, center(FOUR), 2.0),
        DegenerateScaleError),
    "alpha1_hat_hat/length+zero-var": (
        lambda: empirical_pivot(PivotKind.ALPHA1_HAT_HAT, CONSTANT, center(FOUR), 2.0),
        DimensionMismatchError),
    **{f"ci_{name}/length+zero-var": (
        lambda call=call: call(CONSTANT, center(FOUR), 0.1),
        ZeroVarianceError if name in ("population", "sample") else DimensionMismatchError)
       for name, call in RECIPE_CALLS.items()},
}


@pytest.mark.parametrize("case", list(DOUBLE_FAULTS))
def test_double_fault_raises_first_check(case):
    call, error = DOUBLE_FAULTS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error


# A sample of 3 values with weights of length 2: every pivot and recipe that
# reads weights raises DimensionMismatchError, not numpy's broadcast error.
TWO = mw([2, 0])
ALPHA2 = (PivotKind.ALPHA2_HAT, PivotKind.ALPHA2_HAT_HAT)
MISMATCHED = {
    "t_star": lambda: t_star(THREE, center(TWO)),
    "g_star": lambda: g_star(THREE, center(TWO), 1.0),
    **{kind.value: (lambda kind=kind: starred(kind, THREE, TWO, mu=1.0)) for kind in STARRED},
    **{kind.value: (lambda kind=kind: empirical_pivot(
        kind, THREE, center(TWO), 1.0, f_true=0.5 if kind in ALPHA2 else None))
       for kind in (PivotKind.ALPHA1_HAT, PivotKind.ALPHA1_HAT_HAT, *ALPHA2)},
    **{f"ci_{name}": (lambda call=call: call(THREE, center(TWO), 0.1))
       for name, call in RECIPE_CALLS.items()},
}


@pytest.mark.parametrize("case", list(MISMATCHED))
def test_length_mismatch_raises_dimension_mismatch(case):
    with pytest.raises(DimensionMismatchError) as raised:
        MISMATCHED[case]()
    assert type(raised.value) is DimensionMismatchError
