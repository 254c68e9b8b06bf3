"""Estimator tests: hand arithmetic, unbiasedness, pooling, ECDF behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pivotboot.errors import DegenerateWeightsError, DimensionMismatchError
from pivotboot.estimators import (
    Sample,
    bootstrap_ecdf,
    bootstrap_mean,
    bootstrap_variance,
    ecdf,
    weighted_mean_estimator,
)
from pivotboot.rng import substream
from pivotboot.weights import (
    WeightVector,
    center,
    draw_multinomial_batch,
)


def mw(counts) -> WeightVector:
    arr = np.asarray(counts, dtype=float)
    return WeightVector(arr)


class TestSample:
    def test_cached_moments_match_independent_recompute(self):
        rng = substream(0, "data")
        values = rng.standard_normal(257) * 3.0 + 1.7
        s = Sample.from_values(values)
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / len(values)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.variance == pytest.approx(var, rel=1e-12)

    def test_variance_uses_divisor_n(self):
        s = Sample.from_values([1.0, 0.0])
        assert s.variance == pytest.approx(0.25)  # not 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sample.from_values([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN would give a NaN mean, and ci_population_mean Interval(nan, nan)
        with pytest.raises(ValueError, match="finite"):
            Sample.from_values([1.0, bad, 2.0])

    @pytest.mark.parametrize("values, field", [
        ([1e308, 1e308, 1.0], "mean"),
        ([1e308, -1e308, 1e308, -1e308], "variance"),
        # numpy's pairwise sum meets inf - inf here: a NaN mean, no warning
        ([1e308, -1e308] * 8, "mean"),
    ])
    def test_overflowing_moments_rejected(self, values, field):
        # an infinite mean or variance would make student_t return NaN
        with pytest.raises(ValueError, match=f"^sample {field} overflows$"):
            Sample.from_values(values)

    def test_callers_array_stays_writable_and_detached(self):
        values = np.array([1.0, 2.0, 6.0])
        s = Sample.from_values(values)
        values[0] = 5.0
        assert s.values == (1.0, 2.0, 6.0)
        assert s.mean == 3.0
        with pytest.raises(TypeError, match="does not support item assignment"):
            s.values[0] = 5.0


class TestBootstrapMean:
    def test_hand_examples(self):
        s = Sample.from_values([1.0, 0.0])
        assert bootstrap_mean(s, mw([2, 0])) == 1.0
        assert bootstrap_mean(s, mw([1, 1])) == 0.5
        s3 = Sample.from_values([1.0, 0.0, 2.0])
        assert bootstrap_mean(s3, mw([2, 1, 0])) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bootstrap_mean(Sample.from_values([1.0, 2.0]), mw([1, 1, 1]))

    def test_equal_weights_reproduce_sample_mean_exactly(self):
        rng = substream(1, "data")
        values = rng.standard_normal(8)
        s = Sample.from_values(values)
        w = mw(np.full(8, 3.0))
        assert bootstrap_mean(s, w) == pytest.approx(s.mean, abs=1e-15)

    def test_unbiased_over_weight_draws(self):
        rng = substream(2, "data")
        s = Sample.from_values(rng.standard_normal(10) + 0.4)
        counts = draw_multinomial_batch(10, 10, 100_000, substream(2, "w"))
        means = counts @ s.values / 10
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - s.mean) <= 3 * se

    def test_pooling_identity(self):
        # averaging per-subsample means equals the single pooled-resample mean
        rng = substream(3, "data")
        s = Sample.from_values(rng.standard_normal(6))
        B = 7
        counts = draw_multinomial_batch(6, 6, B, substream(3, "w"))
        per_mean = np.mean([bootstrap_mean(s, mw(c)) for c in counts])
        pooled = mw(counts.sum(axis=0))
        assert pooled.m == 6 * B
        assert per_mean == pytest.approx(bootstrap_mean(s, pooled), rel=1e-12)


class TestBootstrapVariance:
    def test_hand_examples(self):
        s = Sample.from_values([1.0, 0.0])
        assert bootstrap_variance(s, mw([2, 0])) == 0.0
        assert bootstrap_variance(s, mw([1, 1])) == pytest.approx(0.25)
        s3 = Sample.from_values([1.0, 0.0, 2.0])
        assert bootstrap_variance(s3, mw([2, 1, 0])) == pytest.approx(2 / 9)

    # All m draws on one value: the resampled mean can round away from that
    # value (about one draw in ten), but the variance is exactly zero.
    @given(x=st.floats(-1e6, 1e6), other=st.floats(-1e6, 1e6), m=st.integers(1, 60))
    @example(x=float.fromhex("0x1.dc06755a93979p+0"), other=0.5, m=5)
    def test_one_resampled_value_has_zero_variance(self, x, other, m):
        s = Sample.from_values([other, x, other])
        assert bootstrap_variance(s, mw([0, m, 0])) == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12),
           st.floats(-100, 100))
    def test_translation_invariance(self, values, shift):
        s = Sample.from_values(values)
        shifted = Sample.from_values(np.asarray(values) + shift)
        w = mw(np.arange(1.0, len(values) + 1.0))
        a = bootstrap_variance(s, w)
        b = bootstrap_variance(shifted, w)
        assert b == pytest.approx(a, abs=1e-9 * max(1.0, abs(a)) + 1e-12)


class TestWeightedMeanEstimator:
    def test_constant_data_gives_constant(self):
        s = Sample.from_values([3.5] * 4)
        cw = center(mw([4, 0, 0, 0]))
        assert weighted_mean_estimator(s, cw) == pytest.approx(3.5)

    def test_hand_examples(self):
        s = Sample.from_values([1.0, 0.0])
        assert weighted_mean_estimator(s, center(mw([2, 0]))) == pytest.approx(0.5)
        s3 = Sample.from_values([1.0, 0.0, 2.0])
        assert weighted_mean_estimator(s3, center(mw([2, 1, 0]))) == pytest.approx(1.5)

    def test_degenerate_weights_raise(self):
        s = Sample.from_values([1.0, 0.0])
        with pytest.raises(DegenerateWeightsError):
            weighted_mean_estimator(s, center(mw([1, 1])))


class TestEcdf:
    def test_counting_examples(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        assert ecdf(s, 2.0) == pytest.approx(2 / 3)
        assert ecdf(s, 0.5) == 0.0
        assert ecdf(Sample.from_values([1.0, 1.0, 1.0]), 1.0) == 1.0

    def test_bootstrap_ecdf_examples(self):
        s = Sample.from_values([1.0, 2.0, 3.0])
        w = mw([2, 0, 1])
        assert bootstrap_ecdf(s, w, 0.0) == 0.0
        assert bootstrap_ecdf(s, w, 2.0) == pytest.approx(2 / 3)

    def test_equal_weights_reduce_to_ecdf(self):
        rng = substream(4, "data")
        s = Sample.from_values(rng.standard_normal(9))
        w = mw(np.full(9, 2.0))
        for x in (-1.0, 0.0, 0.3, 5.0):
            assert bootstrap_ecdf(s, w, x) == pytest.approx(ecdf(s, x))

    def test_monotone_and_right_continuous(self):
        rng = substream(5, "data")
        values = np.round(rng.standard_normal(12), 2)
        s = Sample.from_values(values)
        w = mw(substream(5, "w").multinomial(12, np.full(12, 1 / 12)))
        grid = np.sort(np.concatenate([values, values + 1e-9, values - 1e-9, [-10, 10]]))
        vals = [bootstrap_ecdf(s, w, float(x)) for x in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert bootstrap_ecdf(s, w, float(values.min()) - 1.0) == 0.0
        assert bootstrap_ecdf(s, w, float(values.max())) == 1.0
        for x in values:
            jump_right = bootstrap_ecdf(s, w, float(x) + 1e-12)
            assert jump_right == pytest.approx(bootstrap_ecdf(s, w, float(x)))

