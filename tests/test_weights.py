"""Weight-vector tests: enumeration oracles, hand arithmetic, moment identities."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pivotboot.errors import DegenerateWeightsError, DimensionMismatchError
from pivotboot.rng import substream
from pivotboot.weights import (
    REDRAW_LIMIT,
    CenteredWeights,
    WeightScheme,
    WeightVector,
    center,
    draw_multinomial_batch,
    draw_multinomial_weights,
    expected_sum_squares,
    max_ratio,
    nondegenerate,
    sixth_moment_expression,
)


def enumerate_index_draws(n: int, m: int) -> dict[tuple, float]:
    """Oracle: exact count distribution from the n**m equally likely ways of
    drawing m indices with replacement from {0..n-1}."""
    counts = Counter()
    for draw in itertools.product(range(n), repeat=m):
        key = tuple(draw.count(i) for i in range(n))
        counts[key] += 1
    total = n**m
    return {key: c / total for key, c in counts.items()}


class TestDrawMultinomial:
    def test_single_category_always_m(self):
        for r in range(20):
            w = draw_multinomial_weights(1, 5, substream(1, "w", r))
            assert w.counts.tolist() == [5.0]
            assert w.m == 5

    def test_one_draw_lands_on_one_coordinate(self):
        hits = np.zeros(3)
        reps = 30_000
        for r in range(reps):
            w = draw_multinomial_weights(3, 1, substream(2, "w", r))
            assert w.counts.sum() == 1
            hits += w.counts
        freq = hits / reps
        se = math.sqrt((1 / 3) * (2 / 3) / reps)
        assert np.all(np.abs(freq - 1 / 3) <= 3 * se)

    def test_n2_m2_distribution_matches_enumeration(self):
        oracle = enumerate_index_draws(2, 2)
        assert oracle == {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
        counts = draw_multinomial_batch(2, 2, 100_000, substream(3, "w"))
        for key, prob in oracle.items():
            freq = np.mean(np.all(counts == key, axis=1))
            se = math.sqrt(prob * (1 - prob) / len(counts))
            assert abs(freq - prob) <= 3 * se

    def test_counts_are_integers_summing_to_m(self):
        for r in range(50):
            w = draw_multinomial_weights(7, 13, substream(4, "w", r))
            assert np.array_equal(w.counts, np.round(w.counts))
            assert w.counts.sum() == 13
            assert np.all(w.counts >= 0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            draw_multinomial_weights(0, 5, substream(0, "w"))
        with pytest.raises(ValueError):
            draw_multinomial_weights(5, 0, substream(0, "w"))


class TestNondegenerate:
    def test_returns_first_positive_draw_and_redraw_count(self):
        draws = iter([("a", 0.0), ("b", 0.0), ("c", 0.5), ("d", 1.0)])
        assert nondegenerate(lambda: next(draws)) == ("c", 2)

    def test_budget_exhaustion_raises(self):
        calls = []

        def draw():
            calls.append(1)
            return None, 0.0

        with pytest.raises(DegenerateWeightsError, match=f"after {REDRAW_LIMIT} redraws"):
            nondegenerate(draw)
        assert len(calls) == REDRAW_LIMIT + 1


class TestCenter:
    def test_hand_example_two_zero(self):
        w = WeightVector(np.array([2.0, 0.0]), 2, WeightScheme.MULTINOMIAL)
        cw = center(w, 2)
        assert cw.values.tolist() == [0.5, -0.5]
        assert cw.sum_squares == 0.5
        assert cw.sum_abs == 1.0

    def test_hand_example_equal(self):
        w = WeightVector(np.array([1.0, 1.0]), 2, WeightScheme.MULTINOMIAL)
        cw = center(w, 2)
        assert cw.values.tolist() == [0.0, 0.0]
        assert cw.sum_squares == 0.0

    def test_hand_example_three_one_zero(self):
        w = WeightVector(np.array([3.0, 1.0, 0.0]), 4, WeightScheme.MULTINOMIAL)
        cw = center(w, 3)
        assert cw.values == pytest.approx([5 / 12, -1 / 12, -1 / 3])
        assert cw.sum_squares == pytest.approx(42 / 144)

    def test_length_mismatch(self):
        w = WeightVector(np.array([1.0, 1.0]), 2, WeightScheme.MULTINOMIAL)
        with pytest.raises(DimensionMismatchError):
            center(w, 3)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=25))
    def test_centered_values_sum_to_zero(self, counts):
        m = sum(counts)
        if m == 0:
            counts[0] = 1
            m = 1
        w = WeightVector(np.array(counts, dtype=float), m, WeightScheme.MULTINOMIAL)
        cw = center(w, len(counts))
        assert abs(cw.values.sum()) <= 1e-12

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=15),
        st.randoms(use_true_random=False),
    )
    def test_permutation_symmetry(self, counts, rnd):
        if sum(counts) == 0:
            counts[0] = 1
        m = sum(counts)
        shuffled = list(counts)
        rnd.shuffle(shuffled)
        a = center(WeightVector(np.array(counts, dtype=float), m, WeightScheme.MULTINOMIAL),
                   len(counts))
        b = center(WeightVector(np.array(shuffled, dtype=float), m, WeightScheme.MULTINOMIAL),
                   len(counts))
        assert a.sum_squares == pytest.approx(b.sum_squares, rel=1e-12, abs=1e-15)
        assert a.sum_abs == pytest.approx(b.sum_abs, rel=1e-12, abs=1e-15)
        assert sorted(a.values) == pytest.approx(sorted(b.values))


class TestMaxRatio:
    def test_two_coordinate_case_is_half(self):
        cw = CenteredWeights(np.array([0.5, -0.5]), 0.5, 1.0)
        assert max_ratio(cw) == pytest.approx(0.5)

    def test_hand_example(self):
        w = WeightVector(np.array([3.0, 1.0, 0.0]), 4, WeightScheme.MULTINOMIAL)
        assert max_ratio(center(w, 3)) == pytest.approx(25 / 42)

    def test_degenerate_raises(self):
        cw = CenteredWeights(np.array([0.0, 0.0]), 0.0, 0.0)
        with pytest.raises(DegenerateWeightsError):
            max_ratio(cw)

    def test_bounded_by_one_on_random_draws(self):
        for r in range(200):
            w = draw_multinomial_weights(5, 8, substream(8, "w", r))
            cw = center(w, 5)
            if cw.sum_squares == 0.0:
                continue
            assert 0.0 < max_ratio(cw) <= 1.0


class TestMomentFormulas:
    def test_expected_sum_squares_examples(self):
        assert expected_sum_squares(2, 2) == pytest.approx(0.25)
        assert expected_sum_squares(1, 7) == 0.0
        assert expected_sum_squares(10, 20) == pytest.approx(0.045)

    def test_expected_sum_squares_matches_enumeration(self):
        # exact E[V^2] from the 2**2 equally likely index draws
        oracle = enumerate_index_draws(2, 2)
        expected = 0.0
        for key, prob in oracle.items():
            values = np.array(key) / 2 - 0.5
            expected += prob * float(values @ values)
        assert expected == pytest.approx(0.25)
        assert expected_sum_squares(2, 2) == pytest.approx(expected)

    def test_monte_carlo_cross_check(self):
        counts = draw_multinomial_batch(10, 10, 50_000, substream(9, "w"))
        centered = counts / 10 - 0.1
        v2 = np.einsum("ri,ri->r", centered, centered)
        se = v2.std(ddof=1) / math.sqrt(len(v2))
        assert abs(v2.mean() - expected_sum_squares(10, 10)) <= 3 * se

    def test_sixth_moment_examples(self):
        assert sixth_moment_expression(1, 1) == pytest.approx(41.0)
        for n in (3, 10, 47):
            assert sixth_moment_expression(n, n) == pytest.approx(41.0)
        assert sixth_moment_expression(100, 10) == pytest.approx(0.365)


class TestWeightVectorValidation:
    def test_multinomial_requires_integers(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.5, 0.5]), 2, WeightScheme.MULTINOMIAL)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([-1.0, 3.0]), 2, WeightScheme.MULTINOMIAL)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, 1.0]), 3, WeightScheme.MULTINOMIAL)

    def test_iid_positive_takes_real_weights(self):
        # the scheme of a CLI weights file with non-integer entries
        w = WeightVector(np.array([3.0, 0.5]), 3.5, WeightScheme.IID_POSITIVE)
        assert w.m == 3.5 and w.scheme is WeightScheme.IID_POSITIVE
        with pytest.raises(ValueError):
            WeightVector(np.array([3.0, 0.5]), 3.0, WeightScheme.IID_POSITIVE)
