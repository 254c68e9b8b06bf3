"""Weight-vector tests: enumeration oracles, hand arithmetic, moment identities."""

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pivotboot import weights
from pivotboot.bounds import sixth_moment_expression
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
    draw_resample_counts,
    expected_sum_squares,
    max_ratio,
    nondegenerate,
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


class TestDrawResampleCounts:
    """Count rows by index counting (m <= 8n) or numpy's sampler (m > 8n)."""

    def test_n2_m2_distribution_matches_enumeration(self):
        oracle = enumerate_index_draws(2, 2)
        counts = draw_resample_counts(2, 2, 100_000, substream(3, "rows"))
        for key, prob in oracle.items():
            freq = np.mean(np.all(counts == key, axis=1))
            se = math.sqrt(prob * (1 - prob) / len(counts))
            assert abs(freq - prob) <= 3 * se

    # Index counting at m <= 8n, the sampler at m > 8n, as in criterion 2.
    @pytest.mark.parametrize("n, m", [(10, 10), (20, 40), (4, 32), (4, 33), (3, 40), (5, 200)])
    def test_moment_identity(self, n, m):
        counts = draw_resample_counts(n, m, 50_000, substream(9, "rows", n, m))
        centered = counts / m - 1.0 / n
        v2 = np.einsum("ri,ri->r", centered, centered)
        se = v2.std(ddof=1) / math.sqrt(len(v2))
        assert abs(v2.mean() - expected_sum_squares(n, m)) <= 3 * se

    def test_invalid_sizes(self):
        for n, m in ((0, 5), (5, 0), (5, 2**63)):
            with pytest.raises(ValueError):
                draw_resample_counts(n, m, 3, substream(0, "rows"))

    # Rows are drawn one after another from the stream: m uniform indices,
    # counted (m <= 8n), or one multinomial row (m > 8n).
    @staticmethod
    def _row_by_row(n, m, rows, stream):
        def row():
            if m > 8 * n:
                return stream.multinomial(m, [1.0 / n] * n)
            return np.bincount(stream.integers(0, n, m), minlength=n)

        return np.array([row() for _ in range(rows)], dtype=np.int64).reshape(rows, n)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 120), rows=st.integers(0, 40),
           block=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    @example(n=4, m=32, rows=7, block=64, seed=1)  # m = 8n: index counting
    @example(n=4, m=33, rows=7, block=64, seed=1)  # m = 8n + 1: the sampler
    @example(n=1, m=5, rows=3, block=1, seed=2)    # n = 1: indices consume no draws
    def test_rows_sum_to_m_and_block_size_does_not_change_them(self, n, m, rows, block, seed):
        counts = draw_resample_counts(n, m, rows, substream(seed, "rows"))
        assert counts.shape == (rows, n)
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == m)
        again = substream(seed, "rows")
        with mock.patch.object(weights, "_INDEX_BLOCK", block):
            blocked = draw_resample_counts(n, m, rows, again)
        reference = substream(seed, "rows")
        assert np.array_equal(blocked, counts)
        assert np.array_equal(self._row_by_row(n, m, rows, reference), counts)
        assert again.random() == reference.random()  # the same draws consumed


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, bad):
        for scheme in WeightScheme:
            with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
                WeightVector(np.array([1.0, bad]), 2.0, scheme)

    @pytest.mark.parametrize("counts", [np.ones((2, 2)), np.array([])])
    def test_two_dimensional_or_empty_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="^counts must be a non-empty 1-D sequence$"):
            WeightVector(counts, 4.0, WeightScheme.MULTINOMIAL)

    @given(
        counts=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
            elements=st.one_of(st.integers(-2, 5).map(float),
                               st.floats(-2.0, 5.0, allow_nan=False, allow_infinity=False),
                               st.sampled_from([math.nan, math.inf, -math.inf])),
        ),
        m=st.one_of(st.none(), st.floats(-1.0, 30.0, allow_nan=False, allow_infinity=False)),
        scheme=st.sampled_from(WeightScheme),
    )
    def test_checks_agree_with_the_np_any_all_array_equal_predicate(self, counts, m, scheme):
        if m is None:  # the count total, so that valid vectors are drawn too
            m = float(counts.sum()) if np.isfinite(counts).all() else 1.0
        expected = _reference_rejection(counts, m, scheme)
        if expected is None:
            WeightVector(counts, m, scheme)
        else:
            with pytest.raises(ValueError) as info:
                WeightVector(counts, m, scheme)
            assert str(info.value) == expected


def _reference_rejection(counts: np.ndarray, m: float, scheme: WeightScheme) -> str | None:
    """WeightVector's checks as first written, with np.any, np.all and
    np.array_equal: the message of the first failing check, or None."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 1:
        return "counts must be a non-empty 1-D sequence"
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        return "counts must be finite and nonnegative"
    if scheme is WeightScheme.MULTINOMIAL:
        if not np.array_equal(counts, np.round(counts)):
            return "multinomial counts must be integers"
        if int(round(m)) != int(counts.sum()):
            return "resample size m must equal the count total"
    elif not np.isclose(m, counts.sum(), rtol=1e-12, atol=0.0):
        return "resample size m must equal the count total"
    if m <= 0:
        return "resample size m must be positive"
    return None
