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
from pivotboot.errors import DegenerateWeightsError
from pivotboot.estimators import Sample, bootstrap_mean
from pivotboot.rng import substream
from pivotboot.weights import (
    REDRAW_LIMIT,
    CenteredWeights,
    WeightVector,
    center,
    draw_multinomial_batch,
    draw_multinomial_weights,
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
    """draw_multinomial_batch, the package's one count-row sampler: index
    counting (m <= 8n) or numpy's sampler (m > 8n).  The n = 2, m = 2
    enumeration check is TestDrawMultinomial's."""

    # Index counting at m <= 8n, the sampler at m > 8n, as in criterion 2.
    @pytest.mark.parametrize("n, m", [(10, 10), (20, 40), (4, 32), (4, 33), (3, 40), (5, 200)])
    def test_moment_identity(self, n, m):
        counts = draw_multinomial_batch(n, m, 50_000, substream(9, "rows", n, m))
        centered = counts / m - 1.0 / n
        v2 = np.einsum("ri,ri->r", centered, centered)
        se = v2.std(ddof=1) / math.sqrt(len(v2))
        assert abs(v2.mean() - expected_sum_squares(n, m)) <= 3 * se

    def test_invalid_sizes(self):
        for n, m in ((0, 5), (5, 0), (5, 2**63)):
            with pytest.raises(ValueError):
                draw_multinomial_batch(n, m, 3, substream(0, "rows"))

    # Stream layout 6, re-derived: past m = 8n, one multinomial row after
    # another; else each row counts m uniform indices, drawn in pieces of
    # whole rows of at most max(2**18, m) indices from the call's first row,
    # as 16-bit draws up to n = 2**16 and 64-bit ones past it.  Every piece
    # is counted with its rows offset into disjoint bins, in int64.
    @staticmethod
    def _pieces(n, m, rows, stream):
        if m > 8 * n:
            return stream.multinomial(m, [1.0 / n] * n, size=rows)
        per_piece, dtype = max(1, 2**18 // m), np.uint16 if n <= 2**16 else np.int64
        counts = [np.empty((0, n), np.int64)]
        for start in range(0, rows, per_piece):
            piece = stream.integers(0, n, (min(per_piece, rows - start), m), dtype=dtype)
            bins = piece.astype(np.int64) + n * np.arange(len(piece))[:, None]
            counts.append(np.bincount(bins.ravel(), minlength=piece.size // m * n).reshape(-1, n))
        return np.concatenate(counts)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 120), rows=st.integers(0, 40),
           block=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    @example(n=4, m=32, rows=7, block=64, seed=1)  # m = 8n: index counting
    @example(n=4, m=33, rows=7, block=64, seed=1)  # m = 8n + 1: the sampler
    @example(n=1, m=5, rows=3, block=1, seed=2)    # n = 1: indices consume no draws
    @example(n=5, m=5, rows=1, block=64, seed=3)   # one row, as a weight vector draws
    def test_rows_sum_to_m_and_block_size_does_not_change_them(self, n, m, rows, block, seed):
        counts = draw_multinomial_batch(n, m, rows, substream(seed, "rows"))
        assert counts.shape == (rows, n)
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == m)
        again = substream(seed, "rows")
        with mock.patch.object(weights, "_INDEX_BLOCK", block):
            blocked = draw_multinomial_batch(n, m, rows, again)
        reference = substream(seed, "rows")
        assert np.array_equal(blocked, counts)
        assert np.array_equal(self._pieces(n, m, rows, reference), counts)
        assert again.random() == reference.random()  # the same draws consumed

    @staticmethod
    @st.composite
    def _calls(draw):
        """(n, m, rows): every n of the layout's cases, m odd and even up to
        8n and past it, and rows that reach into a second or third piece
        where their counts fit in memory."""
        n = draw(st.sampled_from((1, 2, 7, 2**16, 2**16 + 1)))
        ms = (n - 1, n, 8 * n, 8 * n + 1, 3) if n > 7 else range(1, 8 * n + 4)
        m = draw(st.sampled_from(ms))
        per_piece = max(1, 2**18 // m) if m <= 8 * n else 1
        rows = draw(st.integers(0, 2)) * per_piece + draw(st.integers(0, 3))
        return n, m, min(rows, 2**22 // n)

    @settings(max_examples=60, deadline=None)
    @given(call=_calls(), block=st.sampled_from((1, 7, 1000)),
           chunk=st.sampled_from((1, 3, 257, None)), seed=st.integers(0, 2**32 - 1))
    @example(call=(2**16, 2**16, 9), block=7, chunk=3, seed=1)  # 4 rows a piece, 3 a chunk
    @example(call=(2**16 + 1, 2**16 + 1, 4), block=1, chunk=None, seed=2)  # 64-bit indices
    @example(call=(7, 56, 2 * 4681 + 1), block=1000, chunk=257, seed=3)  # m = 8n, 3 pieces
    @example(call=(2, 17, 5), block=7, chunk=3, seed=4)  # m = 8n + 1: the sampler
    def test_layout_6_rows(self, call, block, chunk, seed):
        n, m, rows = call
        sizes = []

        class Recording:  # the stream, recording how many indices each draw holds
            def __init__(self, stream):
                self.stream = stream

            def integers(self, low, high, size, dtype):
                sizes.append(math.prod(size))
                return self.stream.integers(low, high, size, dtype=dtype)

            def multinomial(self, *args, **kwargs):
                return self.stream.multinomial(*args, **kwargs)

        reference, stream = substream(seed, "layout6"), substream(seed, "layout6")
        expected = self._pieces(n, m, rows, reference)
        chunk = chunk or max(rows, 1)
        with mock.patch.object(weights, "_INDEX_BLOCK", block):
            chunks = list(weights.draw_multinomial_chunks(n, m, rows, chunk, Recording(stream)))
        assert len(chunks) == -(-rows // chunk) and all(len(c) == chunk for c in chunks[:-1])
        counts = np.concatenate([np.empty((0, n)), *chunks])
        assert np.array_equal(counts, expected)
        assert np.all(counts.sum(axis=1) == m)
        assert max(sizes, default=0) <= max(2**18, m)  # no draw holds more than one piece
        assert stream.random() == reference.random()  # left at the same point


class TestNondegenerate:
    def test_returns_first_unequal_row_and_redraw_count(self):
        rows = iter(np.array([[2.0, 2.0], [2.0, 2.0], [3.0, 1.0], [0.0, 4.0]]))
        row, redraws = nondegenerate(lambda: next(rows))
        assert (row.tolist(), redraws) == ([3.0, 1.0], 2)

    def test_budget_exhaustion_raises(self):
        calls = []

        def draw():
            calls.append(1)
            return np.full((1, 3), 2.0)  # a table1 cell's (1, n) row, all counts m/n

        with pytest.raises(DegenerateWeightsError, match=f"after {REDRAW_LIMIT} redraws"):
            nondegenerate(draw)
        assert len(calls) == REDRAW_LIMIT + 1

    def test_single_category_always_degenerate(self):
        stream = substream(6, "w")
        with pytest.raises(DegenerateWeightsError):
            nondegenerate(lambda: draw_multinomial_batch(1, 5, 1, stream))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), per=st.integers(1, 5), extra=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, per=4, extra=0, seed=0)  # n = 1: every row is degenerate
    @example(n=2, per=1, extra=0, seed=1)  # n = m = 2: half the rows are
    @example(n=3, per=2, extra=1, seed=2)  # n does not divide m: none is
    def test_equal_counts_exactly_when_centered_norm_is_zero(self, n, per, extra, seed):
        m = n * per + extra
        rows = [*draw_multinomial_batch(n, m, 8, substream(seed, "degenerate")),
                np.full(n, float(per))]  # all counts m/n, m = n * per
        for row in rows:
            positive = center(WeightVector(row)).sum_squares > 0.0
            assert (row.min() != row.max()) == positive
            if positive:
                kept, redraws = nondegenerate(lambda: row)
                assert kept is row and redraws == 0
            else:
                with pytest.raises(DegenerateWeightsError):
                    nondegenerate(lambda: row)


class TestCenter:
    def test_hand_example_two_zero(self):
        w = WeightVector(np.array([2.0, 0.0]))
        cw = center(w)
        assert cw.values.tolist() == [0.5, -0.5]
        assert cw.sum_squares == 0.5
        assert cw.sum_abs == 1.0

    def test_hand_example_equal(self):
        w = WeightVector(np.array([1.0, 1.0]))
        cw = center(w)
        assert cw.values.tolist() == [0.0, 0.0]
        assert cw.sum_squares == 0.0

    def test_hand_example_three_one_zero(self):
        w = WeightVector(np.array([3.0, 1.0, 0.0]))
        cw = center(w)
        assert cw.values == pytest.approx([5 / 12, -1 / 12, -1 / 3])
        assert cw.sum_squares == pytest.approx(42 / 144)

    def test_built_from_its_weight_vector_alone(self):
        # values, n and hand-made norms are no arguments: the centred values
        # and every scale derive from the weight vector the pivots read
        w = WeightVector([3.0, 1.0, 0.0])
        for call in (lambda: CenteredWeights(values=np.array([0.5, -0.5])),
                     lambda: CenteredWeights(w, np.array([0.5, -0.5])),
                     lambda: center(w, 3)):
            with pytest.raises(TypeError):
                call()
        cw = center(w)
        assert cw.weights is w
        assert cw.values.tobytes() == (w.counts / w.m - 1.0 / 3).tobytes()

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=25))
    def test_centered_values_sum_to_zero(self, counts):
        if sum(counts) == 0:
            counts[0] = 1
        w = WeightVector(np.array(counts, dtype=float))
        cw = center(w)
        assert abs(cw.values.sum()) <= 1e-12

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=15),
        st.randoms(use_true_random=False),
    )
    def test_permutation_symmetry(self, counts, rnd):
        if sum(counts) == 0:
            counts[0] = 1
        shuffled = list(counts)
        rnd.shuffle(shuffled)
        a = center(WeightVector(np.array(counts, dtype=float)))
        b = center(WeightVector(np.array(shuffled, dtype=float)))
        assert a.sum_squares == pytest.approx(b.sum_squares, rel=1e-12, abs=1e-15)
        assert a.sum_abs == pytest.approx(b.sum_abs, rel=1e-12, abs=1e-15)
        assert sorted(a.values) == pytest.approx(sorted(b.values))


class TestMaxRatio:
    def test_two_coordinate_case_is_half(self):
        cw = center(WeightVector([2.0, 0.0]))
        assert max_ratio(cw) == pytest.approx(0.5)

    def test_hand_example(self):
        w = WeightVector(np.array([3.0, 1.0, 0.0]))
        assert max_ratio(center(w)) == pytest.approx(25 / 42)

    def test_degenerate_raises(self):
        cw = center(WeightVector([1.0, 1.0]))
        with pytest.raises(DegenerateWeightsError):
            max_ratio(cw)

    def test_bounded_by_one_on_random_draws(self):
        for r in range(200):
            w = draw_multinomial_weights(5, 8, substream(8, "w", r))
            cw = center(w)
            if cw.sum_squares == 0.0:
                continue
            assert 0.0 < max_ratio(cw) <= 1.0


class TestMomentFormulas:
    """Exact moments; TestDrawResampleCounts.test_moment_identity checks E[V^2] by Monte Carlo."""

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

    def test_sixth_moment_examples(self):
        assert sixth_moment_expression(1, 1) == pytest.approx(41.0)
        for n in (3, 10, 47):
            assert sixth_moment_expression(n, n) == pytest.approx(41.0)
        assert sixth_moment_expression(100, 10) == pytest.approx(0.365)


class TestWeightVectorValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="^counts must be nonnegative$"):
            WeightVector(np.array([-1.0, 3.0]))

    def test_m_is_the_count_total(self):
        # m is no parameter: an m that only rounds to the count total would
        # rescale every resampled mean (4.3 gives 1.163 here, not 1.25).
        with pytest.raises(TypeError):
            WeightVector(np.array([3.0, 1.0, 0.0]), 4.3)
        w = WeightVector(np.array([3.0, 1.0, 0.0]))
        assert w.m == 4.0
        assert bootstrap_mean(Sample.from_values([1.0, 2.0, 4.0]), w) == 1.25

    def test_overflowing_total_rejected(self):
        # each count is finite, but m = inf would give bootstrap_mean NaN and
        # centered weights that are all -1/n, a finite but wrong interval
        with pytest.raises(ValueError, match="^resample size m must be positive and finite$"):
            WeightVector([1e308, 1e308, 1.0, 1.0])

    def test_real_weights_accepted(self):
        # as a CLI weights file may hold them
        w = WeightVector([3.0, 0.5])
        assert w.m == 3.5 and w.counts.tolist() == [3.0, 0.5]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="^counts must be finite$"):
            WeightVector(np.array([1.0, bad]))

    @pytest.mark.parametrize("counts", [np.ones((2, 2)), np.array([])])
    def test_two_dimensional_or_empty_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="^counts must be a non-empty 1-D sequence$"):
            WeightVector(counts)

    @given(
        counts=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
            elements=st.one_of(st.integers(-2, 5).map(float),
                               st.floats(-2.0, 5.0, allow_nan=False, allow_infinity=False),
                               st.sampled_from([math.nan, math.inf, -math.inf])),
        ),
    )
    def test_checks_agree_with_the_np_any_all_array_equal_predicate(self, counts):
        expected = _reference_rejection(counts)
        if expected is None:
            WeightVector(counts)
        else:
            with pytest.raises(ValueError) as info:
                WeightVector(counts)
            assert str(info.value) == expected


def _reference_rejection(counts: np.ndarray) -> str | None:
    """WeightVector's checks written with np.any and np.all: the message of
    the first failing check, or None."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 1:
        return "counts must be a non-empty 1-D sequence"
    if not np.all(np.isfinite(counts)):
        return "counts must be finite"
    if np.any(counts < 0):
        return "counts must be nonnegative"
    if not 0 < counts.sum() < math.inf:
        return "resample size m must be positive and finite"
    return None


class TestValueTypesKeepAReadOnlyCopy:
    def test_arrays_are_read_only(self):
        w = WeightVector(np.array([2.0, 0.0]))
        cw = center(w)
        with pytest.raises(ValueError, match="read-only"):
            w.counts[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            cw.values[:] = [0.25, -0.25]
        assert (w.m, cw.sum_squares, cw.sum_abs) == (2.0, 0.5, 1.0)

    def test_editing_the_callers_array_changes_nothing(self):
        counts = np.array([2.0, 0.0])
        w = WeightVector(counts)
        cw = center(w)
        counts[0] = 5.0
        assert w.counts.tolist() == [2.0, 0.0] and w.m == 2.0
        assert cw.values.tolist() == [0.5, -0.5] and cw.sum_squares == 0.5

    def test_drawn_and_centred_arrays_are_read_only(self):
        w = draw_multinomial_weights(4, 4, substream(3, "w"))
        assert not w.counts.flags.writeable
        assert not center(w).values.flags.writeable

    @pytest.mark.parametrize("values, message", [
        ([[0.5, -0.5]], "^sample values must be a non-empty 1-D sequence$"),
        ([], "^sample values must be a non-empty 1-D sequence$"),
        ([1.0, math.nan], "^sample values must be finite$"),
    ])
    def test_sample_uses_the_same_checks(self, values, message):
        with pytest.raises(ValueError, match=message):
            Sample(values)
