"""Replicate-cutoff tests: orthant integrals, count distribution, conventions."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pivotboot import multi_bootstrap
from pivotboot.errors import (
    DegenerateWeightsError,
    DomainError,
    NonIntegerRankError,
    ZeroVarianceError,
)
from pivotboot.estimators import Sample
from pivotboot.multi_bootstrap import (
    GENZ_LEVEL_B9,
    ReplicateSet,
    YDistribution,
    classical_cutoff_rank,
    draw_replicates,
    orthant_probability,
    orthant_probability_closed_form,
    refined_contains,
    y_distribution,
    y_quantile,
)
from pivotboot.pivots import t_star
from pivotboot.rng import substream
from pivotboot.weights import REDRAW_LIMIT, center, draw_multinomial_weights, nondegenerate


class TestOrthantProbability:
    def test_single_component_symmetry(self):
        assert orthant_probability(1, 0) == pytest.approx(0.5, abs=1e-12)
        assert orthant_probability(1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_pair_value(self):
        assert orthant_probability(2, 1) == pytest.approx(1 / 6, abs=1e-10)

    def test_nine_component_corner(self):
        value = orthant_probability(9, 0)
        assert value == pytest.approx(0.1, abs=1e-10)
        assert abs((1 - value) - GENZ_LEVEL_B9) < 2e-5

    def test_quadrature_matches_closed_form(self):
        for B in (1, 2, 5, 9, 14):
            for l in range(B + 1):
                assert abs(
                    orthant_probability(B, l) - orthant_probability_closed_form(B, l)
                ) < 1e-10

    def test_symmetry_in_l(self):
        for B in (3, 6, 9):
            for l in range(B + 1):
                assert orthant_probability(B, l) == pytest.approx(
                    orthant_probability(B, B - l), abs=1e-11
                )

    def test_completeness(self):
        for B in (2, 5, 9):
            total = sum(
                math.comb(B, l) * orthant_probability(B, l) for l in range(B + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            orthant_probability(3, -1)
        with pytest.raises(DomainError):
            orthant_probability(3, 4)
        with pytest.raises(DomainError):
            orthant_probability(1001, 0)


class TestYDistribution:
    def test_uniform_small_B(self):
        for B in (2, 5, 9, 31, 100, 199):
            dist = y_distribution(B)
            assert np.allclose(dist.pmf, 1 / (B + 1), rtol=0.0, atol=1e-12)
            assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-10)

    def test_containers_copy_the_callers_array(self):
        pmf, values = np.full(3, 1 / 3), np.array([0.5, -1.0])
        dist, reps = YDistribution(B=2, pmf=pmf), ReplicateSet(values=values, B=2, m=4)
        pmf[0], values[0] = 1.0, 9.0
        assert dist.pmf[0] == 1 / 3 and reps.values[0] == 0.5

    def test_monte_carlo_exchangeable_representation(self):
        # Z_b = (Z_0 + U_b)/sqrt(2) has the unit-variance, 1/2-correlation law
        B, reps = 4, 1_000_000
        rng = substream(30, "mc")
        z0 = rng.standard_normal((reps, 1))
        u = rng.standard_normal((reps, B))
        z = (z0 + u) / math.sqrt(2.0)
        negatives = (z < 0).sum(axis=1)
        pmf = y_distribution(B).pmf
        for l in range(B + 1):
            freq = float(np.mean(negatives == l))
            se = math.sqrt(pmf[l] * (1 - pmf[l]) / reps)
            assert abs(freq - pmf[l]) <= 3 * se


class TestYQuantile:
    def test_examples(self):
        assert y_quantile(9, 0.1) == 8
        assert y_quantile(9, 0.5) == 4
        assert y_quantile(2, 1e-12) == 2

    def test_exact_boundaries(self):
        # (y+1)/(B+1) >= 1 - alpha with exact rational comparison
        assert y_quantile(9, 0.5) == 4      # 5/10 >= 1/2 exactly
        assert y_quantile(4, 0.2) == 3      # 4/5 >= 4/5 exactly
        assert y_quantile(4, 0.2 - 1e-12) == 4

    def test_domain(self):
        with pytest.raises(DomainError):
            y_quantile(1, 0.1)
        with pytest.raises(DomainError):
            y_quantile(9, 0.0)


class TestClassicalCutoffRank:
    def test_examples(self):
        assert classical_cutoff_rank(9, 0.1) == 9
        assert classical_cutoff_rank(3, 0.5) == 2

    def test_non_integer_rank(self):
        with pytest.raises(NonIntegerRankError):
            classical_cutoff_rank(9, 0.15)

    def test_float_noise_tolerated(self):
        # 10 * (1 - 0.1) = 9.000000000000002 in doubles
        assert classical_cutoff_rank(9, 0.1) == 9


class TestDrawReplicates:
    def test_deterministic_given_seed(self):
        s = Sample.from_values([0.3, -1.2, 0.7, 2.2, -0.4])
        a = draw_replicates(s, 4, 5, substream(31, "reps"))
        b = draw_replicates(s, 4, 5, substream(31, "reps"))
        assert np.array_equal(a.values, b.values)
        assert a.degenerate_redraws == b.degenerate_redraws

    def test_two_point_support(self):
        # X = (1, 0), m = 2: non-degenerate draws give exactly +-sqrt(2)
        s = Sample.from_values([1.0, 0.0])
        values = []
        for r in range(500):
            reps = draw_replicates(s, 2, 2, substream(32, "reps", r))
            values.extend(reps.values.tolist())
        root2 = math.sqrt(2.0)
        assert all(abs(abs(v) - root2) < 1e-12 for v in values)

    def test_two_point_symmetry(self):
        s = Sample.from_values([1.0, 0.0])
        total, positive = 0, 0
        for r in range(20_000):
            reps = draw_replicates(s, 5, 2, substream(33, "reps", r))
            total += reps.B
            positive += int((reps.values > 0).sum())
        p = positive / total
        se = math.sqrt(0.25 / total)
        assert abs(p - 0.5) <= 3 * se

    def test_constant_sample_raises(self):
        with pytest.raises(ZeroVarianceError):
            draw_replicates(Sample.from_values([1.0, 1.0]), 3, 2, substream(34, "reps"))

    def test_redraw_budget_is_bounded(self, monkeypatch):
        rows = []

        def always_uniform(n, m, size, stream):
            rows.append(size)
            return np.full((size, n), m / n)

        monkeypatch.setattr(multi_bootstrap, "draw_multinomial_batch", always_uniform)
        with pytest.raises(DegenerateWeightsError):
            draw_replicates(Sample.from_values([1.0, 0.0]), 3, 2, substream(35, "reps"))
        # the batch of B = 3, then one row per redraw until the budget is spent
        assert rows[0] == 3 and set(rows[1:]) == {1}
        assert sum(rows) == REDRAW_LIMIT + 1


def _sequential_replicates(s, B: int, m: int, stream) -> tuple[list[float], int]:
    """Reference for draw_replicates: one row per draw_multinomial_weights
    call, centered and fed to t_star, each slot redrawn by nondegenerate."""

    def draw():
        cw = center(draw_multinomial_weights(s.n, m, stream), s.n)
        return cw, cw.sum_squares

    draws = [nondegenerate(draw) for _ in range(B)]
    return [t_star(s, cw) for cw, _ in draws], sum(redraws for _, redraws in draws)


def _outcome(replicates, stream):
    """What a path returned or raised, and the stream's next draw (so the
    rows it consumed)."""
    try:
        result = replicates()
    except DegenerateWeightsError:
        result = DegenerateWeightsError
    return result, stream.random()


class TestBatchedEqualsSequential:
    @given(n=st.integers(2, 8), m=st.integers(1, 10), B=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, m=2, B=12, seed=0)  # about half the rows are degenerate
    @example(n=1, m=3, B=4, seed=0)   # every row is degenerate: the budget runs out
    def test_same_values_redraws_and_rows(self, n, m, B, seed):
        if n == 1:
            # A one-point Sample has zero variance; a unit-variance stand-in
            # lets both paths reach the weight draws.
            s = SimpleNamespace(n=1, values=np.ones(1), variance=1.0, std=1.0)
        else:
            s = Sample.from_values(substream(seed, "batched.data").standard_normal(n))
        batched_stream = substream(seed, "batched.weights")
        reference_stream = substream(seed, "batched.weights")
        batched, batched_next = _outcome(lambda: draw_replicates(s, B, m, batched_stream),
                                         batched_stream)
        reference, reference_next = _outcome(
            lambda: _sequential_replicates(s, B, m, reference_stream), reference_stream)
        assert batched_next == reference_next
        if reference is DegenerateWeightsError:
            assert batched is DegenerateWeightsError
            return
        values, redraws = reference
        np.testing.assert_allclose(batched.values, values, rtol=1e-12, atol=0.0)
        assert batched.degenerate_redraws == redraws


class TestRefinedContains:
    def test_tiny_alpha_uses_maximum(self):
        reps = ReplicateSet(np.array([1.0, 2.0, 3.0]), 3, 3)
        alpha = 1e-9  # y = B, clamped to the maximum replicate
        assert refined_contains(3.0, reps, alpha)
        assert not refined_contains(3.0 + 1e-12, reps, alpha)

    def test_b9_alpha_point_one_is_maximum(self):
        rng = substream(35, "vals")
        values = np.sort(rng.standard_normal(9))
        reps = ReplicateSet(values, 9, 50)
        top = float(values.max())
        assert refined_contains(top, reps, 0.1)
        assert not refined_contains(top + 1e-9, reps, 0.1)

    def test_interior_rank(self):
        reps = ReplicateSet(np.array([10.0, 20.0, 30.0, 40.0]), 4, 4)
        # B=4, alpha=0.4: smallest y with (y+1)/5 >= 0.6 is y=2 -> third smallest
        assert y_quantile(4, 0.4) == 2
        assert refined_contains(30.0, reps, 0.4)
        assert not refined_contains(30.0 + 1e-9, reps, 0.4)

    def test_matches_max_criterion_when_quantile_saturates(self):
        rng = substream(36, "vals")
        for r in range(50):
            values = substream(36, "vals", r).standard_normal(9)
            reps = ReplicateSet(values, 9, 9)
            t = float(substream(36, "t", r).standard_normal(1)[0]) * 2
            assert refined_contains(t, reps, 0.1) == (t <= values.max())
            assert refined_contains(t, reps, 0.05) == (t <= values.max())
