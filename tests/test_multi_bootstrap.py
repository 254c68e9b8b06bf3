"""Replicate-cutoff tests: orthant integrals, count distribution, conventions."""

import math

import numpy as np
import pytest

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
from pivotboot.rng import substream
from pivotboot.weights import REDRAW_LIMIT, WeightVector


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
        for B in (2, 5, 9, 31, 100, 199, 400, 1000):
            dist = y_distribution(B)
            assert np.allclose(dist.pmf, 1 / (B + 1), rtol=0.0, atol=1e-12)
            assert np.abs(dist.pmf * (B + 1) - 1.0).max() <= 1e-13
            assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-10)

    def test_containers_copy_the_callers_array(self):
        pmf, values = np.full(3, 1 / 3), np.array([0.5, -1.0])
        dist, reps = YDistribution(pmf), ReplicateSet(values)
        pmf[0], values[0] = 1.0, 9.0
        assert dist.pmf[0] == 1 / 3 and reps.values[0] == 0.5

    def test_B_is_derived_from_the_array(self):
        assert YDistribution(np.full(4, 0.25)).B == 3
        assert ReplicateSet([0.5, -1.0, 2.0]).B == 3
        assert y_distribution(9).B == 9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrays_rejected(self, bad):
        with pytest.raises(ValueError, match="^pmf must be finite$"):
            YDistribution([0.5, 0.5, bad])
        with pytest.raises(ValueError, match="^replicate values must be finite$"):
            ReplicateSet([0.5, bad])

    @pytest.mark.parametrize("make, array", [
        (YDistribution, [0.5, 0.5]),  # B = 1
        (YDistribution, [1.5, -0.5, 0.0]),  # a negative entry
        (YDistribution, [0.5, 0.5, 0.5]),  # sums to 1.5
        (ReplicateSet, [0.5]),  # B = 1
        (ReplicateSet, [[0.5, 1.0]]),  # 2-D
    ])
    def test_bad_arrays_rejected(self, make, array):
        with pytest.raises(ValueError):
            make(array)

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
        calls = []

        def always_uniform(n, m, stream):
            calls.append(n)
            return WeightVector(np.full(n, m / n))

        def always_uniform_batch(n, m, rows, stream):
            calls.extend([n] * rows)
            return np.full((rows, n), m / n)

        monkeypatch.setattr(multi_bootstrap, "draw_multinomial_weights", always_uniform)
        monkeypatch.setattr(multi_bootstrap, "draw_multinomial_batch", always_uniform_batch)
        with pytest.raises(DegenerateWeightsError):
            draw_replicates(Sample.from_values([1.0, 0.0]), 3, 2, substream(35, "reps"))
        # one entry per row: the batch's 3 rows, the first slot's draw among
        # them, then that slot's redraws until its REDRAW_LIMIT are spent
        assert len(calls) == REDRAW_LIMIT + 1

    # The values' float bits, the redraw count and the stream's next draw (so
    # the rows it consumed).  The second case redraws 7 of its rows.  The
    # first case's values are those of weights.dot's summation order.
    PINS = [
        (7, 10, 10, 9,
         ["0x1.b41c0261e1922p-1", "-0x1.1216239e6f140p-1", "0x1.b2b9a82afd702p+0",
          "0x1.8224369327f13p-3", "-0x1.b3a5595fa5375p-1", "-0x1.db895acf4ceb9p-1",
          "-0x1.c94410b3b0ad5p-2", "-0x1.5b8cad4b74f90p-3", "0x1.c539bea4a3194p-4"],
         0, "0x1.dbe4144203dcep-2"),
        (0, 2, 2, 12,
         # +-sqrt(2) to within one ulp (the two-point support)
         [sign + "0x1.6a09e667f3bccp+0" for sign in ("", "", "", "", "", "", "-", "", "", "-", "", "")],
         7, "0x1.a92db3afdc49bp-1"),
    ]

    @pytest.mark.parametrize("seed, n, m, B, values, redraws, next_draw", PINS,
                             ids=["n10-B9", "n2-B12-redraws"])
    def test_pinned_bits(self, seed, n, m, B, values, redraws, next_draw):
        s = Sample.from_values(substream(seed, "pin.data").standard_normal(n))
        stream = substream(seed, "pin.weights")
        reps = draw_replicates(s, B, m, stream)
        assert [v.hex() for v in reps.values.tolist()] == values
        assert reps.degenerate_redraws == redraws
        assert stream.random().hex() == next_draw


class TestRefinedContains:
    def test_tiny_alpha_uses_maximum(self):
        reps = ReplicateSet(np.array([1.0, 2.0, 3.0]))
        alpha = 1e-9  # y = B, clamped to the maximum replicate
        assert refined_contains(3.0, reps, alpha)
        assert not refined_contains(3.0 + 1e-12, reps, alpha)

    def test_b9_alpha_point_one_is_maximum(self):
        rng = substream(35, "vals")
        values = np.sort(rng.standard_normal(9))
        reps = ReplicateSet(values)
        top = float(values.max())
        assert refined_contains(top, reps, 0.1)
        assert not refined_contains(top + 1e-9, reps, 0.1)

    def test_interior_rank(self):
        reps = ReplicateSet(np.array([10.0, 20.0, 30.0, 40.0]))
        # B=4, alpha=0.4: smallest y with (y+1)/5 >= 0.6 is y=2 -> third smallest
        assert y_quantile(4, 0.4) == 2
        assert refined_contains(30.0, reps, 0.4)
        assert not refined_contains(30.0 + 1e-9, reps, 0.4)

    def test_matches_max_criterion_when_quantile_saturates(self):
        rng = substream(36, "vals")
        for r in range(50):
            values = substream(36, "vals", r).standard_normal(9)
            reps = ReplicateSet(values)
            t = float(substream(36, "t", r).standard_normal(1)[0]) * 2
            assert refined_contains(t, reps, 0.1) == (t <= values.max())
            assert refined_contains(t, reps, 0.05) == (t <= values.max())
