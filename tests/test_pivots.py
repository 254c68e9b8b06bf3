"""Pivot tests: frozen hand values, invariances, reduction identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotboot.errors import (
    DegenerateScaleError,
    DegenerateWeightsError,
    MuArityError,
    ZeroBootstrapVarianceError,
    ZeroVarianceError,
)
from pivotboot.estimators import Sample
from pivotboot.pivots import (
    PivotKind,
    empirical_pivot,
    g_star,
    starred_variant,
    student_t,
    t_star,
)
from pivotboot.rng import substream
from pivotboot.weights import WeightVector, center, draw_multinomial_weights


def mw(counts) -> WeightVector:
    arr = np.asarray(counts, dtype=float)
    return WeightVector(arr)


def nondegenerate_draw(seed: int, n: int, m: int):
    for r in range(100):
        w = draw_multinomial_weights(n, m, substream(seed, "w", r))
        cw = center(w)
        if cw.sum_squares > 0:
            return w, cw
    raise AssertionError("no non-degenerate draw found")


ONE_ZERO = Sample.from_values([1.0, 0.0])
W20 = mw([2, 0])
CW20 = center(W20)


class TestStudentT:
    def test_symmetric_center_gives_zero(self):
        assert student_t(ONE_ZERO, 0.5) == 0.0

    def test_hand_value(self):
        assert student_t(ONE_ZERO, 0.0) == pytest.approx(math.sqrt(2.0))

    def test_constant_sample_raises(self):
        with pytest.raises(ZeroVarianceError):
            student_t(Sample.from_values([4.0, 4.0]), 0.0)


class TestTStar:
    def test_hand_values(self):
        assert t_star(ONE_ZERO, CW20) == pytest.approx(math.sqrt(2.0))
        swapped = Sample.from_values([0.0, 1.0])
        assert t_star(swapped, CW20) == pytest.approx(-math.sqrt(2.0))

    def test_identity_with_mean_difference(self):
        # sum c_i x_i == resampled mean - sample mean
        rng = substream(10, "data")
        s = Sample.from_values(rng.standard_normal(15))
        w, cw = nondegenerate_draw(10, 15, 15)
        lhs = t_star(s, cw)
        rhs = (float(np.array(w.counts) @ np.array(s.values) / w.m) - s.mean) / (
            s.std * math.sqrt(cw.sum_squares)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_constant_sample_raises(self):
        with pytest.raises(ZeroVarianceError):
            t_star(Sample.from_values([2.0, 2.0]), CW20)

    def test_degenerate_weights_raise(self):
        with pytest.raises(DegenerateWeightsError):
            t_star(ONE_ZERO, center(mw([1, 1])))


class TestGStar:
    def test_hand_values(self):
        assert g_star(ONE_ZERO, CW20, 0.5) == pytest.approx(0.0)
        assert g_star(ONE_ZERO, CW20, 0.0) == pytest.approx(math.sqrt(2.0))

    def test_degenerate_weights_raise(self):
        with pytest.raises(DegenerateWeightsError):
            g_star(ONE_ZERO, center(mw([1, 1])), 0.0)


class TestStarredVariants:
    def test_g_double_star_hand_value(self):
        s = Sample.from_values([1.0, 0.0, 2.0])
        w = mw([2, 1, 0])
        cw = center(w)
        value = starred_variant(PivotKind.G_DOUBLE_STAR, s, cw, mu=1.0)
        assert value == pytest.approx(1.5)

    def test_t_tilde_hand_value(self):
        s = Sample.from_values([1.0, 0.0, 2.0])
        w = mw([2, 1, 0])
        cw = center(w)
        value = starred_variant(PivotKind.T_TILDE, s, cw)
        assert value == pytest.approx(-math.sqrt(1.5))

    def test_zero_resampled_variance(self):
        with pytest.raises(ZeroBootstrapVarianceError):
            starred_variant(PivotKind.T_DOUBLE_STAR, ONE_ZERO, CW20)

    def test_mu_arity(self):
        s = Sample.from_values([1.0, 0.0, 2.0])
        w = mw([2, 1, 0])
        cw = center(w)
        with pytest.raises(MuArityError):
            starred_variant(PivotKind.T_DOUBLE_STAR, s, cw, mu=1.0)
        with pytest.raises(MuArityError):
            starred_variant(PivotKind.G_DOUBLE_STAR, s, cw)

    def test_tilde_vs_double_star_scale_relation(self):
        # the two scales differ exactly by sqrt(m * V^2)
        rng = substream(11, "data")
        s = Sample.from_values(rng.standard_normal(12))
        w, cw = nondegenerate_draw(11, 12, 18)
        tds = starred_variant(PivotKind.T_DOUBLE_STAR, s, cw)
        ttl = starred_variant(PivotKind.T_TILDE, s, cw)
        assert ttl == pytest.approx(tds * math.sqrt(cw.sum_squares * w.m), rel=1e-12)


class TestEmpiricalPivots:
    def test_alpha1_hand_value(self):
        value = empirical_pivot(PivotKind.ALPHA1_HAT, ONE_ZERO, CW20, 0.5)
        assert value == pytest.approx(-math.sqrt(2.0))

    def test_alpha2_hand_value(self):
        value = empirical_pivot(PivotKind.ALPHA2_HAT, ONE_ZERO, CW20, 0.5, f_true=0.5)
        assert value == pytest.approx(0.0)

    def test_degenerate_scale(self):
        s = Sample.from_values([1.0, 2.0])
        w = mw([2, 0])
        with pytest.raises(DegenerateScaleError):
            empirical_pivot(PivotKind.ALPHA1_HAT, s, center(w), 0.0)

    def test_f_true_arity(self):
        with pytest.raises(MuArityError):
            empirical_pivot(PivotKind.ALPHA1_HAT, ONE_ZERO, CW20, 0.5, f_true=0.5)
        with pytest.raises(MuArityError):
            empirical_pivot(PivotKind.ALPHA2_HAT, ONE_ZERO, CW20, 0.5)

    def test_reduction_to_mean_pivots_on_indicators(self):
        rng = substream(12, "data")
        for r in range(25):
            values = substream(12, "data", r).standard_normal(11)
            s = Sample.from_values(values)
            w, cw = nondegenerate_draw(100 + r, 11, 11)
            x = float(np.median(values)) + 0.01
            indicators = Sample.from_values((values <= x).astype(float))
            assert empirical_pivot(PivotKind.ALPHA1_HAT, s, cw, x) == pytest.approx(
                t_star(indicators, cw), rel=1e-12
            )
            f_true = 0.37
            assert empirical_pivot(
                PivotKind.ALPHA2_HAT, s, cw, x, f_true=f_true
            ) == pytest.approx(g_star(indicators, cw, f_true), rel=1e-12)

    def test_hat_hat_uses_resampled_scale(self):
        rng = substream(13, "data")
        values = rng.standard_normal(9)
        s = Sample.from_values(values)
        w, cw = nondegenerate_draw(13, 9, 9)
        x = float(np.median(values))
        f_star = float(w.counts @ (values <= x) / w.m)
        if f_star in (0.0, 1.0):
            pytest.skip("degenerate resampled ECDF for this draw")
        hat = empirical_pivot(PivotKind.ALPHA1_HAT, s, cw, x)
        hat_hat = empirical_pivot(PivotKind.ALPHA1_HAT_HAT, s, cw, x)
        f_n = float(np.mean(values <= x))
        ratio = math.sqrt(f_n * (1 - f_n)) / math.sqrt(f_star * (1 - f_star))
        assert hat_hat == pytest.approx(hat * ratio, rel=1e-12)

    def test_inverse_root_m_scale_switch(self):
        s = Sample.from_values([1.0, 0.0, 2.0, 4.0])
        w = mw([2, 1, 0, 1])
        cw = center(w)
        x = 1.5
        default = empirical_pivot(PivotKind.ALPHA1_HAT, s, cw, x)
        switched = empirical_pivot(PivotKind.ALPHA1_HAT, s, cw, x,
                                   inverse_root_m_scale=True)
        assert switched == pytest.approx(default * math.sqrt(cw.sum_squares * w.m), rel=1e-12)


float_lists = st.lists(st.floats(-20, 20), min_size=4, max_size=12).filter(
    lambda v: max(v) - min(v) > 1e-3
)


class TestInvariances:
    @given(float_lists, st.floats(-30, 30))
    @settings(max_examples=60)
    def test_location_invariance(self, values, shift):
        s = Sample.from_values(values)
        shifted = Sample.from_values(np.asarray(values) + shift)
        w, cw = nondegenerate_draw(14, len(values), len(values))
        assert t_star(shifted, cw) == pytest.approx(t_star(s, cw), abs=1e-10, rel=1e-8)
        mu = 0.3
        assert g_star(shifted, cw, mu + shift) == pytest.approx(
            g_star(s, cw, mu), abs=1e-10, rel=1e-8
        )

    @given(float_lists, st.floats(0.01, 40))
    @settings(max_examples=60)
    def test_scale_equivariance(self, values, factor):
        s = Sample.from_values(values)
        scaled = Sample.from_values(np.asarray(values) * factor)
        w, cw = nondegenerate_draw(15, len(values), len(values))
        assert t_star(scaled, cw) == pytest.approx(t_star(s, cw), abs=1e-10, rel=1e-8)
        mu = -0.7
        assert g_star(scaled, cw, mu * factor) == pytest.approx(
            g_star(s, cw, mu), abs=1e-10, rel=1e-8
        )

    @given(float_lists, st.floats(-5, 5))
    @settings(max_examples=60)
    def test_sign_antisymmetry(self, values, mu):
        s = Sample.from_values(values)
        negated = Sample.from_values(-np.asarray(values))
        w, cw = nondegenerate_draw(16, len(values), len(values))
        assert t_star(negated, cw) == pytest.approx(-t_star(s, cw), abs=1e-12, rel=1e-10)
        assert g_star(negated, cw, -mu) == pytest.approx(
            -g_star(s, cw, mu), abs=1e-12, rel=1e-10
        )
