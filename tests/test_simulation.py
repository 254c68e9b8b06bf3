"""Simulation-harness tests: model laws, determinism, white-box consistency
of the vectorized kernels against the scalar pivot functions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pivotboot.errors import DegenerateWeightsError
from pivotboot.estimators import Sample
from pivotboot.jsonio import dumps
from pivotboot.pivots import PivotKind, g_star, student_t, t_star
from pivotboot.rng import substream
from pivotboot.simulation import (
    MODELS,
    SimConfig,
    TABLE1_NOMINAL,
    TABLE1_THRESHOLD,
    TABLE2_NOMINAL,
    TABLE2_THRESHOLD,
    pivot_clt_frequencies,
    refined_ci_coverage,
    resolve_model,
    run_coverage,
    run_table1,
    run_table2,
    sample_model,
)
from pivotboot.weights import WeightScheme, WeightVector, center, draw_multinomial_batch


class TestModels:
    def test_registry_and_truth_values(self):
        assert resolve_model("Poisson1").mean == 1.0
        assert resolve_model("lognormal01").mean == pytest.approx(math.exp(0.5))
        assert resolve_model("lognormal01").variance == pytest.approx(math.e * (math.e - 1))
        assert resolve_model("exponential1").variance == 1.0
        assert resolve_model("normal01").mean == 0.0
        with pytest.raises(ValueError):
            resolve_model("cauchy")

    def test_poisson_draws_are_nonnegative_integers(self):
        s = sample_model("poisson1", 500, substream(1, "model"))
        assert np.all(s.values >= 0)
        assert np.array_equal(s.values, np.round(s.values))

    def test_pooled_moments(self):
        reps = 1_000_000
        z = resolve_model("normal01").sample(substream(2, "model"), reps)
        assert abs(z.mean()) <= 3 / math.sqrt(reps)
        e = resolve_model("exponential1").sample(substream(3, "model"), reps)
        centered = (e - 1.0) ** 2
        se = centered.std(ddof=1) / math.sqrt(reps)
        assert abs(centered.mean() - 1.0) <= 3 * se
        p = resolve_model("poisson1").sample(substream(4, "model"), reps)
        se_p = p.std(ddof=1) / math.sqrt(reps)
        assert abs(p.mean() - 1.0) <= 3 * se_p
        ln = resolve_model("lognormal01").sample(substream(5, "model"), reps)
        se_ln = ln.std(ddof=1) / math.sqrt(reps)
        assert abs(ln.mean() - math.exp(0.5)) <= 3 * se_ln

    def test_cdf_spot_values(self):
        assert resolve_model("poisson1").cdf(-0.5) == 0.0
        assert resolve_model("poisson1").cdf(0.0) == pytest.approx(math.exp(-1))
        assert resolve_model("poisson1").cdf(1.9) == pytest.approx(2 * math.exp(-1))
        assert resolve_model("exponential1").cdf(math.log(2)) == pytest.approx(0.5)
        assert resolve_model("lognormal01").cdf(1.0) == pytest.approx(0.5)
        assert resolve_model("lognormal01").cdf(0.0) == 0.0
        assert resolve_model("normal01").cdf(0.0) == pytest.approx(0.5)

    def test_sample_composes_base_and_transform(self):
        model = resolve_model("poisson1")
        a = model.sample(substream(6, "model"), 64)
        base = model.draw_base(substream(6, "model"), 64)
        assert np.array_equal(a, model.transform(base))


class TestTableSmoke:
    def test_tiny_run_is_well_formed(self):
        cfg = SimConfig(model="poisson1", n=20, outer_reps=2, inner_reps=2, seed=5)
        report = run_table1(cfg)
        assert {c.statistic for c in report.cells} == {"emp_G_star", "emp_T"}
        for c in report.cells:
            assert c.frequency in (0.0, 0.5, 1.0)
            assert c.degenerate_count >= 0
            assert c.distribution == "poisson1" and c.n == 20
        report2 = run_table2(cfg)
        assert {c.statistic for c in report2.cells} == {"emp_G_star", "emp_T", "emp_boot"}
        for c in report2.cells:
            assert c.frequency in (0.0, 0.5, 1.0)

    def test_default_cutoffs_resolved(self):
        cfg = SimConfig(model="normal01", n=20, outer_reps=2, inner_reps=2, seed=1)
        r1 = run_table1(cfg)
        assert r1.config["threshold"] == TABLE1_THRESHOLD
        assert r1.config["nominal"] == TABLE1_NOMINAL
        r2 = run_table2(cfg)
        assert r2.config["threshold"] == TABLE2_THRESHOLD
        assert r2.config["nominal"] == TABLE2_NOMINAL

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(model="nope", n=10)
        with pytest.raises(ValueError):
            SimConfig(model="normal01", n=10, tolerance_band=0.0)
        with pytest.raises(ValueError):
            SimConfig(model="normal01", n=10, B=1)
        with pytest.raises(ValueError):
            SimConfig(model="normal01", n=10, studentize_ddof=2)

    def test_weights_degenerate_at_n_one_raise(self):
        # every weight draw at n = 1 centres to zero; the redraw budget ends it
        cfg = SimConfig(model="normal01", n=1, studentize_ddof=0, outer_reps=1, inner_reps=5)
        with pytest.raises(DegenerateWeightsError):
            run_table1(cfg)


class TestDeterminism:
    def test_thread_count_does_not_change_bytes(self):
        cfg = SimConfig(model="exponential1", n=12, outer_reps=24, inner_reps=20, seed=42)
        single = dumps(run_table1(cfg, threads=1).to_dict())
        multi = dumps(run_table1(cfg, threads=8).to_dict())
        assert single == multi
        single2 = dumps(run_table2(cfg, threads=1).to_dict())
        multi2 = dumps(run_table2(cfg, threads=8).to_dict())
        assert single2 == multi2

    def test_repeat_runs_identical(self):
        cfg = SimConfig(model="lognormal01", n=10, outer_reps=15, inner_reps=15, seed=9)
        assert dumps(run_table1(cfg).to_dict()) == dumps(run_table1(cfg).to_dict())

    # The harness loops re-address one generator per worker thread; a
    # generator shared across threads would interleave draws and change
    # bytes.  A short switch interval makes such interleaving likely.
    @pytest.fixture
    def frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_coverage_thread_invariance(self):
        for recipe in ("population", "sample", "finitepop", "superpop", "ecdf", "cdf"):
            x = 0.0 if recipe in ("ecdf", "cdf") else None
            reports = {dumps(run_coverage(recipe, "normal01", 20, 20, 0.1, 200, seed=3, x=x,
                                          threads=threads).to_dict())
                       for threads in (1, 2, 8)}
            assert len(reports) == 1, recipe

    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_pivot_clt_thread_invariance(self):
        reports = {dumps(pivot_clt_frequencies(list(PivotKind), "lognormal01", 15, 12,
                                               1.644854, 200, seed=4, x=1.0,
                                               threads=threads).to_dict())
                   for threads in (1, 2, 8)}
        assert len(reports) == 1

    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_refined_ci_thread_invariance(self):
        # n = 2, m = 2 redraws about half of all weight rows
        for n, m in ((2, 2), (30, 30)):
            reports = {dumps(refined_ci_coverage("poisson1", n, m, 9, 0.1, 200, seed=5,
                                                 threads=threads).to_dict())
                       for threads in (1, 2, 8)}
            assert len(reports) == 1, (n, m)


def _within(hits: int, valid: int, nominal: float, band: float) -> bool:
    return valid > 0 and abs(hits / valid - nominal) <= band


class TestWhiteBoxConsistency:
    """Recompute tiny table cells with the scalar library functions on the
    same substreams and require identical reports."""

    # The fixed designs of the original white-box cases, plus random designs:
    # any law, n in 2..8, both Studentizing divisors.  The scalar pivots use
    # divisor n; sqrt((n - ddof)/n) rescales them to the table's divisor.
    # Random designs also draw the cutoff, the nominal level and the band:
    # at the published ones, a cell of at most 30 inner replicates almost
    # never lands in the band, and every frequency would read 0.
    DESIGNS = dict(
        model=st.sampled_from(sorted(MODELS)), n=st.integers(2, 8), m=st.integers(1, 10),
        S=st.integers(1, 3), T=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
        ddof=st.sampled_from((0, 1)),
        levels=st.tuples(st.sampled_from((-1.281648, -0.524401, 0.385320, 1.281648)),
                         st.floats(0.05, 0.95), st.sampled_from((0.01, 0.1, 0.3))),
    )

    @settings(max_examples=30, deadline=None)
    @given(**DESIGNS)
    @example(model="poisson1", n=6, m=6, S=3, T=8, seed=77, ddof=0,
             levels=(TABLE1_THRESHOLD, TABLE1_NOMINAL, 0.01))
    @example(model="poisson1", n=2, m=2, S=3, T=20, seed=12, ddof=1,  # weight redraws
             levels=(0.385320, 0.5, 0.3))
    def test_table1_matches_scalar_path(self, model, n, m, S, T, seed, ddof, levels):
        threshold, nominal, band = levels
        cfg = SimConfig(model=model, n=n, m=m, outer_reps=S, inner_reps=T, threshold=threshold,
                        nominal=nominal, tolerance_band=band, seed=seed, studentize_ddof=ddof)
        report = run_table1(cfg)
        model = resolve_model(model)
        scale = math.sqrt((n - ddof) / n)

        within_g = within_t = redraws = 0
        for s in range(S):
            wrng = substream(seed, "table1.weights", s)
            while True:
                counts = draw_multinomial_batch(n, m, 1, wrng)[0]
                w = WeightVector(counts, float(m), WeightScheme.MULTINOMIAL)
                cw = center(w, n)
                if cw.sum_squares > 0:
                    break
                redraws += 1
            hits_g = hits_t = valid = 0
            for t in range(T):
                data = model.transform(model.draw_base(substream(seed, "table1.data", s, t), n))
                sample = Sample.from_values(data)
                if sample.variance <= 0:
                    continue
                valid += 1
                hits_g += g_star(sample, cw, model.mean) * scale <= threshold
                hits_t += student_t(sample, model.mean) * scale <= threshold
            within_g += _within(hits_g, valid, nominal, band)
            within_t += _within(hits_t, valid, nominal, band)
        assert report.frequency("emp_G_star") == within_g / S
        assert report.frequency("emp_T") == within_t / S
        degenerate = {c.statistic: c.degenerate_count for c in report.cells}
        assert degenerate["emp_G_star"] == degenerate["emp_T"] + redraws

    @settings(max_examples=30, deadline=None)
    @given(B=st.integers(2, 5), **DESIGNS)
    @example(model="exponential1", n=5, m=5, B=3, S=2, T=10, seed=123, ddof=0,
             levels=(TABLE2_THRESHOLD, TABLE2_NOMINAL, 0.01))
    @example(model="poisson1", n=2, m=2, B=2, S=3, T=20, seed=12, ddof=1,
             levels=(0.385320, 0.5, 0.3))
    def test_table2_matches_scalar_path(self, model, n, m, B, S, T, seed, ddof, levels):
        threshold, nominal, band = levels
        cfg = SimConfig(model=model, n=n, m=m, outer_reps=S, inner_reps=T, threshold=threshold,
                        nominal=nominal, tolerance_band=band, B=B, seed=seed,
                        studentize_ddof=ddof)
        report = run_table2(cfg)
        model = resolve_model(model)
        scale = math.sqrt((n - ddof) / n)

        within = {"emp_G_star": 0, "emp_T": 0, "emp_boot": 0}
        for s in range(S):
            hits = {"emp_G_star": 0, "emp_T": 0, "emp_boot": 0}
            valid = {"emp_G_star": 0, "emp_T": 0, "emp_boot": 0}
            for t in range(T):
                rng = substream(seed, "table2.joint", s, t)
                data = model.transform(model.draw_base(rng, n))
                counts = draw_multinomial_batch(n, m, B + 1, rng)
                sample = Sample.from_values(data)
                if sample.variance <= 0:
                    continue
                t_val = student_t(sample, model.mean) * scale
                valid["emp_T"] += 1
                hits["emp_T"] += t_val <= threshold
                vectors = [WeightVector(c, float(m), WeightScheme.MULTINOMIAL)
                           for c in counts]
                centereds = [center(v, n) for v in vectors]
                if centereds[0].sum_squares > 0:
                    valid["emp_G_star"] += 1
                    hits["emp_G_star"] += (
                        g_star(sample, centereds[0], model.mean) * scale <= threshold)
                if all(c.sum_squares > 0 for c in centereds[1:]):
                    valid["emp_boot"] += 1
                    best = max(t_star(sample, c) for c in centereds[1:]) * scale
                    # Discrete laws can tie t with a replicate exactly; the two
                    # paths round such a tie differently, so skip the design.
                    assume(not math.isclose(t_val, best, rel_tol=1e-12, abs_tol=1e-12))
                    hits["emp_boot"] += t_val <= best
            for key in within:
                within[key] += _within(hits[key], valid[key], nominal, band)
        for key, total in within.items():
            assert report.frequency(key) == total / S

    def test_ddof_one_matches_direct_recompute(self):
        n, m, S, T, seed = 6, 6, 2, 6, 31
        cfg = SimConfig(model="normal01", n=n, outer_reps=S, inner_reps=T, seed=seed)
        assert cfg.studentize_ddof == 1
        report = run_table1(cfg)
        model = resolve_model("normal01")
        within_t = 0
        for s in range(S):
            hits = valid = 0
            for t in range(T):
                data = model.transform(model.draw_base(substream(seed, "table1.data", s, t), n))
                sd = data.std(ddof=1)
                if sd <= 0:
                    continue
                valid += 1
                hits += (data.mean() - model.mean) * math.sqrt(n) / sd <= TABLE1_THRESHOLD
            within_t += _within(hits, valid, TABLE1_NOMINAL, 0.01)
        assert report.frequency("emp_T") == within_t / S


class TestRunCoverage:
    def test_single_replicate_is_zero_or_one(self):
        report = run_coverage("population", "normal01", 30, 30, 0.1, 1, seed=8)
        assert report.cells[0].frequency in (0.0, 1.0)

    def test_degenerate_replicates_are_counted(self):
        # n = m = 2: the equal-split weight draw is degenerate w.p. 1/2
        report = run_coverage("population", "normal01", 2, 2, 0.1, 400, seed=2)
        cell = report.cells[0]
        se = math.sqrt(0.25 / 400)
        assert abs(cell.degenerate_count / 400 - 0.5) <= 3 * se

    def test_rough_coverage_sanity(self):
        report = run_coverage("sample", "normal01", 50, 50, 0.1, 400, seed=4)
        assert 0.75 <= report.cells[0].frequency <= 0.99

    def test_ecdf_recipe_needs_x(self):
        with pytest.raises(ValueError):
            run_coverage("ecdf", "normal01", 20, 20, 0.1, 10, seed=0)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError):
            run_coverage("median", "normal01", 20, 20, 0.1, 10, seed=0)

    def test_cdf_recipe_runs(self):
        report = run_coverage("cdf", "exponential1", 40, 40, 0.1, 200, seed=6,
                              x=math.log(2))
        assert 0.5 <= report.cells[0].frequency <= 1.0


class TestPivotCltFrequencies:
    def test_smoke_all_kinds(self):
        kinds = list(PivotKind)
        report = pivot_clt_frequencies(kinds, "normal01", 30, 30, 1.644854,
                                       reps=200, seed=11, x=0.0)
        assert len(report.cells) == len(kinds)
        for cell in report.cells:
            assert 0.8 <= cell.frequency <= 1.0

    def test_x_required_for_distribution_kinds(self):
        with pytest.raises(ValueError):
            pivot_clt_frequencies([PivotKind.ALPHA1_HAT], "normal01", 20, 20,
                                  1.6, reps=10, seed=0)


class TestRefinedCoverage:
    def test_smoke_and_determinism(self):
        a = refined_ci_coverage("normal01", 25, 25, 9, 0.1, 300, seed=13)
        b = refined_ci_coverage("normal01", 25, 25, 9, 0.1, 300, seed=13, threads=4)
        assert dumps(a.to_dict()) == dumps(b.to_dict())
        assert 0.75 <= a.cells[0].frequency <= 1.0


class TestLimitLaws:
    """Joint-replication limit checks at n = m = 200."""

    def test_every_pivot_kind_is_asymptotically_normal(self):
        report = pivot_clt_frequencies(
            list(PivotKind), "normal01", 200, 200, 1.644854,
            reps=10_000, seed=20260809, x=0.0, threads=2,
        )
        for cell in report.cells:
            assert abs(cell.frequency - 0.95) <= 0.02, cell

    def test_population_interval_coverage(self):
        report = run_coverage("population", "normal01", 200, 200, 0.1,
                              10_000, seed=20260810, threads=2)
        assert abs(report.cells[0].frequency - 0.90) <= 0.02

    def test_ecdf_interval_coverage_at_log_two(self):
        x = math.log(2)  # the exponential median, F(x) = 1/2
        ecdf_report = run_coverage("ecdf", "exponential1", 200, 200, 0.1,
                                   10_000, seed=20260811, x=x, threads=2)
        assert abs(ecdf_report.cells[0].frequency - 0.90) <= 0.03
        cdf_report = run_coverage("cdf", "exponential1", 200, 200, 0.1,
                                  10_000, seed=20260812, x=x, threads=2)
        assert abs(cdf_report.cells[0].frequency - 0.90) <= 0.03
