"""Simulation-harness tests: model laws, determinism, white-box consistency
of the vectorized kernels against the scalar pivot functions."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pivotboot import simulation
from pivotboot.errors import PivotbootError
from pivotboot.estimators import Sample, bootstrap_variance, ecdf
from pivotboot.intervals import (IntervalTarget, ci_ecdf, ci_finite_pop_mean,
                                 ci_population_mean, ci_sample_mean, ci_superpop_mean)
from pivotboot.jsonio import dumps
from pivotboot.multi_bootstrap import ReplicateSet, refined_contains
from pivotboot.pivots import (EMPIRICAL_KINDS, PivotKind, empirical_pivot, g_star,
                              starred_variant, student_t, t_star)
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
)
from pivotboot.weights import WeightVector, center, draw_multinomial_chunks


def draw(model, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` values of ``model`` drawn as the harnesses draw them: its
    base variates in one call, then its transform."""
    return model.transform(model.draw_base(rng, size))


def sequential_poisson1(u: np.ndarray) -> np.ndarray:
    """Reference Poisson(1) inversion: a sequential search that adds one
    term of the CDF per pass until u <= P(K <= k)."""
    k = np.zeros_like(u)
    term = np.full_like(u, math.exp(-1.0))
    cum = term.copy()
    active = u > cum
    while np.any(active):
        k[active] += 1.0
        term[active] /= k[active]
        cum[active] += term[active]
        active = u > cum
    return k


def summed_poisson1_cdf(x: float) -> float:
    """Reference Poisson(1) CDF: the terms up to floor(x) summed in order."""
    if x < 0.0:
        return 0.0
    total, term = 0.0, math.exp(-1.0)
    for j in range(int(math.floor(x)) + 1):
        if j > 0:
            term /= j
        total += term
    return min(total, 1.0)


# 0.0, the largest value Generator.random returns, and every entry of the
# Poisson(1) CDF table with its two float neighbours (none above 1.0, where
# the reference search never stops).
POISSON1_EDGES = sorted({0.0, 1.0 - 2.0**-53, *(
    float(v) for p in simulation._POISSON1_CDF
    for v in (np.nextafter(p, 0.0), p, np.nextafter(p, 2.0)) if v <= 1.0)})


# Every edge j/4096 of the sampler's buckets with its two float neighbours,
# and 1.0, the last bucket's one value and the table's last entry.
BUCKET_EDGES = sorted({float(v) for j in range(4097) for v in (
    np.nextafter(j / 4096, -1.0), j / 4096, np.nextafter(j / 4096, 2.0)) if 0.0 <= v <= 1.0})


def with_poisson1_edges(test):
    for value in POISSON1_EDGES:
        test = example(u=np.array([value]))(test)
    return example(u=np.array(sorted({*POISSON1_EDGES, *BUCKET_EDGES})).reshape(-1, 1))(test)


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
        values = draw(resolve_model("poisson1"), substream(1, "model"), 500)
        assert np.all(values >= 0)
        assert np.array_equal(values, np.round(values))

    def test_pooled_moments(self):
        reps = 1_000_000
        z = draw(resolve_model("normal01"), substream(2, "model"), reps)
        assert abs(z.mean()) <= 3 / math.sqrt(reps)
        e = draw(resolve_model("exponential1"), substream(3, "model"), reps)
        centered = (e - 1.0) ** 2
        se = centered.std(ddof=1) / math.sqrt(reps)
        assert abs(centered.mean() - 1.0) <= 3 * se
        p = draw(resolve_model("poisson1"), substream(4, "model"), reps)
        se_p = p.std(ddof=1) / math.sqrt(reps)
        assert abs(p.mean() - 1.0) <= 3 * se_p
        ln = draw(resolve_model("lognormal01"), substream(5, "model"), reps)
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

    def test_poisson1_cdf_table(self):
        table = simulation._POISSON1_CDF
        assert table.size == 19 and not table.flags.writeable
        assert table[-2] < 1.0 <= table[-1]
        assert np.all(np.diff(table) > 0)

    def test_poisson1_bucket_index(self):
        buckets, table = simulation._POISSON1_BUCKETS, simulation._POISSON1_CDF
        assert buckets.shape == (4097,) and not buckets.flags.writeable
        # Bucket j < 4096 covers [j/4096, (j+1)/4096) and falls back to the
        # search (-1.0) exactly when a CDF entry lies inside it; elsewhere it
        # holds the search's k at both its edges.  Bucket 4096 is u = 1.0 alone.
        edges = np.arange(4097) / 4096
        holds_entry = [bool(np.any((lo <= table) & (table < hi)))
                       for lo, hi in zip(edges[:-1], edges[1:])]
        assert (buckets[:-1] < 0.0).tolist() == holds_entry and sum(holds_entry) == 7
        exact = np.flatnonzero(buckets >= 0.0)
        for edge in (edges[exact], np.append(edges[1:], 1.0)[exact]):
            assert np.array_equal(buckets[exact], np.searchsorted(table, edge))
        assert buckets[-1] == 18.0

    @settings(max_examples=200, deadline=None)
    @with_poisson1_edges
    @given(u=hnp.arrays(np.float64, st.one_of(hnp.array_shapes(min_dims=1, max_dims=1),
                                              st.tuples(st.integers(1, 8), st.integers(1, 40))),
                        elements=st.floats(0.0, 1.0, exclude_max=True)))
    def test_poisson1_transform_matches_sequential_search(self, u):
        got, want = simulation._poisson1_from_uniform(u), sequential_poisson1(u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_poisson1_cdf_matches_summed_terms(self):
        whole = np.arange(-1.0, 31.0)
        grid = np.concatenate([np.linspace(-1.0, 30.0, 1241), whole,
                               np.nextafter(whole, -np.inf), np.nextafter(whole, np.inf)])
        for x in grid.tolist():
            assert simulation._poisson1_cdf(x) == summed_poisson1_cdf(x), x

    def test_poisson1_cdf_is_immediate_at_any_x(self):
        # A subprocess, so a CDF that sums floor(x) + 1 terms fails on the
        # timeout instead of hanging the suite.
        code = ("from pivotboot.simulation import resolve_model as r; "
                "print(r('poisson1').cdf(1e300), r('poisson1').cdf(float('inf')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(simulation.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1.0", "1.0"]


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

    def test_seed_must_fit_int64(self):
        for seed in (2**63, -2**63 - 1):
            with pytest.raises(ValueError, match=r"seed must lie in \[-2\*\*63, 2\*\*63\)"):
                SimConfig(model="poisson1", n=5, seed=seed)
        for seed in (2**63 - 1, -2**63):
            assert SimConfig(model="poisson1", n=5, seed=seed).seed == seed

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(model="nope", n=10)
        for band in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance_band"):
                SimConfig(model="normal01", n=10, tolerance_band=band)
        for threshold in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="threshold"):
                SimConfig(model="normal01", n=10, threshold=threshold)
        with pytest.raises(ValueError, match="B must be at least 2"):
            run_table2(SimConfig(model="normal01", n=10, B=1))  # table 1 reads no B
        with pytest.raises(ValueError):
            SimConfig(model="normal01", n=1)  # divisor n - 1 needs n >= 2


class TestDeterminism:
    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        # up to 8 worker threads, as asked, on a machine with fewer CPUs
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

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

    # Each block of harness replicates reads its own generator; a generator
    # shared across threads would interleave draws and change bytes.  A
    # short switch interval makes such interleaving likely.
    @pytest.fixture
    def frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    # The (purpose, block) of every stream that a harness reads: the designs
    # below span several blocks, so the threads have blocks to share.
    @pytest.fixture
    def blocks_read(self, monkeypatch):
        read = []

        def recording(seed, purpose, *indices):
            read.append((purpose, *indices))
            return substream(seed, purpose, *indices)

        monkeypatch.setattr(simulation, "substream", recording)
        return read

    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_coverage_thread_invariance(self, blocks_read):
        recipes = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")
        for recipe in recipes:
            x = 0.0 if recipe in ("ecdf", "cdf") else None
            reports = {dumps(run_coverage(recipe, "normal01", 500, 500, 0.1, 200, seed=3, x=x,
                                          threads=threads).to_dict())
                       for threads in (1, 2, 8)}
            assert len(reports) == 1, recipe
        # 200 replicates in blocks of 32 (2**14 // 500): seven blocks a run
        assert sorted(blocks_read) == sorted(
            [(f"coverage.{recipe}", k) for recipe in recipes for k in range(7)] * 3)

    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_pivot_clt_thread_invariance(self, blocks_read):
        reports = {dumps(pivot_clt_frequencies(list(PivotKind), "lognormal01", 500, 400,
                                               1.644854, 200, seed=4, x=1.0,
                                               threads=threads).to_dict())
                   for threads in (1, 2, 8)}
        assert len(reports) == 1
        assert sorted(blocks_read) == sorted([("pivot_clt", k) for k in range(7)] * 3)

    def test_table2_chunks_do_not_change_the_report(self, monkeypatch):
        # n = 6, B = 3: 18 count entries per replicate; 25 inner replicates
        def report(entries):
            monkeypatch.setattr(simulation, "_CHUNK", entries)
            cfg = SimConfig(model="poisson1", n=6, outer_reps=3, inner_reps=25, B=3, seed=4,
                            nominal=0.5, tolerance_band=0.5)
            return dumps(run_table2(cfg).to_dict())

        whole = report(2**40)
        for entries in (1, 40, 18 * 7):  # 1, 2 and 7 replicates a chunk
            assert report(entries) == whole, entries

    @pytest.mark.usefixtures("frequent_thread_switches")
    def test_refined_ci_thread_invariance(self, blocks_read):
        # at n = 2, m = 2 about half of all count rows are degenerate; blocks
        # of 8,192 and of 32 replicates
        for n, m, reps, blocks in ((2, 2, 16_484, 3), (500, 500, 200, 7)):
            blocks_read.clear()
            reports = {dumps(refined_ci_coverage("poisson1", n, m, 9, 0.1, reps, seed=5,
                                                 threads=threads).to_dict())
                       for threads in (1, 2, 8)}
            assert len(reports) == 1, (n, m)
            assert sorted(blocks_read) == sorted([("refined_ci", k) for k in range(blocks)] * 3)


def count_rows(n: int, m: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """One call's count rows as the bootstrap defines them, m uniform
    resample indices in [0, n) counted, and numpy's multinomial sampler past
    m = 8n.  Since stream layout 6 a call draws its indices in pieces of
    whole rows of at most max(2**18, m) indices from its first row, 16-bit
    up to n = 2**16; every design here fits one piece."""
    if m > 8 * n:
        return rng.multinomial(m, [1.0 / n] * n, size=rows)
    assert rows * m <= 2**18 and n <= 2**16
    return np.array([np.bincount(row, minlength=n)
                     for row in rng.integers(0, n, (rows, m), dtype=np.uint16)]).reshape(rows, n)


def _within(hits: int, valid: int, nominal: float, band: float) -> bool:
    return valid > 0 and abs(hits / valid - nominal) <= band


class TestWhiteBoxConsistency:
    """Recompute tiny table cells with the scalar library functions on the
    same substreams and require identical reports.

    The scalar paths derive stream layout 7 on their own: one stream per
    outer cell, read one inner replicate at a time, then each call's count
    rows as :func:`count_rows` draws them: table1's weight row (one call per
    redraw), table2's T g* rows in one call, then its T·B replicate rows in
    one call."""

    # The fixed designs of the original white-box cases, plus random designs:
    # any law, n in 2..8.  The scalar pivots use divisor n; sqrt((n - 1)/n)
    # rescales them to the table's divisor n - 1.
    # Random designs also draw the cutoff, the nominal level and the band:
    # at the published ones, a cell of at most 30 inner replicates almost
    # never lands in the band, and every frequency would read 0.
    DESIGNS = dict(
        model=st.sampled_from(sorted(MODELS)), n=st.integers(2, 8), m=st.integers(1, 10),
        S=st.integers(1, 3), T=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
        levels=st.tuples(st.sampled_from((-1.281648, -0.524401, 0.385320, 1.281648)),
                         st.floats(0.05, 0.95), st.sampled_from((0.01, 0.1, 0.3))),
    )

    @settings(max_examples=30, deadline=None)
    @given(**DESIGNS)
    @example(model="poisson1", n=6, m=6, S=3, T=8, seed=77,
             levels=(TABLE1_THRESHOLD, TABLE1_NOMINAL, 0.01))
    @example(model="poisson1", n=2, m=2, S=3, T=20, seed=12,  # weight redraws
             levels=(0.385320, 0.5, 0.3))
    @example(model="lognormal01", n=3, m=40, S=2, T=12, seed=5,  # m > 8n
             levels=(0.385320, 0.6, 0.3))
    def test_table1_matches_scalar_path(self, model, n, m, S, T, seed, levels):
        threshold, nominal, band = levels
        cfg = SimConfig(model=model, n=n, m=m, outer_reps=S, inner_reps=T, threshold=threshold,
                        nominal=nominal, tolerance_band=band, seed=seed)
        report = run_table1(cfg)
        model = resolve_model(model)
        scale = math.sqrt((n - 1) / n)

        within_g = within_t = redraws = 0
        for s in range(S):
            rng = substream(seed, "table1.cell", s)
            samples = [Sample.from_values(model.transform(model.draw_base(rng, n)))
                       for _ in range(T)]
            while True:
                cw = center(WeightVector(count_rows(n, m, 1, rng)[0]))
                if cw.sum_squares > 0:
                    break
                redraws += 1
            hits_g = hits_t = valid = 0
            for sample in samples:
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
    @example(model="exponential1", n=5, m=5, B=3, S=2, T=10, seed=123,
             levels=(TABLE2_THRESHOLD, TABLE2_NOMINAL, 0.01))
    @example(model="poisson1", n=2, m=2, B=2, S=3, T=20, seed=12,
             levels=(0.385320, 0.5, 0.3))
    @example(model="exponential1", n=3, m=40, B=4, S=2, T=12, seed=5,  # m > 8n
             levels=(0.385320, 0.6, 0.3))
    @example(model="normal01", n=2, m=16, B=3, S=2, T=12, seed=6,  # m = 8n
             levels=(-0.524401, 0.3, 0.1))
    @example(model="poisson1", n=5, m=3, B=2, S=1, T=5, seed=3,  # t ties the largest t*
             levels=(-1.281648, 0.5, 0.1))
    def test_table2_matches_scalar_path(self, model, n, m, B, S, T, seed, levels):
        threshold, nominal, band = levels
        cfg = SimConfig(model=model, n=n, m=m, outer_reps=S, inner_reps=T, threshold=threshold,
                        nominal=nominal, tolerance_band=band, B=B, seed=seed)
        report = run_table2(cfg)
        model = resolve_model(model)
        scale = math.sqrt((n - 1) / n)

        within = {"emp_G_star": 0, "emp_T": 0, "emp_boot": 0}
        for s in range(S):
            hits = {"emp_G_star": 0, "emp_T": 0, "emp_boot": 0}
            valid = {"emp_G_star": 0, "emp_T": 0, "emp_boot": 0}
            rng = substream(seed, "table2.cell", s)
            samples = [model.transform(model.draw_base(rng, n)) for _ in range(T)]
            g_rows = count_rows(n, m, T, rng)
            rows = [[g_row, *replicate_rows] for g_row, replicate_rows
                    in zip(g_rows, count_rows(n, m, T * B, rng).reshape(T, B, n))]
            for data, counts in zip(samples, rows):
                sample = Sample.from_values(data)
                if sample.variance <= 0:
                    continue
                t_val = student_t(sample, model.mean) * scale
                valid["emp_T"] += 1
                hits["emp_T"] += t_val <= threshold
                vectors = [WeightVector(c) for c in counts]
                centereds = [center(v) for v in vectors]
                if centereds[0].sum_squares > 0:
                    valid["emp_G_star"] += 1
                    hits["emp_G_star"] += (
                        g_star(sample, centereds[0], model.mean) * scale <= threshold)
                if all(c.sum_squares > 0 for c in centereds[1:]):
                    valid["emp_boot"] += 1
                    # Both sides have divisor n, so an exact tie of discrete
                    # data scores as the scalar functions round it.
                    hits["emp_boot"] += (student_t(sample, model.mean)
                                         <= max(t_star(sample, c) for c in centereds[1:]))
            for key in within:
                within[key] += _within(hits[key], valid[key], nominal, band)
        for key, total in within.items():
            assert report.frequency(key) == total / S

    def test_ddof_one_matches_direct_recompute(self, monkeypatch):
        # Fixed data, so that the divisor decides the cell whatever the
        # stream: the first row's Studentized mean is 1.565 with divisor
        # n - 1 and 1.715 with divisor n, either side of the cutoff; the
        # second row's is negative.  Both rows stay below the cutoff (1.0,
        # in the band) only with divisor n - 1; with divisor n one does (0.5).
        n, nominal, band = 6, 0.9, 0.2
        rows = np.array([[-0.3, 1.7] * 3, [-1.7, 0.3] * 3])
        fixed = dataclasses.replace(MODELS["normal01"], name="fixed", transform=lambda u: rows)
        monkeypatch.setitem(simulation.MODELS, "fixed", fixed)
        report = run_table1(SimConfig(model="fixed", n=n, outer_reps=2, inner_reps=len(rows),
                                      seed=31, nominal=nominal, tolerance_band=band))
        assert report.config["studentize_ddof"] == 1
        within = {}
        for ddof in (0, 1):
            t_values = rows.mean(axis=1) * math.sqrt(n) / rows.std(axis=1, ddof=ddof)
            within[ddof] = _within(int(np.count_nonzero(t_values <= TABLE1_THRESHOLD)),
                                   len(rows), nominal, band)
        assert within == {0: False, 1: True}
        assert report.frequency("emp_T") == 1.0


def block_sizes(n: int, reps: int) -> list[int]:
    """Stream layout 7 of the harnesses: ``reps`` replicates in blocks of
    max(1, BLOCK_ENTRIES // n), the last block fewer."""
    block = max(1, simulation.BLOCK_ENTRIES // n)
    return [min(block, reps - start) for start in range(0, reps, block)]


def block_replicates(model, n: int, m: int, rows: int, seed: int, purpose: str, reps: int):
    """Each replicate's data and its ``rows`` weight vectors, in replicate
    order.  Block k's stream ``substream(seed, purpose, k)`` draws the base
    variates of its R replicates in one call, then their R x rows count rows,
    replicate-major, in one call."""
    for k, size in enumerate(block_sizes(n, reps)):
        rng = substream(seed, purpose, k)
        data = model.transform(model.draw_base(rng, size * n).reshape(size, n))
        counts = count_rows(n, m, size * rows, rng).reshape(size, rows, n)
        for values, row_counts in zip(data, counts):
            yield Sample.from_values(values), [WeightVector(c) for c in row_counts]


def scalar_pivot(kind, sample, cw, mu, x, f_true):
    """Each kind's scalar pivot function, with the arguments its family takes."""
    if kind in EMPIRICAL_KINDS:
        absolute = kind in (PivotKind.ALPHA2_HAT, PivotKind.ALPHA2_HAT_HAT)
        return empirical_pivot(kind, sample, cw, x, f_true if absolute else None)
    if kind in (PivotKind.T_DOUBLE_STAR, PivotKind.T_TILDE):
        return starred_variant(kind, sample, cw)
    if kind in (PivotKind.G_DOUBLE_STAR, PivotKind.G_TILDE):
        return starred_variant(kind, sample, cw, mu=mu)
    if kind is PivotKind.STUDENT_T:
        return student_t(sample, mu)
    return t_star(sample, cw) if kind is PivotKind.T_STAR else g_star(sample, cw, mu)


def assert_cell(cell, outcomes):
    """The report cell holds the hits, valid and degenerate counts of the
    outcomes (True hit, False miss, None degenerate)."""
    degenerate = outcomes.count(None)
    valid = len(outcomes) - degenerate
    hits = outcomes.count(True)
    assert cell.degenerate_count == degenerate
    assert cell.frequency == (hits / valid if valid else 0.0)


class TestHarnessWhiteBox:
    """Re-derive each harness report by hand on stream layout 7: redraw each
    block's data and count rows, then score every replicate with the scalar
    interval, pivot or refined-cutoff functions.  The kernels take the
    scalar functions' operations row by row, so their values are equal to
    the bit and no tie needs excluding.  At these n a block of the layout
    holds every replicate, so the designs also run with ``BLOCK_ENTRIES``
    patched down to blocks of 50 to 16 replicates, or of one; 32 n gives
    layout 6's blocks of 32."""

    DESIGN = dict(model=st.sampled_from(sorted(MODELS)), n=st.integers(2, 6),
                  m=st.integers(1, 8), reps=st.sampled_from((1, 31, 32, 33, 67)),  # block edges
                  seed=st.integers(0, 2**32 - 1),
                  entries=st.sampled_from((simulation.BLOCK_ENTRIES, 100, 3)))

    @settings(max_examples=25, deadline=None)
    @given(recipe=st.sampled_from(("population", "sample", "finitepop", "superpop", "ecdf",
                                   "cdf")),
           **DESIGN)
    @example(recipe="population", model="normal01", n=2, m=2, reps=67, seed=2, entries=64)
    # block 0 mixes one-value rows (S* = 0) with ordinary ones; block 1 has no tiny variance
    @example(recipe="finitepop", model="poisson1", n=3, m=2, reps=33, seed=3, entries=96)
    def test_coverage(self, recipe, model, n, m, reps, seed, entries):
        with mock.patch.object(simulation, "BLOCK_ENTRIES", entries):
            self.check_coverage(recipe, model, n, m, reps, seed)

    def check_coverage(self, recipe, model, n, m, reps, seed):
        alpha, x = 0.2, 0.5
        report = run_coverage(recipe, model, n, m, alpha, reps, seed,
                              x=x if recipe in ("ecdf", "cdf") else None)
        model = resolve_model(model)
        outcomes = []
        for sample, (w,) in block_replicates(model, n, m, 1, seed, f"coverage.{recipe}", reps):
            cw = center(w)
            calls = {
                "population": lambda: (ci_population_mean(sample, cw, alpha), model.mean),
                "sample": lambda: (ci_sample_mean(sample, cw, alpha), sample.mean),
                "finitepop": lambda: (ci_finite_pop_mean(sample, cw, alpha), sample.mean),
                "superpop": lambda: (ci_superpop_mean(sample, cw, alpha), model.mean),
                "ecdf": lambda: (ci_ecdf(sample, cw, x, alpha, IntervalTarget.ECDF_VALUE),
                                 ecdf(sample, x)),
                "cdf": lambda: (ci_ecdf(sample, cw, x, alpha, IntervalTarget.CDF_VALUE),
                                model.cdf(x)),
            }
            try:
                interval, target = calls[recipe]()
            except PivotbootError:
                outcomes.append(None)
                continue
            outcomes.append(target in interval)
        assert report.config["rng_layout"] == 7
        assert_cell(report.cells[0], outcomes)

    @settings(max_examples=25, deadline=None)
    @given(**DESIGN)
    @example(model="poisson1", n=2, m=2, reps=67, seed=13, entries=64)
    # block 0 mixes one-value rows (S* = 0) with ordinary ones; block 1 has no tiny variance
    @example(model="poisson1", n=3, m=2, reps=33, seed=1, entries=96)
    def test_pivot_clt(self, model, n, m, reps, seed, entries):
        with mock.patch.object(simulation, "BLOCK_ENTRIES", entries):
            self.check_pivot_clt(model, n, m, reps, seed)

    def check_pivot_clt(self, model, n, m, reps, seed):
        kinds, threshold, x = list(PivotKind), 0.385320, 0.5
        report = pivot_clt_frequencies(kinds, model, n, m, threshold, reps, seed, x=x)
        model = resolve_model(model)
        outcomes = {kind: [] for kind in kinds}
        for sample, (w,) in block_replicates(model, n, m, 1, seed, "pivot_clt", reps):
            cw = center(w)
            for kind in kinds:
                try:
                    value = scalar_pivot(kind, sample, cw, model.mean, x, model.cdf(x))
                except PivotbootError:
                    outcomes[kind].append(None)
                    continue
                outcomes[kind].append(value <= threshold)
        assert [cell.statistic for cell in report.cells] == [kind.value for kind in kinds]
        for cell, kind in zip(report.cells, kinds):
            assert_cell(cell, outcomes[kind])

    @settings(max_examples=25, deadline=None)
    @given(B=st.integers(2, 6), **DESIGN)
    # half the rows degenerate
    @example(model="normal01", n=2, m=2, B=4, reps=67, seed=14, entries=64)
    @example(model="poisson1", n=2, m=3, B=3, reps=33, seed=5, entries=64)
    def test_refined_ci(self, model, n, m, B, reps, seed, entries):
        with mock.patch.object(simulation, "BLOCK_ENTRIES", entries):
            self.check_refined_ci(model, n, m, B, reps, seed)

    def check_refined_ci(self, model, n, m, B, reps, seed):
        alpha = 0.2
        report = refined_ci_coverage(model, n, m, B, alpha, reps, seed)
        model = resolve_model(model)
        outcomes = []
        for sample, vectors in block_replicates(model, n, m, B, seed, "refined_ci", reps):
            rows = [center(w) for w in vectors]
            try:  # a degenerate row makes t_star raise: the replicate is not redrawn
                values = [t_star(sample, cw) for cw in rows]
                t_value = student_t(sample, model.mean)
            except PivotbootError:
                outcomes.append(None)
                continue
            outcomes.append(refined_contains(t_value, ReplicateSet(values), alpha))
        assert_cell(report.cells[0], outcomes)


def test_resampled_std_one_value_guard():
    # One block, m = 3.  Row 0 draws 0.1 three times: its resampled mean
    # rounds to 0.10000000000000002 and leaves a raw variance of 1.9e-34.
    # Row 1 draws 1e16 twice and 1e16 + 2 once: its variance, 4/3, passes
    # the tiny test, but the values differ.  Rows 2 and 3 are ordinary.
    data = np.array([[0.1, 1.0, 2.0], [1e16, 1e16 + 2.0, 7.0], [0.5, 1.5, 2.5],
                     [2.0, 1.0, 3.0]])
    counts = np.array([[3, 0, 0], [2, 1, 0], [2, 1, 0], [1, 0, 2]], dtype=float)
    b = simulation._Block(MODELS["normal01"], data, counts, 3)
    scalar = [math.sqrt(bootstrap_variance(Sample.from_values(values), WeightVector(c)))
              for values, c in zip(data, counts)]
    assert scalar[0] == 0.0 and scalar[1] > 1.0
    assert b.resampled_std.tolist() == scalar


def test_pivot_law_block_takes_each_inner_product_once(monkeypatch):
    # two for the data's variance and the weights' norm, one each for the
    # resampled ECDF, t_sum, g_sum, the resampled mean and variance, and the
    # alpha1 and alpha2 sums, which two kinds each share
    calls, einsum = [], simulation._dot

    def counted(a, b):
        calls.append(None)
        return einsum(a, b)

    monkeypatch.setattr(simulation, "_dot", counted)
    reps = simulation.BLOCK_ENTRIES // 20  # one full block
    pivot_clt_frequencies(list(PivotKind), "normal01", 20, 20, 1.6, reps, seed=19, x=0.0)
    assert len(calls) == 9


def test_table2_cell_takes_the_data_moments_once(monkeypatch):
    # the data's variance once, for the g* block, whose mean and standard
    # deviation the replicate block reuses; then each block's weight norms,
    # and g_sum and t_sum
    calls, einsum = [], simulation._dot

    def counted(a, b):
        calls.append(None)
        return einsum(a, b)

    monkeypatch.setattr(simulation, "_dot", counted)
    run_table2(SimConfig(model="poisson1", n=10, outer_reps=1, inner_reps=20, seed=19))
    assert len(calls) == 5


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), n=st.integers(2, 60), T=st.integers(1, 600),
       seed=st.integers(0, 2**32))
def test_replicate_block_moments_equal_the_g_block_moments(model, n, T, seed):
    # A table2 cell's replicate blocks take its g* block's mean and standard
    # deviation; their own reductions of the same rows give the same bits.
    model = MODELS[model]
    data = draw(model, substream(seed, "data"), T * n).reshape(T, n)
    g = simulation._Block(model, data, np.ones((1, n)), n)
    rows = simulation._Block(model, data[:, None], np.ones((T, 3, n)), n)
    assert np.array_equal(rows.mean[:, 0], g.mean) and np.array_equal(rows.std[:, 0], g.std)


HARNESSES = {
    "coverage": lambda reps: run_coverage("population", "normal01", 20, 20, 0.1, reps, seed=0),
    "pivot_clt": lambda reps: pivot_clt_frequencies([PivotKind.T_STAR], "normal01", 20, 20, 1.6,
                                                    reps, seed=0),
    "refined_ci": lambda reps: refined_ci_coverage("normal01", 20, 20, 9, 0.1, reps, seed=0),
}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
@pytest.mark.parametrize("reps", [0, -1])
def test_harness_rejects_reps_below_one(harness, reps):
    # reps = 0 reported a frequency of 0.0 from zero replicates
    with pytest.raises(ValueError, match="reps must be positive"):
        HARNESSES[harness](reps)


@pytest.mark.parametrize("harness, message", [
    # each was scored as 40 degenerate replicates
    (lambda: refined_ci_coverage("normal01", 20, 20, 1, 0.1, 40, 1), "B at least 2"),
    (lambda: pivot_clt_frequencies(list(PivotKind), "normal01", 20, 20, 1.6, 40, 1, x=math.nan),
     "x and threshold must be finite"),
    (lambda: run_coverage("ecdf", "normal01", 20, 20, 0.1, 40, 1, x=math.inf),
     "x and threshold must be finite"),
    # a miss on every replicate
    (lambda: pivot_clt_frequencies([PivotKind.T_STAR], "normal01", 20, 20, math.nan, 40, 1),
     "x and threshold must be finite"),
    # outside (0, 1); alpha = 1.5 gave a cutoff of Phi^-1(0.25) < 0
    *[(lambda alpha=alpha: run_coverage("population", "normal01", 20, 20, alpha, 40, 1),
       "alpha must lie in") for alpha in (0.0, 1.0, 1.5, math.nan)],
    (lambda: refined_ci_coverage("normal01", 20, 20, 9, 1.0, 40, 1), "alpha must lie in"),
    (lambda: run_coverage("population", "normal01", 0, 20, 0.1, 40, 1), "n and m must be"),
    (lambda: pivot_clt_frequencies([PivotKind.T_STAR], "normal01", 20, 0, 1.6, 40, 1),
     "n and m must be"),
    (lambda: refined_ci_coverage("normal01", 20, -1, 9, 0.1, 40, 1), "n and m must be"),
    (lambda: run_table2(SimConfig(model="normal01", n=10, B=1)), "B must be at least 2"),
    # threads below 1 ran serially
    (lambda: run_coverage("population", "normal01", 20, 20, 0.1, 40, 1, threads=0),
     "threads must be at least 1"),
    (lambda: pivot_clt_frequencies([PivotKind.T_STAR], "normal01", 20, 20, 1.6, 40, 1,
                                   threads=0), "threads must be at least 1"),
    (lambda: refined_ci_coverage("normal01", 20, 20, 9, 0.1, 40, 1, threads=0),
     "threads must be at least 1"),
    (lambda: run_table1(SimConfig(model="normal01", n=10), threads=0),
     "threads must be at least 1"),
])
def test_harness_rejects_bad_arguments_before_any_draw(harness, message, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a stream was addressed")

    monkeypatch.setattr(simulation, "substream", no_draw)
    with pytest.raises(ValueError, match=message):
        harness()


@pytest.mark.parametrize("harness", [
    lambda: run_coverage("population", "normal01", 1, 1, 0.1, 40, seed=1),
    lambda: pivot_clt_frequencies(list(PivotKind), "normal01", 1, 1, 1.6, 40, seed=1, x=0.0),
    lambda: refined_ci_coverage("normal01", 1, 1, 9, 0.1, 40, seed=1),
], ids=["coverage", "pivot_clt", "refined_ci"])
def test_all_degenerate_replicates_report_zero(harness, monkeypatch):
    # at n = m = 1 every replicate is degenerate; 40 replicates fill one
    # block of 32 and part of a second
    monkeypatch.setattr(simulation, "BLOCK_ENTRIES", 32)
    report = harness()
    for cell in report.cells:
        assert (cell.frequency, cell.degenerate_count) == (0.0, 40), cell.statistic


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
    def test_degenerate_count_of_golden_case(self):
        # The golden case: at n = m = 2 a count row (1, 1) is degenerate with
        # probability 1/2, so most replicates have one among their 4 rows.
        report = refined_ci_coverage("normal01", 2, 2, 4, 0.2, 60, 14)
        by_hand = sum(sample.variance <= 0.0 or any(center(w).sum_squares <= 0.0 for w in rows)
                      for sample, rows in block_replicates(resolve_model("normal01"), 2, 2, 4, 14,
                                                           "refined_ci", 60))
        assert 0 < by_hand < 60
        assert report.cells[0].degenerate_count == by_hand

    def test_chunks_do_not_change_the_report(self, monkeypatch):
        # lognormal01 at n = m = 30, B = 9: 270 count entries per replicate;
        # 70 replicates fill part of one block
        def report(entries):
            monkeypatch.setattr(simulation, "_CHUNK", entries)
            return dumps(refined_ci_coverage("lognormal01", 30, 30, 9, 0.1, 70, 3).to_dict())

        # 1, 3 and 30 replicates a chunk, and the budget (one chunk per block)
        chunks = (1, 1000, 2**13, simulation._CHUNK)
        whole = report(2**40)  # one chunk per block
        for entries in chunks:
            assert report(entries) == whole, entries

    @pytest.mark.parametrize("n, reps", [
        (800, 64),                    # the largest published design: 20 replicates a block
        (simulation._CHUNK // 8, 3),  # 9n > _CHUNK: one replicate a block
    ])
    def test_count_draws_per_block(self, monkeypatch, n, reps):
        rows = []  # the rows of each chunk read

        def counted(n, m, count, chunk, rng):
            for counts in draw_multinomial_chunks(n, m, count, chunk, rng):
                rows.append(len(counts))
                yield counts

        monkeypatch.setattr(simulation, "draw_multinomial_chunks", counted)
        refined_ci_coverage("lognormal01", n, n, 9, 0.1, reps, seed=18)
        assert rows == [9 * size for size in block_sizes(n, reps)]  # one chunk per block

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
