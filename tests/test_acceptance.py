"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion.

The two table reproductions run the full published design (500 outer x 500
inner cells) and take a few minutes each; everything else is seconds.
"""

import importlib.util
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pivotboot.bounds import BoundParams, RateKind, berry_esseen_bound, convergence_rate
from pivotboot.cli import main
from pivotboot.estimators import Sample
from pivotboot.gaussian import normal_quantile
from pivotboot.intervals import ci_population_mean, ci_sample_mean
from pivotboot.multi_bootstrap import (
    GENZ_LEVEL_B9,
    orthant_probability,
    orthant_probability_closed_form,
    y_distribution,
)
from pivotboot.pivots import PivotKind, empirical_pivot, g_star, t_star
from pivotboot.rng import substream
from pivotboot.simulation import (
    TABLE1_CELLS,
    TABLE2_CELLS,
    SimConfig,
    pivot_clt_frequencies,
    refined_ci_coverage,
    run_table1,
    run_table2,
)
from pivotboot.weights import (
    center,
    draw_multinomial_batch,
    draw_multinomial_weights,
    expected_sum_squares,
)

ACCEPTANCE_SEED = 20260809
# Reports do not depend on the thread count (criterion 9 checks that), and
# extra threads only slow the GIL-bound harnesses down.
THREADS = 1

# The published values (scripts/paper_cells.txt) and their z against a
# reproduced frequency, as scripts/reproduce_table.py prints them.
_SPEC = importlib.util.spec_from_file_location(
    "reproduce_table", Path(__file__).resolve().parent.parent / "scripts" / "reproduce_table.py")
REPRODUCE_TABLE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(REPRODUCE_TABLE)
PAPER = REPRODUCE_TABLE.paper_cells()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table1_reports():
    out = {}
    for model, n in TABLE1_CELLS:
        cfg = SimConfig(model=model, n=n, seed=ACCEPTANCE_SEED)
        out[(model, n)] = run_table1(cfg, threads=THREADS)
    return out


@pytest.fixture(scope="module")
def table2_reports():
    out = {}
    for model, n in TABLE2_CELLS:
        cfg = SimConfig(model=model, n=n, seed=ACCEPTANCE_SEED)
        out[(model, n)] = run_table2(cfg, threads=THREADS)
    return out


def test_criterion_1_exact_combinatorics():
    start = time.perf_counter()
    worst_uniform = 0.0
    worst_pair = 0.0
    for B in range(2, 26):
        dist = y_distribution(B)
        worst_uniform = max(worst_uniform, float(np.max(np.abs(dist.pmf - 1 / (B + 1)))))
        for l in range(B + 1):
            worst_pair = max(
                worst_pair,
                abs(orthant_probability(B, l) - orthant_probability_closed_form(B, l)),
            )
    complement = 1.0 - y_distribution(9).pmf[0]
    elapsed = time.perf_counter() - start
    ok = (
        worst_uniform < 1e-9
        and worst_pair < 1e-10
        and abs(complement - 0.9) < 1e-9
        and abs(complement - GENZ_LEVEL_B9) < 2e-5
        and elapsed < 1.0
    )
    report(
        "criterion 1 (exact combinatorics)",
        ok,
        f"max|pmf-1/(B+1)|={worst_uniform:.2e}, max|quad-closed|={worst_pair:.2e}, "
        f"1-pmf[0]={complement:.9f} vs Genz {GENZ_LEVEL_B9}, elapsed={elapsed:.2f}s",
    )


def test_criterion_2_moment_identity():
    start = time.perf_counter()
    failures = []
    details = []
    for n, m in ((10, 10), (20, 40), (50, 25)):
        counts = draw_multinomial_batch(n, m, 100_000, substream(ACCEPTANCE_SEED, "accept.v2", n, m))
        centered = counts / m - 1.0 / n
        v2 = np.einsum("ri,ri->r", centered, centered)
        se = v2.std(ddof=1) / math.sqrt(v2.size)
        gap = abs(v2.mean() - expected_sum_squares(n, m))
        details.append(f"(n={n},m={m}): |gap|={gap:.2e} vs 3SE={3 * se:.2e}")
        if gap > 3 * se:
            failures.append((n, m))
    # exhaustive enumeration at n = m = 2
    exact = 0.0
    for draw in itertools.product(range(2), repeat=2):
        key = np.array([draw.count(0), draw.count(1)]) / 2 - 0.5
        exact += float(key @ key) / 4
    elapsed = time.perf_counter() - start
    ok = not failures and exact == pytest.approx(0.25, abs=1e-15) and elapsed < 10.0
    report(
        "criterion 2 (moment identity)",
        ok,
        "; ".join(details) + f"; enumeration(2,2)={exact}, elapsed={elapsed:.2f}s",
    )


def test_criterion_3_table1_reproduction(table1_reports):
    anchor = table1_reports[("poisson1", 20)]
    g_val = anchor.frequency("emp_G_star")
    t_val = anchor.frequency("emp_T")
    anchor_ok = abs(g_val - 0.552) <= 0.10 and abs(t_val - 0.322) <= 0.10
    orderings = {
        cell: (rep.frequency("emp_G_star"), rep.frequency("emp_T"))
        for cell, rep in table1_reports.items()
    }
    ordering_ok = all(g > t for g, t in orderings.values())
    total_draws = 500 * 500
    degenerate_ok = all(
        cell.degenerate_count / total_draws <= 1e-3
        for rep in table1_reports.values()
        for cell in rep.cells
    )
    detail = (
        f"poisson/20 emp_G*={g_val:.3f} (paper 0.552), emp_T={t_val:.3f} (paper 0.322); "
        f"ordering emp_G*>emp_T holds in {sum(g > t for g, t in orderings.values())}/9 cells; "
        f"degenerate fraction <= 1e-3 everywhere: {degenerate_ok}"
    )
    report("criterion 3 (conditional table reproduction)",
           anchor_ok and ordering_ok and degenerate_ok, detail)


def test_criterion_4_table2_reproduction(table2_reports):
    anchor = table2_reports[("poisson1", 20)]
    values = (
        anchor.frequency("emp_G_star"),
        anchor.frequency("emp_T"),
        anchor.frequency("emp_boot"),
    )
    anchor_ok = all(abs(v - p) <= 0.10 for v, p in zip(values, (0.48, 0.302, 0.248)))
    largest = sum(
        rep.frequency("emp_G_star") > rep.frequency("emp_T")
        and rep.frequency("emp_G_star") > rep.frequency("emp_boot")
        for rep in table2_reports.values()
    )
    total_draws = 500 * 500
    degenerate_ok = all(
        cell.degenerate_count / total_draws <= 1e-3
        for rep in table2_reports.values()
        for cell in rep.cells
    )
    detail = (
        f"poisson/20 (G*,T,Boot)=({values[0]:.3f},{values[1]:.3f},{values[2]:.3f}) "
        f"vs paper (0.48,0.302,0.248); G* strictly largest in {largest}/9 cells; "
        f"degenerate fraction <= 1e-3 everywhere: {degenerate_ok}"
    )
    report("criterion 4 (joint table reproduction)",
           anchor_ok and largest >= 8 and degenerate_ok, detail)


def test_criterion_10_paper_scorecard(table1_reports, table2_reports):
    # Every published cell against the paper, both band shares of 500 outer
    # cells.  Bounds fixed before any run: no |z| above 3.5 (Bonferroni, about
    # 0.02 over 45 cells), and the sum of z**2 below the 0.999 quantile of
    # chi-square, with one degree of freedom per cell where either side is
    # nonzero; a cell at 0 on both sides adds 0.
    from scipy.stats import chi2

    zs = {}
    for table, reports in ((1, table1_reports), (2, table2_reports)):
        for (model, n), rep in reports.items():
            for cell in rep.cells:
                key = (table, model, n, cell.statistic)
                if cell.frequency or PAPER[key]:
                    zs[key] = REPRODUCE_TABLE.z_score(cell.frequency, 500, PAPER[key])[1]
    cells = sum(len(rep.cells) for rep in (*table1_reports.values(), *table2_reports.values()))
    worst = max(zs, key=lambda key: abs(zs[key]))
    total, bound = sum(z * z for z in zs.values()), chi2.ppf(0.999, len(zs))
    report(
        "criterion 10 (paper scorecard)",
        cells == len(PAPER) == 45 and abs(zs[worst]) <= 3.5 and total < bound,
        f"max |z|={abs(zs[worst]):.2f} at {'/'.join(map(str, worst))}; sum z**2={total:.1f} "
        f"< {bound:.1f} (chi-square 0.999, df={len(zs)}) over {cells} of {len(PAPER)} cells",
    )


def test_criterion_5_clt_sanity():
    start = time.perf_counter()
    kinds = [
        PivotKind.G_STAR,
        PivotKind.T_STAR,
        PivotKind.G_DOUBLE_STAR,
        PivotKind.T_DOUBLE_STAR,
        PivotKind.ALPHA1_HAT,
        PivotKind.ALPHA2_HAT,
    ]
    rep = pivot_clt_frequencies(
        kinds, "normal01", 200, 200, 1.644854, reps=10_000,
        seed=ACCEPTANCE_SEED, x=0.0, threads=THREADS,
    )
    elapsed = time.perf_counter() - start
    gaps = {c.statistic: abs(c.frequency - 0.95) for c in rep.cells}
    ok = all(v <= 0.02 for v in gaps.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}:|gap|={v:.4f}" for k, v in gaps.items())
    report("criterion 5 (pivot CLT sanity)", ok, detail + f"; elapsed={elapsed:.1f}s")


def test_criterion_6_refined_ci_validity():
    rep = refined_ci_coverage(
        "normal01", 100, 100, 9, 0.1, 10_000, seed=ACCEPTANCE_SEED, threads=THREADS
    )
    freq = rep.cells[0].frequency
    ok = abs(freq - 0.9) <= 0.02
    report(
        "criterion 6 (replicate-cutoff coverage)",
        ok,
        f"coverage={freq:.4f} vs nominal 0.9 (tolerance 0.02), "
        f"degenerate={rep.cells[0].degenerate_count}",
    )


def _bound_oracle(n, m, delta, eps, eps1, eps2, ratio):
    dn = (delta - (eps1 / eps) ** 2 + eps2) / (0.56 * ratio)
    q = 1 - Fraction(1, n)
    sixth = 15 * Fraction(m, n) ** 3 + 25 * Fraction(m, n) ** 2 + Fraction(m, n)
    first = dn ** (-2) * (1 - eps) ** (-3) * float(
        q ** (-3) * Fraction(n + n * n, m**3) * sixth
    )
    bracket = (
        q / (n**3 * m**3)
        + q**4 / m**3
        + (m - 1) * q**2 / (n * m**3)
        + Fraction(4 * (n - 1), n**3 * m)
        + Fraction(1, m**2)
        - Fraction(1, n * m**2)
        + Fraction(n - 1, n**3 * m**3)
        + Fraction(4 * (n - 1), n**2 * m**3)
        - q**2 / m**2
    )
    return first + eps ** (-2) * float(Fraction(m**2) / q * bracket)


def test_criterion_7_bound_determinism_and_scaling():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 2000))
        m = int(rng.integers(1, 2000))
        delta = float(rng.uniform(0.3, 1.5))
        eps = float(rng.uniform(0.2, 0.9))
        eps1 = float(rng.uniform(0.0, 0.2 * eps))
        eps2 = float(rng.uniform(0.0, 0.1))
        ratio = float(rng.uniform(0.5, 4.0))
        if not delta > (eps1 / eps) ** 2 + eps2:
            continue
        p = BoundParams(n=n, m=m, delta=delta, eps=eps, eps1=eps1, eps2=eps2,
                        third_abs_moment_ratio=ratio)
        mine = berry_esseen_bound(p)
        oracle = _bound_oracle(n, m, delta, eps, eps1, eps2, ratio)
        worst = max(worst, abs(mine - oracle) / abs(oracle))
        checked += 1

    def bound_at(n):
        return berry_esseen_bound(
            BoundParams(n=n, m=n, delta=0.5, eps=0.5, eps1=0.1, eps2=0.1,
                        third_abs_moment_ratio=1.0)
        )

    halving = bound_at(2_000_000) / bound_at(1_000_000)
    rate_exact = all(
        convergence_rate(RateKind.G_STAR_RATE, n, n) == 1.0 / n
        for n in (1, 2, 17, 100, 9999, 10**6)
    )
    ok = worst < 1e-12 and 0.45 <= halving <= 0.55 and rate_exact
    report(
        "criterion 7 (bound determinism and scaling)",
        ok,
        f"dual-transcription worst rel gap={worst:.2e} on 100-point grid, "
        f"bound(2n)/bound(n)={halving:.4f} at n=1e6, rate(n,n)==1/n exact={rate_exact}",
    )


def test_criterion_8_algebraic_dualities():
    z = normal_quantile(1 - 0.1 / 2)
    worst_pop = worst_sample = 0.0
    reduction_exact = True
    for r in range(1000):
        n = 5 + (r % 8)
        values = substream(ACCEPTANCE_SEED, "accept.dual.data", r).standard_normal(n) * 2.0
        s = Sample.from_values(values)
        w = None
        for k in range(50):
            cand = draw_multinomial_weights(n, n + 2, substream(ACCEPTANCE_SEED, "accept.dual.w", r, k))
            cw = center(cand)
            if cw.sum_squares > 0:
                w = cand
                break
        assert w is not None
        interval = ci_population_mean(s, cw, 0.1)
        for mu, inside in ((interval.lo, True), (interval.hi, True),
                           ((interval.lo + interval.hi) / 2, True)):
            gap = abs(g_star(s, cw, mu)) - z
            worst_pop = max(worst_pop, gap if inside else -gap)
        si = ci_sample_mean(s, cw, 0.1)
        t_gap = abs(t_star(s, cw)) - z
        if s.mean in si:
            worst_sample = max(worst_sample, t_gap)
        else:
            worst_sample = max(worst_sample, -t_gap)
        # indicator reduction
        x = float(np.median(values)) + 0.05
        indicators = Sample.from_values((values <= x).astype(float))
        lhs = empirical_pivot(PivotKind.ALPHA1_HAT, s, cw, x)
        rhs = t_star(indicators, cw)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            reduction_exact = False
        lhs2 = empirical_pivot(PivotKind.ALPHA2_HAT, s, cw, x, f_true=0.4)
        rhs2 = g_star(indicators, cw, 0.4)
        if abs(lhs2 - rhs2) > 1e-12 * max(1.0, abs(rhs2)):
            reduction_exact = False
    ok = worst_pop <= 1e-10 and worst_sample <= 1e-10 and reduction_exact
    report(
        "criterion 8 (algebraic dualities)",
        ok,
        f"endpoint |pivot|-z excess: population={worst_pop:.2e}, sample={worst_sample:.2e}; "
        f"indicator reduction exact={reduction_exact} (1000 instances)",
    )


def test_criterion_9_manifest_determinism(capsys):
    argv = [
        "table", "--which", "2", "--model", "poisson1", "--n", "15",
        "--outer", "20", "--inner", "20", "--B", "5",
        "--seed", str(ACCEPTANCE_SEED), "--timestamp", "2026-08-09T00:00:00+00:00",
    ]
    outputs = []
    for threads in ("1", "8", "1"):
        code = main(argv + ["--threads", threads])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    cov_args = ["table", "--which", "1", "--model", "normal01", "--n", "12",
                "--outer", "15", "--inner", "15",
                "--seed", str(ACCEPTANCE_SEED), "--timestamp", "T0"]
    cov = []
    for threads in ("1", "8"):
        code = main(cov_args + ["--threads", threads])
        captured = capsys.readouterr()
        assert code == 0
        cov.append(captured.out)
    ok = outputs[0] == outputs[1] == outputs[2] and cov[0] == cov[1]
    with capsys.disabled():
        report(
            "criterion 9 (manifest determinism)",
            ok,
            "byte-identical reports across --threads 1/8 and reruns "
            f"({len(outputs[0])} bytes joint, {len(cov[0])} bytes conditional)",
        )


def test_rate_trend_substitute():
    # A skewed law makes the vanishing coverage error visible above the
    # Monte Carlo noise floor; for symmetric data it is already < 1 SE at
    # n = 50 and the trend would be unmeasurable.
    errors = {}
    for n in (50, 200, 800):
        rep = refined_ci_coverage(
            "lognormal01", n, n, 9, 0.1, 10_000,
            seed=ACCEPTANCE_SEED + n, threads=THREADS,
        )
        errors[n] = abs(rep.cells[0].frequency - 0.9)
    ok = errors[50] >= errors[200] >= errors[800]
    report(
        "rate-trend substitute (replicate cutoff)",
        ok,
        "|coverage-0.9| at n=50/200/800: "
        f"{errors[50]:.4f} / {errors[200]:.4f} / {errors[800]:.4f} (nonincreasing)",
    )
