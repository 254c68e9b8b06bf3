"""Monte Carlo harnesses for coverage comparison experiments.

Two table experiments are provided.  The conditional design
(:func:`run_table1`) fixes one weight realization per outer cell and draws
fresh data for every inner replicate, scoring how often the conditional
empirical law of the absolute-weight pivot at a one-sided cutoff lands
within a band of its nominal level, against the same score for the
Studentized mean computed on the same data draws.  The joint design
(:func:`run_table2`) draws weights and data together in every inner
replicate and scores three one-sided methods side by side: the
absolute-weight pivot, the Studentized mean, and the Studentized mean
compared against the maximum of B replicate pivots.

Every random draw comes from a counter-based substream addressed by the
seed and the unit of work, so reports are byte-identical for any
worker-thread count and any execution order.  The table kernels address
one stream per outer cell (stream layout 2, recorded as ``rng_layout`` in
every table report's config): the cell draws all its inner replicates' base
variates in one call, then its weights (table1: the cell's one weight
vector; table2: all B + 1 count rows of every inner replicate in one
:func:`~pivotboot.weights.draw_resample_counts` call).
The coverage, pivot-law and replicate-cutoff harnesses give every
replicate its own stream and re-address one generator per worker thread to
it (``rng.restreamer``).  Table-kernel inner computations are vectorized per
outer cell; the vectorized kernels agree with the scalar pivot functions
(tested).
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import PivotbootError
from .estimators import Sample, ecdf
from .gaussian import normal_cdf
from .intervals import (
    RECIPES,
    IntervalTarget,
    ci_ecdf,
    ci_finite_pop_mean,
    ci_population_mean,
    ci_sample_mean,
    ci_superpop_mean,
)
from .multi_bootstrap import GENZ_LEVEL_B9, draw_replicates, refined_contains
from .pivots import (EMPIRICAL_KINDS, PivotKind, empirical_pivot, g_star, starred_variant,
                     student_t, t_star)
from .rng import restreamer, substream
from .weights import (
    CenteredWeights,
    WeightScheme,
    WeightVector,
    center,
    draw_multinomial_batch,
    draw_resample_counts,
    nondegenerate,
)

__all__ = [
    "Model",
    "MODELS",
    "resolve_model",
    "SimConfig",
    "CellResult",
    "CoverageReport",
    "TABLE1_THRESHOLD",
    "TABLE1_NOMINAL",
    "TABLE2_THRESHOLD",
    "TABLE2_NOMINAL",
    "TABLE1_CELLS",
    "TABLE2_CELLS",
    "sample_model",
    "run_table1",
    "run_table2",
    "run_coverage",
    "pivot_clt_frequencies",
    "refined_ci_coverage",
]

TABLE1_THRESHOLD = 1.644854
TABLE1_NOMINAL = 0.95
TABLE2_THRESHOLD = 1.281648
TABLE2_NOMINAL = GENZ_LEVEL_B9

# The table kernels' stream layout, recorded in every table report's config:
# 2 is one stream per outer cell (1, retired, was one per inner replicate).
RNG_LAYOUT = 2

# (model, n) design points of the two printed comparison grids.  The
# conditional table's exponential row ends at n = 50, the joint table's at
# n = 40.
TABLE1_CELLS: tuple[tuple[str, int], ...] = (
    ("poisson1", 20), ("poisson1", 30), ("poisson1", 40),
    ("lognormal01", 20), ("lognormal01", 30), ("lognormal01", 40),
    ("exponential1", 20), ("exponential1", 30), ("exponential1", 50),
)
TABLE2_CELLS: tuple[tuple[str, int], ...] = (
    ("poisson1", 20), ("poisson1", 30), ("poisson1", 40),
    ("lognormal01", 20), ("lognormal01", 30), ("lognormal01", 40),
    ("exponential1", 20), ("exponential1", 30), ("exponential1", 40),
)


# ---------------------------------------------------------------------------
# Data models
# ---------------------------------------------------------------------------

def _poisson1_from_uniform(u: np.ndarray) -> np.ndarray:
    """Poisson(1) by inversion with sequential search (exact, vectorized)."""
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


def _poisson1_cdf(x: float) -> float:
    if x < 0.0:
        return 0.0
    total, term = 0.0, math.exp(-1.0)
    for j in range(int(math.floor(x)) + 1):
        if j > 0:
            term /= j
        total += term
    return min(total, 1.0)


@dataclass(frozen=True)
class Model:
    """A simulation law with its exact mean, variance, and CDF.

    Sampling is split into a base draw (uniform or standard normal, one
    generator call) and a vectorized transform, so harnesses can draw each
    replicate's base variates from its own substream and transform whole
    cells at once; ``sample`` composes the two.
    """

    name: str
    mean: float
    variance: float
    base: str  # "uniform" | "normal"
    transform: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[float], float]

    def draw_base(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.base == "uniform":
            return rng.random(size)
        return rng.standard_normal(size)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.transform(self.draw_base(rng, size))


MODELS: dict[str, Model] = {
    "poisson1": Model(
        "poisson1", 1.0, 1.0, "uniform",
        _poisson1_from_uniform,
        _poisson1_cdf,
    ),
    "lognormal01": Model(
        "lognormal01", math.exp(0.5), math.e * (math.e - 1.0), "normal",
        np.exp,
        lambda x: normal_cdf(math.log(x)) if x > 0.0 else 0.0,
    ),
    "exponential1": Model(
        "exponential1", 1.0, 1.0, "uniform",
        lambda u: -np.log1p(-u),
        lambda x: 1.0 - math.exp(-x) if x > 0.0 else 0.0,
    ),
    "normal01": Model(
        "normal01", 0.0, 1.0, "normal",
        lambda z: z,
        normal_cdf,
    ),
}


def resolve_model(model: str | Model) -> Model:
    """The model of that name (any case); a :class:`Model` is returned as is."""
    if isinstance(model, Model):
        return model
    found = MODELS.get(model.lower())
    if found is None:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    return found


def sample_model(model: str | Model, n: int, stream: np.random.Generator) -> Sample:
    """Draw an i.i.d. sample of size n from a named model."""
    return Sample.from_values(resolve_model(model).sample(stream, n))


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Design of one table cell: law, sizes, repetition counts, cutoffs.

    ``studentize_ddof`` selects the divisor of the Studentizing standard
    deviation inside the table harnesses: 1 (divisor n-1) reproduces the
    published comparison tables, 0 gives the divisor-n convention used by
    the library's pivot functions.  The two differ only by the scale factor
    sqrt(n/(n-1)), but the scored band frequencies are sensitive enough to
    resolve it.
    """

    model: str
    n: int
    m: int | None = None
    outer_reps: int = 500
    inner_reps: int = 500
    threshold: float | None = None
    nominal: float | None = None
    tolerance_band: float = 0.01
    B: int = 9
    seed: int = 0
    studentize_ddof: int = 1

    def __post_init__(self) -> None:
        resolve_model(self.model)
        if self.n < 1 or (self.m is not None and self.m < 1):
            raise ValueError("sample and resample sizes must be positive")
        if self.outer_reps < 1 or self.inner_reps < 1:
            raise ValueError("repetition counts must be positive")
        if self.tolerance_band <= 0.0:
            raise ValueError("tolerance_band must be positive")
        if self.nominal is not None and not 0.0 < self.nominal < 1.0:
            raise ValueError("nominal level must lie in (0, 1)")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if self.studentize_ddof not in (0, 1):
            raise ValueError("studentize_ddof must be 0 or 1")
        if self.n <= self.studentize_ddof:
            raise ValueError("n must exceed studentize_ddof")

    def resolved(self, default_threshold: float, default_nominal: float) -> dict:
        return {
            "model": self.model.lower(),
            "n": self.n,
            "m": self.m if self.m is not None else self.n,
            "outer_reps": self.outer_reps,
            "inner_reps": self.inner_reps,
            "threshold": self.threshold if self.threshold is not None else default_threshold,
            "nominal": self.nominal if self.nominal is not None else default_nominal,
            "tolerance_band": self.tolerance_band,
            "B": self.B,
            "seed": self.seed,
            "studentize_ddof": self.studentize_ddof,
            "rng_layout": RNG_LAYOUT,
        }


@dataclass(frozen=True)
class CellResult:
    """One scored statistic of one design point."""

    distribution: str
    n: int
    statistic: str
    frequency: float
    degenerate_count: int


@dataclass(frozen=True)
class CoverageReport:
    """Frequencies plus full provenance for one experiment run."""

    kind: str
    seed: int
    config: Mapping[str, object]
    cells: tuple[CellResult, ...]

    def frequency(self, statistic: str) -> float:
        for cell in self.cells:
            if cell.statistic == statistic:
                return cell.frequency
        raise KeyError(statistic)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "config": dict(self.config),
            "cells": [asdict(c) for c in self.cells],
            "results": {c.statistic: c.frequency for c in self.cells},
        }


def _run_outer_cells(worker: Callable[[int], tuple], count: int, threads: int) -> list[tuple]:
    if threads <= 1:
        return [worker(s) for s in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # serial runs skip this import

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))


def _restreamer_per_thread(seed: int, purpose: str) -> Callable[..., np.random.Generator]:
    """``rng.restreamer(seed, purpose)`` for a loop that may run on worker
    threads: each thread re-addresses its own generator."""
    local = threading.local()

    def at(*indices: int) -> np.random.Generator:
        own = getattr(local, "at", None)
        if own is None:
            own = local.at = restreamer(seed, purpose)
        return own(*indices)

    return at


def _studentize(model: Model, base: np.ndarray, ddof: int) -> tuple[np.ndarray, ...]:
    """Transform a cell's base variates (one replicate per row) and
    Studentize them: the data, the standard deviations (divisor n - ddof;
    1.0 where the variance vanishes), the mask of nonzero variances, and
    the Studentized means sqrt(n) (mean - mu) / std."""
    data = model.transform(base)
    means = data.mean(axis=1)
    variances = data.var(axis=1, ddof=ddof)
    valid = variances > 0.0
    stds = np.sqrt(variances, where=valid, out=np.ones_like(variances))
    return data, stds, valid, (means - model.mean) * math.sqrt(data.shape[1]) / stds


def _score(hits: np.ndarray, valid: np.ndarray) -> tuple[int, int, int]:
    """One statistic's ``(hits, valid, degenerate)`` counts over a cell's
    inner replicates; a hit counts only where the replicate is valid."""
    n_valid = int(np.count_nonzero(valid))
    return int(np.count_nonzero(hits & valid)), n_valid, valid.size - n_valid


def _tabulate(kind: str, resolved: dict, model: Model, statistics: Sequence[str],
              cell: Callable[[int], tuple], threads: int) -> CoverageReport:
    """Run ``cell`` on every outer cell and band-score each statistic.

    ``cell(s)`` returns one ``(hits, valid, degenerate)`` triple per
    statistic.  An outer cell scores for a statistic when its inner
    frequency hits/valid lies within ``tolerance_band`` of ``nominal``; the
    reported frequency is the share of scoring outer cells, and the
    degenerate counts are summed.
    """
    S, nominal, band = resolved["outer_reps"], resolved["nominal"], resolved["tolerance_band"]
    rows = _run_outer_cells(cell, S, threads)
    cells = tuple(
        CellResult(
            model.name, resolved["n"], statistic,
            sum(valid > 0 and abs(hits / valid - nominal) <= band
                for hits, valid, _ in column) / S,
            sum(degenerate for _, _, degenerate in column),
        )
        for statistic, column in zip(statistics, zip(*rows))
    )
    return CoverageReport(kind, resolved["seed"], resolved, cells)


# ---------------------------------------------------------------------------
# Conditional-on-weights design
# ---------------------------------------------------------------------------

def run_table1(cfg: SimConfig, threads: int = 1) -> CoverageReport:
    """Score the absolute-weight pivot conditionally on the weights.

    Outer loop: one stream per cell, which draws the data of every inner
    replicate, then one multinomial weight realization (degenerate
    realizations redrawn within the budget of
    :func:`~pivotboot.weights.nondegenerate`, and added to the pivot's
    degenerate count).  Inner loop: the same data feed both the conditional
    pivot and the Studentized mean.  A cell scores for a statistic when its
    inner frequency of staying below the threshold is within
    ``tolerance_band`` of ``nominal``.
    """
    resolved = cfg.resolved(TABLE1_THRESHOLD, TABLE1_NOMINAL)
    model = resolve_model(resolved["model"])
    n, m, T = resolved["n"], resolved["m"], resolved["inner_reps"]
    threshold, seed = resolved["threshold"], resolved["seed"]

    def cell(s: int) -> tuple[tuple[int, int, int], ...]:
        rng = substream(seed, "table1.cell", s)
        base = model.draw_base(rng, T * n).reshape(T, n)

        def draw_weights() -> tuple[np.ndarray, float]:
            centered = draw_multinomial_batch(n, m, 1, rng)[0] / m - 1.0 / n
            return centered, float(centered @ centered)

        centered, redraws = nondegenerate(draw_weights)
        data, stds, valid, pivot_t = _studentize(model, base, resolved["studentize_ddof"])
        weight_norm = math.sqrt(float(centered @ centered))
        pivot_g = ((data - model.mean) @ np.abs(centered)) / (stds * weight_norm)
        hits_g, valid_g, degenerate_g = _score(pivot_g <= threshold, valid)
        return (hits_g, valid_g, degenerate_g + redraws), _score(pivot_t <= threshold, valid)

    return _tabulate("table1", resolved, model, ("emp_G_star", "emp_T"), cell, threads)


# ---------------------------------------------------------------------------
# Joint design with replicate cutoffs
# ---------------------------------------------------------------------------

def run_table2(cfg: SimConfig, threads: int = 1) -> CoverageReport:
    """Score three one-sided methods under jointly drawn data and weights.

    Every inner replicate draws data, one weight vector for the
    absolute-weight pivot, and B further weight vectors for the replicate
    pivots; the replicate criterion compares the Studentized mean against
    the maximum of the B replicate pivots.  Each outer cell's stream draws
    the data of all its inner replicates, then all their weight rows.
    """
    resolved = cfg.resolved(TABLE2_THRESHOLD, TABLE2_NOMINAL)
    model = resolve_model(resolved["model"])
    n, m, B, T = resolved["n"], resolved["m"], resolved["B"], resolved["inner_reps"]
    threshold, seed = resolved["threshold"], resolved["seed"]

    def cell(s: int) -> tuple[tuple[int, int, int], ...]:
        rng = substream(seed, "table2.cell", s)
        base = model.draw_base(rng, T * n).reshape(T, n)
        centered = draw_resample_counts(n, m, T * (B + 1), rng).reshape(T, B + 1, n)
        centered /= m  # in place: the counts are this cell's largest array
        centered -= 1.0 / n
        data, stds, data_ok, pivot_t = _studentize(model, base, resolved["studentize_ddof"])

        norm_sq = np.einsum("tbi,tbi->tb", centered, centered)
        norms = np.sqrt(norm_sq, where=norm_sq > 0.0, out=np.ones_like(norm_sq))
        pivot_g = (
            np.einsum("ti,ti->t", np.abs(centered[:, 0, :]), data - model.mean)
            / (stds * norms[:, 0])
        )
        replicate_pivots = (
            np.einsum("tbi,ti->tb", centered[:, 1:, :], data)
            / (stds[:, None] * norms[:, 1:])
        )
        return (
            _score(pivot_g <= threshold, data_ok & (norm_sq[:, 0] > 0.0)),
            _score(pivot_t <= threshold, data_ok),
            _score(pivot_t <= replicate_pivots.max(axis=1),
                   data_ok & np.all(norm_sq[:, 1:] > 0.0, axis=1)),
        )

    return _tabulate("table2", resolved, model, ("emp_G_star", "emp_T", "emp_boot"), cell,
                     threads)


# ---------------------------------------------------------------------------
# Generic interval-coverage and pivot-law harnesses
# ---------------------------------------------------------------------------

def _draw_replicate(
    model: Model, n: int, m: int, rng: np.random.Generator
) -> tuple[Sample, WeightVector, CenteredWeights]:
    """A joint replicate: the sample, then one multinomial weight row, both
    drawn from the replicate's own stream ``rng`` in that order."""
    sample = sample_model(model, n, rng)
    counts = draw_multinomial_batch(n, m, 1, rng)[0]
    w = WeightVector(counts=counts, m=float(m), scheme=WeightScheme.MULTINOMIAL)
    return sample, w, center(w, n)


def _tally(model: Model, n: int, statistic: str, outcomes: Sequence[bool | None]) -> CellResult:
    """Score per-replicate outcomes (True hit, False miss, None degenerate):
    the hit frequency among the nondegenerate replicates, 0.0 if none."""
    degenerate = sum(1 for o in outcomes if o is None)
    valid = len(outcomes) - degenerate
    hits = sum(1 for o in outcomes if o)
    return CellResult(model.name, n, statistic, hits / valid if valid else 0.0, degenerate)


def run_coverage(
    interval_recipe: str,
    model: str | Model,
    n: int,
    m: int,
    alpha: float,
    reps: int,
    seed: int,
    x: float | None = None,
    threads: int = 1,
) -> CoverageReport:
    """Empirical coverage of one interval recipe over joint replicates.

    The covered target is the model mean (population/superpop recipes), the
    replicate's own sample mean (sample/finitepop recipes, where the sample
    plays the finite population), the replicate ECDF at ``x`` (ecdf), or the
    model CDF at ``x`` (cdf).  Degenerate replicates are counted and
    excluded from the denominator.
    """
    if interval_recipe not in RECIPES:
        raise ValueError(f"unknown recipe {interval_recipe!r}; choose from {RECIPES}")
    if interval_recipe in ("ecdf", "cdf") and x is None:
        raise ValueError(f"recipe {interval_recipe!r} needs an evaluation point x")
    model = resolve_model(model)
    stream = _restreamer_per_thread(seed, f"coverage.{interval_recipe}")

    def replicate(r: int) -> bool | None:
        sample, w, cw = _draw_replicate(model, n, m, stream(r))
        try:
            if interval_recipe == "population":
                interval, target = ci_population_mean(sample, cw, alpha), model.mean
            elif interval_recipe == "sample":
                interval, target = ci_sample_mean(sample, w, cw, alpha), sample.mean
            elif interval_recipe == "finitepop":
                interval, target = ci_finite_pop_mean(sample, w, cw, alpha), sample.mean
            elif interval_recipe == "superpop":
                interval, target = ci_superpop_mean(sample, w, cw, alpha), model.mean
            elif interval_recipe == "ecdf":
                interval = ci_ecdf(sample, w, cw, x, alpha, IntervalTarget.ECDF_VALUE)
                target = ecdf(sample, x)
            else:
                interval = ci_ecdf(sample, w, cw, x, alpha, IntervalTarget.CDF_VALUE)
                target = model.cdf(x)
        except PivotbootError:
            return None
        return target in interval

    outcomes = _run_outer_cells(replicate, reps, threads)
    config = {
        "recipe": interval_recipe, "model": model.name, "n": n, "m": m,
        "alpha": alpha, "reps": reps, "seed": seed,
    }
    if x is not None:
        config["x"] = x
    cells = (_tally(model, n, interval_recipe, outcomes),)
    return CoverageReport("coverage", seed, config, cells)


def _evaluate_pivot(
    kind: PivotKind,
    sample: Sample,
    w: WeightVector,
    cw: CenteredWeights,
    mu: float,
    x: float | None,
    f_true: float | None,
) -> float:
    if kind is PivotKind.STUDENT_T:
        return student_t(sample, mu)
    if kind is PivotKind.T_STAR:
        return t_star(sample, cw)
    if kind is PivotKind.G_STAR:
        return g_star(sample, cw, mu)
    if kind in (PivotKind.T_DOUBLE_STAR, PivotKind.T_TILDE):
        return starred_variant(kind, sample, w, cw)
    if kind in (PivotKind.G_DOUBLE_STAR, PivotKind.G_TILDE):
        return starred_variant(kind, sample, w, cw, mu=mu)
    if kind in (PivotKind.ALPHA1_HAT, PivotKind.ALPHA1_HAT_HAT):
        return empirical_pivot(kind, sample, w, cw, x)
    return empirical_pivot(kind, sample, w, cw, x, f_true=f_true)


def pivot_clt_frequencies(
    kinds: Sequence[PivotKind],
    model: str | Model,
    n: int,
    m: int,
    threshold: float,
    reps: int,
    seed: int,
    x: float | None = None,
    threads: int = 1,
) -> CoverageReport:
    """Empirical frequency of each pivot staying below ``threshold`` under
    joint replication; the distribution-function kinds are evaluated at
    ``x`` with the model CDF as the true value."""
    model = resolve_model(model)
    kinds = list(kinds)
    if x is None and any(k in EMPIRICAL_KINDS for k in kinds):
        raise ValueError("an evaluation point x is required for distribution pivots")
    f_true = model.cdf(x) if x is not None else None
    stream = _restreamer_per_thread(seed, "pivot_clt")

    def replicate(r: int) -> tuple[bool | None, ...]:
        sample, w, cw = _draw_replicate(model, n, m, stream(r))
        out = []
        for kind in kinds:
            try:
                out.append(_evaluate_pivot(kind, sample, w, cw, model.mean, x, f_true) <= threshold)
            except PivotbootError:
                out.append(None)
        return tuple(out)

    rows = _run_outer_cells(replicate, reps, threads)
    cells = tuple(
        _tally(model, n, kind.value, [row[j] for row in rows]) for j, kind in enumerate(kinds)
    )
    config = {
        "model": model.name, "n": n, "m": m, "threshold": threshold,
        "reps": reps, "seed": seed,
    }
    if x is not None:
        config["x"] = x
    return CoverageReport("pivot_clt", seed, config, cells)


def refined_ci_coverage(
    model: str | Model,
    n: int,
    m: int,
    B: int,
    alpha: float,
    reps: int,
    seed: int,
    threads: int = 1,
) -> CoverageReport:
    """Coverage of the replicate-cutoff bound: frequency with which the
    Studentized mean stays below the refined order statistic of B replicate
    pivots."""
    model = resolve_model(model)
    stream = _restreamer_per_thread(seed, "refined_ci")

    def replicate(r: int) -> bool | None:
        rng = stream(r)
        sample = sample_model(model, n, rng)
        try:
            t_value = student_t(sample, model.mean)
            replicates = draw_replicates(sample, B, m, rng)
        except PivotbootError:
            return None
        return refined_contains(t_value, replicates, alpha)

    outcomes = _run_outer_cells(replicate, reps, threads)
    config = {
        "model": model.name, "n": n, "m": m, "B": B,
        "alpha": alpha, "reps": reps, "seed": seed,
    }
    cells = (_tally(model, n, "refined_boot", outcomes),)
    return CoverageReport("refined_ci", seed, config, cells)
