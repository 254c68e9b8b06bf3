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

Every random draw comes from a seeded substream (:mod:`pivotboot.rng`)
addressed by the seed and the unit of work, so reports are byte-identical for
any worker-thread count and any execution order.  The unit is an outer cell
of a table or a block of the coverage, pivot-law and replicate-cutoff
harnesses, ``BLOCK_ENTRIES // n`` replicates (at least one): stream layout 7,
recorded as ``rng_layout`` in every report; the report's kind names the unit.
A unit draws the base variates of all its replicates in one call, then their
count rows from :mod:`~pivotboot.weights`, one call per kind, as the layout
fixes the calls: a table1 cell its one weight row (a call per redraw), a
table2 cell one row per inner replicate for g* and then B per replicate for
the replicate pivots, and every other unit B rows per replicate-cutoff
replicate, else one.  One set of array kernels scores every unit, to the bit
as the scalar functions of ``pivots`` and ``intervals`` do, ties included
(tested).  Each unit counts, per statistic, its hit, valid and degenerate
replicates; one function band-scores the units (the tables) or pools them
(the harnesses) into the report.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import RECIPES
from .calibration import GENZ_LEVEL_B9, _cutoff_index
from .gaussian import normal_cdf, normal_quantile
from .pivots import EMPIRICAL_KINDS, PivotKind
from .rng import RNG_LAYOUT, check_seed, substream
from .weights import draw_multinomial_batch, draw_multinomial_chunks, nondegenerate

# The harnesses call none of these; they stay bound here only because
# perfbench/layers.instrument patches them by these names in this module
# (tests/test_trace_bindings.py).
from .intervals import (ci_ecdf, ci_finite_pop_mean, ci_population_mean, ci_sample_mean,
                        ci_superpop_mean)
from .multi_bootstrap import draw_replicates, refined_contains
from .pivots import empirical_pivot, g_star, starred_variant, student_t, t_star
from .weights import WeightVector, center

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

# The divisor n - STUDENTIZE_DDOF of the tables' Studentizing variance.
STUDENTIZE_DDOF = 1
# Block k of the coverage, pivot-law and replicate-cutoff harnesses holds
# max(1, BLOCK_ENTRIES // n) replicates and reads the stream (seed, purpose, k).
BLOCK_ENTRIES = 2**14
# Count entries per chunk of the replicate rows of a table2 cell or a
# replicate-cutoff block (2 MB as float64), which one call draws.  A chunk
# holds whole replicates: it bounds memory at any number of them and moves
# no bytes.  At 2**18 every published table2 design (B = 9, n <= 40) and
# every harness block at B <= 16, n <= 2**14 reads and scores its rows in
# one chunk; at 2**13 a block of 2**14 data entries at B = 9 would take
# about 20 chunks at n = 50-800, each paying its own call overhead.
_CHUNK = 2**18

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

# P(K <= k) for K ~ Poisson(1), k = 0, ..., 18, summed term by term in
# float64 (term k = term k-1 / k); k = 18 is the first entry that reaches
# 1.0 (tested).  Read-only; the sampler and the CDF both read it.
_POISSON1_CDF = np.add.accumulate(np.divide.accumulate([math.exp(-1.0), *range(1, 19)]))
_POISSON1_CDF.setflags(write=False)
_POISSON1_BUCKETS = np.searchsorted(_POISSON1_CDF, np.arange(4097) / 4096).astype(float)
_POISSON1_BUCKETS[:-1][_POISSON1_BUCKETS[:-1] != _POISSON1_BUCKETS[1:]] = -1.0
_POISSON1_BUCKETS.setflags(write=False)  # the sampler's bucket index, read-only


def _poisson1_from_uniform(u: np.ndarray) -> np.ndarray:
    """Poisson(1) by inversion: the least k with u <= P(K <= k), exact.  The
    search is monotone in u, so where it returns one k at both edges of u's
    bucket, [j/4096, (j+1)/4096) or u = 1.0 alone, it returns that k inside,
    and the index holds it; it holds -1.0, and u is searched, in the 7
    buckets that hold a CDF entry below 1.0 (tested)."""
    k = _POISSON1_BUCKETS[(u * 4096).astype(np.intp)]
    search = k < 0.0
    k[search] = np.searchsorted(_POISSON1_CDF, u[search])
    return k


def _poisson1_cdf(x: float) -> float:
    """P(K <= x), read from the same table (1.0 from its last entry on)."""
    if x < 0.0:
        return 0.0
    return min(float(_POISSON1_CDF[int(min(x, _POISSON1_CDF.size - 1))]), 1.0)


@dataclass(frozen=True)
class Model:
    """A simulation law with its exact mean, variance, and CDF.

    Sampling is split into a base draw (uniform or standard normal, one
    generator call) and a vectorized transform, so a table cell or a
    harness block draws the base variates of all its replicates in one call
    and transforms them as one array (:func:`_report`).
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


def resolve_model(name: str) -> Model:
    """The model of that name (any case)."""
    found = MODELS.get(name.lower())
    if found is None:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODELS)}")
    return found


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Design of one table cell: law, sizes, repetition counts, cutoffs.

    The table harnesses Studentize with divisor n - 1 (``STUDENTIZE_DDOF``,
    recorded as ``studentize_ddof`` in the config), the convention the
    published comparison tables were computed under, so n must be at least 2.
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

    def __post_init__(self) -> None:
        resolve_model(self.model)
        check_seed(self.seed)
        if self.n < 2 or (self.m is not None and self.m < 1):
            raise ValueError("n must be at least 2 and m positive")
        if self.outer_reps < 1 or self.inner_reps < 1:
            raise ValueError("repetition counts must be positive")
        if not 0.0 < self.tolerance_band < math.inf:
            raise ValueError("tolerance_band must be positive and finite")
        if self.threshold is not None and not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if self.nominal is not None and not 0.0 < self.nominal < 1.0:
            raise ValueError("nominal level must lie in (0, 1)")

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
            "seed": self.seed,
            "studentize_ddof": STUDENTIZE_DDOF,
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


def _score(hits: np.ndarray, valid: np.ndarray) -> tuple[int, int, int]:
    """One statistic's ``(hits, valid, degenerate)`` counts over a unit of
    work's replicates (a table cell's inner replicates, or a harness block's);
    a hit counts only where the replicate is valid."""
    n_valid = int(np.count_nonzero(valid))
    return int(np.count_nonzero(hits & valid)), n_valid, valid.size - n_valid


def _report(purpose: str, config: dict, statistics: Sequence[str], model: Model,
            sizes: Sequence[int], score: Callable[[np.ndarray, np.random.Generator], tuple],
            threads: int, banded: bool = False) -> CoverageReport:
    """Run one unit of work per entry of ``sizes`` (table outer cells or
    harness blocks) on up to ``threads`` threads, at most one per CPU, and
    score each statistic.  Unit k reads ``substream(seed, purpose, k)``:
    first the data of its ``sizes[k]`` replicates in one base draw of
    ``model``, one row of n each, then ``score(data, rng)`` draws their
    weights and returns one :func:`_score` triple per statistic.  Banded
    (the tables), the frequency is the share of units whose hits/valid lies
    within ``tolerance_band`` of ``nominal``; pooled (the harnesses), it is
    hits over valid replicates, 0.0 if none is valid.  Degenerate counts are
    summed.  The report's kind is ``purpose`` up to its first dot; its config
    gains ``rng_layout``.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    seed, n = config["seed"], config["n"]

    def unit(k: int) -> tuple[tuple[int, int, int], ...]:
        rng, size = substream(seed, purpose, k), sizes[k]
        return score(model.transform(model.draw_base(rng, size * n).reshape(size, n)), rng)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1)  # one OS thread per worker, at most one per usable CPU
    if workers == 1:
        rows = [unit(k) for k in range(len(sizes))]
    else:
        from concurrent.futures import ThreadPoolExecutor  # serial runs skip this import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(unit, range(len(sizes))))
    cells = []
    for statistic, column in zip(statistics, zip(*rows)):
        hits, valid, degenerate = map(sum, zip(*column))
        if banded:
            nominal, band = config["nominal"], config["tolerance_band"]
            frequency = sum(v > 0 and abs(h / v - nominal) <= band
                            for h, v, _ in column) / len(sizes)
        else:
            frequency = hits / valid if valid else 0.0
        cells.append(CellResult(config["model"], n, statistic, frequency, degenerate))
    return CoverageReport(purpose.partition(".")[0], seed, {**config, "rng_layout": RNG_LAYOUT},
                          tuple(cells))


# ---------------------------------------------------------------------------
# The tables: conditional-on-weights design and joint design
# ---------------------------------------------------------------------------

def _table_scores(b: _Block, threshold: float) -> tuple[tuple[int, int, int], ...]:
    """The :func:`_score` triples of g* and of the Studentized mean at or
    below ``threshold``, Studentized with the tables' divisor n - 1: the
    kernels' values (divisor n) times sqrt((n - 1)/n)."""
    scale = math.sqrt((b.n - STUDENTIZE_DDOF) / b.n)
    return tuple(_score(values * scale <= threshold, valid) for values, valid in
                 (_PIVOTS[kind](b) for kind in (PivotKind.G_STAR, PivotKind.STUDENT_T)))


def run_table1(cfg: SimConfig, threads: int = 1) -> CoverageReport:
    """Score the absolute-weight pivot conditionally on the weights.

    Outer loop: one stream per cell, which draws the data of every inner
    replicate, then one multinomial count row (a row of equal counts is
    degenerate: it is redrawn within the budget of
    :func:`~pivotboot.weights.nondegenerate` and added to the pivot's
    degenerate count).  Inner loop: the same data feed both the conditional
    pivot and the Studentized mean.  A cell scores for a statistic when its
    inner frequency of staying below the threshold is within
    ``tolerance_band`` of ``nominal``.
    """
    resolved = cfg.resolved(TABLE1_THRESHOLD, TABLE1_NOMINAL)
    model = resolve_model(resolved["model"])
    n, m, T = resolved["n"], resolved["m"], resolved["inner_reps"]
    threshold = resolved["threshold"]

    def score(data: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int], ...]:
        counts, redraws = nondegenerate(lambda: draw_multinomial_batch(n, m, 1, rng))
        b = _Block(model, data, counts, m)  # from the row kept
        (hits_g, valid_g, degenerate_g), scored_t = _table_scores(b, threshold)
        return (hits_g, valid_g, degenerate_g + redraws), scored_t

    return _report("table1.cell", resolved, ("emp_G_star", "emp_T"), model,
                   [T] * resolved["outer_reps"], score, threads, banded=True)


def run_table2(cfg: SimConfig, threads: int = 1) -> CoverageReport:
    """Score three one-sided methods under jointly drawn data and weights.

    Every inner replicate draws data, one weight vector for the
    absolute-weight pivot, and B further weight vectors for the replicate
    pivots; the replicate criterion compares the Studentized mean against
    the maximum of the B replicate pivots (both with divisor n, which
    cancels; a tie is a hit).  Each outer cell's stream draws the data of all
    its inner replicates, then the g* row of each, then the B replicate rows
    of each (:func:`_below_cutoff`).
    """
    if cfg.B < 2:  # table 2 only: table 1 reads no B
        raise ValueError("B must be at least 2")
    resolved = {**cfg.resolved(TABLE2_THRESHOLD, TABLE2_NOMINAL), "B": cfg.B}
    model = resolve_model(resolved["model"])
    n, m, B, T = resolved["n"], resolved["m"], resolved["B"], resolved["inner_reps"]
    threshold = resolved["threshold"]

    def score(data: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int], ...]:
        g = _Block(model, data, draw_multinomial_batch(n, m, T, rng), m)
        scored, moments = _table_scores(g, threshold), (g.mean, g.std)
        del g  # its weight arrays need not outlive its scores
        return (*scored, _below_cutoff(model, data, m, B, B - 1, rng, moments))

    return _report("table2.cell", resolved, ("emp_G_star", "emp_T", "emp_boot"), model,
                   [T] * resolved["outer_reps"], score, threads, banded=True)


# ---------------------------------------------------------------------------
# The block engine
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, in numpy's own order, no BLAS."""
    return np.einsum("...i,...i->...", a, b)


class _Block:
    """A unit of work's replicates as arrays, one data row each, and what the
    kernels share.  Everything reduces over the last axis, so the count rows
    come in the shape that broadcasts against the data: ``(1, n)``, one row
    for all replicates (table1); ``(R, n)``, one per replicate; or
    ``(R, k, n)`` against data ``(R, 1, n)``, k per replicate (table2, the
    replicate cutoff).  Such a block feeds only student_t, g_star and t_star,
    which read only the centred weights, so it centres its counts in place.
    Every expression takes, row by row, the operations of the scalar
    functions in ``estimators``, ``weights``, ``pivots`` and ``intervals``.
    The kernels reduce with numpy's einsum (:func:`_dot`) and ``sum``, whose
    orders the scalar ``weights.dot`` and ``weights.total`` reproduce, so a
    value equals the scalar one to the bit, for rows of up to 8,192 entries:
    past numpy's 8,192-entry buffer a batched einsum row may differ from the
    1-D call on the same row (at 8,193 entries, 9 of 60 random rows did,
    numpy 2.4 on x86-64).  A kernel's valid mask marks the replicates on
    which the scalar call raises no :class:`~pivotboot.errors.PivotbootError`
    (tested).
    The standard deviation has divisor n, as in ``pivots``; the tables take
    their divisor n - 1 as the factor sqrt((n - 1)/n) on a value.  Given as
    ``moments``, the mean and standard deviation are not recomputed.

    A quantity that more than one kernel reads is a cached property, computed
    once per block on first use: ``abs_weights`` (|c|), ``t_sum``, ``g_sum``,
    ``sum_abs``, ``alpha1_sum``, ``alpha2_sum``, ``resampled_mean`` and
    ``resampled_std``."""

    def __init__(self, model: Model, data: np.ndarray, counts: np.ndarray, m: int,
                 x: float | None = None, moments: tuple | None = None) -> None:
        self.model, self.data, self.m, self.x = model, data, m, x
        self.n = data.shape[-1]
        if moments is None:
            mean = data.mean(axis=-1)
            centered = data - mean[..., None]
            moments = mean, np.sqrt(_dot(centered, centered) / self.n)  # divisor n
        self.mean, self.std = moments
        in_place = counts.ndim == 3  # k rows per replicate
        self.counts = None if in_place else counts
        self.weights = np.divide(counts, m, out=counts if in_place else None)
        self.weights -= 1.0 / self.n  # centered
        self.norm = np.sqrt(_dot(self.weights, self.weights))  # 0 where degenerate
        if x is not None:
            self.indicators = (data <= x).astype(float)
            self.ecdf = self.indicators.sum(axis=-1) / self.n
            self.resampled_ecdf = _dot(counts, self.indicators) / m

    @cached_property
    def t_sum(self) -> np.ndarray:  # sum c_i x_i
        return _dot(self.weights, self.data)

    @cached_property
    def abs_weights(self) -> np.ndarray:  # |c|
        return np.abs(self.weights)

    @cached_property
    def sum_abs(self) -> np.ndarray:
        """sum |c|, positive wherever the norm is; 1.0 stands in elsewhere."""
        return np.where(self.norm > 0.0, self.abs_weights.sum(axis=-1), 1.0)

    @cached_property
    def g_sum(self) -> np.ndarray:
        """sum |c_i| (x_i - mu)."""
        return _dot(self.abs_weights, self.data - self.model.mean)

    @cached_property
    def alpha1_sum(self) -> np.ndarray:
        """sum c_i 1(x_i <= x)."""
        return _dot(self.weights, self.indicators)

    @cached_property
    def alpha2_sum(self) -> np.ndarray:
        """sum |c_i| (1(x_i <= x) - F(x)), F the model CDF."""
        return _dot(self.abs_weights, self.indicators - self.model.cdf(self.x))

    @cached_property
    def resampled_mean(self) -> np.ndarray:
        return _dot(self.counts, self.data) / self.m

    @cached_property
    def resampled_std(self) -> np.ndarray:
        """The root of bootstrap_variance, 0 where every resampled value is one."""
        mean = self.resampled_mean
        deviations = self.data - mean[:, None]
        variance = _dot(self.counts, deviations * deviations) / self.m
        # As in bootstrap_variance, only a tiny variance needs the exact test.
        tiny = variance <= 1e-28 * mean * mean
        if tiny.any():
            drawn = self.counts > 0.0
            one_value = (np.where(drawn, self.data, np.inf).min(axis=1)
                         == np.where(drawn, self.data, -np.inf).max(axis=1))
            variance = np.where(tiny & one_value, 0.0, variance)
        return np.sqrt(variance)


def _spread(f: np.ndarray) -> np.ndarray:
    """The distribution scale sqrt(F(1-F))."""
    return np.sqrt(f * (1.0 - f))


# A kernel's result: one value per replicate, and the valid mask.
_Values = tuple[np.ndarray, np.ndarray]


def _ratio(numerator: np.ndarray, scale: np.ndarray, valid: np.ndarray) -> _Values:
    """numerator / scale; 1.0 stands in for the scale of an invalid
    replicate, so nothing divides by zero."""
    return numerator / np.where(valid, scale, 1.0), valid


def _scaled(b: _Block, numerator: np.ndarray, scale: np.ndarray, f_ok: bool = True) -> _Values:
    """numerator / (scale sqrt(V^2)), valid where both factors are positive."""
    return _ratio(numerator, scale * b.norm, (scale > 0.0) & (b.norm > 0.0) & f_ok)


def _tilde(b: _Block, numerator: np.ndarray) -> _Values:
    """numerator / (S* / sqrt(m)), valid where S* is positive."""
    return _ratio(numerator, b.resampled_std / math.sqrt(b.m), b.resampled_std > 0.0)


def _alpha2(b: _Block, f: np.ndarray) -> _Values:
    """An alpha2 pivot at the ECDF value f, centred at the model CDF at x."""
    f_true = b.model.cdf(b.x)
    return _scaled(b, b.alpha2_sum, _spread(f), 0.0 < f_true < 1.0)


# The pivot kernels: each kind's scalar function on a block's replicates.
_PIVOTS: dict[PivotKind, Callable[[_Block], _Values]] = {
    PivotKind.STUDENT_T: lambda b: _ratio(b.mean - b.model.mean, b.std / math.sqrt(b.n),
                                          b.std > 0.0),
    PivotKind.T_STAR: lambda b: _scaled(b, b.t_sum, b.std),
    PivotKind.G_STAR: lambda b: _scaled(b, b.g_sum, b.std),
    PivotKind.T_DOUBLE_STAR: lambda b: _scaled(b, b.t_sum, b.resampled_std),
    PivotKind.G_DOUBLE_STAR: lambda b: _scaled(b, b.g_sum, b.resampled_std),
    PivotKind.T_TILDE: lambda b: _tilde(b, b.t_sum),
    PivotKind.G_TILDE: lambda b: _tilde(b, b.g_sum),
    PivotKind.ALPHA1_HAT: lambda b: _scaled(b, b.alpha1_sum, _spread(b.ecdf)),
    PivotKind.ALPHA1_HAT_HAT: lambda b: _scaled(b, b.alpha1_sum, _spread(b.resampled_ecdf)),
    PivotKind.ALPHA2_HAT: lambda b: _alpha2(b, b.ecdf),
    PivotKind.ALPHA2_HAT_HAT: lambda b: _alpha2(b, b.resampled_ecdf),
}


def _below_cutoff(model: Model, data: np.ndarray, m: int, B: int, index: int,
                  rng: np.random.Generator, moments: tuple | None = None) -> tuple[int, int, int]:
    """The :func:`_score` triple of the replicates (rows of ``data``) whose
    Studentized mean is at most the order statistic ``index`` (from 0; B - 1
    is the maximum) of their t* on B count rows each, valid where all those
    t* are defined.  One call draws the rows in replicate order, read in
    chunks of whole replicates within ``_CHUNK`` entries, which move no bytes.
    ``moments``, the rows' mean and standard deviation from a table2 cell's
    g* block, spare the chunks their own: same reductions, same bits (tested)."""
    n = data.shape[1]
    chunk = max(1, _CHUNK // (B * n))
    rows = draw_multinomial_chunks(n, m, len(data) * B, chunk * B, rng)
    hits, valid = [], []
    for start, counts in zip(range(0, len(data), chunk), rows):
        part = slice(start, start + chunk)
        b = _Block(model, data[part, None], counts.reshape(-1, B, n), m,
                   moments=None if moments is None else tuple(a[part, None] for a in moments))
        t_values, _ = _PIVOTS[PivotKind.STUDENT_T](b)  # defined wherever a t* is
        replicates, ok = _PIVOTS[PivotKind.T_STAR](b)
        hits.append(t_values[:, 0] <= np.partition(replicates, index, axis=1)[:, index])
        valid.append(ok.all(axis=1))
    return _score(np.concatenate(hits), np.concatenate(valid))


def _interval(b: _Block, alpha: float, centre: np.ndarray, scale: np.ndarray,
              divisor: np.ndarray | float = 1.0) -> tuple[np.ndarray, ...]:
    """Lower ends, upper ends and valid mask of the intervals centre +/-
    Phi^-1(1 - alpha/2) scale sqrt(V^2) / divisor.  The clamp of the ECDF
    recipes to [0, 1] is left out: it moves no target in [0, 1] across an end."""
    half = normal_quantile(1.0 - alpha / 2.0) * scale * b.norm / divisor
    return centre - half, centre + half, (scale > 0.0) & (b.norm > 0.0)


def _weighted_mean(b: _Block) -> np.ndarray:
    """weighted_mean_estimator: sum |c_i| x_i / sum |c|."""
    return _dot(b.abs_weights, b.data) / b.sum_abs


# The interval recipes: the kernel that gives a block's intervals as the
# recipe's ci_* function does, and the target.
_RECIPES: dict[str, tuple[Callable, Callable]] = {
    "population": (lambda b, a: _interval(b, a, _weighted_mean(b), b.std, b.sum_abs),
                   lambda b: b.model.mean),
    "sample": (lambda b, a: _interval(b, a, b.resampled_mean, b.std), lambda b: b.mean),
    "finitepop": (lambda b, a: _interval(b, a, b.resampled_mean, b.resampled_std),
                  lambda b: b.mean),
    "superpop": (lambda b, a: _interval(b, a, _weighted_mean(b), b.resampled_std, b.sum_abs),
                 lambda b: b.model.mean),
    "ecdf": (lambda b, a: _interval(b, a, b.resampled_ecdf, _spread(b.resampled_ecdf)),
             lambda b: b.ecdf),
    "cdf": (lambda b, a: _interval(b, a, b.resampled_ecdf, _spread(b.resampled_ecdf), b.sum_abs),
            lambda b: b.model.cdf(b.x)),
}


# ---------------------------------------------------------------------------
# Interval-coverage, pivot-law and replicate-cutoff harnesses
# ---------------------------------------------------------------------------

def _harness(purpose: str, statistics: Sequence[str], model: Model,
             score: Callable[[np.ndarray, np.random.Generator], tuple], threads: int,
             **config) -> CoverageReport:
    """Run ``reps`` replicates in blocks of ``BLOCK_ENTRIES // n``, at least
    one (see :func:`_report`), and pool each statistic.  The report's config
    is ``config`` without the None values.  Bad arguments are rejected before
    any draw: the kernels would score them as degenerate replicates.
    """
    config = {"model": model.name, **{k: v for k, v in config.items() if v is not None}}
    reps, n, m = config["reps"], config["n"], config["m"]
    check_seed(config["seed"])
    if reps < 1:
        raise ValueError("reps must be positive")
    if n < 1 or m < 1 or config.get("B", 2) < 2:
        raise ValueError("n and m must be positive and B at least 2")
    if not 0.0 < config.get("alpha", 0.5) < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not all(math.isfinite(config.get(key, 0.0)) for key in ("x", "threshold")):
        raise ValueError("x and threshold must be finite")
    block = max(1, BLOCK_ENTRIES // n)
    sizes = [min(block, reps - start) for start in range(0, reps, block)]
    return _report(purpose, config, statistics, model, sizes, score, threads)


def run_coverage(interval_recipe: str, model: str, n: int, m: int, alpha: float,
                 reps: int, seed: int, x: float | None = None,
                 threads: int = 1) -> CoverageReport:
    """Empirical coverage of one interval recipe over joint replicates.

    The covered target is the model mean (population/superpop recipes), the
    replicate's own sample mean (sample/finitepop recipes, where the sample
    plays the finite population), the replicate ECDF at ``x`` (ecdf), or the
    model CDF at ``x`` (cdf).  Each replicate draws one count row, after the
    block's data.  Degenerate replicates are counted and excluded from the
    denominator.
    """
    if interval_recipe not in RECIPES:
        raise ValueError(f"unknown recipe {interval_recipe!r}; choose from {RECIPES}")
    if interval_recipe in ("ecdf", "cdf") and x is None:
        raise ValueError(f"recipe {interval_recipe!r} needs an evaluation point x")
    model = resolve_model(model)
    interval, target = _RECIPES[interval_recipe]

    def score(data: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int]]:
        b = _Block(model, data, draw_multinomial_batch(n, m, len(data), rng), m, x)
        lo, hi, valid = interval(b, alpha)
        covered = target(b)
        return (_score((lo <= covered) & (covered <= hi), valid),)

    return _harness(f"coverage.{interval_recipe}", (interval_recipe,), model, score, threads,
                    recipe=interval_recipe, n=n, m=m, alpha=alpha, reps=reps, seed=seed, x=x)


def pivot_clt_frequencies(kinds: Sequence[PivotKind], model: str, n: int, m: int,
                          threshold: float, reps: int, seed: int, x: float | None = None,
                          threads: int = 1) -> CoverageReport:
    """Empirical frequency of each pivot staying below ``threshold`` under
    joint replication (one count row per replicate, after the block's data);
    the distribution-function kinds are evaluated at ``x`` with the model CDF
    as the true value."""
    model = resolve_model(model)
    kinds = list(kinds)
    if x is None and any(k in EMPIRICAL_KINDS for k in kinds):
        raise ValueError("an evaluation point x is required for distribution pivots")

    def score(data: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int], ...]:
        b = _Block(model, data, draw_multinomial_batch(n, m, len(data), rng), m, x)
        return tuple(_score(values <= threshold, valid)
                     for values, valid in (_PIVOTS[kind](b) for kind in kinds))

    return _harness("pivot_clt", [kind.value for kind in kinds], model, score, threads, n=n,
                    m=m, threshold=threshold, reps=reps, seed=seed, x=x)


def refined_ci_coverage(model: str, n: int, m: int, B: int, alpha: float, reps: int,
                        seed: int, threads: int = 1) -> CoverageReport:
    """Coverage of the replicate-cutoff bound: frequency with which the
    Studentized mean stays below the refined order statistic of B replicate
    pivots (:func:`~pivotboot.multi_bootstrap.refined_contains`).

    Each replicate draws B count rows, after the block's data
    (:func:`_below_cutoff`).  A replicate whose data have zero variance or
    one of whose rows is degenerate is counted as degenerate; no row is
    redrawn.
    """
    model = resolve_model(model)

    def score(data: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int]]:
        return (_below_cutoff(model, data, m, B, _cutoff_index(B, alpha), rng),)

    return _harness("refined_ci", ("refined_boot",), model, score, threads, n=n, m=m, B=B,
                    alpha=alpha, reps=reps, seed=seed)
