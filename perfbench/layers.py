"""The traced mode's spans, probe and per-layer metrics, shared by the
three workloads.

Every traced run installs the same spans (``instrument``), so every
workload reports every per-layer metric.  Counts are the workload's own,
per round, and read 0 for a layer it does not call.  Times per call, per
row or per replicate come from the workload's own rounds where it calls the
layer, and otherwise from the probe: one small call of every layer, traced
apart, so that a time is always measured, never filled in.  The start-up
floors and the ``threads=2`` comparison do not depend on the workload and
are measured in every traced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import time

from pivotboot import intervals, multi_bootstrap, simulation
from pivotboot.estimators import Sample
from pivotboot.jsonio import dumps
from pivotboot.pivots import PivotKind

from checks import require
from common import cpus_allowed, median, round_seed
from tracer import Tracer, per_call_us
from wl_cli import TIMESTAMP
from wl_harnesses import RECIPES

PIVOT_NAMES = ("student_t", "t_star", "g_star", "starred_variant", "empirical_pivot")
INTERVAL_NAMES = ("ci_population_mean", "ci_sample_mean", "ci_finite_pop_mean",
                  "ci_superpop_mean", "ci_ecdf")
REDRAWS = "weights.degenerate_redraws"
# The cell behind threads2_speedup: poisson1/20 of table 2, 8 x 500, the
# first round's seed; this many threads=1 / threads=2 pairs.
SPEEDUP_CELL = dict(model="poisson1", n=20, outer_reps=8, inner_reps=500)
SPEEDUP_PAIRS = 3
# Samples behind each start-up floor.
FLOOR_REPEATS = 3
FLOOR_TIMEOUT_S = 120


def _reps(args) -> int:
    """Inner data replicates of a run_table1 / run_table2 call."""
    return args[0].outer_reps * args[0].inner_reps


def _count_redraws(tracer: Tracer, attr: str):
    def after(result) -> None:
        redraws = getattr(result, attr) if attr else result[1]
        tracer.counters[REDRAWS] = tracer.counters.get(REDRAWS, 0) + redraws

    return after


def instrument(tracer: Tracer, cli) -> None:
    """Spans on every layer, as each calling module sees it: ``simulation``
    (tables and harnesses), ``multi_bootstrap`` and the ``cli`` module's
    own imported names."""
    # rng, model draws (draw_base counts the values), batched multinomial
    # rows (the size argument counts the rows).
    for owner in (simulation, cli):
        tracer.patch(owner, "substream", "rng.substream")
    tracer.patch(simulation.Model, "draw_base", "simulation.model_draw", units=lambda a: a[2])
    for key, model in list(simulation.MODELS.items()):
        transform = tracer.wrap("simulation.model_draw", model.transform)
        tracer.patch_item(simulation.MODELS, key, dataclasses.replace(model, transform=transform))
    tracer.patch(simulation, "draw_multinomial_batch", "weights.multinomial",
                 units=lambda a: a[2])
    for owner in (multi_bootstrap, cli):
        tracer.patch(owner, "draw_multinomial_weights", "weights.multinomial",
                     units=lambda a: 1)
    for owner in (simulation, cli):
        tracer.patch(owner, "WeightVector", "weights.weight_vector")
    for owner in (simulation, multi_bootstrap, cli):
        tracer.patch(owner, "center", "weights.center")
    tracer.patch(Sample, "from_values", "estimators.sample")
    for name in PIVOT_NAMES:
        tracer.patch(simulation, name, "pivots")
    tracer.patch(multi_bootstrap, "t_star", "pivots")
    for owner in (simulation, cli):
        for name in INTERVAL_NAMES:
            tracer.patch(owner, name, "intervals")
    tracer.patch(intervals, "normal_quantile", "gaussian.normal_quantile")
    tracer.patch(simulation, "draw_replicates", "multi_bootstrap.draw_replicates",
                 after=_count_redraws(tracer, "degenerate_redraws"))
    tracer.patch(simulation, "refined_contains", "multi_bootstrap.refined_contains")
    tracer.patch(cli, "y_distribution", "multi_bootstrap.y_distribution")
    # Table kernels and harness loops; units are replicates.
    for owner in (simulation, cli):
        tracer.patch(owner, "run_table1", "simulation.table1_kernel", units=_reps)
        tracer.patch(owner, "run_table2", "simulation.table2_kernel", units=_reps)
    tracer.patch(simulation, "run_coverage", "simulation.coverage", units=lambda a: a[5])
    tracer.patch(simulation, "pivot_clt_frequencies", "simulation.pivot_clt",
                 units=lambda a: a[5])
    tracer.patch(simulation, "refined_ci_coverage", "simulation.refined_ci",
                 units=lambda a: a[5])
    # cli: main(argv) in-process, its JSON output and its weight redraws.
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "dumps", "jsonio.dumps")
    tracer.patch(cli, "_draw_nondegenerate", "cli.draw_weights",
                 after=_count_redraws(tracer, ""))


def probe(wl, cli, workdir: str) -> None:
    """One small call of every layer, through the names ``instrument``
    patches, under the workload's seed; ``wl`` checks the CLI exit codes."""
    seed = wl.seed
    cfg = simulation.SimConfig(model="poisson1", n=20, outer_reps=2, inner_reps=50, seed=seed)
    simulation.run_table1(cfg, threads=1)
    simulation.run_table2(cfg, threads=1)
    for recipe in RECIPES:
        simulation.run_coverage(recipe, "normal01", 50, 50, 0.1, 20, seed,
                                x=0.0 if recipe in ("ecdf", "cdf") else None)
    simulation.pivot_clt_frequencies(list(PivotKind), "normal01", 50, 50, 1.644854, 20, seed,
                                     x=0.0)
    simulation.refined_ci_coverage("normal01", 50, 50, 9, 0.1, 10, seed)
    os.makedirs(workdir, exist_ok=True)
    try:
        data = os.path.join(workdir, "probe.txt")
        with open(data, "w") as fh:
            fh.write("".join(f"{v}\n" for v in (9.5, 10.25, 11.0, 8.75, 10.5, 12.0)))
        pinned = ["--seed", str(seed), "--timestamp", TIMESTAMP]
        commands = (["ci", data, "--method", "population"],
                    ["ydist", "--B", "9", "--alpha", "0.1"], ["weights", "--n", "10", "--m", "10"])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + pinned)
            wl.check(require, code == 0, f"probe: pivotboot {argv[0]} exited {code}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_layer(own: Tracer, probed: Tracer, rounds: int, redraws: float) -> dict:
    """The per-layer metrics.  ``own`` traced the workload's ``rounds``,
    ``probed`` the probe; ``redraws`` are weight redraws per round that the
    workload counted from its outputs."""

    def pick(name: str):
        """The span's stats and its tracer: the workload's where it calls
        the layer, else the probe's."""
        stats = own.stats[name]
        return (stats, own) if stats.calls else (probed.stats[name], probed)

    def per_round(name: str, field: str = "calls") -> float:
        return getattr(own.stats[name], field) / rounds

    def per_unit_us(name: str, field: str = "total_s") -> float:
        stats, _ = pick(name)
        return 1e6 * getattr(stats, field) / stats.units

    sub, sub_source = pick("rng.substream")
    centre, centre_source = pick("weights.center")
    vector = centre_source.stats["weights.weight_vector"]
    return {
        "rng.substream_calls": (per_round("rng.substream"), "count"),
        "rng.substream_us": (per_call_us(sub), "us/call"),
        "rng.substream_share": (sub.total_s / sub_source.root_s, "ratio"),
        "simulation.model_draw_us_per_value": (per_unit_us("simulation.model_draw"), "us"),
        "simulation.table1_kernel_self_us_per_rep": (
            per_unit_us("simulation.table1_kernel", "self_s"), "us"),
        "simulation.table2_kernel_self_us_per_rep": (
            per_unit_us("simulation.table2_kernel", "self_s"), "us"),
        "weights.multinomial_calls": (per_round("weights.multinomial"), "count"),
        "weights.multinomial_rows": (per_round("weights.multinomial", "units"), "count"),
        "weights.multinomial_us_per_row": (per_unit_us("weights.multinomial"), "us"),
        "weights.weight_vector_us": (1e6 * (vector.total_s + centre.total_s) / centre.calls,
                                     "us/call"),
        "weights.degenerate_redraws": (redraws + own.counters.get(REDRAWS, 0) / rounds,
                                       "count"),
        "estimators.sample_us": (per_call_us(pick("estimators.sample")[0]), "us/call"),
        "pivots.calls": (per_round("pivots"), "count"),
        "pivots.us_per_call": (per_call_us(pick("pivots")[0]), "us"),
        "intervals.calls": (per_round("intervals"), "count"),
        "intervals.us_per_call": (per_call_us(pick("intervals")[0]), "us"),
        "gaussian.normal_quantile_calls": (per_round("gaussian.normal_quantile"), "count"),
        "multi_bootstrap.draw_replicates_us": (
            per_call_us(pick("multi_bootstrap.draw_replicates")[0]), "us/call"),
        "multi_bootstrap.refined_contains_us": (
            per_call_us(pick("multi_bootstrap.refined_contains")[0]), "us/call"),
        "multi_bootstrap.y_distribution_ms": (
            per_call_us(pick("multi_bootstrap.y_distribution")[0]) / 1e3, "ms"),
        "simulation.coverage_self_us_per_rep": (per_unit_us("simulation.coverage", "self_s"),
                                                "us"),
        "simulation.pivot_clt_self_us_per_rep": (per_unit_us("simulation.pivot_clt", "self_s"),
                                                 "us"),
        "simulation.refined_ci_self_us_per_rep": (
            per_unit_us("simulation.refined_ci", "self_s"), "us"),
        "cli.main_ms": (per_call_us(pick("cli.main")[0]) / 1e3, "ms"),
        "jsonio.dumps_us": (per_call_us(pick("jsonio.dumps")[0]), "us/report"),
    }


def threads2_speedup(wl) -> dict:
    """Wall time of the speed-up cell at threads=1 over threads=2,
    untraced, on all the CPUs allowed; the two reports must be
    byte-identical."""
    cfg = simulation.SimConfig(seed=round_seed(wl.seed, 0), **SPEEDUP_CELL)
    times = {1: [], 2: []}
    reports = {}
    with cpus_allowed(wl.cpus):
        for _ in range(SPEEDUP_PAIRS):
            for threads in (1, 2):
                start = time.perf_counter()
                report = simulation.run_table2(cfg, threads=threads)
                times[threads].append(time.perf_counter() - start)
                reports[threads] = dumps(report.to_dict())
    wl.check(require, reports[1] == reports[2],
             "table2 poisson1/20: --threads 2 report differs from --threads 1")
    return {"simulation.threads2_speedup": (median(times[1]) / median(times[2]), "ratio")}


def startup_floors() -> dict:
    """Start-up floors, each the median of fresh interpreters: the bare
    interpreter (wall time), and imports timed inside the child."""
    def timed_import(prelude: str, module: str) -> float:
        code = (f"{prelude}import time; t = time.perf_counter(); import {module}; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(FLOOR_REPEATS):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True, timeout=FLOOR_TIMEOUT_S).stdout
            samples.append(float(out))
        return 1e3 * median(samples)

    bare = []
    for _ in range(FLOOR_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=FLOOR_TIMEOUT_S)
        bare.append(time.perf_counter() - start)
    return {
        "cli.interpreter_ms": (1e3 * median(bare), "ms"),
        "cli.import_numpy_ms": (timed_import("", "numpy"), "ms"),
        "cli.import_scipy_ms": (timed_import("import numpy; ", "scipy.integrate"), "ms"),
        "cli.import_ms": (timed_import("", "pivotboot.cli"), "ms"),
    }
