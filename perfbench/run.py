"""pivotboot benchmark.

    python3 perfbench/run.py --workload {tables,harnesses,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  One
workload per call, one thread.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured untraced;
with ``--trace 1`` they are the per-layer metrics, from a run of
the same rounds with timers wrapped around the program's functions.  See
README.md next to this file.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child: OpenBLAS would
# otherwise start one thread per core and `@` / einsum would contend for
# the two cores with the measured Python thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import time

import selftest
from checks import require
from common import median, pin_to_one_cpu
from tracer import Tracer

SRC = os.path.abspath("src")
OUT_DIR = ".perfbench_out"
WORKLOADS = ("tables", "harnesses", "cli")
# Set-up is measured this many times, each in a fresh interpreter.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150


def _load(name: str, seed: int):
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    if name == "tables":
        from wl_tables import Tables as cls
    elif name == "harnesses":
        from wl_harnesses import Harnesses as cls
    else:
        from wl_cli import Cli as cls
    return cls(seed, workdir)


def _setup_seconds(args, wl) -> float:
    """Median time of SETUP_SAMPLES fresh interpreters that each run the
    workload's set-up (imports, inputs, warm-up) and exit."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, _, seconds = wl.gauge.time(subprocess.run, argv, check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(seconds)
    return median(samples)


def _rounds(wl, seconds: float, step) -> list[float]:
    """Whole rounds, ``step(r)`` each, until ``seconds`` have passed and at
    least ``wl.min_rounds`` are done; returns each round's time in reference
    seconds (the sum over its timed operations, see common.Gauge)."""
    start = time.perf_counter()
    times: list[float] = []
    while len(times) < wl.min_rounds or time.perf_counter() - start < seconds:
        before = wl.gauge.reference_s
        step(len(times))
        times.append(wl.gauge.reference_s - before)
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _trace(args, wl) -> dict:
    """Per-layer metrics: the rounds run untraced for ``--seconds``, then
    again under the spans of layers.instrument, then the probe."""
    import layers
    from pivotboot import cli

    wl.setup()
    wl.trace_setup()
    untraced = []
    times = _rounds(wl, args.seconds, lambda r: untraced.append(wl.trace_round(r, True)))
    rounds = len(times)
    own = Tracer()
    layers.instrument(own, cli)
    start = wl.gauge.reference_s
    try:
        traced = [wl.trace_round(r, False) for r in range(rounds)]
    finally:
        own.restore()
    traced_s = wl.gauge.reference_s - start
    wl.check(require, traced == untraced,
             "an output differs between the untraced and the traced rounds")
    probed = Tracer()
    layers.instrument(probed, cli)
    try:
        layers.probe(wl, cli, os.path.join(OUT_DIR, f"probe-{os.getpid()}"))
    finally:
        probed.restore()
    metrics = layers.per_layer(own, probed, rounds, wl.redraws / wl.recorded)
    metrics.update(layers.threads2_speedup(wl))
    metrics.update(layers.startup_floors())
    # In reference seconds (see common.Gauge), so host drift between the
    # two passes does not show as overhead.
    metrics["trace.overhead_s"] = ((traced_s - sum(times)) / rounds, "s")
    _write_out(args, {"rounds": rounds, "workload": own.summary(), "probe": probed.summary()})
    return metrics


def _run(args, wl) -> dict:
    if args.trace:
        metrics = _trace(args, wl)
    else:
        setup_s = _setup_seconds(args, wl)
        wl.setup()
        times = _rounds(wl, args.seconds, lambda r: wl.round(r, True))
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
                   "round_s": (median(times), "s")}
    wl.finish()
    result = {
        "correct": wl.error_count == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: _metric(v, u) for name, (v, u) in metrics.items()},
    }
    if not args.trace:
        _write_out(args, {"result": result, "rounds_s": times, "wall_s": wl.gauge.wall_s,
                          "reference_s": wl.gauge.reference_s})
    for message in wl.errors:
        print(f"perfbench: {wl.name}: check failed: {message}", file=sys.stderr)
    if wl.error_count > len(wl.errors):
        print(f"perfbench: {wl.name}: {wl.error_count - len(wl.errors)} more checks failed",
              file=sys.stderr)
    return result


def _write_out(args, extra: dict) -> None:
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json")
    with open(path, "w") as fh:
        json.dump(extra, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the workload's set-up and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pivotboot", "__init__.py")):
        print("perfbench: src/pivotboot not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(OUT_DIR, exist_ok=True)

    if not args.setup_only:
        problems = selftest.run()
        if problems:
            for problem in problems:
                print(f"perfbench: self-test: {problem}", file=sys.stderr)
            return 1

    cpus = pin_to_one_cpu()
    wl = _load(args.workload, args.seed)
    wl.cpus = cpus
    try:
        if args.setup_only:
            wl.setup()
            return 0
        result = _run(args, wl)
    finally:
        wl.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
