"""Pieces shared by the three workloads."""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import sys
import time

import numpy as np

from checks import CheckFailed

# At most this many check messages are kept; the rest are only counted.
_MAX_MESSAGES = 20

# Median duration of _calibrate() between the workloads' operations on the
# machine the bounds were set on (2 vCPUs, Python 3.11, numpy 2.4); see Gauge.
REFERENCE_S = 0.011
_CAL_MATRIX = np.arange(2500, dtype=float).reshape(50, 50) / 2500.0


def _calibrate() -> float:
    """Wall time of a fixed mix of interpreted Python and small numpy calls,
    the two kinds of work the program's hot paths do."""
    start = time.perf_counter()
    acc = 0
    for i in range(70_000):
        acc += i * i
    counts: dict[int, int] = {}
    for i in range(25_000):
        counts[i & 255] = counts.get(i & 255, 0) + 1
    for i in range(480):
        np.sqrt(_CAL_MATRIX[i % 50]).sum() + _CAL_MATRIX.mean(axis=1)[0]
    return time.perf_counter() - start


class Gauge:
    """Times operations in reference seconds.

    The host's speed drifts by about 20 % between runs of identical code
    (CPU time moves with wall time, so this is not scheduling), which would
    swamp a 10 % bound.  Each operation is therefore bracketed by the
    calibration loop, and its wall time is scaled by REFERENCE_S over the
    mean of the two calibration times around it.  On the machine the bounds
    were set on, at its typical speed, the scaled time reads as wall time.
    """

    def __init__(self) -> None:
        self._last: float | None = None
        self.wall_s = 0.0
        self.reference_s = 0.0

    def time(self, fn, *args, **kwargs):
        """Run ``fn``; return (result, wall seconds, reference seconds)."""
        before = self._last if self._last is not None else _calibrate()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self._last = _calibrate()
        reference = wall * REFERENCE_S / (0.5 * (before + self._last))
        self.wall_s += wall
        self.reference_s += reference
        return result, wall, reference


def pin_to_one_cpu() -> set[int] | None:
    """Keep this process, and the children it starts, on one CPU, so that
    the calibration loop and the measured work run on the same CPU (the two
    CPUs of a shared host need not run at the same speed).  Returns the CPUs
    allowed before, or None where affinity cannot be set."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    except (AttributeError, OSError):
        return None
    return cpus


@contextlib.contextmanager
def cpus_allowed(cpus: set[int] | None):
    """Run the body on ``cpus`` (all CPUs allowed before pinning)."""
    if cpus is None:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def round_seed(seed: int, r: int) -> int:
    """Seed of round ``r``: a fixed function of the run's seed, so the same
    ``--seed`` gives the same inputs round by round."""
    state = np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0]
    return int(state) >> 1  # the program packs seeds as signed 64-bit


def median(values) -> float:
    return float(statistics.median(values))


class Workload:
    """One benchmark workload.

    ``round(r, record)`` runs round ``r`` and returns its outputs in a form
    that compares with ``==``; with ``record`` set it also keeps the round's
    pooled results.  ``trace_round`` is the round the traced mode runs,
    twice: untraced, then under ``layers.instrument``.
    """

    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.recorded = 0
        self.redraws = 0  # weight redraws counted from outputs (tables)
        self.errors: list[str] = []
        self.error_count = 0
        self.gauge = Gauge()
        self.cpus: set[int] | None = None  # the CPUs allowed before pinning
        self._reported: set[str] = set()

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.error_count += 1
            if len(self.errors) < _MAX_MESSAGES:
                self.errors.append(str(exc))

    def operation_failed(self, what: str, detail: str) -> None:
        """An operation the program could not complete; it counts in
        ``failed``, and its outputs are not checked."""
        self.failed += 1
        if what not in self._reported:  # once per operation, not per round
            self._reported.add(what)
            print(f"perfbench: {self.name}: {what} failed: {detail}", file=sys.stderr)

    # Overridden by the workloads.
    def setup(self) -> None: ...

    def round(self, r: int, record: bool): ...

    def trace_setup(self) -> None:
        """Set-up that only the traced mode needs."""

    def trace_round(self, r: int, record: bool):
        return self.round(r, record)

    def finish(self) -> None:
        """Checks made on results pooled over the recorded rounds."""

    def peak_rss_mb(self) -> float:
        """Largest resident set of the process that ran the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None: ...
