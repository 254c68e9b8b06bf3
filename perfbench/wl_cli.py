"""Workload ``cli``: ``python -m pivotboot.cli`` in a closed loop.

One client runs the steps below one after another, each in a fresh
interpreter, and waits for each to finish.  No Monte Carlo work of any size
happens here: a call costs interpreter start-up, imports, argument parsing,
file parsing and JSON output.

The two ``ci`` calls on non-finite data must exit 2; today they exit 1 with a
ValueError traceback (see README.md), so they count as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    CheckFailed,
    check_close,
    check_exit,
    check_interval,
    check_unit_frequency,
    expected_interval,
    require,
)
from common import Workload

N_DATA = 40
ALPHA = 0.1
TIMESTAMP = "2026-01-01T00:00:00+00:00"
STEP_TIMEOUT_S = 120

# Fixed inputs that do not depend on --seed: one file with a nan line, one
# whose variance overflows.
NONFINITE_FILES = {
    "nan.txt": "1.5\n2.5\nnan\n3.5\n",
    "huge.txt": "1e308\n-1e308\n1e308\n-1e308\n",
}


@dataclass
class Step:
    name: str
    argv: list
    expect_exit: int
    check: Callable[[str], None] | None


def _report(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


class Cli(Workload):
    name = "cli"
    # The speed of a fresh process scatters by several per cent from one
    # batch to the next, in ways the calibration loop does not follow, so a
    # run times three rounds (45 processes) and reports their median.
    min_rounds = 3

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        data = 10.0 + 2.0 * rng.standard_normal(N_DATA)
        counts = rng.multinomial(N_DATA, np.full(N_DATA, 1.0 / N_DATA))
        while np.all(counts == 1):  # all centred weights zero: no interval
            counts = rng.multinomial(N_DATA, np.full(N_DATA, 1.0 / N_DATA))
        self.data = [float(v) for v in data]
        self.counts = [int(c) for c in counts]
        self.x = float(np.median(data))
        cli_seed = int(rng.integers(0, 2**31))
        self.bound_n = int(rng.integers(20, 2000))
        self.weights_n = int(rng.integers(5, 50))
        self.weights_m = int(rng.integers(5, 100))

        data_path = self._write("data.txt", "".join(f"{v!r}\n" for v in self.data))
        weights_path = self._write("weights.txt", "".join(f"{c}\n" for c in self.counts))
        nonfinite = {name: self._write(name, text) for name, text in NONFINITE_FILES.items()}
        pinned = ["--seed", str(cli_seed), "--timestamp", TIMESTAMP]

        steps = []
        for method in ("population", "sample", "finitepop", "superpop", "ecdf", "cdf"):
            argv = ["ci", data_path, "--method", method, "--alpha", str(ALPHA),
                    "--weights-file", weights_path]
            if method in ("ecdf", "cdf"):
                argv += ["--x", repr(self.x)]
            steps.append(Step(f"ci {method} --weights-file", argv + pinned, 0,
                              self._interval_check(method)))
        self.drawn = Step("ci population (drawn weights)",
                          ["ci", data_path, "--method", "population", "--alpha", str(ALPHA)]
                          + pinned, 0, self._drawn_check)
        steps.append(self.drawn)
        steps.append(Step("ydist", ["ydist", "--B", "9", "--alpha", str(ALPHA)] + pinned, 0,
                          self._ydist_check))
        steps.append(Step("bound", ["bound", "--n", str(self.bound_n), "--m", str(self.bound_n),
                                    "--delta", "0.5", "--eps", "0.5", "--eps1", "0.1",
                                    "--eps2", "0.1", "--ratio", "1"] + pinned, 0,
                          self._bound_check))
        steps.append(Step("bound --kind GStarRate",
                          ["bound", "--kind", "GStarRate", "--n", str(self.bound_n),
                           "--m", str(self.bound_n)] + pinned, 0, self._rate_check))
        steps.append(Step("weights", ["weights", "--n", str(self.weights_n),
                                      "--m", str(self.weights_m)] + pinned, 0,
                          self._weights_check))
        for which in (1, 2):
            steps.append(Step(f"table --which {which}",
                              ["table", "--which", str(which), "--model", "poisson1",
                               "--n", "10", "--outer", "3", "--inner", "20", "--B", "5"]
                              + pinned, 0, self._table_check(which)))
        steps.append(Step("ci nan data", ["ci", nonfinite["nan.txt"], "--method", "population",
                                          "--seed", "1", "--timestamp", TIMESTAMP], 2, None))
        steps.append(Step("ci +-1e308 data", ["ci", nonfinite["huge.txt"], "--method", "sample",
                                              "--seed", "1", "--timestamp", TIMESTAMP], 2, None))
        self.steps = steps

        # Warm-up; its output is the reference for the byte-identity check.
        code, out, err = self._spawn(self.drawn.argv)
        if code != 0:
            raise RuntimeError(f"warm-up call failed with exit {code}: {err}")
        self.reference = out

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    # -- checks -----------------------------------------------------------

    def _interval_check(self, method: str):
        x = self.x if method in ("ecdf", "cdf") else None
        want = expected_interval(method, self.data, self.counts, ALPHA, x)

        def check(stdout: str) -> None:
            check_interval(f"ci {method}", _report(stdout)["interval"], want)

        return check

    def _drawn_check(self, stdout: str) -> None:
        require(stdout == self.reference,
                "ci with drawn weights: output differs from an identical earlier call")
        interval = _report(stdout)["interval"]
        require(interval["lo"] < interval["hi"], f"ci drawn: interval {interval}")
        require(interval["target"] == "population_mean", f"ci drawn: {interval['target']}")

    def _ydist_check(self, stdout: str) -> None:
        report = _report(stdout)
        pmf = report["pmf_quadrature"]
        require(len(pmf) == 10, f"ydist: {len(pmf)} pmf entries")
        for p in pmf:
            require(abs(p - 0.1) <= 1e-9, f"ydist: pmf entry {p!r} is not 1/10")
        require(report["y_quantile"] == 8, f"ydist: y_quantile {report['y_quantile']}")

    def _bound_check(self, stdout: str) -> None:
        report = _report(stdout)
        first, second = report["first_term"], report["second_term"]
        require(all(math.isfinite(v) and v > 0.0 for v in (first, second)),
                f"bound: terms {first!r}, {second!r}")
        require(report["total"] == first + second, "bound: total != first_term + second_term")
        want = (0.5 - (0.1 / 0.5) ** 2 + 0.1) / (0.56 * 1.0)
        check_close("bound delta_n", report["delta_n"], want, 0.0)

    def _rate_check(self, stdout: str) -> None:
        rate = _report(stdout)["rate"]
        require(rate == 1.0 / self.bound_n, f"GStarRate: {rate!r} != 1/{self.bound_n}")

    def _weights_check(self, stdout: str) -> None:
        report = _report(stdout)
        counts = report["counts"]
        require(len(counts) == self.weights_n, f"weights: {len(counts)} counts")
        require(all(isinstance(c, int) and c >= 0 for c in counts), "weights: bad count")
        require(sum(counts) == self.weights_m == report["m"],
                f"weights: counts sum to {sum(counts)}, m = {self.weights_m}")

    def _table_check(self, which: int):
        def check(stdout: str) -> None:
            report = _report(stdout)["report"]
            require(report["kind"] == f"table{which}", f"table: kind {report['kind']}")
            require(len(report["cells"]) == (2 if which == 1 else 3),
                    f"table{which}: {len(report['cells'])} cells")
            for cell in report["cells"]:
                check_unit_frequency(f"table{which} {cell['statistic']}", cell["frequency"])

        return check

    # -- rounds -------------------------------------------------------------

    def _spawn(self, argv: list) -> tuple[int, str, str]:
        command = [sys.executable, "-m", "pivotboot.cli", *argv]
        try:
            proc, _, _ = self.gauge.time(
                subprocess.run, command, stdin=subprocess.DEVNULL, capture_output=True,
                text=True, timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return -1, "", f"timed out after {STEP_TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr

    def _main(self, argv: list) -> int:
        """``main(argv)``; an uncaught exception is what makes the
        interpreter exit 1."""
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the interpreter would print it and exit 1
            traceback.print_exc()
            return 1

    def _in_process(self, argv: list) -> tuple[int, str, str]:
        """``main(argv)`` in this interpreter, import excluded."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, _, _ = self.gauge.time(self._main, argv)
        return code, out.getvalue(), err.getvalue()

    def _run_steps(self, call, record: bool):
        outputs = []
        for step in self.steps:
            self.attempted += 1
            code, out, err = call(step.argv)
            outputs.append((code, out))
            try:
                check_exit(step.name, code, step.expect_exit, err)
            except CheckFailed as exc:
                last = err.strip().splitlines()[-1:] or [""]
                self.operation_failed(step.name, f"{exc} ({last[0]})")
                continue
            if step.check is not None:
                self.check(step.check, out)
        if record:
            self.recorded += 1
        return outputs

    def round(self, r: int, record: bool):
        return self._run_steps(self._spawn, record)

    def trace_round(self, r: int, record: bool):
        return self._run_steps(self._in_process, record)

    def peak_rss_mb(self) -> float:
        """Largest resident set among the CLI processes."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- traced mode ----------------------------------------------------------

    def trace_setup(self) -> None:
        from pivotboot import cli

        self.cli = cli

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
