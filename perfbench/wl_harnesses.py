"""Workload ``harnesses``: the scalar replicate harnesses.

One round runs, one thread, under the round's seed:

* run_coverage for all six interval recipes on normal01, n = m = 200,
  alpha = 0.1, with x = 0 for ecdf and cdf;
* pivot_clt_frequencies over all eleven pivot kinds on normal01, n = m =
  200, threshold 1.644854, x = 0;
* refined_ci_coverage at B = 9, alpha = 0.1 on normal01 n = 100 and on
  lognormal01 n = 50, 200 and 800 (m = n).

Each harness's calls are timed together, as one block per round.

Every replicate runs scalar Python through estimators, weights, pivots,
intervals and multi_bootstrap, and draws its multinomial rows one per call.
"""

from __future__ import annotations

from pivotboot import simulation
from pivotboot.pivots import PivotKind

from checks import check_near_nominal, check_unit_frequency
from common import Workload, round_seed

# Replicates per call.  At these counts a coverage frequency of 1.0 lies
# more than Z_BAND standard errors from nominal, so a check catches it.
COVERAGE_REPS = 400
CLT_REPS = 1000

RECIPES = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")
ALPHA = 0.1
CLT_THRESHOLD = 1.644854
CLT_NOMINAL = 0.95
REFINED_B = 9
REFINED_NOMINAL = 0.9  # (y_quantile(9, 0.1) + 1) / (9 + 1)
# (model, n, replicates); only the normal01 design is checked against nominal.
REFINED_DESIGNS = (("normal01", 100, 400), ("lognormal01", 50, 200), ("lognormal01", 200, 200),
                   ("lognormal01", 800, 200))


class Harnesses(Workload):
    name = "harnesses"
    min_rounds = 3

    def setup(self) -> None:
        for recipe in RECIPES:
            simulation.run_coverage(recipe, "normal01", 20, 20, ALPHA, 5, self.seed, x=0.0)
        simulation.pivot_clt_frequencies(list(PivotKind), "normal01", 20, 20, CLT_THRESHOLD, 5,
                                         self.seed, x=0.0)
        simulation.refined_ci_coverage("lognormal01", 20, 20, REFINED_B, ALPHA, 5, self.seed)

    def _call(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, threads=1, **kwargs)
        except Exception as exc:  # a failed operation, counted
            self.operation_failed(what, repr(exc))
            return None

    def _coverage(self, seed: int) -> list:
        return [self._call(f"run_coverage({recipe})", simulation.run_coverage, recipe,
                           "normal01", 200, 200, ALPHA, COVERAGE_REPS, seed,
                           x=0.0 if recipe in ("ecdf", "cdf") else None)
                for recipe in RECIPES]

    def _pivot_clt(self, seed: int) -> list:
        return [self._call("pivot_clt_frequencies", simulation.pivot_clt_frequencies,
                           list(PivotKind), "normal01", 200, 200, CLT_THRESHOLD, CLT_REPS,
                           seed, x=0.0)]

    def _refined_ci(self, seed: int) -> list:
        return [self._call(f"refined_ci_coverage({model}, n={n})",
                           simulation.refined_ci_coverage,
                           model, n, n, REFINED_B, ALPHA, reps, seed)
                for model, n, reps in REFINED_DESIGNS]

    def round(self, r: int, record: bool):
        seed = round_seed(self.seed, r)
        outputs = []
        blocks = (("coverage", self._coverage), ("pivot_clt", self._pivot_clt),
                  ("refined_ci", self._refined_ci))
        for key, block in blocks:
            reports, _, _ = self.gauge.time(block, seed)
            done = [rep for rep in reports if rep is not None]
            outputs += [rep.to_dict() for rep in done]
            for rep in done:
                self._check_report(key, rep)
        if record:
            self.recorded += 1
        return outputs

    def _check_report(self, key: str, report) -> None:
        for cell in report.cells:
            valid = report.config["reps"] - cell.degenerate_count
            what = f"{key} {cell.distribution}/{cell.n} {cell.statistic}"
            if key == "coverage":
                self.check(check_near_nominal, what, cell.frequency, 1.0 - ALPHA, valid)
            elif key == "pivot_clt":
                self.check(check_near_nominal, what, cell.frequency, CLT_NOMINAL, valid)
            elif cell.distribution == "normal01":
                self.check(check_near_nominal, what, cell.frequency, REFINED_NOMINAL, valid)
            else:
                self.check(check_unit_frequency, what, cell.frequency)
