"""Workload ``tables``: the nine cells of each published table.

One round runs every TABLE1_CELLS design point through run_table1 and every
TABLE2_CELLS point through run_table2, one thread, with the published inner
count and OUTER outer cells, all under the round's seed.  Each outer cell is
the same work as in the published 500 x 500 run, so per-replicate rates
carry over to it.
"""

from __future__ import annotations

from pivotboot import simulation

from checks import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    TABLE1_STATS,
    TABLE2_STATS,
    check_degenerate_share,
    check_paper_value,
    check_unit_frequency,
    require,
)
from common import Workload, round_seed

OUTER = 8
INNER = 500

# (table, runner, cells, scored statistics, published values)
TABLES = (
    ("table1", "run_table1", simulation.TABLE1_CELLS, TABLE1_STATS, PAPER_TABLE1),
    ("table2", "run_table2", simulation.TABLE2_CELLS, TABLE2_STATS, PAPER_TABLE2),
)


class Tables(Workload):
    name = "tables"
    # Five rounds pool 40 outer cells per design point.  At that count the
    # pooled emp_G_star exceeds emp_T and emp_boot by more than 4 standard
    # errors, so chance alone almost never fails the ordering checks.
    min_rounds = 5

    def setup(self) -> None:
        for _, runner, cells, _, _ in TABLES:
            for model in dict.fromkeys(model for model, _ in cells):
                cfg = simulation.SimConfig(model=model, n=20, outer_reps=1, inner_reps=20,
                                           seed=self.seed)
                getattr(simulation, runner)(cfg, threads=1)
        self.hits = {}
        self.degenerate = {}

    def round(self, r: int, record: bool):
        seed = round_seed(self.seed, r)
        outputs = []
        for table, runner, cells, stats, _ in TABLES:
            for model, n in cells:
                cfg = simulation.SimConfig(model=model, n=n, outer_reps=OUTER,
                                           inner_reps=INNER, seed=seed)
                self.attempted += 1
                try:
                    # Looked up per call, so that a traced patch applies.
                    report, _, _ = self.gauge.time(getattr(simulation, runner), cfg, threads=1)
                except Exception as exc:  # a failed operation, counted
                    self.operation_failed(f"{runner}({model}, n={n})", repr(exc))
                    continue
                outputs.append(report.to_dict())
                freqs = {c.statistic: c for c in report.cells}
                self.check(require, set(freqs) == set(stats),
                           f"{table} {model}/{n}: statistics {sorted(freqs)}")
                for stat in stats:
                    cell = freqs.get(stat)
                    if cell is None:
                        continue
                    self.check(check_unit_frequency, f"{table} {model}/{n} {stat}", cell.frequency)
                    if record:
                        key = (table, model, n, stat)
                        self.hits[key] = self.hits.get(key, 0) + round(cell.frequency * OUTER)
                        self.degenerate[key] = self.degenerate.get(key, 0) + cell.degenerate_count
                if record and table == "table1" and len(freqs) == 2:
                    # emp_G_star counts the weight redraws on top of the
                    # data degeneracies that emp_T counts.
                    self.redraws += (freqs["emp_G_star"].degenerate_count
                                     - freqs["emp_T"].degenerate_count)
        if record:
            self.recorded += 1
        return outputs

    def finish(self) -> None:
        outer = OUTER * self.recorded
        for table, _, cells, stats, published in TABLES:
            pooled = {stat: 0 for stat in stats}
            for model, n in cells:
                for j, stat in enumerate(stats):
                    key = (table, model, n, stat)
                    hits = self.hits.get(key, 0)
                    pooled[stat] += hits
                    what = f"{table} {model}/{n} {stat}"
                    self.check(check_paper_value, what, hits / outer, published[(model, n)][j],
                               outer)
                    self.check(check_degenerate_share, what, self.degenerate.get(key, 0),
                               outer * INNER)
            for other in stats[1:]:
                self.check(require, pooled["emp_G_star"] > pooled[other],
                           f"{table}: pooled emp_G_star {pooled['emp_G_star']} "
                           f"<= {other} {pooled[other]} over {outer} outer cells x 9")
