#!/usr/bin/env python3
"""Reproduce one of the two published coverage comparison tables.

--which 1, the conditional-on-weights design: each outer cell fixes one
weight realization and draws fresh data in every inner replicate; scores
the absolute-weight pivot next to the Studentized mean.

--which 2, the joint design: every inner replicate draws data, one weight
vector for the absolute-weight pivot, and B = 9 further weight vectors
whose maximum replicate pivot serves as the bootstrap cutoff; scores the
three methods side by side.

Runs all nine published design points (500 outer x 500 inner each) and
prints, per cell and statistic, the scored band frequency, the published
value (paper_cells.txt), the standard error of their difference and z, the
difference in standard errors.  Both are band shares of outer cells, so the
binomial error applies on each side.  A last line sums z**2 over the cells
where either side is nonzero; cells that read 0 on both sides add 0.
Expect a few seconds per cell on laptop-class hardware.
"""

import argparse
import math
import sys
import time
from pathlib import Path

from pivotboot.jsonio import dumps
from pivotboot.simulation import TABLE1_CELLS, TABLE2_CELLS, SimConfig, run_table1, run_table2

PRETTY = {"poisson1": "Poisson(1)", "lognormal01": "Lognormal(0,1)",
          "exponential1": "Exponential(1)"}
TABLES = {1: (TABLE1_CELLS, run_table1), 2: (TABLE2_CELLS, run_table2)}
# The published values, one share of PAPER_OUTER outer cells each.
PAPER_CELLS = Path(__file__).with_name("paper_cells.txt")
PAPER_OUTER = 500


def paper_cells() -> dict[tuple[int, str, int, str], float]:
    """(table, model, n, statistic) -> published frequency."""
    rows = (line.split() for line in PAPER_CELLS.read_text().splitlines()
            if line.strip() and not line.startswith("#"))
    return {(int(table), model, int(n), statistic): float(value)
            for table, model, n, statistic, value in rows}


def z_score(freq: float, outer: int, paper: float) -> tuple[float, float]:
    """(SE, z) of ``freq``, a share of ``outer`` cells, against ``paper``."""
    se = math.sqrt(freq * (1.0 - freq) / outer + paper * (1.0 - paper) / PAPER_OUTER)
    if freq == paper:
        return se, 0.0
    return se, (freq - paper) / se if se else math.copysign(math.inf, freq - paper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--which", type=int, choices=(1, 2), required=True)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--outer", type=int, default=500)
    parser.add_argument("--inner", type=int, default=500)
    parser.add_argument("--B", type=int, default=9, help="replicate pivots (table 2)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="also write the full reports to this file")
    args = parser.parse_args()

    cells, runner = TABLES[args.which]
    reports = []
    for model, n in cells:
        cfg = SimConfig(model=model, n=n, outer_reps=args.outer,
                        inner_reps=args.inner, B=args.B, seed=args.seed)
        start = time.perf_counter()
        reports.append(runner(cfg))
        elapsed = time.perf_counter() - start
        print(f"# {model}/{n} done in {elapsed:.0f}s", file=sys.stderr)

    paper, zs = paper_cells(), []
    print(f"{'Distribution':<16}{'n':>4}  {'statistic':<10}  {'freq':>6}  {'paper':>6}"
          f"  {'SE':>6}  {'z':>6}")
    for report in reports:
        for cell in report.cells:
            published = paper[(args.which, cell.distribution, cell.n, cell.statistic)]
            se, z = z_score(cell.frequency, args.outer, published)
            if cell.frequency or published:  # a cell at 0 on both sides adds 0
                zs.append(z)
            print(f"{PRETTY[cell.distribution]:<16}{cell.n:>4}  {cell.statistic:<10}"
                  f"  {cell.frequency:>6.3f}  {published:>6.3f}  {se:>6.3f}  {z:>6.2f}")
    print(f"# max |z| {max(map(abs, zs), default=0.0):.2f}, sum z**2 {sum(z * z for z in zs):.1f}"
          f" over {len(zs)} cells where either side is nonzero")

    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(dumps({"seed": args.seed, "reports": [r.to_dict() for r in reports]}) + "\n")
        print(f"# wrote {args.json_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
