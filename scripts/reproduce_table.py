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
prints the scored band frequencies.  Expect a few seconds per cell on
laptop-class hardware.
"""

import argparse
import sys
import time

from pivotboot.jsonio import dumps
from pivotboot.simulation import TABLE1_CELLS, TABLE2_CELLS, SimConfig, run_table1, run_table2

PRETTY = {"poisson1": "Poisson(1)", "lognormal01": "Lognormal(0,1)",
          "exponential1": "Exponential(1)"}
TABLES = {1: (TABLE1_CELLS, run_table1), 2: (TABLE2_CELLS, run_table2)}


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

    stats = [cell.statistic for cell in reports[0].cells]
    print(f"{'Distribution':<16}{'n':>4}" + "".join(f"  {s:>10}" for s in stats))
    for report in reports:
        first = report.cells[0]
        freqs = "".join(f"  {cell.frequency:>10.3f}" for cell in report.cells)
        print(f"{PRETTY[first.distribution]:<16}{first.n:>4}{freqs}")

    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(dumps({"seed": args.seed, "reports": [r.to_dict() for r in reports]}) + "\n")
        print(f"# wrote {args.json_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
