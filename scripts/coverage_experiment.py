#!/usr/bin/env python3
"""Empirical coverage of one interval recipe under a chosen data law.

Examples:
    python scripts/coverage_experiment.py --recipe population --model normal01 \
        --n 200 --m 200 --alpha 0.1 --reps 10000 --seed 1
    python scripts/coverage_experiment.py --recipe cdf --model exponential1 \
        --n 200 --m 200 --alpha 0.1 --reps 10000 --x 0.6931471805599453 --seed 1
"""

import argparse
import sys

from pivotboot import RECIPES
from pivotboot.jsonio import dumps
from pivotboot.simulation import run_coverage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--recipe", required=True, choices=RECIPES)
    parser.add_argument("--model", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--reps", type=int, default=10_000)
    parser.add_argument("--x", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    report = run_coverage(
        args.recipe, args.model, args.n, args.m if args.m is not None else args.n,
        args.alpha, args.reps, args.seed, x=args.x,
    )
    print(dumps(report.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
