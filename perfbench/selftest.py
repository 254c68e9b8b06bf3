"""Self-test of the benchmark's correctness checks.

Each case feeds a check a right answer, which it must accept, and a
deliberately wrong one, which it must reject.  run.py runs these before
every measurement; to run them alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys

from checks import (
    CheckFailed,
    Z_BAND,
    check_degenerate_share,
    check_exit,
    check_interval,
    check_near_nominal,
    check_paper_value,
    check_unit_frequency,
    expected_interval,
)

_DATA = [9.1, 10.4, 11.7, 8.8, 10.0, 12.3, 9.5, 10.9]
_COUNTS = [2, 0, 1, 1, 3, 0, 1, 0]


def _moved(interval: dict, key: str, rel: float) -> dict:
    wrong = dict(interval)
    wrong[key] = interval[key] * (1.0 + rel)
    return wrong


def _cases():
    """(name, right answer, wrong answer), each a thunk running one check."""
    want = expected_interval("population", _DATA, _COUNTS, 0.1, None)
    yield ("interval endpoint moved by 1e-9 relative",
           lambda: check_interval("ci", dict(want), want),
           lambda: check_interval("ci", _moved(want, "lo", 1e-9), want))
    cdf = expected_interval("cdf", _DATA, _COUNTS, 0.1, 10.0)
    yield ("cdf interval endpoint moved by 1e-9 relative",
           lambda: check_interval("ci", dict(cdf), cdf),
           lambda: check_interval("ci", _moved(cdf, "hi", -1e-9), cdf))

    se = math.sqrt(0.9 * 0.1 / 400)
    yield ("coverage frequency outside its binomial band",
           lambda: check_near_nominal("coverage", 0.9 + (Z_BAND - 0.1) * se, 0.9, 400),
           lambda: check_near_nominal("coverage", 0.9 + (Z_BAND + 0.1) * se, 0.9, 400))
    published, outer = 0.552, 40
    var = published * (1.0 - published)
    bound = Z_BAND * math.sqrt(var * (1.0 / outer + 1.0 / 500))
    yield ("table frequency outside its bound around the published value",
           lambda: check_paper_value("table", published - 0.99 * bound, published, outer),
           lambda: check_paper_value("table", 0.0, published, outer))
    yield ("frequency outside [0, 1]",
           lambda: check_unit_frequency("freq", 1.0),
           lambda: check_unit_frequency("freq", 1.0 + 1e-12))
    yield ("degenerate share above 1e-3",
           lambda: check_degenerate_share("cell", 4, 4000),
           lambda: check_degenerate_share("cell", 5, 4000))
    yield ("exit 1 where exit 2 is expected",
           lambda: check_exit("ci nan", 2, 2, "pivotboot: error: non-finite data"),
           lambda: check_exit("ci nan", 1, 2, "Traceback (most recent call last):"))


def run() -> list[str]:
    """Problems found; empty when every check behaves."""
    problems = []
    for name, right, wrong in _cases():
        try:
            right()
        except CheckFailed as exc:
            problems.append(f"{name}: right answer rejected ({exc})")
        try:
            wrong()
        except CheckFailed:
            pass
        else:
            problems.append(f"{name}: wrong answer accepted")
    return problems


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(problem)
    print("self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
