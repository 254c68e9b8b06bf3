"""Correctness checks shared by the workloads and by selftest.py.

Every check compares an output of the program with a computation made here,
apart from the program, or with a property the method must have.  A check
that does not hold raises CheckFailed; the workloads collect the messages
and report ``"correct": false``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Relative tolerance for interval endpoints recomputed from the formulas.
ENDPOINT_RTOL = 1e-12
# Width of every binomial acceptance band, in standard errors.
Z_BAND = 6.0
# Outer count behind each published table value.
PAPER_OUTER = 500

# Published frequencies: (emp_G_star, emp_T) for the conditional table and
# (emp_G_star, emp_T, emp_boot) for the joint table.
PAPER_TABLE1 = {
    ("poisson1", 20): (0.552, 0.322),
    ("poisson1", 30): (0.554, 0.376),
    ("poisson1", 40): (0.560, 0.364),
    ("lognormal01", 20): (0.142, 0.000),
    ("lognormal01", 30): (0.168, 0.000),
    ("lognormal01", 40): (0.196, 0.000),
    ("exponential1", 20): (0.308, 0.016),
    ("exponential1", 30): (0.338, 0.020),
    ("exponential1", 50): (0.470, 0.094),
}
PAPER_TABLE2 = {
    ("poisson1", 20): (0.48, 0.302, 0.248),
    ("poisson1", 30): (0.494, 0.300, 0.33),
    ("poisson1", 40): (0.496, 0.350, 0.316),
    ("lognormal01", 20): (0.028, 0.000, 0.000),
    ("lognormal01", 30): (0.048, 0.000, 0.004),
    ("lognormal01", 40): (0.058, 0.000, 0.002),
    ("exponential1", 20): (0.280, 0.026, 0.058),
    ("exponential1", 30): (0.276, 0.026, 0.084),
    ("exponential1", 40): (0.332, 0.048, 0.108),
}
TABLE1_STATS = ("emp_G_star", "emp_T")
TABLE2_STATS = ("emp_G_star", "emp_T", "emp_boot")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_unit_frequency(what: str, freq: float) -> None:
    require(math.isfinite(freq) and 0.0 <= freq <= 1.0,
            f"{what}: frequency {freq!r} not in [0, 1]")


def check_near_nominal(what: str, freq: float, nominal: float, valid: int) -> None:
    """``freq`` over ``valid`` replicates lies within Z_BAND binomial
    standard errors of ``nominal``."""
    check_unit_frequency(what, freq)
    require(valid > 0, f"{what}: no valid replicates")
    se = math.sqrt(nominal * (1.0 - nominal) / valid)
    require(
        abs(freq - nominal) <= Z_BAND * se,
        f"{what}: frequency {freq:.4f} is {abs(freq - nominal) / se:.1f} SE from {nominal}",
    )


def check_paper_value(what: str, freq: float, published: float, outer: int) -> None:
    """A table frequency over ``outer`` outer cells agrees with the published
    value, itself a frequency over PAPER_OUTER outer cells, within Z_BAND
    standard errors of the difference of the two binomial estimates.  The
    variance uses the larger of the two estimates' p(1-p), floored at
    1/PAPER_OUTER so that a published 0.000 still admits rare hits."""
    check_unit_frequency(what, freq)
    var = max(published * (1.0 - published), freq * (1.0 - freq), 1.0 / PAPER_OUTER)
    bound = Z_BAND * math.sqrt(var * (1.0 / outer + 1.0 / PAPER_OUTER))
    require(
        abs(freq - published) <= bound,
        f"{what}: {freq:.3f} over {outer} outer cells vs published {published:.3f} "
        f"(bound {bound:.3f})",
    )


def check_degenerate_share(what: str, degenerate: int, draws: int) -> None:
    require(0 <= degenerate <= 1e-3 * draws,
            f"{what}: {degenerate} degenerate of {draws} draws exceeds 1e-3")


def check_exit(what: str, code: int, expected: int, stderr: str) -> None:
    require(code == expected, f"{what}: exit {code}, expected {expected}")
    if expected != 0:
        require("Traceback" not in stderr, f"{what}: traceback on stderr")


def check_close(what: str, got: float, want: float, scale: float) -> None:
    """``got`` equals ``want`` to ENDPOINT_RTOL relative to
    max(|want|, scale)."""
    tol = ENDPOINT_RTOL * max(abs(want), abs(scale))
    require(abs(got - want) <= tol, f"{what}: {got!r} != {want!r} (tolerance {tol:.3g})")


# ---------------------------------------------------------------------------
# Interval formulas, evaluated here from the definitions in the top-level
# README (c_i = w_i/m - 1/n, V^2 = sum c_i^2, S_n with divisor n, S* with
# divisor m) and the inversions listed in the intervals module docstring.
# ---------------------------------------------------------------------------

_TARGETS = {
    "population": "population_mean",
    "sample": "sample_mean",
    "finitepop": "finite_pop_mean",
    "superpop": "super_pop_mean",
    "ecdf": "ecdf_value",
    "cdf": "cdf_value",
}


def expected_interval(method: str, data, counts, alpha: float, x: float | None) -> dict:
    """The interval the ``ci`` command must print for these inputs."""
    xs = np.asarray(data, dtype=float)
    w = np.asarray(counts, dtype=float)
    n, m = xs.size, w.sum()
    c = w / m - 1.0 / n
    v = math.sqrt(float(np.sum(c * c)))
    sum_abs = float(np.sum(np.abs(c)))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    s_n = math.sqrt(float(np.mean((xs - xs.mean()) ** 2)))
    boot_mean = float(np.sum(w * xs) / m)
    s_star = math.sqrt(float(np.sum(w * (xs - boot_mean) ** 2) / m))
    weighted = float(np.sum(np.abs(c) * xs) / sum_abs)
    clamped = False
    if method == "population":
        centre, half = weighted, z * s_n * v / sum_abs
    elif method == "sample":
        centre, half = boot_mean, z * s_n * v
    elif method == "finitepop":
        centre, half = boot_mean, z * s_star * v
    elif method == "superpop":
        centre, half = weighted, z * s_star * v / sum_abs
    else:
        f_star = float(np.sum(w * (xs <= x)) / m)
        centre = f_star
        half = z * math.sqrt(f_star * (1.0 - f_star)) * v
        if method == "cdf":
            half /= sum_abs
    lo, hi = centre - half, centre + half
    if method in ("ecdf", "cdf"):
        clamped = lo < 0.0 or hi > 1.0
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    return {"lo": lo, "hi": hi, "level": 1.0 - alpha, "target": _TARGETS[method],
            "clamped": clamped}


def check_interval(what: str, got: dict, want: dict) -> None:
    width = want["hi"] - want["lo"]
    check_close(f"{what} lo", got["lo"], want["lo"], width)
    check_close(f"{what} hi", got["hi"], want["hi"], width)
    check_close(f"{what} level", got["level"], want["level"], 0.0)
    require(got["target"] == want["target"], f"{what}: target {got['target']!r}")
    require(got["clamped"] == want["clamped"], f"{what}: clamped {got['clamped']!r}")
