"""Command-line frontend.

Subcommands: ``ci`` (interval from a data file), ``table`` (one design
point of a coverage-comparison table), ``ydist`` (replicate-count
distribution and refined cutoff), ``bound`` (error-bound evaluation and
rate functions), ``weights`` (dump one weight draw).

Every report is JSON with an embedded manifest (command, resolved
configuration, seed, version, timestamp).  Reports are a pure function of
the manifest: rerunning with the same seed and configuration reproduces the
bytes exactly, for any ``--threads`` value.  ``--threads`` and the output
mode are execution knobs and deliberately excluded from the manifest;
``--timestamp`` pins the one field that would otherwise change between
reruns.  Every manifest records the seed, but ``ydist``, ``bound`` and
``ci --weights-file`` read no stream, so for them it changes the manifest
alone.

Exit codes: 0 success, also when the reader closes stdout early; 2 usage
or configuration error (non-finite input data or result, or a design too
large for memory); 3 degenerate weights exhausted the redraw budget.

Each subcommand imports only the modules it runs: the library names that
the commands call are bound here to stubs that import their module on first
call, and the parser needs no numpy.  The interval recipes and the weight
value types compute on Python floats, and the weight draws of ``ci`` and
``weights`` read the standard-library copy of their stream (``stream.Stream``),
which hands over to numpy only past m = 8n, n = 2**16 or 2**16 indices.  So
every command but ``table`` runs without numpy below those sizes, only
``table`` loads the simulation module, and only ``bound`` loads ``bounds``.
The value types derive from ``errors.Frozen``, not from dataclasses, so
only ``table``, whose simulation module keeps its dataclasses, imports
``dataclasses``; ``inspect`` loads only with it or with numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import import_module

from . import RECIPES, __version__
from .errors import DegenerateWeightsError, PivotbootError
from .jsonio import dumps


def _lazy(module: str, name: str):
    """``pivotboot.<module>.<name>``, imported on its first call.  The
    commands call these through this module's globals, so patching one here
    redirects them."""
    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = name
    return call


# The CLI draws one row per call, from the standard-library copy of its stream.
substream = _lazy("stream", "Stream")
WeightVector = _lazy("weights", "WeightVector")
center = _lazy("weights", "center")
draw_multinomial_weights = _lazy("weights", "draw_multinomial_weights")
ci_population_mean = _lazy("intervals", "ci_population_mean")
ci_sample_mean = _lazy("intervals", "ci_sample_mean")
ci_finite_pop_mean = _lazy("intervals", "ci_finite_pop_mean")
ci_superpop_mean = _lazy("intervals", "ci_superpop_mean")
ci_ecdf = _lazy("intervals", "ci_ecdf")
y_distribution = _lazy("calibration", "y_distribution")
run_table1 = _lazy("simulation", "run_table1")
run_table2 = _lazy("simulation", "run_table2")

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

SEED_ENV_VAR = "PIVOTBOOT_SEED"


class _CliError(Exception):
    """A usage or configuration error (exit 2)."""


def _resolve_seed(value: int | None) -> int:
    """The master seed: ``--seed``, else ``$PIVOTBOOT_SEED``, else a fresh
    one; streams are keyed by the seed as an int64."""
    source = "--seed"
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            import secrets  # pulls in hashlib and random: only unpinned runs pay

            return secrets.randbits(63)
        source = SEED_ENV_VAR
        try:
            value = int(env)
        except ValueError as exc:
            raise _CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if not -2**63 <= value < 2**63:
        raise _CliError(f"{source} must lie in [-2**63, 2**63), got {value}")
    return value


def _manifest(command: str, config: dict, seed: int, timestamp: str | None) -> dict:
    if timestamp is None:
        import datetime

        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": timestamp,
    }


def _read_numbers(path: str, what: str) -> list[float]:
    """One finite decimal literal per line; '#' comments and blank lines
    ignored; LF and CRLF both accepted."""
    try:
        with open(path, "r", newline="") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {what} file {path!r}: {exc}") from exc
    values: list[float] = []
    for lineno, line in enumerate(raw.replace("\r\n", "\n").split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError as exc:
            raise _CliError(
                f"{what} file {path!r}, line {lineno}: {stripped!r} is not a number"
            ) from exc
        if not math.isfinite(value):
            raise _CliError(f"{what} file {path!r}, line {lineno}: {stripped!r} is not finite")
        values.append(value)
    return values


def _weights_from_file(path: str, n: int) -> WeightVector:
    values = _read_numbers(path, "weights")
    if len(values) != n:
        raise _CliError(f"weights file has {len(values)} entries, data has {n}")
    return WeightVector(values)


def _draw_nondegenerate(n: int, m: int, seed: int) -> tuple[CenteredWeights, int]:
    """The first count row of the ``cli.ci`` stream whose counts are not all
    equal, centered, and the number of rows redrawn before it.  The rows
    load numpy only where the stream hands over to it
    (``weights.draw_multinomial_weights``)."""
    from .weights import nondegenerate

    stream = substream(seed, "cli.ci")
    counts, redraws = nondegenerate(lambda: draw_multinomial_weights(n, m, stream).counts)
    return center(WeightVector(counts)), redraws


def _cmd_ci(args: argparse.Namespace) -> dict:
    data = _read_numbers(args.data, "data")
    if len(data) < 2:
        raise _CliError(f"data file {args.data!r} must contain at least 2 values")
    method = args.method
    pointwise = method in ("ecdf", "cdf")  # the methods evaluated at --x
    if pointwise and args.x is None:
        raise _CliError(f"method {method!r} requires --x")
    if not pointwise and args.x is not None:
        raise _CliError(f"method {method!r} takes no --x")
    if args.x is not None and not math.isfinite(args.x):
        raise _CliError(f"--x must be finite, got {args.x!r}")
    from .estimators import Sample
    from .intervals import IntervalTarget

    sample = Sample.from_values(data)
    n = sample.n
    seed = _resolve_seed(args.seed)

    redraws = 0
    if args.weights_file is not None:
        if args.m is not None:
            raise _CliError("give either --m (draw weights) or --weights-file, not both")
        cw = center(_weights_from_file(args.weights_file, n))
        if cw.sum_squares <= 0.0:
            raise DegenerateWeightsError(
                "supplied weights are degenerate (all centered values zero)")
    else:
        m = args.m if args.m is not None else n
        cw, redraws = _draw_nondegenerate(n, m, seed)

    if pointwise:
        target = IntervalTarget.ECDF_VALUE if method == "ecdf" else IntervalTarget.CDF_VALUE
        interval = ci_ecdf(sample, cw, args.x, args.alpha, target)
    else:  # built per call, so each call reads this module's current names
        recipes = {"population": ci_population_mean, "sample": ci_sample_mean,
                   "finitepop": ci_finite_pop_mean, "superpop": ci_superpop_mean}
        interval = recipes[method](sample, cw, args.alpha)

    config = {
        "data": args.data,
        "method": method,
        "alpha": args.alpha,
        "n": n,
        "weights_file": args.weights_file,
        "m": cw.weights.m,
    }
    if args.x is not None:
        config["x"] = args.x
    if args.weights_file is None:  # drawn weights: the manifest names the stream layout
        from .rng import RNG_LAYOUT

        config["rng_layout"] = RNG_LAYOUT
    return {
        "manifest": _manifest("ci", config, seed, args.timestamp),
        "interval": {
            "lo": interval.lo,
            "hi": interval.hi,
            "level": interval.level,
            "target": interval.target.value,
            "recipe": interval.recipe,
            "clamped": interval.clamped,
        },
        "weight_redraws": redraws,
    }


def _render_table(report_dict: dict) -> str:
    cells = report_dict["cells"]  # one per statistic
    header = ["Distribution", "n"] + [c["statistic"] for c in cells]
    row = [cells[0]["distribution"], repr(cells[0]["n"])] + [repr(c["frequency"]) for c in cells]
    widths = [max(len(h), len(r)) for h, r in zip(header, row)]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip()
                     for line in (header, row))


def _cmd_table(args: argparse.Namespace) -> dict | str:
    from .simulation import SimConfig

    seed = _resolve_seed(args.seed)
    cfg = SimConfig(
        model=args.model,
        n=args.n,
        m=args.m,
        outer_reps=args.outer,
        inner_reps=args.inner,
        threshold=args.threshold,
        nominal=args.nominal,
        tolerance_band=args.band,
        B=args.B,
        seed=seed,
    )
    runner = run_table1 if args.which == 1 else run_table2
    report = runner(cfg, threads=args.threads)
    payload = {
        "manifest": _manifest(f"table{args.which}", dict(report.config), seed, args.timestamp),
        "report": report.to_dict(),
    }
    if args.text:
        return _render_table(payload["report"])
    return payload


def _cmd_ydist(args: argparse.Namespace) -> dict:
    from .calibration import GENZ_LEVEL_B9, orthant_probability_closed_form, y_quantile

    dist = y_distribution(args.B)
    config = {"B": args.B}
    result = {
        "B": args.B,
        "pmf_quadrature": list(dist.pmf),
        "pmf_closed_form": [math.comb(args.B, l) * orthant_probability_closed_form(args.B, l)
                            for l in range(args.B + 1)],
        "cumulative": list(dist.cumulative()),
        "uniform_value": 1.0 / (args.B + 1),
    }
    if args.alpha is not None:
        config["alpha"] = args.alpha
        y = y_quantile(args.B, args.alpha)
        result["y_quantile"] = y
        result["nominal_exact"] = (y + 1) / (args.B + 1)
        if args.B == 9 and y == 8:
            # Genz-algorithm evaluation of the same level, kept for reference.
            result["nominal_genz_reference"] = GENZ_LEVEL_B9
    seed = _resolve_seed(args.seed)
    return {"manifest": _manifest("ydist", config, seed, args.timestamp), **result}


def _cmd_bound(args: argparse.Namespace) -> dict:
    from .bounds import (DEFAULT_UNIVERSAL_CONSTANT, BoundParams, bound_terms, convergence_rate,
                         delta_n)

    seed = _resolve_seed(args.seed)
    given = {"delta": args.delta, "eps": args.eps, "eps1": args.eps1, "eps2": args.eps2,
             "ratio": args.ratio, "p_var_dev": args.p_var_dev, "C": args.C}
    if args.kind is not None:
        kind = _parse_rate_kind(args.kind)
        if args.n is None or args.m is None:
            raise _CliError("rate evaluation requires --n and --m")
        unread = [f"--{k.replace('_', '-')}" for k, v in given.items() if v is not None]
        if unread:
            raise _CliError(f"rate evaluation takes no {', '.join(unread)}")
        config = {"kind": kind.value, "n": args.n, "m": args.m}
        return {
            "manifest": _manifest("bound", config, seed, args.timestamp),
            "rate": convergence_rate(kind, args.n, args.m),
        }
    config = {"n": args.n, "m": args.m, **given,
              "p_var_dev": 0.0 if args.p_var_dev is None else args.p_var_dev,
              "C": DEFAULT_UNIVERSAL_CONSTANT if args.C is None else args.C}
    missing = [k for k, v in config.items() if v is None]  # the last two have defaults
    if missing:
        raise _CliError(f"bound evaluation requires --{', --'.join(missing)}")
    params = BoundParams(
        n=args.n, m=args.m, delta=args.delta, eps=args.eps,
        eps1=args.eps1, eps2=args.eps2,
        third_abs_moment_ratio=args.ratio,
        p_var_dev=config["p_var_dev"], C=config["C"],
    )
    first, second = bound_terms(params)
    return {
        "manifest": _manifest("bound", config, seed, args.timestamp),
        "delta_n": delta_n(params),
        "first_term": first,
        "second_term": second,
        "total": first + second,
    }


def _cmd_weights(args: argparse.Namespace) -> dict:
    from .rng import RNG_LAYOUT

    seed = _resolve_seed(args.seed)
    w = draw_multinomial_weights(args.n, args.m, substream(seed, "cli.weights"))
    config = {"n": args.n, "m": args.m, "rng_layout": RNG_LAYOUT}
    return {
        "manifest": _manifest("weights", config, seed, args.timestamp),
        "counts": [int(c) for c in w.counts],
        "m": int(w.m),
        "scheme": "multinomial",
    }


def _parse_rate_kind(text: str) -> RateKind:
    from .bounds import RateKind

    squashed = text.lower().replace("-", "").replace("_", "")
    squashed = squashed.removesuffix("rate")
    mapping = {k.value.replace("_", "").removesuffix("rate"): k for k in RateKind}
    kind = mapping.get(squashed)
    if kind is None:
        raise ValueError(f"unknown rate kind {text!r}")
    return kind


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotboot",
        description="Weighted-resampling pivots, confidence intervals, and coverage experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or a fresh random seed); "
                       "every manifest records it, but ydist, bound and ci --weights-file "
                       "read no stream")
        p.add_argument("--timestamp", default=None,
                       help="manifest timestamp override, for byte-identical reruns")

    p_ci = sub.add_parser("ci", help="confidence interval from a data file")
    p_ci.add_argument("data", help="text file, one number per line ('#' comments allowed)")
    p_ci.add_argument("--method", choices=RECIPES, required=True)
    p_ci.add_argument("--alpha", type=float, default=0.1)
    p_ci.add_argument("--m", type=int, default=None, help="resample size for a drawn weight vector")
    p_ci.add_argument("--weights-file", default=None, help="read weights instead of drawing them")
    p_ci.add_argument("--x", type=float, default=None,
                      help="evaluation point of the ecdf and cdf methods (the others reject it)")
    add_common(p_ci)
    p_ci.set_defaults(func=_cmd_ci)

    p_table = sub.add_parser("table", help="run one design point of a comparison table")
    p_table.add_argument("--which", type=int, choices=(1, 2), required=True)
    p_table.add_argument("--model", required=True,
                         help="data model, e.g. poisson1 (an unknown name lists them all)")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, default=None)
    p_table.add_argument("--outer", type=int, default=500)
    p_table.add_argument("--inner", type=int, default=500)
    p_table.add_argument("--threshold", type=float, default=None)
    p_table.add_argument("--nominal", type=float, default=None)
    p_table.add_argument("--band", type=float, default=0.01)
    p_table.add_argument("--B", type=int, default=9)
    p_table.add_argument("--threads", type=int, default=1)
    p_table.add_argument("--text", action="store_true")
    add_common(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_ydist = sub.add_parser("ydist", help="replicate-count distribution and refined cutoff")
    p_ydist.add_argument("--B", type=int, required=True)
    p_ydist.add_argument("--alpha", type=float, default=None)
    add_common(p_ydist)
    p_ydist.set_defaults(func=_cmd_ydist)

    p_bound = sub.add_parser("bound", help="error-bound evaluation or rate function")
    p_bound.add_argument("--kind", default=None,
                         help="rate kind (GStarRate, TStarRate, GDoubleStarRate, TDoubleStarRate)")
    p_bound.add_argument("--n", type=int, default=None)
    p_bound.add_argument("--m", type=int, default=None)
    p_bound.add_argument("--delta", type=float, default=None)
    p_bound.add_argument("--eps", type=float, default=None)
    p_bound.add_argument("--eps1", type=float, default=None)
    p_bound.add_argument("--eps2", type=float, default=None)
    p_bound.add_argument("--ratio", type=float, default=None,
                         help="third absolute moment ratio E|X-mu|^3 / sigma^(3/2)")
    p_bound.add_argument("--p-var-dev", type=float, default=None)  # 0.0 in an evaluation
    p_bound.add_argument("--C", type=float, default=None)
    add_common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_weights = sub.add_parser("weights", help="dump one multinomial weight draw")
    p_weights.add_argument("--n", type=int, required=True)
    p_weights.add_argument("--m", type=int, required=True)
    add_common(p_weights)
    p_weights.set_defaults(func=_cmd_weights)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        text = result if isinstance(result, str) else dumps(result)
    except DegenerateWeightsError as exc:
        print(f"pivotboot: error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (_CliError, PivotbootError, ValueError, ArithmeticError) as exc:
        print(f"pivotboot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("pivotboot: error: design too large for the available memory", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader stopped early; the work is done
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush cannot fail
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
