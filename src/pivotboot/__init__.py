"""Weighted-resampling pivot statistics.

Multinomial resampling weights, the pivot statistics they induce for
sample/population means and distribution functions, the confidence
intervals obtained by inverting those pivots, replicate-based bootstrap
cutoffs with their exact calibration, a finite-sample normal-approximation
error bound, and Monte Carlo harnesses for coverage-comparison experiments.

Importing the package loads no submodule (and so no numpy): each public
name below is imported from its submodule on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.4.0"

# Names of the six interval recipes, in the order of the table in
# `intervals`: the ``ci`` methods of the command line and the recipes of the
# coverage harness.  Defined here so that the CLI's parser needs no numpy.
RECIPES = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")

_EXPORTS = {
    "bounds": ("BoundParams", "RateKind", "berry_esseen_bound", "convergence_rate", "delta_n",
               "sixth_moment_expression"),
    "errors": ("DegenerateScaleError", "DegenerateWeightsError", "DimensionMismatchError",
               "DomainError", "InadmissibleParamsError", "MuArityError", "NonIntegerRankError",
               "PivotbootError", "ZeroBootstrapVarianceError", "ZeroVarianceError"),
    "estimators": ("Sample", "bootstrap_ecdf", "bootstrap_mean", "bootstrap_variance", "ecdf",
                   "weighted_mean_estimator"),
    "gaussian": ("normal_cdf", "normal_pdf", "normal_quantile"),
    "intervals": ("Interval", "IntervalTarget", "ci_ecdf", "ci_finite_pop_mean",
                  "ci_population_mean", "ci_sample_mean", "ci_superpop_mean"),
    "multi_bootstrap": ("GENZ_LEVEL_B9", "ReplicateSet", "YDistribution",
                        "classical_cutoff_rank", "draw_replicates", "orthant_probability",
                        "orthant_probability_closed_form", "refined_contains", "y_distribution",
                        "y_quantile"),
    "pivots": ("PivotKind", "empirical_pivot", "g_star", "starred_variant", "student_t",
               "t_star"),
    "rng": ("substream",),
    "simulation": ("MODELS", "CoverageReport", "Model", "SimConfig", "pivot_clt_frequencies",
                   "refined_ci_coverage", "run_coverage", "run_table1", "run_table2",
                   "sample_model"),
    "weights": ("CenteredWeights", "WeightVector", "center", "draw_multinomial_weights",
                "expected_sum_squares", "max_ratio"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["RECIPES", *_SOURCE]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
