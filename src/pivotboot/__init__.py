"""Weighted-resampling pivot statistics.

Multinomial resampling weights, the pivot statistics they induce for
sample/population means and distribution functions, the confidence
intervals obtained by inverting those pivots, replicate-based bootstrap
cutoffs with their exact calibration, a finite-sample normal-approximation
error bound, and Monte Carlo harnesses for coverage-comparison experiments.
"""

__version__ = "0.1.0"

from .bounds import BoundParams, RateKind, berry_esseen_bound, convergence_rate, delta_n
from .errors import (
    DegenerateScaleError,
    DegenerateWeightsError,
    DimensionMismatchError,
    DomainError,
    InadmissibleParamsError,
    MuArityError,
    NonIntegerRankError,
    PivotbootError,
    ZeroBootstrapVarianceError,
    ZeroVarianceError,
)
from .estimators import (
    Sample,
    bootstrap_ecdf,
    bootstrap_mean,
    bootstrap_variance,
    ecdf,
    weighted_mean_estimator,
)
from .gaussian import normal_cdf, normal_pdf, normal_quantile
from .intervals import (
    Interval,
    IntervalTarget,
    ci_ecdf,
    ci_finite_pop_mean,
    ci_population_mean,
    ci_sample_mean,
    ci_superpop_mean,
)
from .multi_bootstrap import (
    GENZ_LEVEL_B9,
    ReplicateSet,
    YDistribution,
    classical_cutoff_rank,
    draw_replicates,
    orthant_probability,
    orthant_probability_closed_form,
    refined_contains,
    y_distribution,
    y_quantile,
)
from .pivots import PivotKind, empirical_pivot, g_star, starred_variant, student_t, t_star
from .rng import substream
from .simulation import (
    MODELS,
    CoverageReport,
    Model,
    SimConfig,
    pivot_clt_frequencies,
    refined_ci_coverage,
    run_coverage,
    run_table1,
    run_table2,
    sample_model,
)
from .weights import (
    CenteredWeights,
    WeightScheme,
    WeightVector,
    center,
    draw_multinomial_weights,
    expected_sum_squares,
    max_ratio,
    sixth_moment_expression,
)
