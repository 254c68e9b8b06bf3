"""Weighted-resampling pivot statistics.

Multinomial resampling weights, the pivot statistics they induce for
sample/population means and distribution functions, the confidence
intervals obtained by inverting those pivots, replicate-based bootstrap
cutoffs with their exact calibration, a finite-sample normal-approximation
error bound, and Monte Carlo harnesses for coverage-comparison experiments.

Each name is imported from the module that defines it, as in
``from pivotboot.intervals import ci_ecdf``.  Importing the package itself
loads no submodule (and so no numpy); it holds only the version and the
recipe names.
"""

__version__ = "0.5.0"

# Names of the six interval recipes, in the order of the table in
# `intervals`: the ``ci`` methods of the command line and the recipes of the
# coverage harness.  Defined here so that the CLI's parser needs no numpy.
RECIPES = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")
