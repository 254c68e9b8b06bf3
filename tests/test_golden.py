"""Golden report hashes: the sha256 of ``dumps(report.to_dict())`` for small
fixed-seed runs of every Monte Carlo harness.

A refactor of the harnesses, the weight draws or the normal quantile must
leave these bytes unchanged; a deliberate change of the random-stream
layout shows up here as an explicit diff of the hashes.  The designs are
small enough to include degenerate data, degenerate weights and weight
redraws (n = 2), so the draw order of the redraw loops is pinned too.
"""

import hashlib

import pytest

from pivotboot.jsonio import dumps
from pivotboot.pivots import PivotKind
from pivotboot.simulation import (
    SimConfig,
    pivot_clt_frequencies,
    refined_ci_coverage,
    run_coverage,
    run_table1,
    run_table2,
)

RECIPES = ("population", "sample", "finitepop", "superpop", "ecdf", "cdf")


def _table(runner, model, n):
    return lambda: runner(SimConfig(model=model, n=n, outer_reps=3, inner_reps=40, seed=11))


def _coverage(recipe, model, n, x):
    return lambda: run_coverage(recipe, model, n, n, 0.1, 150, 12,
                                x=x if recipe in ("ecdf", "cdf") else None)


CASES = {
    **{f"table1/{model}/{n}": _table(run_table1, model, n)
       for model, n in (("poisson1", 10), ("lognormal01", 10), ("exponential1", 10),
                        ("normal01", 2))},
    **{f"table2/{model}/{n}": _table(run_table2, model, n)
       for model, n in (("poisson1", 10), ("lognormal01", 10), ("exponential1", 10),
                        ("normal01", 2))},
    **{f"coverage/{recipe}/{model}": _coverage(recipe, model, n, x)
       for recipe in RECIPES
       for model, n, x in (("normal01", 20, 0.0), ("poisson1", 6, 1.0))},
    "pivot_clt/normal01": lambda: pivot_clt_frequencies(
        list(PivotKind), "normal01", 20, 20, 1.644854, 150, 13, x=0.0),
    "pivot_clt/poisson1": lambda: pivot_clt_frequencies(
        list(PivotKind), "poisson1", 6, 6, 1.281648, 150, 13, x=1.0),
    "refined_ci/lognormal01": lambda: refined_ci_coverage("lognormal01", 20, 20, 9, 0.1, 60, 14),
    "refined_ci/normal01/n2": lambda: refined_ci_coverage("normal01", 2, 2, 4, 0.2, 60, 14),
}

GOLDEN = {
    "coverage/cdf/normal01":
        "54bce634e0d74b111b9b67aacfd2ee955167a835a87872c782c49732d8afd6ee",
    "coverage/cdf/poisson1":
        "a2a38beab393fb0540eda6dd237237087d83bb312289fe3367c88573adaa6e2e",
    "coverage/ecdf/normal01":
        "bf3e3dd65c99498da885b1d0a9781e79ad527962d5e50750ca6720f7ddbc0af2",
    "coverage/ecdf/poisson1":
        "cb88b55de95630e1d9104406d6841deb7d4f95fcd881aa91ef25ee128080ffae",
    "coverage/finitepop/normal01":
        "71fe104577318b6352b9d102c838078ab238cff66e1ca5122f5bb204493ea537",
    "coverage/finitepop/poisson1":
        "1caa31db6aa9eba53a36c2df3e7248bde924993120aa99f3ba14c362eab75e0d",
    "coverage/population/normal01":
        "57d839bcfe245ca232eb2d9c81035abbf1a0baacccfe7dc40f0ffa5c5c2f1994",
    "coverage/population/poisson1":
        "fb19d1e193f0af307a381641bc8f7cb343e39289205681df9f423e21729456da",
    "coverage/sample/normal01":
        "b84054a3e09fbce273ebb7c34649cb68995dc6555a87522dd7fff97e7b6ee451",
    "coverage/sample/poisson1":
        "af3c17a8fa195e9cbae3bc42a9b40bb8df6564f63d5d912c676f7bad29085df8",
    "coverage/superpop/normal01":
        "2b65d0f395fbf70451193f5bef0ed22e4af584229be29c1e8e0d92774c2ceec7",
    "coverage/superpop/poisson1":
        "7a41d8b6bb80fe5aa83151f3e7e985b8afe403918614685107b1bdc7a1644c8e",
    "pivot_clt/normal01":
        "1fece18fe772d2e6c94e0d2b25cbd5648e7d9d716b5b8df672416d1a2de5cd25",
    "pivot_clt/poisson1":
        "354d3729f667ff812e9d82d60bbac318e5c6dac58d8be8916736c0f0fb73eaf3",
    "refined_ci/lognormal01":
        "642053599be034646237e4ef5fc928999b3b1a6f4dd74707c02cbd011309c2fd",
    "refined_ci/normal01/n2":
        "e1c623f792666041aa3bf2cf5675b2509a65efaec8053eaeac5ac01799f03d1f",
    "table1/exponential1/10":
        "4d89a2dc2b1006c762eac2d0bd8b556ce863b2527cc256994fdc81301b124071",
    "table1/lognormal01/10":
        "5a13b7412ca1f61bf2c98781760136157df2548b6ce44d6f2256ebf24473c28f",
    "table1/normal01/2":
        "154bbd48ea8aceb93696e29021afa49998ba6289ad47c2f9b0c801d4933b08cb",
    "table1/poisson1/10":
        "40afc79d1199ecfb83e2a01e393865ab0410f01ec2dd1f36d8cec5d13755ab87",
    "table2/exponential1/10":
        "849f986cbc3cc85d113fef09c57dc2dd037f89227fdf13da210eab21344916d9",
    "table2/lognormal01/10":
        "18b79c3fadb10d0da2fcb5c20b7672d4b84a2238fe312a7769bb2d741bbe50ea",
    "table2/normal01/2":
        "2744c657e0406c77a45a0cb39a91bf05656a51fc0fd8c267fe89608b78fa1297",
    "table2/poisson1/10":
        "ead31897575ba12c15c17ba837dcc262c69f883d9335aba486a51e51ad06e4ce",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    digest = hashlib.sha256(dumps(CASES[case]().to_dict()).encode()).hexdigest()
    assert digest == GOLDEN[case]
