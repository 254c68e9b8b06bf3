"""The seven value types that the scalar layer, the replicate cutoffs and
the command line build: equality and hashing over every field of the same
class, their printed form, immutability, and copy and pickle round trips."""

import copy
import pickle

import pytest

from pivotboot.bounds import BoundParams
from pivotboot.calibration import YDistribution
from pivotboot.estimators import Sample
from pivotboot.intervals import Interval, IntervalTarget
from pivotboot.multi_bootstrap import ReplicateSet
from pivotboot.weights import CenteredWeights, WeightVector


def instances():
    """Two equal instances of each type, built apart, with their printed form."""
    def weights():
        return WeightVector([1, 0, 2])

    return {
        "WeightVector": (weights, "WeightVector(counts=(1.0, 0.0, 2.0), m=3.0)"),
        "CenteredWeights": (
            lambda: CenteredWeights(weights()),
            "CenteredWeights(weights=WeightVector(counts=(1.0, 0.0, 2.0), m=3.0), "
            "values=(0.0, -0.3333333333333333, 0.3333333333333333), "
            "sum_squares=0.2222222222222222, sum_abs=0.6666666666666666)"),
        "Sample": (lambda: Sample([1, 2.5, 3]),
                   "Sample(values=(1.0, 2.5, 3.0), mean=2.1666666666666665, "
                   "variance=0.7222222222222222)"),
        "Interval": (
            lambda: Interval(0.25, 1.5, 0.9, IntervalTarget.CDF_VALUE, "ci_cdf", clamped=True),
            "Interval(lo=0.25, hi=1.5, level=0.9, target=<IntervalTarget.CDF_VALUE: "
            "'cdf_value'>, recipe='ci_cdf', clamped=True)"),
        "YDistribution": (lambda: YDistribution([0.25, 0.25, 0.5]),
                          "YDistribution(pmf=(0.25, 0.25, 0.5), B=2)"),
        "BoundParams": (
            lambda: BoundParams(50, 60.0, 0.5, 0.5, 0.1, 0.1, 1.0),
            "BoundParams(n=50, m=60, delta=0.5, eps=0.5, eps1=0.1, eps2=0.1, "
            "third_abs_moment_ratio=1.0, p_var_dev=0.0, C=0.56)"),
        "ReplicateSet": (lambda: ReplicateSet([0.5, -1, 2.0], degenerate_redraws=1),
                         "ReplicateSet(values=(0.5, -1.0, 2.0), degenerate_redraws=1, B=3)"),
    }


# One instance of each type that differs from the one above in one field.
OTHERS = {
    "WeightVector": lambda: WeightVector([1, 2, 0]),
    "CenteredWeights": lambda: CenteredWeights(WeightVector([2, 0, 4])),
    "Sample": lambda: Sample([1, 2.5, 3.5]),
    "Interval": lambda: Interval(0.25, 1.5, 0.9, IntervalTarget.CDF_VALUE, "ci_cdf"),
    "YDistribution": lambda: YDistribution([0.25, 0.5, 0.25]),
    "BoundParams": lambda: BoundParams(50, 60, 0.5, 0.5, 0.1, 0.1, 1.0, C=0.5),
    "ReplicateSet": lambda: ReplicateSet([0.5, -1, 2.0]),
}

# The fields of each type, in order: the constructor's, then the derived ones.
FIELDS = {
    "WeightVector": ("counts", "m"),
    "CenteredWeights": ("weights", "values", "sum_squares", "sum_abs"),
    "Sample": ("values", "mean", "variance"),
    "Interval": ("lo", "hi", "level", "target", "recipe", "clamped"),
    "YDistribution": ("pmf", "B"),
    "BoundParams": ("n", "m", "delta", "eps", "eps1", "eps2", "third_abs_moment_ratio",
                    "p_var_dev", "C"),
    "ReplicateSet": ("values", "degenerate_redraws", "B"),
}

NAMES = sorted(FIELDS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_compare_and_hash_equal(name):
    build, _ = instances()[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, field) for field in FIELDS[name]))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_different_field_compares_unequal(name):
    a, other = instances()[name][0](), OTHERS[name]()
    assert a != other and not a == other


@pytest.mark.parametrize("name", NAMES)
def test_only_the_same_class_compares_equal(name):
    a = instances()[name][0]()
    lookalike = type("Lookalike", (), {field: getattr(a, field) for field in FIELDS[name]})()
    assert a != lookalike
    assert a != tuple(getattr(a, field) for field in FIELDS[name])
    assert a.__eq__(lookalike) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    build, text = instances()[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = instances()[name][0]()
    before = repr(a)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1.0
    assert repr(a) == before


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("round_trip", [
    copy.copy,
    copy.deepcopy,
    *(lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copy_and_pickle_round_trips(name, round_trip):
    a = instances()[name][0]()
    b = round_trip(a)
    assert type(b) is type(a)
    assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
    with pytest.raises(AttributeError):
        setattr(b, FIELDS[name][0], 1.0)


def test_deepcopy_copies_the_nested_weights():
    cw = instances()["CenteredWeights"][0]()
    deep, shallow = copy.deepcopy(cw), copy.copy(cw)
    assert deep.weights == cw.weights and deep.weights is not cw.weights
    assert shallow.weights is cw.weights
    assert copy.deepcopy(instances()["Interval"][0]()).target is IntervalTarget.CDF_VALUE
