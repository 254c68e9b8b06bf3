"""Replicate-based bootstrap cutoffs: the signed-weight pivot over B
independent weight draws, and the refined cutoff among those replicates,
whose index and calibration come from :mod:`pivotboot.calibration`.

Order-statistic conventions (both count from the smallest replicate):

* classical rank nu is 1-based, so nu = B picks the maximum;
* the refined index y is 0-based, so y = B - 1 picks the maximum, and the
  boundary case y = B (nominal level above B/(B+1)) is clamped to the
  maximum as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .calibration import _cutoff_index
from .errors import DomainError
from .estimators import Sample, sample_std
from .pivots import t_star
from .weights import (WeightVector, center, draw_multinomial_batch, draw_multinomial_weights,
                      float_tuple, nondegenerate)

__all__ = ["ReplicateSet", "draw_replicates", "refined_contains"]


@dataclass(frozen=True)
class ReplicateSet:
    """Values of the signed-weight pivot over B independent weight draws."""

    values: np.ndarray
    degenerate_redraws: int = 0
    B: int = field(init=False)

    def __post_init__(self) -> None:
        values = np.array(float_tuple(self.values, "replicate values"))
        values.setflags(write=False)
        if values.size < 2:
            raise ValueError("a replicate set needs B >= 2 values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "B", values.size)


def draw_replicates(
    s: Sample, B: int, m: int, stream: np.random.Generator
) -> ReplicateSet:
    """Compute the signed-weight pivot on B independent multinomial draws.

    Each of the B slots takes the stream's next weight row (one batch call
    draws the first B) and evaluates :func:`~pivotboot.pivots.t_star` on it.
    A row whose counts are all equal (its centered weights all vanish) leaves
    the pivot undefined; the stream's next row replaces it, within the budget
    of :func:`~pivotboot.weights.nondegenerate`, counted in
    ``degenerate_redraws``.  Only the B rows kept are centered.
    """
    sample_std(s)  # ZeroVarianceError before any draw
    if B < 2:
        raise DomainError("B must be at least 2")
    rows = itertools.chain(draw_multinomial_batch(s.n, m, B, stream),  # then one row a call
                           (draw_multinomial_weights(s.n, m, stream).counts
                            for _ in itertools.count()))
    draws = [nondegenerate(rows.__next__) for _ in range(B)]
    return ReplicateSet([t_star(s, center(WeightVector(row))) for row, _ in draws],
                        degenerate_redraws=sum(redraws for _, redraws in draws))


def refined_contains(t_value: float, reps: ReplicateSet, alpha: float) -> bool:
    """Whether ``t_value`` falls below the refined replicate cutoff.

    The cutoff is the order statistic indexed by y_quantile(B, alpha),
    0-based from the smallest replicate and clamped to the maximum (see the
    module docstring for the convention).  A value equal to the cutoff
    counts as inside: ``t_value <= cutoff``.
    """
    ordered = np.sort(reps.values)
    return bool(t_value <= ordered[_cutoff_index(reps.B, alpha)])
