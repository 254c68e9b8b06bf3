"""Resampling weight vectors and their centered functionals.

A weight vector records how many times each of ``n`` sample indices is
selected when resampling ``m`` times with replacement (multinomial counts),
or any ``n`` nonnegative real weights supplied by the caller, such as a
weights file given to ``pivotboot ci``; ``m`` is their total.  One function,
:func:`draw_multinomial_batch`, draws every count row of the package: up to
m = 8n it counts m uniform resample indices per row, as the bootstrap is
defined, and past that it calls numpy's multinomial sampler.  The centered
values ``w_i/m - 1/n`` and their squared/absolute sums drive every pivot
statistic in this package.  Centered weights keep the weight vector they
derive from, so the pivots and interval recipes take them alone.  A count
row is degenerate, all its centered values zero, when its counts are all
equal; :func:`nondegenerate` redraws such rows on the raw counts, so its
callers build their value types only for the row they keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateWeightsError

__all__ = [
    "REDRAW_LIMIT",
    "WeightVector",
    "CenteredWeights",
    "draw_multinomial_weights",
    "draw_multinomial_batch",
    "draw_multinomial_chunks",
    "nondegenerate",
    "center",
    "dot",
    "max_ratio",
    "expected_sum_squares",
    "frozen_array",
]

# Redraw budget of nondegenerate(): at most this many redraws of a
# degenerate count row (all counts equal, so all centered weights zero).  At
# n = 1 every draw is degenerate.
REDRAW_LIMIT = 100

# Stream layout 6 draws each call's resample indices in pieces of whole rows
# of at most max(_PIECE, m) entries (512 KB as uint16), counted from the
# call's first row.  The pieces are part of the layout, as simulation.BLOCK
# is: numpy drops a 32-bit word's unused half at the end of each 16-bit draw.
_PIECE = 2**18
# draw_multinomial_batch counts a piece in blocks of whole rows, block *
# max(n, m) <= _INDEX_BLOCK where n and m allow, so the row offsets fit the
# uint16 indices and bincount's int64 copy of a block stays within 128 KB.
# It bounds memory only: the counts do not depend on it (tested).  At 2**15
# the harness round's peak RSS read 0.3 MB more, for no measured speed.
_INDEX_BLOCK = 2**14


def frozen_array(values, name: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, a non-empty 1-D sequence of
    finite numbers; :class:`ValueError` naming ``name`` otherwise.  Each
    value type of the package keeps its array this way and derives its other
    fields from the copy, so no later edit of the caller's array reaches them."""
    array = np.array(values, dtype=float)
    if array.ndim != 1 or array.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    # ndarray methods, not the np.any / np.all wrappers, which cost a third of
    # a weight vector's construction (tests/test_weights.py checks both agree).
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative resampling weights, multinomial counts or any real
    weights; their total is the resample size ``m``."""

    counts: np.ndarray
    m: float = field(init=False)

    def __post_init__(self) -> None:
        counts = frozen_array(self.counts, "counts")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        with np.errstate(over="ignore"):  # an overflow is the ValueError below
            object.__setattr__(self, "m", float(counts.sum()))
        if not 0.0 < self.m < math.inf:
            raise ValueError("resample size m must be positive and finite")

    @property
    def n(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class CenteredWeights:
    """The centered values ``w_i/m - 1/n`` of a weight vector with their
    norms, computed once from the weights, which they keep.

    ``sum_squares`` is the squared Euclidean norm of the centered values and
    ``sum_abs`` their absolute sum; both scales appear in the pivot and
    interval formulas, and the pivots and recipes read the weights here.
    """

    weights: WeightVector
    values: np.ndarray = field(init=False)
    sum_squares: float = field(init=False)
    sum_abs: float = field(init=False)

    def __post_init__(self) -> None:
        w = self.weights
        values = w.counts / w.m - 1.0 / w.n
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sum_squares", float(dot(values, values)))
        object.__setattr__(self, "sum_abs", float(np.abs(values).sum()))

    @property
    def norm(self) -> float:
        """Euclidean norm sqrt(V^2); :class:`DegenerateWeightsError` if all values are zero."""
        if self.sum_squares <= 0.0:
            raise DegenerateWeightsError("all centered weights are zero")
        return math.sqrt(self.sum_squares)


def draw_multinomial_weights(n: int, m: int, stream: np.random.Generator) -> WeightVector:
    """Draw counts ~ multinomial(m; 1/n, ..., 1/n) from the given stream:
    one row of :func:`draw_multinomial_batch`."""
    return WeightVector(draw_multinomial_batch(n, m, 1, stream)[0])


def draw_multinomial_batch(n: int, m: int, rows: int, stream: np.random.Generator) -> np.ndarray:
    """Draw ``rows`` independent multinomial(m; 1/n, ..., 1/n) count rows, as
    a ``(rows, n)`` float array.  Every count row of the package comes from
    here, one row or many: the table cells, the harness blocks, the
    replicate pivots and the command line's weight draws.

    Each row counts m uniform indices in [0, n): the bootstrap's resampling
    with replacement, drawn as it is defined, at O(m) per row.  numpy's
    multinomial sampler costs O(n) per row and grows only slowly with m;
    counting is faster up to m of about 10n to 16n (measured at n = 20 and
    n = 100), so rows with m > 8n come from the sampler, in one call.
    Otherwise the indices come in pieces of whole rows of at most
    max(_PIECE, m) entries, from the call's first row on, as 16-bit draws
    where n <= 2**16 (two from each 32-bit word; Lemire, ACM TOMACS 2019),
    else 64-bit ones.  The end of a 16-bit draw drops its last word's unused
    half, so rows drawn in two calls differ from the same rows in one.
    """
    return next(draw_multinomial_chunks(n, m, rows, max(rows, 1), stream), np.empty((0, n)))


def draw_multinomial_chunks(n: int, m: int, rows: int, chunk: int,
                            stream: np.random.Generator) -> Iterator[np.ndarray]:
    """The rows of ``draw_multinomial_batch(n, m, rows, stream)`` in order,
    ``chunk`` rows at a time (the last chunk may hold fewer), drawn as they
    are read: the same rows and draws for any ``chunk``, which bounds memory."""
    _validate_sizes(n, m)
    dtype = np.uint16 if n <= 2**16 else np.int64
    per_piece, step = max(1, _PIECE // m), max(1, _INDEX_BLOCK // max(n, m))
    first = last = 0  # the call's rows [first, last) are in ``indices``
    for start in range(0, rows, chunk):
        end = min(start + chunk, rows)
        if m > 8 * n:
            yield stream.multinomial(m, np.full(n, 1.0 / n), size=end - start).astype(float)
            continue
        counts, row = np.empty((end - start, n)), start
        while row < end:
            if row == last:
                indices = stream.integers(0, n, (min(per_piece, rows - row), m), dtype=dtype)
                first, last = row, row + len(indices)
            block = indices[row - first:min(row + step, end, last) - first]
            block += np.arange(0, len(block) * n, n, dtype=dtype)[:, None]  # row j: [j*n, (j+1)*n)
            counts[row - start:row - start + len(block)] = np.bincount(
                block.ravel(), minlength=len(block) * n).reshape(-1, n)
            row += len(block)
        yield counts


def nondegenerate(draw: Callable[[], np.ndarray]) -> tuple[np.ndarray, int]:
    """Call ``draw()``, which returns one draw's count row (an array of any
    shape), until its counts are not all equal; return that row and the
    number of degenerate rows drawn before it.

    Counts summing to m are all equal exactly when each is m/n, and then
    every centered weight w_i/m - 1/n is zero: the norm the pivots divide by
    vanishes.  Every weight-redraw loop of the package goes through here, so
    all share one budget: :class:`DegenerateWeightsError` after
    ``REDRAW_LIMIT`` redraws.
    """
    for redraws in range(REDRAW_LIMIT + 1):
        counts = draw()
        if counts.min() != counts.max():
            return counts, redraws
    raise DegenerateWeightsError(f"weights stayed degenerate after {REDRAW_LIMIT} redraws")


def dot(a, b) -> np.ndarray:
    """Sum of a * b over the last axis, in numpy's own order, no BLAS."""
    return np.einsum("...i,...i->...", a, b)


def center(w: WeightVector) -> CenteredWeights:
    """Center the weights to ``w_i/m - 1/n``."""
    return CenteredWeights(w)


def max_ratio(cw: CenteredWeights) -> float:
    """Largest squared centered weight as a fraction of their total: the
    negligibility diagnostic for the weight pattern.  Lies in (0, 1]."""
    if cw.sum_squares <= 0.0:
        raise DegenerateWeightsError("all centered weights are zero")
    squares = cw.values * cw.values
    return float(squares.max() / cw.sum_squares)


def expected_sum_squares(n: int, m: int) -> float:
    """Expected squared norm of centered multinomial weights: (1 - 1/n)/m."""
    _validate_sizes(n, m)
    return (1.0 - 1.0 / n) / m


def _validate_sizes(n: int, m: int) -> None:
    # numpy draws counts as int64; WeightVector keeps them as floats, whose
    # sums are exact only up to 2**53
    if n < 1 or not 1 <= m <= 2**53:
        raise ValueError("n must be at least 1 and m in [1, 2**53]")
