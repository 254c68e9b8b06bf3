"""Resampling weight vectors and their centered functionals.

A weight vector records how many times each of ``n`` sample indices is
selected when resampling ``m`` times with replacement (multinomial counts),
or any ``n`` nonnegative real weights supplied by the caller, such as a
weights file given to ``pivotboot ci``; ``m`` is their total.  One function,
:func:`draw_multinomial_batch`, draws every count row of the package from
numpy's generator: up to m = 8n it counts m uniform resample indices per
row, as the bootstrap is defined, and past that it calls numpy's
multinomial sampler.  The centered
values ``w_i/m - 1/n`` and their squared/absolute sums drive every pivot
statistic in this package.  Centered weights keep the weight vector they
derive from, so the pivots and interval recipes take them alone.  A count
row is degenerate, all its centered values zero, when its counts are all
equal; :func:`nondegenerate` redraws such rows on the raw counts, so its
callers build their value types only for the row they keep.

The value types hold tuples of floats and reduce them with :func:`dot` and
:func:`total`, which add in numpy's own order, so this half of the module
and the scalar layer built on it (``estimators``, ``pivots``,
``intervals``) import only the standard library.  Only the samplers load
numpy, when first called, except that :func:`draw_multinomial_weights`
counts a small row of 16-bit indices from the standard-library copy of a
stream (``stream.Stream``) in Python.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator

from .errors import DegenerateWeightsError, Frozen

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
    "total",
    "max_ratio",
    "expected_sum_squares",
    "float_tuple",
]

# Redraw budget of nondegenerate(): at most this many redraws of a
# degenerate count row (all counts equal, so all centered weights zero).  At
# n = 1 every draw is degenerate.
REDRAW_LIMIT = 100

# Since stream layout 6 each call's resample indices are drawn in pieces of
# whole rows of at most max(_PIECE, m) entries (512 KB as uint16), counted
# from the call's first row.  The pieces are part of the layout, as
# simulation.BLOCK_ENTRIES is: numpy drops a 32-bit word's unused half at the
# end of each 16-bit draw.
_PIECE = 2**18
# draw_multinomial_batch counts a piece in blocks of whole rows, block *
# max(n, m) <= _INDEX_BLOCK where n and m allow, so the row offsets fit the
# uint16 indices and bincount's int64 copy of a block stays within 128 KB.
# It bounds memory only: the counts do not depend on it (tested).  At 2**15
# the harness round's peak RSS read 0.3 MB more, for no measured speed.
_INDEX_BLOCK = 2**14
# draw_multinomial_weights counts the indices of a stream.Stream row in Python
# up to this many.  Drawing costs about 0.35 us an index and numpy's import
# 75 ms or more: a fresh drawn-weights ci at n = m = 2**16 took 223 ms where
# numpy took 341, and the two met near 2**18 indices.
_PYTHON_INDICES = 2**16
# numpy's einsum reduces in buffers of this many entries (dot).
_EINSUM_BUFFER = 8192


def float_tuple(values, name: str) -> tuple[float, ...]:
    """``values``, a non-empty 1-D sequence (or numpy array) of finite
    numbers, as a tuple of floats; :class:`ValueError` naming ``name``
    otherwise.  Each value type keeps its values this way and derives its
    other fields from the tuple, which no later edit of the caller's
    sequence reaches."""
    try:
        values = tuple(map(float, values.tolist() if hasattr(values, "tolist") else values))
    except TypeError as exc:  # a scalar, or rows of a 2-D sequence
        raise ValueError(f"{name} must be a non-empty 1-D sequence") from exc
    if not values:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return values


def dot(a, b) -> float:
    """Sum of a_i b_i over two equal-length float sequences, rounded as
    numpy's ``np.einsum("...i,...i->...", a, b)`` rounds it on x86-64, no
    BLAS: per buffer of ``_EINSUM_BUFFER`` entries two lanes, each full step
    of 8 adding products 6, 4, 2, 0 to the first and 7, 5, 3, 1 to the
    second, the rest alternating from the first, then the lanes' sum added
    to the total, which starts at +0.0.  Each product is rounded before it
    is added: numpy's x86-64 builds compile einsum at the X86_V2 baseline,
    which has no fused multiply-add."""
    result = 0.0
    for start in range(0, len(a), _EINSUM_BUFFER):
        stop = min(start + _EINSUM_BUFFER, len(a))
        tail = stop - (stop - start) % 8
        lo = hi = 0.0
        for i in range(start, tail, 8):
            lo = (a[i] * b[i]
                  + (a[i + 2] * b[i + 2] + (a[i + 4] * b[i + 4] + (a[i + 6] * b[i + 6] + lo))))
            hi = (a[i + 1] * b[i + 1]
                  + (a[i + 3] * b[i + 3] + (a[i + 5] * b[i + 5] + (a[i + 7] * b[i + 7] + hi))))
        for i in range(tail, stop, 2):
            lo += a[i] * b[i]
            if i + 1 < stop:
                hi += a[i + 1] * b[i + 1]
        result += lo + hi
    return result


def total(x) -> float:
    """Sum of a float sequence, rounded as numpy's ``np.add.reduce`` rounds
    it: +0.0 plus numpy's pairwise sum of all the entries.  Not the builtin
    ``sum``, which compensates float sums from Python 3.12 on."""
    return 0.0 + _pairwise(x, 0, len(x))


def _pairwise(x, start: int, n: int) -> float:
    """numpy's pairwise sum of x[start:start + n]: fewer than 8 entries in
    order, up to 128 in 8 accumulators, longer runs split in halves at a
    multiple of 8."""
    if n < 8:
        result = 0.0
        for i in range(start, start + n):
            result += x[i]
        return result
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = x[start:start + 8]
        tail = start + n - n % 8
        for i in range(start + 8, tail, 8):
            r0 += x[i]
            r1 += x[i + 1]
            r2 += x[i + 2]
            r3 += x[i + 3]
            r4 += x[i + 4]
            r5 += x[i + 5]
            r6 += x[i + 6]
            r7 += x[i + 7]
        result = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(tail, start + n):
            result += x[i]
        return result
    half = n // 2 - n // 2 % 8
    return _pairwise(x, start, half) + _pairwise(x, start + half, n - half)


class WeightVector(Frozen):
    """Nonnegative resampling weights, multinomial counts or any real
    weights; their total is the resample size ``m``."""

    __slots__ = ("counts", "m")

    def __init__(self, counts: tuple[float, ...]) -> None:
        counts = float_tuple(counts, "counts")
        if min(counts) < 0:
            raise ValueError("counts must be nonnegative")
        m = total(counts)  # an overflow is the ValueError below
        if not 0.0 < m < math.inf:
            raise ValueError("resample size m must be positive and finite")
        self.__setstate__((counts, m))

    @property
    def n(self) -> int:
        return len(self.counts)


class CenteredWeights(Frozen):
    """The centered values ``w_i/m - 1/n`` of a weight vector with their
    norms, computed once from the weights, which they keep.

    ``sum_squares`` is the squared Euclidean norm of the centered values and
    ``sum_abs`` their absolute sum; both scales appear in the pivot and
    interval formulas, and the pivots and recipes read the weights here.
    """

    __slots__ = ("weights", "values", "sum_squares", "sum_abs")

    def __init__(self, weights: WeightVector) -> None:
        m, base = weights.m, 1.0 / weights.n
        values = tuple([c / m - base for c in weights.counts])
        self.__setstate__((weights, values, dot(values, values), total(list(map(abs, values)))))

    @property
    def norm(self) -> float:
        """Euclidean norm sqrt(V^2); :class:`DegenerateWeightsError` if all values are zero."""
        if self.sum_squares <= 0.0:
            raise DegenerateWeightsError("all centered weights are zero")
        return math.sqrt(self.sum_squares)


def draw_multinomial_weights(n: int, m: int, stream) -> WeightVector:
    """Draw counts ~ multinomial(m; 1/n, ..., 1/n) from the given stream:
    one row of :func:`draw_multinomial_batch`.

    ``stream`` is numpy's generator or its standard-library copy
    ``stream.Stream``, which draws the same row.  The copy draws only 16-bit
    indices, so its row is counted in Python where the layout draws those
    (m <= 8n, n <= 2**16) and m <= ``_PYTHON_INDICES``; anywhere else the
    copy hands over to numpy's generator at its address before drawing, and
    its later rows come from that generator too.
    """
    hand_over = getattr(stream, "hand_over", None)
    if hand_over is not None:
        _validate_sizes(n, m)
        if m > min(8 * n, _PYTHON_INDICES) or n > 2**16:
            stream = hand_over()
        else:
            counts = [0] * n
            for index in stream.integers16(n, m):
                counts[index] += 1
            return WeightVector(counts)
    return WeightVector(draw_multinomial_batch(n, m, 1, stream)[0])


def draw_multinomial_batch(n: int, m: int, rows: int, stream):
    """Draw ``rows`` independent multinomial(m; 1/n, ..., 1/n) count rows
    from a numpy Generator, as a ``(rows, n)`` float array.  Every count row of the package comes from
    here, one row or many: the table cells, the harness blocks, the
    replicate pivots and the command line's weight draws past the hand-over
    of :func:`draw_multinomial_weights`, which counts the others the same way.

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
    import numpy as np

    return next(draw_multinomial_chunks(n, m, rows, max(rows, 1), stream), np.empty((0, n)))


def draw_multinomial_chunks(n: int, m: int, rows: int, chunk: int, stream) -> Iterator:
    """The rows of ``draw_multinomial_batch(n, m, rows, stream)`` in order,
    ``chunk`` rows at a time (the last chunk may hold fewer), drawn as they
    are read: the same rows and draws for any ``chunk``, which bounds memory."""
    import numpy as np

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


def nondegenerate(draw: Callable[[], Any]) -> tuple[Any, int]:
    """Call ``draw()``, which returns one draw's count row (a sampler's
    array of any shape, or a weight vector's tuple), until its counts are
    not all equal; return that row and the number of degenerate rows drawn
    before it.

    Counts summing to m are all equal exactly when each is m/n, and then
    every centered weight w_i/m - 1/n is zero: the norm the pivots divide by
    vanishes.  Every weight-redraw loop of the package goes through here, so
    all share one budget: :class:`DegenerateWeightsError` after
    ``REDRAW_LIMIT`` redraws.
    """
    for redraws in range(REDRAW_LIMIT + 1):
        counts = draw()
        flat = counts.ravel().tolist() if hasattr(counts, "ravel") else counts
        if min(flat) != max(flat):
            return counts, redraws
    raise DegenerateWeightsError(f"weights stayed degenerate after {REDRAW_LIMIT} redraws")


def center(w: WeightVector) -> CenteredWeights:
    """Center the weights to ``w_i/m - 1/n``."""
    return CenteredWeights(w)


def max_ratio(cw: CenteredWeights) -> float:
    """Largest squared centered weight as a fraction of their total: the
    negligibility diagnostic for the weight pattern.  Lies in (0, 1]."""
    if cw.sum_squares <= 0.0:
        raise DegenerateWeightsError("all centered weights are zero")
    return max(v * v for v in cw.values) / cw.sum_squares


def expected_sum_squares(n: int, m: int) -> float:
    """Expected squared norm of centered multinomial weights: (1 - 1/n)/m."""
    _validate_sizes(n, m)
    return (1.0 - 1.0 / n) / m


def _validate_sizes(n: int, m: int) -> None:
    # numpy draws counts as int64; WeightVector keeps them as floats, whose
    # sums are exact only up to 2**53
    if n < 1 or not 1 <= m <= 2**53:
        raise ValueError("n must be at least 1 and m in [1, 2**53]")
