"""Typed errors raised by the statistics layer, and the base of its value
types with the float conversion they share.

Zero-denominator and invalid-configuration cases raise instead of
propagating NaN: the command line maps the errors to exit codes, and the
harnesses' valid masks, which count degenerate draws, are tested against
the scalar functions that raise them.
"""

import math


class Frozen:
    """Base of the immutable value types, in place of a frozen dataclass: a
    subclass names its fields in ``__slots__`` and its ``__init__`` sets them
    through ``__setstate__``, as unpickling and ``copy`` do.  Instances of one
    class compare and hash by their fields and print as ``Name(field=value)``."""

    __slots__ = ()

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        same_class = other.__class__ is self.__class__
        return self.__getstate__() == other.__getstate__() if same_class else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self.__getstate__())
        return f"{type(self).__qualname__}({', '.join(fields)})"


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


class PivotbootError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(PivotbootError):
    """Sample and weight vectors have different lengths."""


class DegenerateWeightsError(PivotbootError):
    """All centered weights vanish (or their absolute sum does)."""


class ZeroVarianceError(PivotbootError):
    """Sample variance is zero; a Studentized statistic is undefined."""


class ZeroBootstrapVarianceError(PivotbootError):
    """Resampled variance is zero; a double-star statistic is undefined."""


class DegenerateScaleError(PivotbootError):
    """An empirical-distribution scale F(1-F) is zero at the evaluation point."""


class MuArityError(PivotbootError):
    """A centering value was supplied where forbidden, or omitted where required."""


class DomainError(PivotbootError):
    """Argument outside the mathematical domain of the operation."""


class InadmissibleParamsError(PivotbootError):
    """Bound parameters violate the admissibility inequality."""


class NonIntegerRankError(PivotbootError):
    """(B+1)*(1-alpha) is not an integer, so the classical cutoff rank is undefined."""
