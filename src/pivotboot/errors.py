"""Typed errors raised by the statistics layer, and the base of its value types.

Zero-denominator and invalid-configuration cases raise instead of
propagating NaN so that simulation harnesses can count degenerate draws
explicitly.
"""


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
