"""Exact dimension vectors over the seven SI base dimensions.

A :class:`Dimension` is an immutable vector of seven rational exponents,
one per SI base dimension, in the fixed component order

    Time, Length, Mass, Current, Temperature, Amount, LuminousIntensity.

Each exponent is kept in one normal form: an ``int`` where it is integral
and a reduced ``Fraction`` (denominator above 1) otherwise, so the integral
dimensions that physics mostly uses run on int arithmetic.  Equal vectors
have equal tuples and hashes, whichever form their inputs took.

Dimensions form an additive group: :meth:`Dimension.combine` adds exponent
vectors (the dimension of a product), :meth:`Dimension.invert` negates them,
and :meth:`Dimension.scale` multiplies by a rational (the dimension of a
power).  All arithmetic is exact; the numerator and denominator of every
exponent must stay within the signed 64-bit range (absolute value at most
``2**63 - 1``), and any operation that would leave it raises
:class:`~physkernel.errors.DimensionOverflow` rather than wrapping or
approximating.  Each operation checks each exponent of its result once.

Rendering uses the conventional SI dimension symbols in the fixed order
``M L T I Θ N J``, omitting zero exponents and writing non-integer exponents
as ``p/q`` (e.g. ``M^1 L^2 T^-2``; the dimensionless vector renders as ``1``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, neg

from .errors import DimensionOverflow

__all__ = ["BaseDim", "Dimension", "DIMENSIONLESS"]

_INT64_MAX = 2**63 - 1


class BaseDim(enum.IntEnum):
    """SI base dimensions; the enum value is the vector component index."""

    TIME = 0
    LENGTH = 1
    MASS = 2
    CURRENT = 3
    TEMPERATURE = 4
    AMOUNT = 5
    LUMINOUS_INTENSITY = 6


# Rendering order and symbols (mass first, per the conventional M L T form).
_RENDER_ORDER = (
    (BaseDim.MASS, "M"),
    (BaseDim.LENGTH, "L"),
    (BaseDim.TIME, "T"),
    (BaseDim.CURRENT, "I"),
    (BaseDim.TEMPERATURE, "Θ"),
    (BaseDim.AMOUNT, "N"),
    (BaseDim.LUMINOUS_INTENSITY, "J"),
)


def _normal(x: int | Fraction) -> int | Fraction:
    """``x`` in normal form, after checking it lies within the 64-bit range."""
    if type(x) is not int and x.denominator == 1:
        x = x.numerator
    if type(x) is int:
        if -_INT64_MAX <= x <= _INT64_MAX:
            return x
    elif abs(x.numerator) <= _INT64_MAX and x.denominator <= _INT64_MAX:
        return x
    raise DimensionOverflow(f"dimension exponent {x} exceeds the 64-bit range")


def _make(exponents: tuple[int | Fraction, ...]) -> "Dimension":
    """A Dimension over exponents that are already normal and in range."""
    d = object.__new__(Dimension)
    object.__setattr__(d, "exponents", exponents)
    return d


@dataclass(frozen=True)
class Dimension:
    """An exact 7-vector of rational exponents over the SI base dimensions."""

    exponents: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.exponents) != 7:
            raise ValueError("a Dimension has exactly 7 exponents")
        object.__setattr__(
            self,
            "exponents",
            tuple(_normal(e if type(e) is int else Fraction(e))
                  for e in self.exponents),
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def base(cls, b: BaseDim) -> "Dimension":
        """The dimension vector of a single base dimension."""
        exps = [0] * 7
        exps[int(b)] = 1
        return _make(tuple(exps))

    @classmethod
    def from_map(cls, mapping: dict[BaseDim, Fraction | int]) -> "Dimension":
        """Build a dimension from a sparse {base: exponent} mapping."""
        exps: list[int | Fraction] = [0] * 7
        for b, e in mapping.items():
            exps[int(b)] = e
        return cls(tuple(exps))

    # -- group operations --------------------------------------------------

    def combine(self, other: "Dimension") -> "Dimension":
        """Dimension of a product: componentwise exponent sum."""
        return _make(tuple(map(_normal, map(add, self.exponents,
                                            other.exponents))))

    def invert(self) -> "Dimension":
        """Dimension of a reciprocal: componentwise negation."""
        # Negation keeps the normal form, and the range is symmetric.
        return _make(tuple(map(neg, self.exponents)))

    def scale(self, factor: Fraction | int) -> "Dimension":
        """Dimension of a power: componentwise multiplication by ``factor``."""
        f = factor if type(factor) is int else Fraction(factor)
        if f.denominator == 1:
            f = f.numerator
        return _make(tuple(map(_normal, map(mul, self.exponents, repeat(f)))))

    def subtract(self, other: "Dimension") -> "Dimension":
        """Dimension of a quotient: ``self.combine(other.invert())``."""
        return self.combine(other.invert())

    # -- predicates and rendering ------------------------------------------

    @property
    def is_dimensionless(self) -> bool:
        return not any(self.exponents)

    def render(self) -> str:
        """Canonical text form, e.g. ``M L^2 T^-2`` or ``1``."""
        parts = []
        for b, symbol in _RENDER_ORDER:
            e = self.exponents[int(b)]
            if e == 0:
                continue
            if e == 1:
                parts.append(symbol)
            elif e.denominator == 1:
                parts.append(f"{symbol}^{e.numerator}")
            else:
                parts.append(f"{symbol}^{e.numerator}/{e.denominator}")
        return " ".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Dimension({self.render()!r})"


DIMENSIONLESS = _make((0,) * 7)
