"""Dimensioned quantities over a two-tier exact/approximate numeric tower.

Numeric values come in exactly two tiers:

* **Exact** — :class:`fractions.Fraction`, arbitrary precision. Addition,
  subtraction, multiplication, division, and integer powers of exact values
  are exact, bit-for-bit reproducible, and never silently degrade.
* **Approx** — :class:`Approx`, a :class:`decimal.Decimal` carried together
  with the precision (significant digits) it was computed at.  Only
  operations without an exact representable result (non-perfect rational
  roots, logarithms, exponentials, trigonometry) produce this tier, and once
  a computation touches it the result stays approximate.

Floats are never used in semantics.  The approximate tier has one fixed
setting: ``PRECISION`` (50) significant digits, and comparisons involving it
are decided at the relative tolerance ``REL_TOL`` (10^-30) and report
themselves as tolerance-based so callers can distinguish exact decisions from
approximate ones.

A :class:`Quantity` pairs a numeric value with an exact
:class:`~physkernel.dimension.Dimension`.  Additive operations require equal
dimensions, multiplicative ones combine them, powers scale them, and ``cast``
re-types a value only between equal dimensions.  Division by a zero quantity
is an error (:class:`~physkernel.errors.DivisionByZero`); this package does
not adopt the total-division convention (x / 0 = 0) of some proof assistants.
"""

from __future__ import annotations

import decimal
import operator
from decimal import Decimal
from fractions import Fraction
from typing import Union

from .dimension import DIMENSIONLESS, Dimension
from .errors import (
    DimensionMismatch,
    DivisionByZero,
    InvalidCast,
    NegativeBaseRationalExponent,
)
from .record import record

__all__ = [
    "Approx",
    "NumericValue",
    "PRECISION",
    "REL_TOL",
    "NumComparison",
    "Quantity",
    "compare_values",
    "render_numeric",
    "dec_sin",
    "dec_cos",
    "dec_pi",
]

#: Significant digits of every approximate value (``Approx.precision``).
PRECISION = 50
#: Extra digits each decimal operation carries beyond ``PRECISION``.
GUARD_DIGITS = 10
#: Relative tolerance within which approximate values compare equal.
REL_TOL = Fraction(1, 10**30)

# The one context every decimal operation rounds in, built once.  Operations
# only write its status flags, which nothing reads, and its traps are those
# of a fresh Context.
_DEC = decimal.Context(prec=PRECISION + GUARD_DIGITS)

# 111 significant digits of pi, at least PRECISION + GUARD_DIGITS; the test
# suite checks that count and validates the digits against an oracle.
_PI_DIGITS = (
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798214808651"
)


@record(frozen=True)
class Approx:
    """An approximate numeric value: a Decimal plus its precision in digits."""

    value: Decimal
    precision: int

    def __post_init__(self):
        if not isinstance(self.value, Decimal):
            object.__setattr__(self, "value", Decimal(self.value))

    def __str__(self) -> str:
        return f"~{self.value}"


NumericValue = Union[Fraction, Approx]


def dec_pi() -> Decimal:
    """Pi at the working precision (from a frozen digit table)."""
    return _DEC.plus(Decimal(_PI_DIGITS))


def _to_decimal(v: NumericValue) -> Decimal:
    if isinstance(v, Approx):
        return _DEC.plus(v.value)
    return _DEC.divide(Decimal(v.numerator), Decimal(v.denominator))


def _approx(d: Decimal) -> Approx:
    return Approx(d, PRECISION)


def _is_zero(v: NumericValue) -> bool:
    return v.value == 0 if isinstance(v, Approx) else v == 0


def render_numeric(v: NumericValue | int) -> str:
    """Human-readable value: exact rationals plainly, approximations with ~."""
    if isinstance(v, Approx):
        return f"~{v.value.normalize()}"
    if v.denominator == 1:
        return _int_text(v.numerator)
    return f"{_int_text(v.numerator)}/{_int_text(v.denominator)}"


def _int_text(n: int) -> str:
    """``str(n)``, or the size of ``n`` where it has more digits than the
    interpreter converts to text (``sys.get_int_max_str_digits``)."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


# ---------------------------------------------------------------------------
# numeric arithmetic over the two tiers
# ---------------------------------------------------------------------------

def _num_binop(a: NumericValue, b: NumericValue, exact, approx
               ) -> NumericValue:
    """``exact(a, b)`` of two exact values; otherwise ``approx``, an
    operation of ``_DEC``, of their decimal forms."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return exact(a, b)
    return _approx(approx(_to_decimal(a), _to_decimal(b)))


def _num_neg(a: NumericValue) -> NumericValue:
    if isinstance(a, Approx):
        # copy_negate is exact; bare -a.value would round through the
        # global decimal context.
        return Approx(a.value.copy_negate(), a.precision)
    return -a


def _num_abs(a: NumericValue) -> NumericValue:
    if isinstance(a, Approx):
        return Approx(a.value.copy_abs(), a.precision)
    return abs(a)


def _iroot(x: int, n: int) -> tuple[int, bool]:
    """Largest integer r with r**n <= x, and whether r**n == x (x >= 0)."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or n == 1:
        return x, True
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r, r ** n == x


def _dec_pow(base: NumericValue, exponent: Fraction) -> Approx:
    """base**exponent via exp(exponent * ln(base)); base must be positive."""
    db = _to_decimal(base)
    de = _DEC.divide(Decimal(exponent.numerator), Decimal(exponent.denominator))
    return _approx(_DEC.multiply(de, _DEC.ln(db)).exp(_DEC))


def _num_pow(a: NumericValue, e: Fraction) -> NumericValue:
    if e.denominator == 1:
        n = e.numerator
        if n < 0 and _is_zero(a):
            raise DivisionByZero("zero base with a negative exponent")
        if isinstance(a, Fraction):
            return a ** n
        return _approx(_DEC.power(a.value, Decimal(n)))
    # Non-integer exponent: the base must be strictly positive.
    negative = a.value <= 0 if isinstance(a, Approx) else a <= 0
    if negative:
        raise NegativeBaseRationalExponent(
            f"cannot raise non-positive base {render_numeric(a)} "
            f"to the non-integer power {e}"
        )
    if isinstance(a, Fraction):
        # Try for an exact perfect root before degrading to Approx.
        rn, ok_n = _iroot(a.numerator, e.denominator)
        if ok_n:
            rd, ok_d = _iroot(a.denominator, e.denominator)
            if ok_d:
                return Fraction(rn, rd) ** e.numerator
    return _dec_pow(a, e)


@record(frozen=True)
class NumComparison:
    """Outcome of comparing two numeric values.

    ``exact`` is True when both operands were exact, in which case ``equal``
    and ``sign`` are ground truth.  Otherwise the comparison was decided at
    the relative tolerance ``REL_TOL``: values within tolerance compare equal
    (sign 0), and the ordering of values beyond tolerance is trusted.
    """

    exact: bool
    equal: bool
    sign: int  # sign of (a - b); 0 exactly when equal


def compare_values(a: NumericValue, b: NumericValue) -> NumComparison:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        s = 0 if a == b else (-1 if a < b else 1)
        return NumComparison(exact=True, equal=(s == 0), sign=s)
    da, db = _to_decimal(a), _to_decimal(b)
    diff = _DEC.subtract(da, db).copy_abs()
    scale = max(da.copy_abs(), db.copy_abs())
    if scale == 0:
        return NumComparison(exact=False, equal=True, sign=0)
    tol = _DEC.multiply(_to_decimal(REL_TOL), scale)
    if diff <= tol:
        return NumComparison(exact=False, equal=True, sign=0)
    return NumComparison(exact=False, equal=False, sign=-1 if da < db else 1)


# ---------------------------------------------------------------------------
# decimal trigonometry (argument reduction + Taylor series)
# ---------------------------------------------------------------------------

def _dec_reduce(x: Decimal) -> Decimal:
    """Reduce x into (-pi, pi] modulo 2*pi."""
    pi = dec_pi()
    two_pi = _DEC.multiply(Decimal(2), pi)
    n = _DEC.divide_int(x, two_pi)
    r = _DEC.subtract(x, _DEC.multiply(n, two_pi))
    if r > pi:
        r = _DEC.subtract(r, two_pi)
    elif r <= -pi:
        r = _DEC.add(r, two_pi)
    return r


def _dec_series(x: Decimal, odd: int) -> Decimal:
    """The Taylor series of sin(x) (``odd`` = 1) or cos(x) (``odd`` = 0),
    summed until a term no longer changes the total."""
    total = term = x if odd else Decimal(1)
    i = 1
    neg_x2 = _DEC.multiply(x, x).copy_negate()
    while True:
        term = _DEC.divide(_DEC.multiply(term, neg_x2),
                           Decimal((2 * i - 1 + odd) * (2 * i + odd)))
        new_total = _DEC.add(total, term)
        if new_total == total:
            return total
        total = new_total
        i += 1


def dec_sin(v: NumericValue) -> Approx:
    return _approx(_dec_series(_dec_reduce(_to_decimal(v)), 1))


def dec_cos(v: NumericValue) -> Approx:
    return _approx(_dec_series(_dec_reduce(_to_decimal(v)), 0))


# ---------------------------------------------------------------------------
# quantities
# ---------------------------------------------------------------------------

@record(frozen=True)
class Quantity:
    """A numeric value paired with an exact dimension vector."""

    value: NumericValue
    dim: Dimension

    def __post_init__(self):
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def scalar(cls, value: NumericValue | int) -> "Quantity":
        return cls(Fraction(value) if isinstance(value, int) else value,
                   DIMENSIONLESS)

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.value)

    # -- additive ----------------------------------------------------------

    def add(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise DimensionMismatch(self.dim, other.dim, "addition")
        return Quantity(_num_binop(self.value, other.value, operator.add,
                                   _DEC.add), self.dim)

    def sub(self, other: "Quantity") -> "Quantity":
        if self.dim != other.dim:
            raise DimensionMismatch(self.dim, other.dim, "subtraction")
        return Quantity(_num_binop(self.value, other.value, operator.sub,
                                   _DEC.subtract), self.dim)

    def neg(self) -> "Quantity":
        return Quantity(_num_neg(self.value), self.dim)

    # -- multiplicative -----------------------------------------------------

    def mul(self, other: "Quantity") -> "Quantity":
        return Quantity(_num_binop(self.value, other.value, operator.mul,
                                   _DEC.multiply),
                        self.dim.combine(other.dim))

    def div(self, other: "Quantity") -> "Quantity":
        if other.is_zero:
            raise DivisionByZero("division by a zero quantity")
        return Quantity(_num_binop(self.value, other.value, operator.truediv,
                                   _DEC.divide),
                        self.dim.combine(other.dim.invert()))

    def smul(self, scalar: NumericValue | int) -> "Quantity":
        """Scale by a dimensionless numeric value."""
        s = Fraction(scalar) if isinstance(scalar, int) else scalar
        return Quantity(_num_binop(s, self.value, operator.mul,
                                   _DEC.multiply), self.dim)

    def pow(self, exponent: Fraction | int) -> "Quantity":
        e = Fraction(exponent)
        return Quantity(_num_pow(self.value, e), self.dim.scale(e))

    # -- retyping and projections -------------------------------------------

    def cast(self, target: Dimension) -> "Quantity":
        """Re-type to an equal dimension; the numeric value is untouched."""
        if self.dim != target:
            raise InvalidCast(self.dim, target)
        return Quantity(self.value, target)

    def val(self) -> NumericValue:
        """The underlying numeric value, forgetting the dimension."""
        return self.value

    def norm(self) -> NumericValue:
        """Absolute value of the underlying numeric value."""
        return _num_abs(self.value)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "Quantity") -> NumComparison:
        if self.dim != other.dim:
            raise DimensionMismatch(self.dim, other.dim, "comparison")
        return compare_values(self.value, other.value)

    # -- operator sugar -------------------------------------------------------

    __add__, __sub__, __neg__ = add, sub, neg
    __mul__, __truediv__, __pow__ = mul, div, pow

    def render(self) -> str:
        if self.dim.is_dimensionless:
            return render_numeric(self.value)
        return f"{render_numeric(self.value)} [{self.dim.render()}]"

    def __str__(self) -> str:
        return self.render()
