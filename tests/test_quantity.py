"""Quantity arithmetic against plain-Fraction oracles.

The core property is the val-homomorphism: stripping dimensions commutes
with every arithmetic operation, so Quantity arithmetic restricted to
exact values must agree with Python's Fraction arithmetic computed
independently.
"""

import decimal
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from physkernel.dimension import DIMENSIONLESS, BaseDim, Dimension
from physkernel.errors import DimensionMismatch, DivisionByZero, InvalidCast
from physkernel.quantity import (GUARD_DIGITS, PRECISION, Approx, Quantity,
                                 compare_values, dec_cos, dec_pi, dec_sin,
                                 _PI_DIGITS, _iroot, _num_pow)

N_HOMOMORPHISM_CASES = 1200

LEN = Dimension.from_map({BaseDim.LENGTH: Fraction(1)})
TIME = Dimension.from_map({BaseDim.TIME: Fraction(1)})


def rand_frac(rng, zero_ok=True):
    n = rng.randint(-50, 50)
    if not zero_ok and n == 0:
        n = 7
    return Fraction(n, rng.randint(1, 30))


def test_val_homomorphism_bulk():
    rng = random.Random(99173)
    for case in range(N_HOMOMORPHISM_CASES):
        x, y = rand_frac(rng), rand_frac(rng, zero_ok=False)
        qx, qy = Quantity(x, LEN), Quantity(y, LEN)
        assert qx.add(qy).val() == x + y
        assert qx.sub(qy).val() == x - y
        assert qx.neg().val() == -x
        assert qx.mul(qy).val() == x * y
        assert qx.div(qy).val() == x / y
        k = rng.randint(-3, 3)
        if x != 0 or k >= 0:
            assert qx.pow(k).val() == x ** k
        s = rand_frac(rng)
        assert qx.smul(s).val() == s * x
        # dimensions track the operations
        assert qx.mul(qy).dim == LEN.combine(LEN)
        assert qx.div(qy).dim == DIMENSIONLESS
        # every result above stayed exact
        assert isinstance(qx.add(qy).value, Fraction)
        assert isinstance(qx.mul(qy).value, Fraction)


def test_addition_requires_matching_dimensions():
    with pytest.raises(DimensionMismatch):
        Quantity(Fraction(1), LEN).add(Quantity(Fraction(1), TIME))


def test_division_by_zero_rejected():
    with pytest.raises(DivisionByZero):
        Quantity(Fraction(1), LEN).div(Quantity(Fraction(0), TIME))
    with pytest.raises(DivisionByZero):
        Quantity(Fraction(0), DIMENSIONLESS).pow(-1)


def test_cast_is_identity_on_value():
    q = Quantity(Fraction(3, 7), LEN)
    assert q.cast(LEN).val() == Fraction(3, 7)
    with pytest.raises(InvalidCast):
        q.cast(TIME)


def test_iroot_exact_and_inexact():
    assert _iroot(27, 3) == (3, True)
    assert _iroot(1024, 10) == (2, True)
    root, exact = _iroot(10, 2)
    assert not exact and root == 3


def test_pow_perfect_roots_stay_exact():
    q = Quantity(Fraction(27, 8), DIMENSIONLESS)
    r = q.pow(Fraction(1, 3))
    assert isinstance(r.value, Fraction) and r.val() == Fraction(3, 2)
    # non-perfect roots degrade to tracked decimals
    r2 = Quantity(Fraction(2), DIMENSIONLESS).pow(Fraction(1, 2))
    assert not isinstance(r2.value, Fraction)


def test_pow_negative_base_integer_exponent_ok():
    q = Quantity(Fraction(-2), DIMENSIONLESS)
    assert q.pow(3).val() == Fraction(-8)
    with pytest.raises(Exception):
        _num_pow(Fraction(-2), Fraction(1, 2))


def test_trig_against_mpmath():
    mpmath.mp.dps = PRECISION + 10
    for arg in (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(10),
                Fraction(355, 113)):
        got_sin = dec_sin(arg).value
        got_cos = dec_cos(arg).value
        want_sin = Decimal(mpmath.nstr(mpmath.sin(mpmath.mpf(arg.numerator)
                                                  / arg.denominator),
                                       PRECISION))
        want_cos = Decimal(mpmath.nstr(mpmath.cos(mpmath.mpf(arg.numerator)
                                                  / arg.denominator),
                                       PRECISION))
        assert abs(got_sin - want_sin) < Decimal("1e-45")
        assert abs(got_cos - want_cos) < Decimal("1e-45")


def test_pi_against_mpmath():
    mpmath.mp.dps = 60
    want = Decimal(mpmath.nstr(mpmath.pi, 52))
    assert abs(dec_pi() - want) < Decimal("1e-48")


def test_pi_table_covers_the_working_precision():
    digits = Decimal(_PI_DIGITS).as_tuple().digits
    assert len(digits) >= PRECISION + GUARD_DIGITS


def test_compare_values_semantics():
    exact_eq = compare_values(Fraction(1, 3), Fraction(1, 3))
    assert exact_eq.equal and exact_eq.exact
    ne = compare_values(Fraction(1, 3), Fraction(1, 2))
    assert not ne.equal and ne.sign < 0
    # approximate comparison never refutes within tolerance
    a = Approx(Decimal("1.00000000000000000000000000000000000001"), 40)
    b = Approx(Decimal("1"), 40)
    c = compare_values(a, b)
    assert c.equal and not c.exact


def test_zero_scale_comparison_is_equal():
    a = Approx(Decimal("0"), 50)
    assert compare_values(a, Fraction(0)).equal


def test_render():
    q = Quantity(Fraction(3, 2), LEN)
    assert "L" in q.render()
    assert "3/2" in q.render()
