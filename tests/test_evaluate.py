"""Numeric evaluation: node dispatch, domain errors, propositional truth."""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest

from physkernel.checker.evaluate import eval_numeric, eval_prop
from physkernel.dimension import DIMENSIONLESS, BaseDim, Dimension
from physkernel.errors import (
    DimensionMismatch, DomainError, UnboundVariable, UnsupportedNode,
)
from physkernel.lang.parser import parse_expression, parse_prop
from physkernel.quantity import Approx, Quantity

LENGTH = Dimension.base(BaseDim.LENGTH)
TIME = Dimension.base(BaseDim.TIME)

VARS = {"x": "Length", "t": "Time", "u": "Real"}
FNS = {"f": ("Time", "Length")}


def ev(text, db, env=None):
    e = parse_expression(text, db, VARS, FNS)
    return eval_numeric(e, env or {}, db)


def test_literals_units_prefixes(db):
    q = ev("nano(80 • coulomb)", db)
    assert q.value == Fraction(80, 10**9)
    assert q.dim == db.kind("Charge")
    assert ev("3 • meter", db).value == 3
    assert ev("milli(2.5 • meter)", db).value == Fraction(1, 400)
    assert ev("gram", db).value == Fraction(1, 1000)


def test_arithmetic_over_quantities(db):
    env = {"x": Quantity(Fraction(6), LENGTH), "t": Quantity(Fraction(2), TIME)}
    assert ev("x / t", db, env).value == 3
    assert ev("x / t", db, env).dim == db.kind("Speed")
    assert ev("x + x", db, env).value == 12
    assert ev("x - 2 • meter", db, env).value == 4
    assert ev("-x", db, env).value == -6
    assert ev("x**2", db, env).value == 36
    assert ev("2 • x", db, env).value == 12
    assert ev("val(x)", db, env) == Quantity.scalar(Fraction(6))
    assert ev("norm(-x / t)", db, env).value == 3


def test_constants_resolve_from_database(db):
    assert ev("g", db).value == Fraction(49, 5)
    assert ev("K", db).value == 9 * 10**9
    assert isinstance(ev("pi", db).value, Approx)


def test_unbound_variable_raises(db):
    with pytest.raises(UnboundVariable):
        ev("x + 1 • meter", db)
    with pytest.raises(UnboundVariable):
        ev("f(t)", db, {"t": Quantity(Fraction(1), TIME)})
    with pytest.raises(UnboundVariable):
        ev("deriv(f, t)", db, {"t": Quantity(Fraction(1), TIME)})


def test_cast_keeps_value(db):
    env = {"x": Quantity(Fraction(5), LENGTH)}
    q = ev("cast(x, Length)", db, env)
    assert q.value == 5 and q.dim == LENGTH


def test_rpow_exact_when_perfect(db):
    assert ev("rpow(27/8, 1/3)", db).value == Fraction(3, 2)
    q = ev("rpow(2, 1/2)", db)
    assert isinstance(q.value, Approx)
    assert str(q.value.value).startswith("1.41421356")


def test_a_value_past_the_exponent_range_is_a_domain_error(db):
    # exp itself, and a real power through its exp.
    for text in ("exp(10 ** 7)", "rpow(10, exp(30))"):
        with pytest.raises(DomainError, match="overflows the decimal"):
            ev(text, db)
    with pytest.raises(DomainError, match="overflows the decimal"):
        eval_prop(parse_prop("exp(10 ** 7) = 1", db, VARS, FNS), {}, db)
    assert isinstance(ev("exp(-(10 ** 7))", db).value, Approx)


def test_builtin_function_domains(db):
    assert ev("sqrt(0)", db).value == 0
    assert ev("sqrt(9/4)", db).value == Fraction(3, 2)
    log1 = ev("log(1)", db).value
    assert isinstance(log1, Approx) and log1.value == 0
    with pytest.raises(DomainError):
        ev("log(0)", db)
    with pytest.raises(DomainError):
        ev("log(-3)", db)
    e = ev("exp(1)", db).value
    assert str(e.value).startswith("2.71828182845904523536")
    s = ev("sin(0)", db).value
    assert s == 0 or (isinstance(s, Approx) and s.value == 0)
    c = ev("cos(0)", db).value
    assert c == 1 or (isinstance(c, Approx) and c.value == 1)


def test_function_argument_must_be_dimensionless(db):
    env = {"x": Quantity(Fraction(2), LENGTH)}
    with pytest.raises(DimensionMismatch):
        ev("sin(x)", db, env)
    with pytest.raises(DimensionMismatch):
        ev("x • meter", db, env)
    with pytest.raises(DimensionMismatch):
        ev("rpow(x, 2)", db, env)


def test_eval_prop_comparisons(db):
    env = {"x": Quantity(Fraction(6), LENGTH), "t": Quantity(Fraction(2), TIME)}

    def pv(text):
        return eval_prop(parse_prop(text, db, VARS, FNS), env, db)

    assert pv("x = 6 • meter") == (True, True)
    assert pv("x != 6 • meter") == (False, True)
    assert pv("val(x) <= 6") == (True, True)
    assert pv("val(x) < 6") == (False, True)
    assert pv("val(t) < val(x)") == (True, True)


def test_eval_prop_connectives(db):
    env = {"u": Quantity.scalar(Fraction(1))}

    def pv(text):
        return eval_prop(parse_prop(text, db, VARS, FNS), env, db)

    assert pv("u = 1 ∧ u < 2") == (True, True)
    assert pv("u = 1 ∧ u < 1") == (False, True)
    assert pv("u = 5 ∨ u = 1") == (True, True)
    assert pv("u = 5 -> u = 7") == (True, True)   # vacuous antecedent
    assert pv("u = 1 -> u < 0") == (False, True)


def test_eval_prop_exactness_flag(db):
    env = {"u": Quantity.scalar(Fraction(2))}

    def pv(text):
        return eval_prop(parse_prop(text, db, VARS, FNS), env, db)

    truth, exact = pv("rpow(u, 1/2) < 3/2")
    assert truth is True and exact is False
    truth, exact = pv("rpow(u, 1/2) < 7/5")
    assert truth is False and exact is False
    truth, exact = pv("u = 2 ∧ rpow(u, 1/2) < 2")
    assert truth is True and exact is False


def test_quantified_props_are_not_evaluable(db):
    p = parse_prop("forall u in {1, -1}, u * u = 1", db, VARS, FNS)
    with pytest.raises(UnsupportedNode):
        eval_prop(p, {}, db)


def test_division_by_zero_is_an_error(db):
    from physkernel.errors import DivisionByZero
    with pytest.raises(DivisionByZero):
        ev("1 / (u - u)", db, {"u": Quantity.scalar(Fraction(3))})


def test_evaluation_builds_no_decimal_context(db, monkeypatch):
    built = []
    real = decimal.Context

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(decimal, "Context", counting)
    q = ev("sin(1) + sqrt(2) * pi + log(3) + exp(1)", db)
    assert built == []
    assert q.value == Approx(Decimal(
        "9.10124804009341768042391601996618090064192240169677031545980"), 50)
