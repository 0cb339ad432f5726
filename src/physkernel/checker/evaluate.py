"""Numeric evaluation of expressions and quantifier-free propositions, and
the constant overrides that a statement or a run applies to a database."""

from __future__ import annotations

from decimal import Overflow
from fractions import Fraction
from typing import Mapping

from ..dimension import DIMENSIONLESS
from ..errors import (
    DimensionMismatch, DomainError, ParseError, UnboundVariable,
    UnsupportedNode,
)
from ..lang import nodes as N
from ..quantity import (
    _DEC, Quantity, _approx, _num_pow, _to_decimal, dec_cos, dec_sin,
)
from ..unitdb import UnitDatabase, builtin_database


def _eval_fn(name: str, v):
    if name == "sin":
        return dec_sin(v)
    if name == "cos":
        return dec_cos(v)
    if name == "sqrt":
        if (v == 0) if isinstance(v, Fraction) else (v.value == 0):
            return Fraction(0)
        return _num_pow(v, Fraction(1, 2))
    d = _to_decimal(v)
    if name == "log":
        if d <= 0:
            raise DomainError(f"log of a non-positive value ({d})")
        return _approx(_DEC.ln(d))
    if name == "exp":
        return _approx(_DEC.exp(d))
    raise UnsupportedNode(f"unknown builtin function '{name}'")


def eval_numeric(e: N.Expr, env: Mapping[str, Quantity],
                 db: UnitDatabase | None = None) -> Quantity:
    """Evaluate ``e`` to a Quantity under the variable values ``env``.

    Free variables, applications, and derivatives have no numeric meaning
    and raise UnboundVariable.  A value past the decimal exponent range
    raises DomainError.
    """
    try:
        return N.fold(e, _eval_rules(env, db or builtin_database()),
                      _EVAL_PRE)
    except Overflow:
        raise DomainError(_OVERFLOW) from None


_OVERFLOW = f"a value overflows the decimal exponent range (1e{_DEC.Emax})"


# -- the fold rules of eval_numeric: a node and its children's values ----------


def _std(e: N.StdUnit) -> Quantity:
    if e.dim is None:
        raise ParseError("'std' was not resolved to a dimension here",
                         span=e.span)
    return Quantity(Fraction(1), e.dim)


def _dimensionless(q: Quantity, where: str) -> Quantity:
    if not q.dim.is_dimensionless:
        raise DimensionMismatch(DIMENSIONLESS, q.dim, where)
    return q


def _rpow(e: N.RPow, base: Quantity, exponent: Quantity) -> Quantity:
    _dimensionless(base, "base of a real power")
    _dimensionless(exponent, "exponent of a real power")
    if isinstance(exponent.value, Fraction):
        return Quantity.scalar(_num_pow(base.value, exponent.value))
    d = _to_decimal(base.value)
    if d <= 0:
        raise DomainError("an approximate exponent requires a positive base")
    return Quantity.scalar(_approx(
        _DEC.multiply(exponent.value.value, _DEC.ln(d)).exp(_DEC)))


def _unbound(e):
    raise UnboundVariable(e.fn)


_RULES = {
    N.Add: lambda e, a, b: a.add(b), N.Sub: lambda e, a, b: a.sub(b),
    N.Mul: lambda e, a, b: a.mul(b), N.Div: lambda e, a, b: a.div(b),
    N.NumLit: lambda e: Quantity.scalar(e.value),
    N.StdUnit: _std,
    N.Neg: lambda e, arg: arg.neg(),
    N.SMul: ("scalar", lambda e, q: _dimensionless(q, "scalar position of •"),
             "arg", lambda e, scalar, arg: arg.smul(scalar.value)),
    N.Pow: lambda e, base: base.pow(e.exponent),
    N.RPow: _rpow,
    N.Val: lambda e, arg: Quantity.scalar(arg.val()),
    N.Norm: lambda e, arg: Quantity.scalar(arg.norm()),
    N.Fn: lambda e, arg: Quantity.scalar(_eval_fn(
        e.fn, _dimensionless(arg, f"argument of {e.fn}").value)),
}
# An application or a derivative raises without evaluating its argument.
_EVAL_PRE = {N.Apply: _unbound, N.Deriv: _unbound}


def _eval_rules(env: Mapping[str, Quantity], db: UnitDatabase) -> dict:
    """The rules of ``eval_numeric`` under ``env`` and ``db``."""

    def var(e):
        q = env.get(e.name)
        if q is None:
            raise UnboundVariable(e.name)
        return q

    rules = _RULES.copy()
    rules[N.Var] = var
    rules[N.ConstRef] = lambda e: db.constant(e.name)
    rules[N.UnitRef] = lambda e: db.unit(e.name)
    rules[N.PrefixApp] = lambda e, arg: arg.smul(db.prefix(e.prefix))
    rules[N.Cast] = lambda e, arg: arg.cast(db.kind(e.kind))
    return rules


def eval_prop(p: N.Prop, env: Mapping[str, Quantity],
              db: UnitDatabase | None = None) -> tuple[bool, bool]:
    """Truth of a quantifier-free proposition under ``env``.

    Returns ``(truth, exact)`` where ``exact`` means every comparison that
    the verdict rests on was decided exactly.  Quantified propositions raise
    UnsupportedNode.  A connective evaluates both sides; it is exact when
    both are.  A value past the decimal exponent range raises DomainError.
    """
    rules = _eval_rules(env, db or builtin_database())

    def compare(c):
        cmp = N.fold(c.lhs, rules, _EVAL_PRE).compare(
            N.fold(c.rhs, rules, _EVAL_PRE))
        return _COMPARE[c.__class__](cmp), cmp.exact

    def quantified(q):
        raise UnsupportedNode(
            f"cannot numerically evaluate a {type(q).__name__} proposition")

    try:
        return N.fold(p, _CONNECT, {
            **dict.fromkeys(_COMPARE, compare),
            N.ForallFn: quantified, N.ForallFinite: quantified})
    except Overflow:
        raise DomainError(_OVERFLOW) from None


# Truth of a comparison from the comparison of its sides, and (truth,
# exact) of a connective from those of its sides.  An FnEq is read as an
# Eq, whose function-variable sides raise UnboundVariable.
_COMPARE = {N.Eq: lambda c: c.equal, N.Ne: lambda c: not c.equal,
            N.Le: lambda c: c.sign <= 0, N.Lt: lambda c: c.sign < 0}
_COMPARE[N.FnEq] = _COMPARE[N.Eq]
_CONNECT = {
    N.And: lambda p, a, b: (a[0] and b[0], a[1] and b[1]),
    N.Or: lambda p, a, b: (a[0] or b[0], a[1] and b[1]),
    N.Implies: lambda p, a, b: (not a[0] or b[0], a[1] and b[1]),
}


# -- statement-level constant overrides --------------------------------------------


def with_overrides(db: UnitDatabase,
                   pairs: tuple[tuple[str, N.Expr], ...]) -> UnitDatabase:
    """``db`` with the ``(name, expr)`` constant overrides applied.

    Each expression is evaluated against ``db``.  Overriding a fixed constant
    such as π raises ParseError at that override's expression.
    """
    overrides: dict[str, Quantity] = {}
    for name, expr in pairs:
        existing = db.constants.get(name)
        if existing is not None and not existing.overridable:
            raise ParseError(f"constant '{name}' is not overridable",
                             span=expr.span)
        overrides[name] = eval_numeric(expr, {}, db)
    return db.with_constants(overrides)


def database_for(stmt: N.Statement,
                 db: UnitDatabase | None = None) -> UnitDatabase:
    """The unit database with the statement's constant overrides applied."""
    return with_overrides(db or builtin_database(), stmt.constants)
