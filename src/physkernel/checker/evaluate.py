"""Numeric evaluation of expressions and quantifier-free propositions, and
the constant overrides that a statement or a run applies to a database."""

from __future__ import annotations

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
    """Evaluate ``e`` to a Quantity under the variable bindings ``env``.

    Free variables, applications, and derivatives have no numeric meaning
    and raise UnboundVariable.
    """
    db = db or builtin_database()
    return _eval(e, env, db)


_ARITH = {N.Add: Quantity.add, N.Sub: Quantity.sub, N.Mul: Quantity.mul,
          N.Div: Quantity.div}


def _eval(e: N.Expr, env, db: UnitDatabase) -> Quantity:
    op = _ARITH.get(e.__class__)
    if op is not None:
        return op(_eval(e.lhs, env, db), _eval(e.rhs, env, db))
    if isinstance(e, N.NumLit):
        return Quantity.scalar(e.value)
    if isinstance(e, N.ConstRef):
        return db.constant(e.name)
    if isinstance(e, N.Var):
        q = env.get(e.name)
        if q is None:
            raise UnboundVariable(e.name)
        return q
    if isinstance(e, N.UnitRef):
        return db.unit(e.name)
    if isinstance(e, N.StdUnit):
        if e.dim is None:
            raise ParseError("'std' was not resolved to a dimension here",
                             span=e.span)
        return Quantity(Fraction(1), e.dim)
    if isinstance(e, N.PrefixApp):
        return _eval(e.arg, env, db).smul(db.prefix(e.prefix))
    if isinstance(e, N.Neg):
        return _eval(e.arg, env, db).neg()
    if isinstance(e, N.SMul):
        scalar = _eval(e.scalar, env, db)
        if not scalar.dim.is_dimensionless:
            raise DimensionMismatch(DIMENSIONLESS, scalar.dim,
                                    "scalar position of •")
        return _eval(e.arg, env, db).smul(scalar.value)
    if isinstance(e, N.Pow):
        return _eval(e.base, env, db).pow(e.exponent)
    if isinstance(e, N.RPow):
        base = _eval(e.base, env, db)
        exponent = _eval(e.exponent, env, db)
        for part, where in ((base, "base"), (exponent, "exponent")):
            if not part.dim.is_dimensionless:
                raise DimensionMismatch(DIMENSIONLESS, part.dim,
                                        f"{where} of a real power")
        if isinstance(exponent.value, Fraction):
            return Quantity.scalar(_num_pow(base.value, exponent.value))
        d = _to_decimal(base.value)
        if d <= 0:
            raise DomainError(
                "an approximate exponent requires a positive base")
        return Quantity.scalar(_approx(
            _DEC.multiply(exponent.value.value, _DEC.ln(d)).exp(_DEC)))
    if isinstance(e, N.Cast):
        return _eval(e.arg, env, db).cast(db.kind(e.kind))
    if isinstance(e, N.Val):
        return Quantity.scalar(_eval(e.arg, env, db).val())
    if isinstance(e, N.Norm):
        return Quantity.scalar(_eval(e.arg, env, db).norm())
    if isinstance(e, N.Fn):
        arg = _eval(e.arg, env, db)
        if not arg.dim.is_dimensionless:
            raise DimensionMismatch(DIMENSIONLESS, arg.dim,
                                    f"argument of {e.fn}")
        return Quantity.scalar(_eval_fn(e.fn, arg.value))
    if isinstance(e, (N.Apply, N.Deriv)):
        raise UnboundVariable(e.fn)
    raise UnsupportedNode(f"cannot evaluate node {type(e).__name__}")


def eval_prop(p: N.Prop, env: Mapping[str, Quantity],
              db: UnitDatabase | None = None) -> tuple[bool, bool]:
    """Truth of a quantifier-free proposition under ``env``.

    Returns ``(truth, exact)`` where ``exact`` means every comparison that
    the verdict rests on was decided exactly.  Quantified propositions raise
    UnsupportedNode.
    """
    db = db or builtin_database()
    return _eval_prop(p, env, db)


# Truth of a comparison from the comparison of its sides, and of a
# connective from the truth of its sides.
_COMPARE = {N.Eq: lambda c: c.equal, N.Ne: lambda c: not c.equal,
            N.Le: lambda c: c.sign <= 0, N.Lt: lambda c: c.sign < 0}
_CONNECT = {N.And: lambda a, b: a and b, N.Or: lambda a, b: a or b,
            N.Implies: lambda a, b: not a or b}


def _eval_prop(p, env, db) -> tuple[bool, bool]:
    """A connective evaluates both sides; it is exact when both are."""
    truth = _COMPARE.get(p.__class__)
    if truth is not None:
        cmp = _eval(p.lhs, env, db).compare(_eval(p.rhs, env, db))
        return truth(cmp), cmp.exact
    truth = _CONNECT.get(p.__class__)
    if truth is not None:
        lt, le = _eval_prop(p.lhs, env, db)
        rt, re_ = _eval_prop(p.rhs, env, db)
        return truth(lt, rt), le and re_
    raise UnsupportedNode(
        f"cannot numerically evaluate a {type(p).__name__} proposition")


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
