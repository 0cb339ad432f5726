"""AST node types for the statement language.

Expression nodes (:class:`Expr`) denote dimensioned quantities; proposition
nodes (:class:`Prop`) denote claims about them.  Every node carries a source
:class:`Span` for diagnostics; spans are ignored by structural equality
(:func:`ast_eq`), so two differently-spaced parses of the same text compare
equal.  Nodes are immutable; rewriting builds new trees.  Each node class
records its field names once (``_fields``, without ``span``), and the
traversals here and in :mod:`physkernel.checker.rewrite` read that tuple
instead of asking :mod:`dataclasses` per node.  A node caches its set of
free variables on first use (:func:`physkernel.checker.rewrite.free_vars`);
being frozen, it cannot make the cache stale, and the cache is no field, so
building a changed copy never carries it over.

A :class:`Statement` is a named theorem: declarations (variables with kinds,
or function variables with arrow kinds), named hypotheses, and one goal,
optionally tagged with benchmark metadata (level, topic, source citation,
constant overrides) when it came from a corpus file.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

__all__ = [
    "Span", "DUMMY_SPAN", "Expr", "Prop",
    "NumLit", "ConstRef", "Var", "UnitRef", "StdUnit", "PrefixApp",
    "Add", "Sub", "Mul", "Div", "Neg", "SMul", "Pow", "RPow",
    "Cast", "Val", "Norm", "Fn", "Apply", "Deriv",
    "Eq", "Le", "Lt", "Ne", "And", "Or", "Implies",
    "ForallFinite", "ForallFn",
    "VarDecl", "FnDecl", "Statement",
    "ast_eq", "walk", "children", "FN_NAMES",
]

FN_NAMES = ("sin", "cos", "log", "exp", "sqrt")


@dataclass(frozen=True)
class Span:
    """Byte offsets into the source text, plus the start line/column."""

    start: int
    end: int
    line: int = 1
    col: int = 1


DUMMY_SPAN = Span(0, 0)


class Node:
    """Common base for expression and proposition nodes."""

    __slots__ = ()


class Expr(Node):
    __slots__ = ()


class Prop(Node):
    __slots__ = ()


def _node(cls):
    """Decorator: frozen dataclass with identity equality (use ast_eq).

    Stores the field names without ``span`` as ``_fields`` (what
    :func:`children` and rewriting visit and what rebuilds a node) and,
    of those, the ones structural equality compares as ``_syntax``.
    """
    cls = dataclass(frozen=True, eq=False)(cls)
    names = [f for f in dataclasses.fields(cls) if f.name != "span"]
    cls._fields = tuple(f.name for f in names)
    cls._syntax = tuple(f.name for f in names if f.compare)
    return cls


# -- expression leaves -------------------------------------------------------

@_node
class NumLit(Expr):
    """An exact rational literal (decimal source forms are exact rationals)."""

    value: Fraction
    span: Span = DUMMY_SPAN


@_node
class ConstRef(Expr):
    name: str
    span: Span = DUMMY_SPAN


@_node
class Var(Expr):
    name: str
    span: Span = DUMMY_SPAN


@_node
class UnitRef(Expr):
    name: str
    span: Span = DUMMY_SPAN


@_node
class StdUnit(Expr):
    """``std``: the unit quantity at a dimension inferred from context.

    ``dim`` is filled by the resolution pass; it is deliberately excluded
    from structural equality, which compares syntax.
    """

    # Dimension | None; kept loose to avoid an import cycle.
    dim: object = field(default=None, compare=False)
    span: Span = DUMMY_SPAN


# -- expression structure ----------------------------------------------------

@_node
class PrefixApp(Expr):
    prefix: str
    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class Add(Expr):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Sub(Expr):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Mul(Expr):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Div(Expr):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Neg(Expr):
    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class SMul(Expr):
    """Scalar multiple: a dimensionless scalar expression times a quantity."""

    scalar: Expr
    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class Pow(Expr):
    """Power with a literal rational exponent."""

    base: Expr
    exponent: Fraction
    span: Span = DUMMY_SPAN


@_node
class RPow(Expr):
    """Real power: dimensionless base raised to a dimensionless expression."""

    base: Expr
    exponent: Expr
    span: Span = DUMMY_SPAN


@_node
class Cast(Expr):
    """Re-type a value to a named kind of equal dimension."""

    arg: Expr
    kind: str
    span: Span = DUMMY_SPAN


@_node
class Val(Expr):
    """The dimensionless numeric value of a quantity."""

    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class Norm(Expr):
    """The dimensionless absolute numeric value of a quantity."""

    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class Fn(Expr):
    """A built-in transcendental function (sin/cos/log/exp/sqrt)."""

    fn: str
    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class Apply(Expr):
    """Application of a declared function variable."""

    fn: str
    arg: Expr
    span: Span = DUMMY_SPAN


@_node
class Deriv(Expr):
    """Derivative of a declared function variable, taken at a point."""

    fn: str
    at: Expr
    span: Span = DUMMY_SPAN


# -- propositions ------------------------------------------------------------

@_node
class Eq(Prop):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Le(Prop):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Lt(Prop):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class Ne(Prop):
    lhs: Expr
    rhs: Expr
    span: Span = DUMMY_SPAN


@_node
class And(Prop):
    lhs: Prop
    rhs: Prop
    span: Span = DUMMY_SPAN


@_node
class Or(Prop):
    lhs: Prop
    rhs: Prop
    span: Span = DUMMY_SPAN


@_node
class Implies(Prop):
    lhs: Prop
    rhs: Prop
    span: Span = DUMMY_SPAN


@_node
class ForallFinite(Prop):
    """Quantification of a dimensionless variable over a finite value list."""

    var: str
    values: tuple[Fraction, ...]
    body: Prop
    span: Span = DUMMY_SPAN


@_node
class ForallFn(Prop):
    """Quantification over all values of a function's argument kind."""

    var: str
    body: Prop
    kind_annot: str | None = None
    span: Span = DUMMY_SPAN


# -- statements ---------------------------------------------------------------

@_node
class VarDecl:
    name: str
    kind: str
    span: Span = DUMMY_SPAN


@_node
class FnDecl:
    name: str
    arg_kind: str
    result_kind: str
    span: Span = DUMMY_SPAN


@_node
class Statement:
    name: str
    decls: tuple[Union[VarDecl, FnDecl], ...]
    hyps: tuple[tuple[str, Prop], ...]
    goal: Prop
    level: str | None = None
    topic: str | None = None
    source: str | None = None
    constants: tuple[tuple[str, Expr], ...] = ()
    span: Span = DUMMY_SPAN


# -- structural helpers --------------------------------------------------------

def ast_eq(a, b) -> bool:
    """Structural equality of AST values, ignoring source spans."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    names = getattr(type(a), "_syntax", None)
    if names is not None:
        return all(ast_eq(getattr(a, f), getattr(b, f)) for f in names)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(ast_eq, a, b))
    return a == b


def children(node) -> Iterator:
    """Direct child AST nodes of a node (fields that are nodes)."""
    for name in node._fields:
        v = getattr(node, name)
        if isinstance(v, Node):
            yield v
        elif isinstance(v, tuple):
            for item in v:
                if isinstance(item, Node):
                    yield item
                elif (isinstance(item, tuple) and len(item) == 2
                      and isinstance(item[1], Node)):
                    yield item[1]


def walk(node) -> Iterator:
    """All nodes in the subtree rooted at ``node``, preorder.

    An explicit stack, so the cost is linear in the number of nodes and a
    deep tree cannot exhaust the recursion limit.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed([*children(node)]))
