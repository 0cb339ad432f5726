"""AST node types for the statement language.

Expression nodes (:class:`Expr`) denote dimensioned quantities; proposition
nodes (:class:`Prop`) denote claims about them.  A declared function
variable is no quantity: it appears applied (:class:`Apply`), under
:class:`Deriv`, or bare as a side of :class:`FnEq`, the equality of two
function variables, which the parser builds.  Every node carries a source
:class:`Span` for diagnostics; spans are ignored by structural equality
(:func:`ast_eq`), so two differently-spaced parses of the same text compare
equal.  Nodes are immutable; rewriting builds new trees.  Each node class
records its field names once (``_fields``, without ``span``) and, among
them, the fields that hold child nodes (``_children``), so a walk reads a
tuple instead of inspecting the class per node.  A node caches its set of
free variables on first use (:func:`physkernel.checker.rewrite.free_vars`);
being frozen, it cannot make the cache stale, and the cache is no field, so
building a changed copy never carries it over.

:func:`fold` is the one walk that computes over a tree: every pass is a
table of rules over it, and its explicit stack makes depth cost no
recursion.  :func:`walk` (every node, preorder) and :func:`ast_eq` (two
trees side by side) are the other two walks.

A :class:`Statement` is a named theorem: declarations (variables with kinds,
or function variables with arrow kinds), named hypotheses, and one goal,
optionally tagged with benchmark metadata (level, topic, source citation,
constant overrides) when it came from a corpus file.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

from ..record import record

__all__ = [
    "Span", "DUMMY_SPAN", "Expr", "Prop",
    "NumLit", "ConstRef", "Var", "UnitRef", "StdUnit", "PrefixApp",
    "Add", "Sub", "Mul", "Div", "Neg", "SMul", "Pow", "RPow",
    "Cast", "Val", "Norm", "Fn", "Apply", "Deriv",
    "Eq", "Le", "Lt", "Ne", "FnEq", "And", "Or", "Implies",
    "ForallFinite", "ForallFn",
    "VarDecl", "FnDecl", "Statement",
    "ast_eq", "walk", "children", "fold", "NODES", "FN_NAMES", "BINARY",
    "COMPARISONS",
]

FN_NAMES = ("sin", "cos", "log", "exp", "sqrt")


@record(frozen=True)
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
    """Decorator: frozen record with identity equality (use ast_eq).

    Stores the field names without ``span`` as ``_fields`` (what rebuilds a
    node), those that hold a child node as ``_children`` (what the walks
    visit) and, unless the class sets its own, the field names again as
    ``_syntax``, the ones structural equality compares.
    """
    cls = record(cls, frozen=True, eq=False)
    cls._fields = tuple(f for f in cls._record_fields if f != "span")
    cls._children = tuple(f for f in cls._fields
                          if cls.__annotations__[f] in ("Expr", "Prop"))
    if "_syntax" not in cls.__dict__:
        cls._syntax = cls._fields
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

    ``dim`` is set by the parser in ``unit(K)`` and ``cast(std, K)``, and
    by the resolution pass at a comparison side's head; it is deliberately
    excluded from structural equality, which compares syntax.
    """

    # Dimension | None; kept loose to avoid an import cycle.
    dim: object = None
    span: Span = DUMMY_SPAN
    _syntax = ()


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
class FnEq(Prop):
    """``f = g`` between two declared function variables, each a bare
    ``Var``: the parser builds it, and a bare function variable anywhere
    else is an error.  It is no comparison, whose sides are quantities."""

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
    # The variable's kind, as StdUnit.dim: set by dims.resolve_statement.
    dim: object = None
    span: Span = DUMMY_SPAN
    _syntax = ("var", "body", "kind_annot")


# -- operators ----------------------------------------------------------------

#: The binary operators, the one place their syntax is defined: node class ->
#: (canonical spelling, binding power, right-associative).  A higher power
#: binds tighter; connectives and arithmetic are ranked apart, since a
#: comparison separates the two.  The parser climbs these powers and the
#: printer parenthesizes by them.
BINARY = {
    Implies: ("->", 1, True), Or: ("∨", 2, False), And: ("∧", 3, False),
    Add: ("+", 1, False), Sub: ("-", 1, False),
    Mul: ("*", 2, False), Div: ("/", 2, False), SMul: ("•", 3, True),
}
#: Comparison node class -> canonical spelling.
COMPARISONS = {Eq: "=", Ne: "!=", Le: "<=", Lt: "<"}
#: Every expression and proposition node class.
NODES = (*Expr.__subclasses__(), *Prop.__subclasses__())


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
    """Structural equality of AST values, ignoring source spans.  An explicit
    stack of pairs, so a deep tree cannot exhaust the recursion limit."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        names = getattr(type(a), "_syntax", None)
        if names is not None:
            stack += [(getattr(a, f), getattr(b, f)) for f in names]
        elif isinstance(a, tuple) and len(a) == len(b):
            stack += zip(a, b)
        elif a != b:
            return False
    return True


def children(node) -> Iterator:
    """Direct child nodes of an expression or a proposition, in field
    order."""
    return (getattr(node, f) for f in node._children)


def walk(node) -> Iterator:
    """All nodes in the subtree rooted at ``node``, preorder.

    An explicit stack, so the cost is linear in the number of nodes and a
    deep tree cannot exhaust the recursion limit.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for f in reversed(node._children):
            stack.append(getattr(node, f))


def fold(node, rules, pre=None):
    """``node``'s result, computed bottom-up over an explicit stack.

    ``rules`` maps each node class to a function of the node and its
    children's results, in field order, that returns the node's result; or,
    to check one child before the other is walked, to ``(first, check,
    second, rule)``: the fields in walk order, ``check(node, result)`` run
    on the first's result as soon as it is done (what it returns replaces
    that result), and a rule taking the two results in walk order.  ``pre``
    maps node classes to a function run as the walk reaches such a node: it
    returns the node's result, and the walk skips its children, or None.
    Children are walked left to right, so everything runs in the order of a
    recursive walk.
    """
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        cls = n.__class__
        if cls is tuple:  # (rule, node, two): the node's children are done
            rule, n, two = n
            if two:
                second = out.pop()
                out[-1] = rule(n, out[-1], second)
            else:
                out[-1] = rule(n, out[-1])
            continue
        if pre is not None:
            visit = pre.get(cls)
            if visit is not None:
                result = visit(n)
                if result is not None:
                    out.append(result)
                    continue
        rule = rules[cls]
        kids = cls._children
        if rule.__class__ is tuple:
            first, check, second, rule = rule
            stack += ((rule, n, True), getattr(n, second), (check, n, False),
                      getattr(n, first))
        elif not kids:
            out.append(rule(n))
        elif len(kids) == 1:
            stack += ((rule, n, False), getattr(n, kids[0]))
        else:
            stack += ((rule, n, True), getattr(n, kids[1]), getattr(n, kids[0]))
    return out[0]
