"""Canonical printer for the statement language.

The printer is the inverse of the parser on ASTs: for every AST ``x`` the
reparse of ``print(x)`` is structurally equal to ``x`` (spans aside).  Output
is deterministic and minimally parenthesized by the binding powers of the
operator table ``nodes.BINARY``, which the parser climbs.  Rational literals
print as integers, as exact decimals when the denominator is a product of 2s
and 5s with a short expansion, and as ``p/q`` otherwise (the parser folds the
latter back into one literal).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import typed_depth
from . import nodes as N

__all__ = ["print_expr", "print_prop", "print_statement", "render_rational"]

# Levels of the forms that are not binary operators, which print at their
# binding power (``nodes.BINARY``).  A child is parenthesized when its level
# is below the level its place requires.  A comparison, like a unary minus,
# binds tighter than every binary operator of its side of the grammar.
_FORALL = 0
_UNARY = _CMP = 1 + max(bp for _, bp, _ in N.BINARY.values())
_POW = _UNARY + 1
_ATOM = _POW + 1
# Python's int-to-text limit.  A literal whose decimal expansion passes it
# prints as p/q; the parser's LITERAL_DIGIT_BUDGET keeps p and q within it.
_TEXT_LIMIT = 10**4300


def render_rational(value: Fraction) -> str:
    """Canonical literal form: integer, short exact decimal, or p/q."""
    if value < 0:
        return "-" + render_rational(-value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    k = max(twos, fives)
    if d == 1 and k <= 25 and num * 10**k < _TEXT_LIMIT * den:
        digits = str(num * 10**k // den).rjust(k + 1, "0")
        return f"{digits[:-k]}.{digits[-k:]}"
    return f"{num}/{den}"


def _rat(value: Fraction) -> tuple[str, int]:
    text = render_rational(value)
    if "/" in text:
        return text, N.BINARY[N.Div][1]  # prints as a division of literals
    return text, _ATOM if value >= 0 and value.denominator == 1 else _UNARY


def _exponent(value: Fraction) -> str:
    if value.denominator == 1 and value >= 0:
        return str(value.numerator)
    if value.denominator == 1:
        return f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


def _text(n: N.Node) -> tuple[str, int]:
    """The text of an expression or a proposition and the level it prints
    at.  A binary operator's operand on its associative side may print at
    its own power; the other operand must bind tighter.  A chain of
    left-associative operators of one power (a long sum) is printed by
    walking its left spine in a loop, so its length costs no recursion."""
    cls = n.__class__
    op = N.BINARY.get(cls)
    if op is not None:
        spelling, bp, right = op
        if right:
            lhs, rhs = cls._fields
            return (f"{_sub(getattr(n, lhs), bp + 1)} {spelling} "
                    f"{_sub(getattr(n, rhs), bp)}", bp)
        parts = [_sub(n.rhs, bp + 1), spelling]
        n = n.lhs
        op = N.BINARY.get(n.__class__)
        while op is not None and op[1] == bp and not op[2]:
            parts += (_sub(n.rhs, bp + 1), op[0])
            n = n.lhs
            op = N.BINARY.get(n.__class__)
        parts.append(_sub(n, bp))
        parts.reverse()
        return " ".join(parts), bp
    op = N.COMPARISONS.get(cls)
    if op is not None:
        return f"{print_expr(n.lhs)} {op} {print_expr(n.rhs)}", _CMP
    if isinstance(n, N.NumLit):
        return _rat(n.value)
    if isinstance(n, (N.Var, N.ConstRef, N.UnitRef)):
        return n.name, _ATOM
    if isinstance(n, N.StdUnit):
        return "std", _ATOM
    if isinstance(n, N.PrefixApp):
        return f"{n.prefix}({print_expr(n.arg)})", _ATOM
    if isinstance(n, N.Neg):
        return f"-{_sub(n.arg, _UNARY)}", _UNARY
    if isinstance(n, N.Pow):
        return f"{_sub(n.base, _ATOM)}**{_exponent(n.exponent)}", _POW
    if isinstance(n, N.RPow):
        return f"rpow({print_expr(n.base)}, {print_expr(n.exponent)})", _ATOM
    if isinstance(n, N.Cast):
        if isinstance(n.arg, N.StdUnit):
            return f"unit({n.kind})", _ATOM
        return f"cast({print_expr(n.arg)}, {n.kind})", _ATOM
    if isinstance(n, N.Val):
        return f"val({print_expr(n.arg)})", _ATOM
    if isinstance(n, N.Norm):
        return f"norm({print_expr(n.arg)})", _ATOM
    if isinstance(n, (N.Fn, N.Apply)):
        return f"{n.fn}({print_expr(n.arg)})", _ATOM
    if isinstance(n, N.Deriv):
        return f"deriv({n.fn}, {print_expr(n.at)})", _ATOM
    if isinstance(n, N.ForallFinite):
        values = ", ".join(render_rational(v) for v in n.values)
        return f"forall {n.var} in {{{values}}}, {print_prop(n.body)}", _FORALL
    if isinstance(n, N.ForallFn):
        annot = f" : {n.kind_annot}" if n.kind_annot else ""
        return f"forall {n.var}{annot}, {print_prop(n.body)}", _FORALL
    raise TypeError(f"not an expression or a proposition node: {n!r}")


def _sub(n: N.Node, required: int) -> str:
    text, level = _text(n)
    return f"({text})" if level < required else text


@typed_depth
def print_expr(e: N.Expr) -> str:
    return _text(e)[0]


@typed_depth
def print_prop(p: N.Prop) -> str:
    return _text(p)[0]


@typed_depth
def print_statement(stmt: N.Statement, front_matter: bool = False) -> str:
    """Canonical statement text; optionally with its front-matter block."""
    lines: list[str] = []
    if front_matter:
        lines.append(f"name: {stmt.name}")
        if stmt.level:
            lines.append(f"level: {stmt.level}")
        if stmt.topic:
            lines.append(f"topic: {stmt.topic}")
        if stmt.source:
            lines.append(f"source: {stmt.source}")
        if stmt.constants:
            overrides = ", ".join(f"{name} = {print_expr(e)}"
                                  for name, e in stmt.constants)
            lines.append(f"constants: {overrides}")
        lines.append("")
    lines.append(f"theorem {stmt.name}")
    # Group runs of consecutive variable declarations with the same kind.
    i = 0
    decls = stmt.decls
    while i < len(decls):
        d = decls[i]
        if isinstance(d, N.FnDecl):
            lines.append(f"    ({d.name} : {d.arg_kind} -> {d.result_kind})")
            i += 1
            continue
        j = i
        while (j < len(decls) and isinstance(decls[j], N.VarDecl)
               and decls[j].kind == d.kind):
            j += 1
        names = " ".join(x.name for x in decls[i:j])
        lines.append(f"    ({names} : {d.kind})")
        i = j
    for name, prop in stmt.hyps:
        lines.append(f"    ({name} := {print_prop(prop)})")
    lines.append(f"    : {print_prop(stmt.goal)}")
    return "\n".join(lines) + "\n"
