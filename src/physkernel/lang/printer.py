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


def _rat(value: Fraction) -> tuple[list[str], int]:
    text = render_rational(value)
    if "/" in text:
        return [text], N.BINARY[N.Div][1]  # prints as a division of literals
    return [text], _ATOM if value >= 0 and value.denominator == 1 else _UNARY


def _exponent(value: Fraction) -> str:
    if value.denominator == 1 and value >= 0:
        return str(value.numerator)
    if value.denominator == 1:
        return f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


# The fold rules of the printer.  A node's result is its text, as a list
# of pieces, and the level it prints at.  A rule extends the list of its
# first child, which nothing else holds, so a long chain prints in linear
# time.  A child is parenthesized when its level is below the level its
# place requires: a binary operator's operand on its associative side may
# print at the operator's own power, the other operand must bind tighter.


def _sub(child: tuple[list[str], int], required: int) -> list[str]:
    parts, level = child
    if level < required:
        parts.insert(0, "(")
        parts.append(")")
    return parts


def _join(level: int, first, *rest) -> tuple[list[str], int]:
    """The text of ``first`` (a child's pieces or a string) and ``rest``."""
    parts = first if first.__class__ is list else [first]
    for piece in rest:
        if piece.__class__ is str:
            parts.append(piece)
        else:
            parts += piece
    return parts, level


def _binary(spelling: str, bp: int, right: bool):
    return lambda n, lhs, rhs: _join(bp, _sub(lhs, bp + right),
                                     f" {spelling} ",
                                     _sub(rhs, bp + (not right)))


_RULES = {
    **{cls: _binary(*op) for cls, op in N.BINARY.items()},
    **{cls: lambda n, lhs, rhs: _join(
        _CMP, lhs[0], f" {N.COMPARISONS[n.__class__]} ", rhs[0])
       for cls in N.COMPARISONS},
    N.FnEq: lambda n, lhs, rhs: _join(_CMP, lhs[0], " = ", rhs[0]),
    N.NumLit: lambda n: _rat(n.value),
    N.Var: lambda n: ([n.name], _ATOM),
    N.ConstRef: lambda n: ([n.name], _ATOM),
    N.UnitRef: lambda n: ([n.name], _ATOM),
    N.StdUnit: lambda n: (["std"], _ATOM),
    N.PrefixApp: lambda n, arg: _join(_ATOM, f"{n.prefix}(", arg[0], ")"),
    N.Neg: lambda n, arg: _join(_UNARY, "-", _sub(arg, _UNARY)),
    N.Pow: lambda n, base: _join(_POW, _sub(base, _ATOM),
                                 f"**{_exponent(n.exponent)}"),
    N.RPow: lambda n, base, exponent: _join(
        _ATOM, "rpow(", base[0], ", ", exponent[0], ")"),
    N.Cast: lambda n, arg: (
        ([f"unit({n.kind})"], _ATOM) if n.arg.__class__ is N.StdUnit
        else _join(_ATOM, "cast(", arg[0], f", {n.kind})")),
    N.Val: lambda n, arg: _join(_ATOM, "val(", arg[0], ")"),
    N.Norm: lambda n, arg: _join(_ATOM, "norm(", arg[0], ")"),
    N.Fn: lambda n, arg: _join(_ATOM, f"{n.fn}(", arg[0], ")"),
    N.Apply: lambda n, arg: _join(_ATOM, f"{n.fn}(", arg[0], ")"),
    N.Deriv: lambda n, at: _join(_ATOM, f"deriv({n.fn}, ", at[0], ")"),
    N.ForallFinite: lambda n, body: _join(
        _FORALL, f"forall {n.var} in "
        f"{{{', '.join(render_rational(v) for v in n.values)}}}, ", body[0]),
    N.ForallFn: lambda n, body: _join(
        _FORALL, f"forall {n.var}"
        f"{f' : {n.kind_annot}' if n.kind_annot else ''}, ", body[0]),
}


def print_expr(node: N.Node) -> str:
    """The canonical text of an expression or a proposition."""
    return "".join(N.fold(node, _RULES)[0])


print_prop = print_expr


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
