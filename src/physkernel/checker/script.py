"""Derivation scripts: the step vocabulary and its textual form.

A script is a sequence of steps, one per line::

    split                     # conjunction goal -> one subgoal per side
    intro                     # peel an implication premise or a quantifier
    cases eps {1, -1}         # branch a finite quantifier or an Or-chain hyp
    subst ha                  # rewrite with a definitional hypothesis
    inst hv (4 • second)      # instantiate a quantified hypothesis
    polymatch hx t            # equate polynomial coefficients in t
    ring                      # close the goal by exact ring arithmetic
    numeric                   # close the goal by exact/approximate evaluation
    exact hT                  # close the goal with an identical hypothesis

Blank lines and ``#`` comments are ignored.  Scripts are replayed by the
prover engine; this module only defines the steps and their (de)serialization.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import MalformedScript, ParseError
from ..lang import nodes as N
from ..lang.parser import parse_expression
from ..lang.printer import print_expr
from ..record import record
from ..unitdb import UnitDatabase, builtin_database


@record(frozen=True)
class Split:
    pass


@record(frozen=True)
class Intro:
    pass


@record(frozen=True)
class CaseSplit:
    var: str
    values: tuple[Fraction, ...]


@record(frozen=True)
class Subst:
    hyp: str


@record(frozen=True)
class Instantiate:
    hyp: str
    arg: N.Expr


@record(frozen=True)
class PolyMatch:
    hyp: str
    param: str


@record(frozen=True)
class RingCheck:
    pass


@record(frozen=True)
class NumericCheck:
    pass


@record(frozen=True)
class ExactHyp:
    hyp: str


Step = (Split | Intro | CaseSplit | Subst | Instantiate | PolyMatch
        | RingCheck | NumericCheck | ExactHyp)

#: Each step's keyword.  A step prints as its keyword and its fields, in
#: order; only ``cases`` and ``inst`` give theirs a text of their own.
_KEYWORDS = {Split: "split", Intro: "intro", CaseSplit: "cases",
             Subst: "subst", Instantiate: "inst", PolyMatch: "polymatch",
             RingCheck: "ring", NumericCheck: "numeric", ExactHyp: "exact"}
_NO_ARG = {kw: cls for cls, kw in _KEYWORDS.items()
           if cls._record_fields == ()}
_ONE_NAME = {kw: cls for cls, kw in _KEYWORDS.items()
             if cls._record_fields == ("hyp",)}


def _scope_of(stmt: N.Statement) -> tuple[dict, dict]:
    variables: dict[str, str] = {}
    functions: dict[str, tuple[str, str]] = {}
    for d in stmt.decls:
        if isinstance(d, N.VarDecl):
            variables[d.name] = d.kind
        else:
            functions[d.name] = (d.arg_kind, d.result_kind)
    return variables, functions


def _parse_value(text: str, index: int) -> Fraction:
    try:
        expr = parse_expression(text, variables={}, functions={})
    except ParseError as exc:
        raise MalformedScript(f"bad case value {text!r}: {exc}", index) from exc
    if not isinstance(expr, N.NumLit):
        raise MalformedScript(f"case value {text!r} is not a literal", index)
    return expr.value


def parse_script(text: str, stmt: N.Statement,
                 db: UnitDatabase | None = None) -> tuple[Step, ...]:
    """Parse the textual form of a derivation script for ``stmt``.

    The statement supplies the scope in which ``inst`` arguments are parsed,
    and ``db`` the units and constants they may name; pass
    ``database_for(stmt, db)`` so that the statement's own constants resolve.
    Structural problems raise MalformedScript with the offending step index.
    """
    db = db or builtin_database()
    variables, functions = _scope_of(stmt)
    steps: list[Step] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        index = len(steps)
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in _NO_ARG:
            if rest:
                raise MalformedScript(f"'{head}' takes no argument", index)
            steps.append(_NO_ARG[head]())
        elif head in _ONE_NAME:
            if not rest or " " in rest:
                raise MalformedScript(
                    f"'{head}' expects one hypothesis name", index)
            steps.append(_ONE_NAME[head](rest))
        elif head == "polymatch":
            parts = rest.split()
            if len(parts) != 2:
                raise MalformedScript(
                    "'polymatch' expects a hypothesis name and a parameter",
                    index)
            steps.append(PolyMatch(parts[0], parts[1]))
        elif head == "cases":
            var, _, braces = rest.partition(" ")
            braces = braces.strip()
            if not var or not braces.startswith("{") or not braces.endswith("}"):
                raise MalformedScript(
                    "'cases' expects a variable and {v1, v2, ...}", index)
            pieces = [p.strip() for p in braces[1:-1].split(",")]
            if not all(pieces):
                raise MalformedScript("empty case value", index)
            values = tuple(_parse_value(p, index) for p in pieces)
            steps.append(CaseSplit(var, values))
        elif head == "inst":
            name, _, arg_text = rest.partition(" ")
            arg_text = arg_text.strip()
            if not name or not arg_text:
                raise MalformedScript(
                    "'inst' expects a hypothesis name and an expression",
                    index)
            try:
                arg = parse_expression(arg_text, db, variables=variables,
                                       functions=functions)
            except ParseError as exc:
                raise MalformedScript(
                    f"bad 'inst' argument: {exc}", index) from exc
            steps.append(Instantiate(name, arg))
        else:
            raise MalformedScript(f"unknown step '{head}'", index)
    return tuple(steps)


def print_script(steps: tuple[Step, ...] | list[Step]) -> str:
    """Render steps to the textual form accepted by ``parse_script``."""
    lines = []
    for step in steps:
        keyword = _KEYWORDS.get(step.__class__)
        if keyword is None:
            raise MalformedScript(f"unknown step object {step!r}")
        if isinstance(step, CaseSplit):
            args = [step.var, "{" + ", ".join(map(str, step.values)) + "}"]
        elif isinstance(step, Instantiate):
            args = [step.hyp, print_expr(step.arg)]
        else:
            args = [getattr(step, f) for f in step._record_fields]
        lines.append(" ".join([keyword, *args]))
    return "\n".join(lines) + ("\n" if lines else "")
