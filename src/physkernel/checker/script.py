"""Derivation scripts: the step vocabulary and its textual form.

``STEPS`` lists the steps, and the README's script block and the script
grammar in ``docs/grammar.ebnf`` show them.  Scripts are replayed by the
prover engine; this module only defines the steps and their text.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import MalformedScript, ParseError
from ..lang import nodes as N
from ..lang.parser import parse_expression
from ..lang.printer import print_expr
from ..record import record
from ..unitdb import UnitDatabase


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


#: Each step's keyword and class.  A step's line is its keyword, then its
#: fields, each in the form its name gives: ``hyp``, ``var`` and ``param``
#: one word, ``values`` ``{v1, v2, ...}``, ``arg`` the rest of the line.
STEPS = {"split": Split, "intro": Intro, "cases": CaseSplit, "subst": Subst,
         "inst": Instantiate, "polymatch": PolyMatch, "ring": RingCheck,
         "numeric": NumericCheck, "exact": ExactHyp}
_KEYWORD = {cls: keyword for keyword, cls in STEPS.items()}
Step = (Split | Intro | CaseSplit | Subst | Instantiate | PolyMatch | RingCheck
        | NumericCheck | ExactHyp)  # any step

#: What each field is, in the message for a step whose text misfits.
_SLOT_NAMES = {"hyp": "a hypothesis name", "var": "a variable",
               "param": "a parameter", "values": "a value set {v1, v2, ...}",
               "arg": "an expression"}


def _misfit(keyword: str, index: int) -> MalformedScript:
    names = [_SLOT_NAMES[f] for f in STEPS[keyword]._record_fields]
    if len(names) == 1:  # "one hypothesis name", not "a hypothesis name"
        names = ["one " + names[0].partition(" ")[2]]
    expects = "expects " + " and ".join(names) if names else "takes no argument"
    return MalformedScript(f"'{keyword}' {expects}", index)


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
    variables = {d.name: d.kind for d in stmt.decls
                 if d.__class__ is N.VarDecl}
    functions = {d.name: (d.arg_kind, d.result_kind) for d in stmt.decls
                 if d.__class__ is N.FnDecl}
    steps: list[Step] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        index = len(steps)
        keyword, _, rest = line.partition(" ")
        if (cls := STEPS.get(keyword)) is None:
            raise MalformedScript(f"unknown step '{keyword}'", index)
        args = []
        for field in cls._record_fields:
            rest = rest.strip()
            if field in ("hyp", "var", "param") and rest:
                word, _, rest = rest.partition(" ")
                args.append(word)
            elif field == "arg" and rest:
                try:
                    args.append(
                        parse_expression(rest, db, variables, functions))
                except ParseError as exc:
                    raise MalformedScript(
                        f"bad '{keyword}' argument: {exc}", index) from exc
                rest = ""
            elif field == "values" and rest.startswith("{") and "}" in rest:
                braces, _, rest = rest.partition("}")
                pieces = [p.strip() for p in braces[1:].split(",")]
                if not all(pieces):
                    raise MalformedScript("empty case value", index)
                args.append(tuple(_parse_value(p, index) for p in pieces))
            else:
                raise _misfit(keyword, index)
        if rest.strip():
            raise _misfit(keyword, index)
        steps.append(cls(*args))
    return tuple(steps)


def print_script(steps: tuple[Step, ...] | list[Step]) -> str:
    """Render steps to the textual form accepted by ``parse_script``."""
    lines = []
    for step in steps:
        if step.__class__ not in _KEYWORD:
            raise MalformedScript(f"unknown step object {step!r}")
        words = [_KEYWORD[step.__class__]]
        for f in step._record_fields:
            v = getattr(step, f)
            words.append("{" + ", ".join(map(str, v)) + "}" if f == "values"
                         else print_expr(v) if f == "arg" else v)
        lines.append(" ".join(words))
    return "\n".join(lines) + ("\n" if lines else "")
