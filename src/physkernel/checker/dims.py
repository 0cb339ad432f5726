"""Dimensional analysis over statements.

Two passes share this module.  *Resolution* gives each ``std`` occurrence
(the anonymous coherent unit) at the scaled head of one side of a comparison
the dimension of the opposite side; the parser gives a cast argument ``std``,
as in ``unit(K)``, its kind; it also records each ``ForallFn``'s kind as
its ``dim``, once.  *Checking* walks every hypothesis and the goal, verifying
the dimensional typing rules and producing a per-entry report.
"""

from __future__ import annotations

from ..dimension import DIMENSIONLESS, Dimension
from ..errors import ParseError, PhysKernelError
from ..lang import nodes as N
from ..record import record, replace
from ..unitdb import UnitDatabase, builtin_database
from .rewrite import REBUILD, transform

_CMP_NOTE = {
    N.Eq: "equation sides", N.Ne: "disequation sides",
    N.Le: "comparison sides", N.Lt: "comparison sides",
}


class _MismatchSignal(Exception):
    def __init__(self, span: N.Span, expected: Dimension | None,
                 found: Dimension | None, note: str):
        super().__init__(note)
        self.span = span
        self.expected = expected
        self.found = found
        self.note = note


# -- expression dimensions ------------------------------------------------------
#
# The fold rules of ``expr_dim``: each takes a node and its children's
# dimensions and raises ``_MismatchSignal`` at a violation.  A scalar and a
# real power's base are checked before the other operand is walked.


def _expect(found: Dimension, expected: Dimension, span: N.Span,
            note: str) -> Dimension:
    if found != expected:
        raise _MismatchSignal(span, expected, found, note)
    return expected


def _std(e: N.StdUnit) -> Dimension:
    if e.dim is None:
        raise _MismatchSignal(e.span, None, None,
                              "the dimension of 'std' could not be inferred")
    return e.dim


_DIM_RULES = {
    N.NumLit: lambda e: DIMENSIONLESS,
    N.StdUnit: _std,
    N.PrefixApp: lambda e, dim: dim,
    N.Neg: lambda e, dim: dim,
    N.Add: lambda e, left, right: _expect(
        right, left, e.rhs.span, "addition requires equal dimensions"),
    N.Sub: lambda e, left, right: _expect(
        right, left, e.rhs.span, "subtraction requires equal dimensions"),
    N.Mul: lambda e, left, right: left.combine(right),
    N.Div: lambda e, left, right: left.combine(right.invert()),
    N.SMul: ("scalar", lambda e, dim: _expect(
        dim, DIMENSIONLESS, e.scalar.span, "scalar position of •"),
        "arg", lambda e, scalar, arg: arg),
    N.Pow: lambda e, base: base.scale(e.exponent),
    N.RPow: ("base", lambda e, dim: _expect(
        dim, DIMENSIONLESS, e.base.span, "base of a real power"),
        "exponent", lambda e, base, dim: _expect(
            dim, DIMENSIONLESS, e.exponent.span, "exponent of a real power")),
    N.Val: lambda e, dim: DIMENSIONLESS,
    N.Norm: lambda e, dim: DIMENSIONLESS,
    N.Fn: lambda e, dim: _expect(
        dim, DIMENSIONLESS, e.arg.span, f"argument of {e.fn}"),
}


class _Env:
    """The names a statement declares, with their dimensions, and the rules
    of ``expr_dim``.  The rules close over the two tables and the unit
    database, not over the env, so an env makes no reference cycle."""

    def __init__(self, stmt: N.Statement, db: UnitDatabase):
        self.db = db
        self.vars = vars = {}
        self.fns = fns = {}
        for decl in stmt.decls:
            if decl.__class__ is N.VarDecl:
                vars[decl.name] = db.kind(decl.kind)
            else:
                fns[decl.name] = (db.kind(decl.arg_kind),
                                  db.kind(decl.result_kind))

        def var(e: N.Var) -> Dimension:
            try:
                return vars[e.name]
            except KeyError:
                raise ParseError(
                    f"'{e.name}' is a function and cannot be used as a "
                    "quantity here", span=e.span) from None

        def applied(e: N.Apply | N.Deriv, found: Dimension) -> Dimension:
            arg_dim, result_dim = fns[e.fn]
            if e.__class__ is N.Apply:
                _expect(found, arg_dim, e.arg.span, f"argument of {e.fn}")
                return result_dim
            _expect(found, arg_dim, e.at.span, f"derivative point of {e.fn}")
            return result_dim.combine(arg_dim.invert())

        def cast_kind(e: N.Cast) -> Dimension | None:
            """A cast's kind, looked up before its argument is walked; a
            cast of std takes it without walking the argument."""
            kind = db.kind(e.kind)
            return kind if e.arg.__class__ is N.StdUnit else None

        self.rules = {
            **_DIM_RULES, N.Var: var, N.Apply: applied, N.Deriv: applied,
            N.ConstRef: lambda e: db.constant(e.name).dim,
            N.UnitRef: lambda e: db.unit(e.name).dim,
            N.Cast: lambda e, dim: _expect(
                dim, db.kind(e.kind), e.arg.span, f"cast to {e.kind}"),
        }
        self.pre = {N.Cast: cast_kind}


def expr_dim(e: N.Expr, env: _Env) -> Dimension:
    """Dimension of ``e``, raising ``_MismatchSignal`` at the first violation."""
    return N.fold(e, env.rules, env.pre)


def _forall_var_dim(q: N.ForallFn, env: _Env) -> Dimension:
    """Kind of a function-quantified variable.

    Priority: explicit annotation, then an enclosing declaration of the same
    name, then the argument kind of a function the variable is applied to
    inside the body.
    """
    if q.kind_annot is not None:
        return env.db.kind(q.kind_annot)
    if q.var in env.vars:
        return env.vars[q.var]
    for node in N.walk(q.body):
        if isinstance(node, (N.Apply, N.Deriv)) and node.fn in env.fns:
            arg = node.at if node.__class__ is N.Deriv else node.arg
            if arg.__class__ is N.Var and arg.name == q.var:
                return env.fns[node.fn][0]
    raise ParseError(
        f"cannot infer the kind of quantified variable '{q.var}'; "
        "annotate it as (forall {0} : Kind, ...)".format(q.var), span=q.span)


def instance_checker(stmt: N.Statement, db: UnitDatabase):
    """``why_not(q, arg)``: None, or why ``arg`` cannot instantiate ``q``, a
    quantifier of ``stmt`` as resolved or of a rewrite, which keeps its
    ``dim``: ``arg`` fails the dimension check or lacks ``q.dim``."""
    env = _Env(stmt, db)

    def why_not(q: N.ForallFn, arg: N.Expr) -> str | None:
        try:
            found = expr_dim(arg, env)
        except _MismatchSignal as s:
            return "fails the dimension check: " + DimMismatch(
                s.span, s.expected, s.found, s.note).render()
        except PhysKernelError as exc:
            return f"cannot be checked: {exc}"
        if found != q.dim:
            return (f"has dimension {found.render()}, the quantifier's "
                    f"variable {q.dim.render()}")
        return None
    return why_not


# -- std resolution --------------------------------------------------------------


def _spine_std(e: N.Expr) -> N.StdUnit | None:
    while True:
        if e.__class__ is N.StdUnit:
            return e if e.dim is None else None
        if e.__class__ in (N.SMul, N.Neg, N.PrefixApp):
            e = e.arg
        else:
            return None


def _unresolved_stds(e: N.Expr) -> list[N.StdUnit]:
    return [n for n in N.walk(e) if n.__class__ is N.StdUnit and n.dim is None]


def _fill_std(e: N.Expr, target: N.StdUnit, dim: Dimension) -> N.Expr:
    return transform(e, lambda n: replace(n, dim=dim) if n is target else None)


def _resolve_cmp(p: N.Prop, env: _Env) -> N.Prop:
    left, right = _unresolved_stds(p.lhs), _unresolved_stds(p.rhs)
    if not left and not right:
        return p
    if left and right:
        raise ParseError("'std' appears on both sides of a comparison; "
                         "its dimension cannot be inferred", span=left[0].span)
    side, other = (p.lhs, p.rhs) if left else (p.rhs, p.lhs)
    std = _spine_std(side)
    if std is None:
        bad = (left or right)[0]
        raise ParseError(
            "'std' is only usable as the scaled head of a comparison side "
            "or as a cast argument", span=bad.span)
    try:
        dim = expr_dim(other, env)
    except _MismatchSignal:
        return p  # the dimension report will flag this entry
    new_side = _fill_std(side, std, dim)
    if left:
        return replace(p, lhs=new_side)
    return replace(p, rhs=new_side)


def _walk_prop(p: N.Prop, env: _Env, on_cmp) -> N.Prop:
    """Rebuild ``p`` with ``on_cmp(cmp, env)`` applied to each comparison.

    A quantifier's variable is in ``env`` while its body is walked, with
    the kind found before the body is walked; a ``ForallFn`` without one
    records it as ``dim``, and one with it binds that kind without looking
    again.  A proposition none of whose parts changed is returned as is.
    """
    if p.__class__ in _CMP_NOTE:  # most propositions: no tables to build
        return on_cmp(p, env)
    hidden = []  # per quantifier entered: its name and the kind it hid

    def bind(q):
        dim = (DIMENSIONLESS if q.__class__ is N.ForallFinite
               else q.dim or _forall_var_dim(q, env))
        hidden.append((q.var, env.vars.get(q.var)))
        env.vars[q.var] = dim

    def unbind(q, body):
        dim = env.vars[q.var]
        _restore(env.vars, *hidden.pop())
        if q.__class__ is N.ForallFn and q.dim is None:
            return replace(q, body=body, dim=dim)
        return q if body is q.body else replace(q, body=body)

    def cmp(c):
        return on_cmp(c, env)

    try:
        return N.fold(
            p, {**REBUILD, N.ForallFn: unbind, N.ForallFinite: unbind},
            {**dict.fromkeys(_CMP_NOTE, cmp),
             N.ForallFn: bind, N.ForallFinite: bind})
    finally:
        while hidden:  # a comparison raised inside a quantifier
            _restore(env.vars, *hidden.pop())


def _restore(vars: dict, name: str, dim: Dimension | None) -> None:
    if dim is None:
        del vars[name]
    else:
        vars[name] = dim


def resolve_statement(stmt: N.Statement,
                      db: UnitDatabase | None = None) -> N.Statement:
    """Give each ``std`` heading a comparison side the opposite side's
    dimension (the parser gives a cast argument its kind's), and each
    ``ForallFn`` its variable's kind as ``dim``; a quantifier whose kind
    cannot be inferred is rejected.  Idempotent: returns ``stmt`` itself
    only when every ``std`` and every ``ForallFn`` already has its dimension.
    """
    env = _Env(stmt, db or builtin_database())
    hyps = tuple((name, _walk_prop(prop, env, _resolve_cmp))
                 for name, prop in stmt.hyps)
    goal = _walk_prop(stmt.goal, env, _resolve_cmp)
    if goal is stmt.goal and all(
            new is old for (_, new), (_, old) in zip(hyps, stmt.hyps)):
        return stmt
    return replace(stmt, hyps=hyps, goal=goal)


# -- the report -------------------------------------------------------------------


@record(frozen=True)
class DimMismatch:
    span: N.Span
    expected: Dimension | None
    found: Dimension | None
    note: str

    def render(self) -> str:
        where = f"(line {self.span.line}, col {self.span.col})"
        if self.expected is None or self.found is None:
            return f"{self.note} {where}"
        return (f"expected {self.expected.render()}, "
                f"found {self.found.render()} — {self.note} {where}")


@record(frozen=True)
class DimEntry:
    label: str
    mismatch: DimMismatch | None

    @property
    def homogeneous(self) -> bool:
        return self.mismatch is None


@record(frozen=True)
class DimReport:
    entries: tuple[DimEntry, ...]

    @property
    def homogeneous(self) -> bool:
        return all(e.homogeneous for e in self.entries)

    def entry(self, label: str) -> DimEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "homogeneous" if e.homogeneous else e.mismatch.render()
            lines.append(f"{e.label}: {status}")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        records = []
        for e in self.entries:
            rec: dict = {"label": e.label, "homogeneous": e.homogeneous}
            if e.mismatch is not None:
                m = e.mismatch
                rec.update({
                    "expected": None if m.expected is None else m.expected.render(),
                    "found": None if m.found is None else m.found.render(),
                    "note": m.note,
                    "line": m.span.line,
                    "col": m.span.col,
                })
            records.append(rec)
        return records


def _check_cmp(p: N.Prop, env: _Env) -> N.Prop:
    """Return ``p`` if its sides agree, else raise ``_MismatchSignal``."""
    if (isinstance(p.lhs, N.Var) and isinstance(p.rhs, N.Var)
            and p.lhs.name in env.fns and p.rhs.name in env.fns):
        (la, lr), (ra, rr) = env.fns[p.lhs.name], env.fns[p.rhs.name]
        if la != ra:
            raise _MismatchSignal(p.rhs.span, la, ra,
                                  "function argument kinds differ")
        if lr != rr:
            raise _MismatchSignal(p.rhs.span, lr, rr,
                                  "function result kinds differ")
        return p
    left = expr_dim(p.lhs, env)
    right = expr_dim(p.rhs, env)
    if left != right:
        raise _MismatchSignal(p.rhs.span, left, right, _CMP_NOTE[type(p)])
    return p


def check_dimensions(stmt: N.Statement,
                     db: UnitDatabase | None = None) -> DimReport:
    """Per-hypothesis (and goal) dimensional homogeneity report."""
    db = db or builtin_database()
    return _report_resolved(resolve_statement(stmt, db), db)


def _report_resolved(stmt: N.Statement, db: UnitDatabase) -> DimReport:
    """``check_dimensions`` of a statement ``resolve_statement`` returned."""
    env = _Env(stmt, db)
    entries = []
    for label, prop in list(stmt.hyps) + [("goal", stmt.goal)]:
        try:
            _walk_prop(prop, env, _check_cmp)
            entries.append(DimEntry(label, None))
        except _MismatchSignal as s:
            entries.append(DimEntry(
                label, DimMismatch(s.span, s.expected, s.found, s.note)))
    return DimReport(tuple(entries))
