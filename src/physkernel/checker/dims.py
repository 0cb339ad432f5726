"""Dimensional analysis over statements.

Two passes share this module.  *Resolution* fills in the dimension of each
``std`` occurrence (the anonymous coherent unit): as a cast argument it takes
the cast's kind, and as the scaled head of one side of a comparison it takes
the dimension of the opposite side.  *Checking* walks every hypothesis and the
goal, verifying the dimensional typing rules and producing a per-entry report.
"""

from __future__ import annotations

from ..dimension import DIMENSIONLESS, Dimension
from ..errors import ParseError, typed_depth
from ..lang import nodes as N
from ..record import record, replace
from ..unitdb import UnitDatabase, builtin_database
from .rewrite import transform

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


@record(frozen=True)
class _Env:
    vars: dict[str, Dimension]
    fns: dict[str, tuple[Dimension, Dimension]]


def _build_env(stmt: N.Statement, db: UnitDatabase) -> _Env:
    env = _Env({}, {})
    for decl in stmt.decls:
        if isinstance(decl, N.VarDecl):
            env.vars[decl.name] = db.kind(decl.kind)
        else:
            env.fns[decl.name] = (db.kind(decl.arg_kind),
                                  db.kind(decl.result_kind))
    return env


# -- expression dimensions ------------------------------------------------------


def expr_dim(e: N.Expr, env: _Env, db: UnitDatabase) -> Dimension:
    """Dimension of ``e``, raising ``_MismatchSignal`` at the first violation."""
    if isinstance(e, N.NumLit):
        return DIMENSIONLESS
    if isinstance(e, N.ConstRef):
        return db.constant(e.name).dim
    if isinstance(e, N.Var):
        try:
            return env.vars[e.name]
        except KeyError:
            raise ParseError(f"'{e.name}' is a function and cannot be used "
                             "as a quantity here", span=e.span) from None
    if isinstance(e, N.UnitRef):
        return db.unit(e.name).dim
    if isinstance(e, N.StdUnit):
        if e.dim is None:
            raise _MismatchSignal(e.span, None, None,
                                  "the dimension of 'std' could not be inferred")
        return e.dim
    if isinstance(e, N.PrefixApp):
        return expr_dim(e.arg, env, db)
    if isinstance(e, (N.Add, N.Sub)):
        left = expr_dim(e.lhs, env, db)
        right = expr_dim(e.rhs, env, db)
        if left != right:
            word = "addition" if isinstance(e, N.Add) else "subtraction"
            raise _MismatchSignal(e.rhs.span, left, right,
                                  f"{word} requires equal dimensions")
        return left
    if isinstance(e, N.Mul):
        return expr_dim(e.lhs, env, db).combine(expr_dim(e.rhs, env, db))
    if isinstance(e, N.Div):
        return expr_dim(e.lhs, env, db).combine(
            expr_dim(e.rhs, env, db).invert())
    if isinstance(e, N.Neg):
        return expr_dim(e.arg, env, db)
    if isinstance(e, N.SMul):
        scalar = expr_dim(e.scalar, env, db)
        if not scalar.is_dimensionless:
            raise _MismatchSignal(e.scalar.span, DIMENSIONLESS, scalar,
                                  "scalar position of •")
        return expr_dim(e.arg, env, db)
    if isinstance(e, N.Pow):
        return expr_dim(e.base, env, db).scale(e.exponent)
    if isinstance(e, N.RPow):
        base = expr_dim(e.base, env, db)
        if not base.is_dimensionless:
            raise _MismatchSignal(e.base.span, DIMENSIONLESS, base,
                                  "base of a real power")
        exponent = expr_dim(e.exponent, env, db)
        if not exponent.is_dimensionless:
            raise _MismatchSignal(e.exponent.span, DIMENSIONLESS, exponent,
                                  "exponent of a real power")
        return DIMENSIONLESS
    if isinstance(e, N.Cast):
        target = db.kind(e.kind)
        if isinstance(e.arg, N.StdUnit):
            return target
        found = expr_dim(e.arg, env, db)
        if found != target:
            raise _MismatchSignal(e.arg.span, target, found,
                                  f"cast to {e.kind}")
        return target
    if isinstance(e, (N.Val, N.Norm)):
        expr_dim(e.arg, env, db)
        return DIMENSIONLESS
    if isinstance(e, N.Fn):
        found = expr_dim(e.arg, env, db)
        if not found.is_dimensionless:
            raise _MismatchSignal(e.arg.span, DIMENSIONLESS, found,
                                  f"argument of {e.fn}")
        return DIMENSIONLESS
    if isinstance(e, N.Apply):
        arg_dim, result_dim = env.fns[e.fn]
        found = expr_dim(e.arg, env, db)
        if found != arg_dim:
            raise _MismatchSignal(e.arg.span, arg_dim, found,
                                  f"argument of {e.fn}")
        return result_dim
    if isinstance(e, N.Deriv):
        arg_dim, result_dim = env.fns[e.fn]
        found = expr_dim(e.at, env, db)
        if found != arg_dim:
            raise _MismatchSignal(e.at.span, arg_dim, found,
                                  f"derivative point of {e.fn}")
        return result_dim.combine(arg_dim.invert())
    raise ParseError(f"unsupported expression node {type(e).__name__}",
                     span=getattr(e, "span", N.DUMMY_SPAN))


def _forall_var_dim(q: N.ForallFn, env: _Env, db: UnitDatabase) -> Dimension:
    """Kind of a function-quantified variable.

    Priority: explicit annotation, then an enclosing declaration of the same
    name, then the argument kind of a function the variable is applied to
    inside the body.
    """
    if q.kind_annot is not None:
        return db.kind(q.kind_annot)
    if q.var in env.vars:
        return env.vars[q.var]
    for node in N.walk(q.body):
        if isinstance(node, (N.Apply, N.Deriv)) and node.fn in env.fns:
            arg = node.at if isinstance(node, N.Deriv) else node.arg
            if isinstance(arg, N.Var) and arg.name == q.var:
                return env.fns[node.fn][0]
    raise ParseError(
        f"cannot infer the kind of quantified variable '{q.var}'; "
        "annotate it as (forall {0} : Kind, ...)".format(q.var), span=q.span)


# -- std resolution --------------------------------------------------------------


def _spine_std(e: N.Expr) -> N.StdUnit | None:
    while True:
        if isinstance(e, N.StdUnit):
            return e if e.dim is None else None
        if isinstance(e, (N.SMul, N.Neg)):
            e = e.arg
        elif isinstance(e, N.PrefixApp):
            e = e.arg
        else:
            return None


def _unresolved_stds(e: N.Expr) -> list[N.StdUnit]:
    return [n for n in N.walk(e) if isinstance(n, N.StdUnit) and n.dim is None]


def _fill_std(e: N.Expr, target: N.StdUnit, dim: Dimension) -> N.Expr:
    def visit(n):
        if n is target:
            return replace(n, dim=dim)
        return None

    return transform(e, visit)


def _resolve_cmp(p: N.Prop, env: _Env, db: UnitDatabase) -> N.Prop:
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
        dim = expr_dim(other, env, db)
    except _MismatchSignal:
        return p  # the dimension report will flag this entry
    new_side = _fill_std(side, std, dim)
    if left:
        return replace(p, lhs=new_side)
    return replace(p, rhs=new_side)


def _walk_prop(p: N.Prop, env: _Env, db: UnitDatabase, on_cmp) -> N.Prop:
    """Rebuild ``p`` with ``on_cmp(cmp, env, db)`` applied to each comparison.

    Quantifier binders are in ``env`` while their bodies are walked.  A
    proposition none of whose parts changed is returned as is.
    """
    if isinstance(p, (N.Eq, N.Ne, N.Le, N.Lt)):
        return on_cmp(p, env, db)
    if isinstance(p, (N.And, N.Or, N.Implies)):
        lhs = _walk_prop(p.lhs, env, db, on_cmp)
        rhs = _walk_prop(p.rhs, env, db, on_cmp)
        if lhs is p.lhs and rhs is p.rhs:
            return p
        return replace(p, lhs=lhs, rhs=rhs)
    if isinstance(p, (N.ForallFinite, N.ForallFn)):
        dim = (DIMENSIONLESS if isinstance(p, N.ForallFinite)
               else _forall_var_dim(p, env, db))
        saved = env.vars.get(p.var)
        env.vars[p.var] = dim
        try:
            body = _walk_prop(p.body, env, db, on_cmp)
        finally:
            if saved is None:
                del env.vars[p.var]
            else:
                env.vars[p.var] = saved
        return p if body is p.body else replace(p, body=body)
    raise ParseError(f"unsupported proposition node {type(p).__name__}",
                     span=getattr(p, "span", N.DUMMY_SPAN))


def _fill_cast_stds(p: N.Prop, db: UnitDatabase) -> N.Prop:
    def visit(n):
        if (isinstance(n, N.Cast) and isinstance(n.arg, N.StdUnit)
                and n.arg.dim is None):
            filled = replace(n.arg, dim=db.kind(n.kind))
            return replace(n, arg=filled)
        return None

    return transform(p, visit)


@typed_depth
def resolve_statement(stmt: N.Statement,
                      db: UnitDatabase | None = None) -> N.Statement:
    """Fill in the dimension of every inferable ``std`` occurrence.

    Idempotent; returns ``stmt`` itself when nothing needed resolving.
    """
    db = db or builtin_database()
    env = _build_env(stmt, db)
    props = [prop for _, prop in stmt.hyps] + [stmt.goal]
    if not any(isinstance(n, N.StdUnit) and n.dim is None
               for prop in props for n in N.walk(prop)):
        # Nothing to fill in.  Walking the connectives still rejects a
        # quantifier whose kind cannot be inferred, as resolving does.
        for prop in props:
            _walk_prop(prop, env, db, lambda p, env, db: p)
        return stmt
    changed = False
    hyps = []
    for name, prop in stmt.hyps:
        resolved = _walk_prop(_fill_cast_stds(prop, db), env, db, _resolve_cmp)
        changed = changed or resolved is not prop
        hyps.append((name, resolved))
    goal = _walk_prop(_fill_cast_stds(stmt.goal, db), env, db, _resolve_cmp)
    changed = changed or goal is not stmt.goal
    if not changed:
        return stmt
    return replace(stmt, hyps=tuple(hyps), goal=goal)


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


def _check_cmp(p: N.Prop, env: _Env, db: UnitDatabase) -> N.Prop:
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
    left = expr_dim(p.lhs, env, db)
    right = expr_dim(p.rhs, env, db)
    if left != right:
        raise _MismatchSignal(p.rhs.span, left, right, _CMP_NOTE[type(p)])
    return p


@typed_depth
def check_dimensions(stmt: N.Statement,
                     db: UnitDatabase | None = None) -> DimReport:
    """Per-hypothesis (and goal) dimensional homogeneity report."""
    db = db or builtin_database()
    return _report_resolved(resolve_statement(stmt, db), db)


def _report_resolved(stmt: N.Statement, db: UnitDatabase) -> DimReport:
    """``check_dimensions`` of a statement ``resolve_statement`` returned."""
    env = _build_env(stmt, db)
    entries = []
    for label, prop in list(stmt.hyps) + [("goal", stmt.goal)]:
        try:
            _walk_prop(prop, env, db, _check_cmp)
            entries.append(DimEntry(label, None))
        except _MismatchSignal as s:
            entries.append(DimEntry(
                label, DimMismatch(s.span, s.expected, s.found, s.note)))
    return DimReport(tuple(entries))
