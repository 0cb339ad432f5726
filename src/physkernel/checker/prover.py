"""The proof engine: automatic search and derivation-script replay.

Both entry points drive the same small-step engine, so an automatic proof is
replayable as a script and a script is checked with exactly the machinery
that found it.  A statement is first gated by the dimension checker; the
engine then works on a stack of subgoals, each carrying its hypotheses, the
substitution of the variable definitions it consumed, and any constraints
derived by coefficient matching.

A ``subst`` of a variable definition only records ``x ↦ rhs``.  A step that
reads a hypothesis or the goal reads it through the substitution, so it sees
the tree that rewriting it at every ``subst`` would have left; ``ring``
translates through the substitution and builds no rewritten tree.

Soundness posture: equality goals close either by exact evaluation (with the
documented tolerance rule for approximate operands), by rational-function
identity, or by eliminating pivots of derived constraints; every division
performed symbolically is surfaced as a non-vanishing side condition, and a
Refuted verdict is only issued when the goal is *exactly* false under an
assignment forced by the hypotheses, all of which verify exactly true; a
consumed definition counts as true there only if it evaluates there or
applies no partial operation.
"""

from __future__ import annotations

from decimal import Overflow
from fractions import Fraction

from ..errors import (
    EliminationBudgetExceeded, MalformedScript, PhysKernelError,
)
from ..lang import nodes as N
from ..quantity import Quantity, compare_values
from ..record import record, replace
from ..unitdb import UnitDatabase, builtin_database
from . import ring
from .dims import DimReport, instance_checker, resolve_statement
# The report over an already resolved statement, under the name that the
# benchmark's traced run wraps as the dimension check (bench/spans.py).
from .dims import _report_resolved as check_dimensions
from .evaluate import database_for, eval_numeric, eval_prop
from .rewrite import (
    Substitution, applied_fns, definition_order, expand_fn, free_vars,
    rewrite_ground, subst_var,
)
from .script import (
    STEPS, CaseSplit, ExactHyp, Instantiate, Intro, NumericCheck, PolyMatch,
    RingCheck, Split, Step, Subst,
)

# -- verdicts -------------------------------------------------------------------


@record(frozen=True)
class SideCondition:
    """A non-vanishing claim a proof relies on.

    ``verified`` is True when the claim was checked numerically (possible
    only when it involves no statement variables), None when it is surfaced
    for the reader.
    """

    claim: str
    verified: bool | None


@record(frozen=True)
class Proved:
    steps: tuple[Step, ...]
    approx_decided: bool
    side_conditions: tuple[SideCondition, ...]
    eval_count: int = 0

    kind = "proved"


@record(frozen=True)
class Refuted:
    env: tuple[tuple[str, str], ...]
    detail: str

    kind = "refuted"


@record(frozen=True)
class Unknown:
    reason: str
    dim_report: DimReport | None = None
    failed_step: int | None = None

    kind = "unknown"


Verdict = Proved | Refuted | Unknown


class _StepFailure(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- session state ------------------------------------------------------------------


@record(frozen=True)
class _Hyp:
    name: str
    prop: N.Prop
    consumed: bool = False
    at: int = 0  # its position in the subgoal's substitution


@record
class _Subgoal:
    """A goal and its hypotheses by name, in the order they came into
    scope, each a tree at a position (``goal_at``, ``_Hyp.at``) of ``subst``.
    Reading a tree replaces it by the read tree at the current position."""

    goal: N.Prop
    hyps: dict[str, _Hyp]
    derived: list[ring.Constraint]
    subst: Substitution
    goal_at: int = 0

    def clone(self, goal: N.Prop | None = None,
              hyps: dict[str, _Hyp] | None = None) -> "_Subgoal":
        """A copy; a new ``goal`` must be at the current position."""
        return _Subgoal(self.goal if goal is None else goal,
                        dict(self.hyps) if hyps is None else hyps,
                        list(self.derived), self.subst, self.goal_at)

    def read_goal(self) -> N.Prop:
        if self.goal_at != len(self.subst):
            self.goal = self.subst.read(self.goal, self.goal_at)
            self.goal_at = len(self.subst)
        return self.goal

    def read(self, name: str) -> _Hyp:
        h = self.hyps.get(name)
        if h is None:
            raise MalformedScript(f"no hypothesis named '{name}' in scope")
        if h.at != len(self.subst):
            h = self.hyps[name] = replace(
                h, prop=self.subst.read(h.prop, h.at), at=len(self.subst))
        return h

    def add(self, h: _Hyp) -> None:
        if h.name in self.hyps:
            raise MalformedScript(f"hypothesis '{h.name}' is already in scope")
        self.hyps[h.name] = h

    def consume(self, name: str) -> None:
        """Mark hypothesis ``name``, read, as consumed; a definition that a
        ``subst`` just recorded stays as it read before its own entry."""
        self.hyps[name] = replace(self.hyps[name], consumed=True,
                                  at=len(self.subst))


def _flatten(p: N.Prop, cls: type[N.And | N.Or]) -> list[N.Prop]:
    """The operands of a nest of ``cls`` connectives, left to right."""
    operands, stack = [], [p]
    while stack:
        p = stack.pop()
        if p.__class__ is cls:
            stack += (p.rhs, p.lhs)
        else:
            operands.append(p)
    return operands


class _Session:
    def __init__(self, stmt: N.Statement, db: UnitDatabase,
                 root: Substitution, why_not_instance):
        self.db, self.why_not_instance = db, why_not_instance
        sg = _Subgoal(stmt.goal, {}, [], root)
        for n, p in stmt.hyps:
            sg.add(_Hyp(n, p))
        self.subgoals: list[_Subgoal] = [sg]
        self.trace: list[Step] = []
        self.sides: list[SideCondition] = []
        self.approx = False
        self.eval_count = 0
        self.intro_count = 0
        self.inst_counts: dict[str, int] = {}
        self.used_names = {d.name for d in stmt.decls}

    # -- shared helpers ---------------------------------------------------------

    def _eval_prop(self, p: N.Prop) -> tuple[bool, bool]:
        self.eval_count += 1
        return eval_prop(p, {}, self.db)

    def _partial(self, tree) -> bool:
        """Whether ``tree`` applies ``/`` by anything but a closed, exactly
        nonzero divisor, a negative or fractional ``**``, ``rpow``, ``log``,
        ``sqrt`` or ``deriv``: an operation undefined at some values."""
        return any(
            n.__class__ in (N.RPow, N.Deriv)
            or n.__class__ is N.Fn and n.fn in ("log", "sqrt")
            or n.__class__ is N.Pow
            and (n.exponent < 0 or n.exponent.denominator > 1)
            or n.__class__ is N.Div and not self._nonzero(n.rhs)
            for n in N.walk(tree))

    def _nonzero(self, e: N.Expr) -> bool:
        """Whether ``e`` is closed, with an exact nonzero value."""
        try:
            value = eval_numeric(e, {}, self.db).value
        except PhysKernelError:
            return False
        return isinstance(value, Fraction) and value != 0

    def _fresh(self, base: str) -> str:
        name, k = base, 0
        while name in self.used_names:
            k += 1
            name = f"{base}!{k}"
        self.used_names.add(name)
        return name

    # -- definitional classification ---------------------------------------------

    def _as_var_def(self, p: N.Prop) -> tuple[str, N.Expr] | None:
        if (isinstance(p, N.Eq) and isinstance(p.lhs, N.Var)
                and p.lhs.name not in free_vars(p.rhs)):
            return p.lhs.name, p.rhs
        return None

    def _as_fn_def(self, p: N.Prop) -> tuple[str, str, N.Expr] | None:
        if not isinstance(p, N.ForallFn):
            return None
        body = p.body
        if (isinstance(body, N.Eq) and isinstance(body.lhs, N.Apply)
                and isinstance(body.lhs.arg, N.Var)
                and body.lhs.arg.name == p.var
                and body.lhs.fn not in applied_fns(body.rhs)):
            return body.lhs.fn, p.var, body.rhs
        return None

    def _as_ground_def(self, p: N.Prop) -> tuple[N.Expr, N.Expr] | None:
        if (isinstance(p, N.Eq) and isinstance(p.lhs, N.Apply)
                and p.lhs.fn not in applied_fns(p.rhs)
                and p.lhs.fn not in applied_fns(p.lhs.arg)):
            return p.lhs, p.rhs
        return None

    # -- side conditions -----------------------------------------------------------

    def _record_poly_side(self, poly: ring.Poly, claim: str) -> None:
        if any(s.claim == claim for s in self.sides):
            return
        atoms = ring.poly_atoms(poly)
        if any(a[0] in (ring._VAR, ring._OPAQUE) for a in atoms):
            self.sides.append(SideCondition(claim, None))
            return
        env = {a: Quantity.scalar(1 if a[0] == ring._BASE
                                  else self.db.constant(a[1]).value)
               for a in atoms}
        total = Quantity.scalar(0)
        try:
            for mono, coeff in poly.items():
                term = Quantity.scalar(coeff)
                for a, e in mono:
                    term = term.mul(env[a].pow(e))
                total = total.add(term)
            cmp = compare_values(total.value, Fraction(0))
        except Overflow:
            raise _StepFailure(
                f"side condition {claim} cannot be checked: a value "
                "overflows the decimal exponent range") from None
        if cmp.equal:
            raise _StepFailure(f"side condition failed: {claim}")
        if not cmp.exact:
            self.approx = True
        self.sides.append(SideCondition(claim, True))

    def _record_rf_sides(self, pairs) -> None:
        for rf, src in pairs:
            self._record_poly_side(rf.num, f"{src} ≠ 0")

    # -- step application -----------------------------------------------------------

    def apply(self, step: Step) -> Refuted | None:
        rule = _STEP_RULES.get(step.__class__)
        if rule is None:
            raise MalformedScript(f"unknown step object {step!r}")
        outcome = rule(self, self.subgoals[0], step)
        self.trace.append(step)
        return outcome

    def _close(self) -> None:
        self.subgoals.pop(0)

    def _apply_split(self, sg: _Subgoal, step: Split) -> None:
        g = sg.read_goal()
        if not isinstance(g, N.And):
            raise MalformedScript("'split' requires a conjunction goal")
        self.subgoals[0:1] = [sg.clone(goal=g.lhs), sg.clone(goal=g.rhs)]
        return None

    def _apply_intro(self, sg: _Subgoal, step: Intro) -> None:
        g = sg.read_goal()
        if isinstance(g, N.Implies):
            self.intro_count += 1
            sg.add(_Hyp(f"h!{self.intro_count}", g.lhs, at=sg.goal_at))
            sg.goal = g.rhs
            return None
        if isinstance(g, N.ForallFn):
            fresh = self._fresh(g.var)
            sg.goal = (g.body if fresh == g.var
                       else subst_var(g.body, g.var, N.Var(fresh)))
            return None
        raise MalformedScript(
            "'intro' requires an implication or quantified goal")

    def _apply_cases(self, sg: _Subgoal, step: CaseSplit) -> None:
        g = sg.read_goal()
        if (isinstance(g, N.ForallFinite) and g.var == step.var
                and sorted(g.values) == sorted(step.values)):
            self.subgoals[0:1] = [
                sg.clone(goal=subst_var(g.body, g.var, N.NumLit(v)))
                for v in step.values]
            return None
        # Otherwise branch on a disjunctive hypothesis enumerating the values.
        for h in sg.hyps.values():
            if h.consumed or not isinstance(h.prop, N.Or):
                continue
            leaves = _flatten(sg.read(h.name).prop, N.Or)
            if not all(isinstance(leaf, N.Eq) and isinstance(leaf.lhs, N.Var)
                       and leaf.lhs.name == step.var
                       and isinstance(leaf.rhs, N.NumLit) for leaf in leaves):
                continue
            if sorted(leaf.rhs.value for leaf in leaves) != sorted(step.values):
                continue
            self.subgoals[0:1] = [
                sg.clone(hyps={**sg.hyps, h.name: _Hyp(
                    h.name, N.Eq(N.Var(step.var), N.NumLit(v)),
                    at=len(sg.subst))})
                for v in step.values]
            return None
        raise MalformedScript(
            f"'cases {step.var}' matches neither the goal quantifier nor a "
            "disjunctive hypothesis")

    def _apply_subst(self, sg: _Subgoal, step: Subst) -> None:
        h = sg.read(step.hyp)
        var_def = self._as_var_def(h.prop)
        if var_def is not None:
            sg.subst = sg.subst.then(*var_def)
            sg.consume(h.name)
            return None
        if (fn_def := self._as_fn_def(h.prop)) is not None:
            f, v, body = fn_def
            rw = lambda p: expand_fn(p, f, v, body)  # noqa: E731
        elif (ground := self._as_ground_def(h.prop)) is not None:
            pattern, rhs = ground
            f = pattern.fn
            rw = lambda p: rewrite_ground(p, pattern, rhs)  # noqa: E731
        else:
            raise MalformedScript(
                f"'{step.hyp}' is not a definitional hypothesis")
        # Function and ground definitions rewrite at once, read at the current
        # position, each tree a later step reads: the goal, every unconsumed
        # hypothesis and every function definition (polymatch reads consumed
        # ones).  A consumed variable definition lives in the log only.
        if f in free_vars(g := sg.read_goal()):
            sg.goal = rw(g)
        for hh in sg.hyps.values():
            if hh.name == h.name or (
                    hh.consumed and not isinstance(hh.prop, N.ForallFn)):
                continue
            hh = sg.read(hh.name)
            if f in free_vars(hh.prop):
                sg.hyps[hh.name] = replace(hh, prop=rw(hh.prop))
        sg.consume(h.name)
        return None

    def _apply_inst(self, sg: _Subgoal, step: Instantiate) -> None:
        h = sg.read(step.hyp)
        if not isinstance(h.prop, N.ForallFn):
            raise MalformedScript(
                f"'{step.hyp}' is not a quantified hypothesis")
        why_not = self.why_not_instance(h.prop, step.arg)
        if why_not is not None:
            raise MalformedScript(f"'inst {step.hyp}' argument {why_not}")
        n = self.inst_counts.get(step.hyp, 0) + 1
        self.inst_counts[step.hyp] = n
        prop = subst_var(h.prop.body, h.prop.var, step.arg)
        sg.add(_Hyp(f"{step.hyp}@{n}", prop, at=len(sg.subst)))
        return None

    def _fn_def_of(self, sg: _Subgoal, fname: str):
        for h in sg.hyps.values():
            if not isinstance(h.prop, N.ForallFn):
                continue
            d = self._as_fn_def(sg.read(h.name).prop)
            if d is not None and d[0] == fname:
                return d
        return None

    def _apply_polymatch(self, sg: _Subgoal, step: PolyMatch) -> None:
        p = sg.read(step.hyp).prop
        if p.__class__ is not N.FnEq:
            raise MalformedScript(
                f"'{step.hyp}' is not a function-equality hypothesis")
        bodies = []
        for fname in (p.lhs.name, p.rhs.name):
            d = self._fn_def_of(sg, fname)
            if d is None:
                raise _StepFailure(
                    f"no pointwise definition of '{fname}' is in scope")
            _, binder, body = d
            if step.param != binder:
                if step.param in free_vars(body) - {binder}:
                    raise _StepFailure(
                        f"parameter '{step.param}' collides with a free "
                        f"variable of the definition of '{fname}'")
                body = subst_var(body, binder, N.Var(step.param))
            bodies.append(body)
        try:
            match = ring.poly_coeff_eqs(bodies[0], bodies[1], step.param,
                                        self.db, sg.subst)
        except PhysKernelError as exc:
            raise _StepFailure(str(exc)) from exc
        self._record_rf_sides(match.sides)
        for eq in match.eqs:
            sg.derived.append(ring.Constraint(
                eq.poly, f"{step.hyp}[{step.param}^{eq.degree}]"))
        sg.consume(step.hyp)
        return None

    def _apply_ring(self, sg: _Subgoal, step: RingCheck) -> None:
        g = sg.goal
        if g.__class__ is N.FnEq:
            raise _StepFailure(
                "ring arithmetic cannot decide function equality")
        if not isinstance(g, N.Eq):
            raise MalformedScript("'ring' requires an equality goal")
        try:
            goal_tr = ring.translate_difference(g.lhs, g.rhs, self.db,
                                                sg.subst, sg.goal_at)
        except PhysKernelError as exc:
            raise _StepFailure(str(exc)) from exc
        if goal_tr.rf.is_zero:
            self._record_rf_sides(goal_tr.sides)
            self._close()
            return None
        constraints: list[ring.Constraint] = []
        cons_sides: dict[str, list] = {}
        for h in sg.hyps.values():
            if h.consumed:
                continue
            leaves = _flatten(h.prop, N.And)
            for j, leaf in enumerate(leaves):
                if not isinstance(leaf, N.Eq):
                    continue
                label = h.name if len(leaves) == 1 else f"{h.name}[{j}]"
                try:
                    tr = ring.translate_difference(leaf.lhs, leaf.rhs, self.db,
                                                   sg.subst, h.at)
                except PhysKernelError:
                    continue
                if tr.rf.is_zero:
                    continue
                constraints.append(ring.Constraint(tr.rf.num, label))
                cons_sides[label] = tr.sides
        constraints.extend(sg.derived)
        ordered = list(reversed(constraints))
        try:
            found = ring.eliminate(goal_tr.rf, ordered)
        except EliminationBudgetExceeded as exc:
            raise _StepFailure(str(exc)) from exc
        if found is None:
            residual = goal_tr.rf.canonical().render()
            raise _StepFailure(
                "the goal does not follow by ring arithmetic; "
                f"residual: {residual}")
        self._record_rf_sides(goal_tr.sides)
        for st in found.steps:
            self._record_poly_side(
                st.nonzero, f"{ring.poly_render(st.nonzero)} ≠ 0")
        for st in found.steps:
            self._record_rf_sides(cons_sides.get(st.label, ()))
        self._close()
        return None

    def _closure_env(self, sg: _Subgoal) -> dict:
        """The assignment the log forces.  From the last entry back, each is
        evaluated once, under the values of the later entries its names read
        (``first(y, k + 1)``), if each of those has a value.  A name maps to
        its last entry's value, evaluation error or None."""
        subst, values = sg.subst, {}
        for k in range(len(subst) - 1, -1, -1):
            rhs = subst.entry(k)[1]
            env = {y: values.get(subst.first(y, k + 1))
                   for y in free_vars(rhs)}
            if all(isinstance(q, Quantity) for q in env.values()):
                try:
                    values[k] = eval_numeric(rhs, env, self.db)
                except PhysKernelError as exc:
                    values[k] = exc
        return {x: values.get(k) for k, (x, _) in enumerate(subst.entries)}

    def _apply_numeric(self, sg: _Subgoal,
                       step: NumericCheck) -> Refuted | None:
        g = sg.read_goal()
        if isinstance(g, (N.ForallFn, N.ForallFinite)):
            raise MalformedScript(
                "'numeric' cannot decide a quantified goal")
        unbound = sorted(free_vars(g))
        if unbound:
            raise _StepFailure(
                "the goal still mentions "
                + ", ".join(f"'{v}'" for v in unbound)
                + "; 'numeric' needs a fully instantiated goal")
        try:
            truth, exact = self._eval_prop(g)
        except PhysKernelError as exc:
            raise _StepFailure(f"evaluation failed: {exc}") from exc
        if truth:
            if not exact:
                self.approx = True
            self._close()
            return None
        if not exact:
            raise _StepFailure(
                "the goal is false at the working precision, which is not "
                "exact enough to refute")
        return self._refute(sg)

    def _refute(self, sg: _Subgoal) -> Refuted:
        # A consumed definition holds at the witness where it evaluated.  One
        # that applies a partial operation may have no solution at all, and a
        # function equality's coefficients are not checked here.
        closure = self._closure_env(sg)
        for h in sg.hyps.values():
            if h.consumed:
                var_def = self._as_var_def(h.prop)
                value = closure.get(var_def[0]) if var_def else None
                if isinstance(value, PhysKernelError) or value is None and (
                        h.prop.__class__ is N.FnEq or self._partial(h.prop)):
                    raise _StepFailure(
                        f"goal is exactly false, but consumed hypothesis "
                        f"'{h.name}' " + ("may have no solution"
                                          if value is None else
                                          f"failed to evaluate: {value}"))
                continue
            h = sg.read(h.name)
            if isinstance(h.prop, (N.ForallFn, N.ForallFinite)):
                raise _StepFailure(
                    f"goal is exactly false, but the quantified hypothesis "
                    f"'{h.name}' cannot be verified numerically")
            if free_vars(h.prop):
                raise _StepFailure(
                    f"goal is exactly false, but hypothesis '{h.name}' "
                    "still has unbound variables")
            try:
                truth, exact = self._eval_prop(h.prop)
            except PhysKernelError as exc:
                raise _StepFailure(
                    f"goal is exactly false, but hypothesis '{h.name}' "
                    f"failed to evaluate: {exc}") from exc
            if not truth:
                raise _StepFailure(
                    f"hypothesis '{h.name}' is false under the forced "
                    "assignment; the statement is vacuous there")
            if not exact:
                raise _StepFailure(
                    f"hypothesis '{h.name}' only verifies approximately; "
                    "approximate agreement never refutes")
        return Refuted(tuple((x, value.render())
                             for x, value in sorted(closure.items())
                             if isinstance(value, Quantity)),
                       "the goal is exactly false under the assignment "
                       "forced by the hypotheses")

    def _apply_exact(self, sg: _Subgoal, step: ExactHyp) -> None:
        h = sg.read(step.hyp)
        if not N.ast_eq(h.prop, sg.read_goal()):
            raise _StepFailure(
                f"hypothesis '{step.hyp}' is not syntactically identical "
                "to the goal")
        self._close()
        return None


#: Each step's rule, ``_Session._apply_<keyword>``; one missing fails here.
_STEP_RULES = {cls: getattr(_Session, f"_apply_{keyword}")
               for keyword, cls in STEPS.items()}


# -- orientation ---------------------------------------------------------------------


def _orient(session: _Session, sg: _Subgoal) -> list[str]:
    """Order the definitional hypotheses for substitution.

    Variable and function definitions are accepted greedily in hypothesis
    order; a definition that would close a dependency cycle is demoted to an
    ordinary constraint.  Accepted definitions are emitted so that a
    definition precedes everything it mentions, the earliest accepted
    first among those ready; ground rewrites follow in hypothesis order.
    """
    accepted: dict[str, str] = {}  # accepted symbol -> its hypothesis
    grounds: list[str] = []
    edges: dict[str, frozenset[str]] = {}  # accepted symbol -> its deps
    mentioned: set[str] = set()  # the names some accepted definition uses

    for h in sg.hyps.values():
        if h.consumed:
            continue
        h = sg.read(h.name)
        var_def = session._as_var_def(h.prop)
        fn_def = session._as_fn_def(h.prop)
        if var_def is not None:
            symbol, rhs = var_def
            deps = free_vars(rhs)
        elif fn_def is not None:
            symbol, binder, body = fn_def
            deps = free_vars(body) - {binder}
        else:
            if session._as_ground_def(h.prop) is not None:
                grounds.append(h.name)
            continue
        if symbol in edges:
            continue  # a second definition stays a constraint
        # Only a symbol that an accepted definition uses can close a loop,
        # so a chain of definitions in either order costs one step each.
        if symbol in deps or (symbol in mentioned
                              and _reaches(deps, symbol, edges)):
            continue  # demoted: closing the loop stays a constraint
        edges[symbol] = deps
        mentioned |= deps
        accepted[symbol] = h.name
    return [accepted[s] for s in definition_order(edges)] + grounds


def _reaches(names, target: str, edges) -> bool:
    """Whether a name in ``names`` reaches ``target`` along ``edges``."""
    seen, stack = set(names), list(names)
    while stack:
        for name in edges.get(stack.pop(), ()):
            if name == target:
                return True
            if name not in seen:
                seen.add(name)
                stack.append(name)
    return False


# -- entry points ----------------------------------------------------------------------


# The last (stmt, db, prepared) that _open computed.  The harness proves an
# entry and then replays a script against the same statement object, so the
# replay finds its set-up here, and with it the root of the statement's
# substitution logs: the replay reads and translates through the logs the
# search grew, and finds each tree it shares with the search read and
# translated.  Statements and databases are frozen and never mutated, the
# set-up is a deterministic function of the two, and the logs memoise only
# pure functions of their entries, so an identity hit returns what
# recomputing would; no decision of the search (an elimination, an
# evaluation, a side condition) is kept.  Each new statement drops the last
# one's logs with their memos.
_last_prepared: tuple = (None, None, None)


def _open(stmt: N.Statement, db: UnitDatabase | None) -> _Session | Unknown:
    """A session on ``stmt``, or Unknown if it is not homogeneous."""
    global _last_prepared
    last_stmt, last_db, prepared = _last_prepared
    if last_stmt is not stmt or last_db is not db:
        full_db = database_for(stmt, db)
        resolved = resolve_statement(stmt, full_db)
        report = check_dimensions(resolved, full_db)
        if report.homogeneous:
            prepared = (resolved, full_db, Substitution(),
                        instance_checker(resolved, full_db))
        else:
            prepared = Unknown("the statement is not dimensionally "
                               "homogeneous", dim_report=report)
        _last_prepared = (stmt, db, prepared)
    return prepared if isinstance(prepared, Unknown) else _Session(*prepared)


def check_derivation(stmt: N.Statement, steps,
                     db: UnitDatabase | None = None) -> Verdict:
    """Replay a derivation script against a statement."""
    session = _open(stmt, db)
    if isinstance(session, Unknown):
        return session
    for i, step in enumerate(steps):
        if not session.subgoals:
            raise MalformedScript("steps remain after all goals closed", i)
        try:
            outcome = session.apply(step)
        except _StepFailure as f:
            return Unknown(f.reason, failed_step=i)
        except MalformedScript as m:  # a rule's refusal names no step
            raise MalformedScript(str(m), i) from None
        if isinstance(outcome, Refuted):
            return outcome
    if session.subgoals:
        return Unknown(f"{len(session.subgoals)} goal(s) remain open",
                       failed_step=len(session.trace))
    return Proved(tuple(session.trace), session.approx, tuple(session.sides),
                  session.eval_count)


def auto_prove(stmt: N.Statement, db: UnitDatabase | None = None) -> Verdict:
    """Search for a proof; any Proved verdict carries a replayable script."""
    session = _open(stmt, db)
    if isinstance(session, Unknown):
        return session
    while session.subgoals:
        sg = session.subgoals[0]
        step = _structural_step(session, sg)
        if step is not None:
            session.apply(step)  # structural steps cannot fail here
            continue
        outcome = _leaf(session, sg)
        if outcome is not None:
            return outcome
    return Proved(tuple(session.trace), session.approx, tuple(session.sides),
                  session.eval_count)


def _structural_step(session: _Session, sg: _Subgoal) -> Step | None:
    g = sg.read_goal()
    for h in sg.hyps.values():
        if not h.consumed and N.ast_eq(sg.read(h.name).prop, g):
            return ExactHyp(h.name)
    if isinstance(g, N.And):
        return Split()
    if isinstance(g, N.ForallFinite):
        return CaseSplit(g.var, g.values)
    if isinstance(g, (N.Implies, N.ForallFn)):
        return Intro()
    return None


def _leaf(session: _Session, sg: _Subgoal) -> Verdict | None:
    """Close the focused comparison subgoal, or report why it stays open."""
    for name in _orient(session, sg):
        session.apply(Subst(name))

    # Function-equality hypotheses contribute coefficient constraints.
    for h in list(sg.hyps.values()):
        if h.consumed or h.prop.__class__ is not N.FnEq:
            continue
        d = session._fn_def_of(sg, h.prop.lhs.name)
        if d is None:
            continue
        probe = PolyMatch(h.name, d[1])
        saved = (dict(sg.hyps), list(sg.derived), list(session.sides))
        try:
            session.apply(probe)
        except (_StepFailure, MalformedScript):
            sg.hyps, sg.derived = saved[0], saved[1]
            session.sides[:] = saved[2]

    g = sg.goal
    if isinstance(g, N.Or):
        return Unknown("disjunctive goals require a derivation script")
    if g.__class__ is N.FnEq:
        return Unknown("function-equality goals close only via an "
                       "identical hypothesis")
    if not isinstance(g, (N.Eq, N.Ne, N.Le, N.Lt)):
        return Unknown(f"no automatic rule applies to this goal shape "
                       f"({type(g).__name__})")
    # The goal stays at its position: 'ring' translates it there, as the
    # replay of the script does, so the two share the log's translation.
    if not free_vars(sg.subst.read(g, sg.goal_at)):
        try:
            outcome = session.apply(NumericCheck())
        except _StepFailure as f:
            return Unknown(f.reason)
        return outcome if isinstance(outcome, Refuted) else None
    if isinstance(g, N.Eq):
        try:
            session.apply(RingCheck())
        except _StepFailure as f:
            return Unknown(f.reason)
        return None
    return Unknown("comparison goals with unbound variables cannot be "
                   "decided automatically")
