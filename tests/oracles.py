"""Reference implementations that tests check the engine's results with."""

import re
from fractions import Fraction

from physkernel.checker import ring
from physkernel.checker.dims import _CMP_NOTE, _forall_var_dim, _MismatchSignal
from physkernel.checker.evaluate import _eval_fn
from physkernel.checker.ring import (
    _ONE, RationalFunc, _coeff, _mono_mul, poly_add, poly_const,
    poly_degree_in,
)
from physkernel.dimension import DIMENSIONLESS, BaseDim
from physkernel.errors import (
    DimensionMismatch, DivisionByZero, DomainError, EliminationBudgetExceeded,
    ParseError, UnboundVariable, UnsupportedNode,
)
from physkernel.lang import nodes as N
from physkernel.lang.nodes import FN_NAMES, Span
from physkernel.lang.printer import render_rational
from physkernel.quantity import (
    _DEC, Quantity, _approx, _num_pow, _to_decimal,
)
from physkernel.record import replace
from physkernel.unitdb import CONSTANT_ALIASES


def poly_eval(p, env) -> Fraction:
    """Exact value of a ring polynomial (monomial -> coefficient) at a
    rational point that binds every atom; always a ``Fraction``, even where
    every coefficient is an ``int``."""
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for a, e in m:
            term *= env[a] ** e
        total += term
    return total


_NUMBER_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")
# Longest match first.
_OPERATORS = [
    "**", "*.", ":=", "->", "/\\", "\\/", "!=", "<=", ">=",
    "(", ")", "{", "}", ",", ":", "=", "<", ">", "+", "-", "*", "/",
    "•", "∧", "∨", "→", "≤", "≥", "≠", "∀",
]
_KEYWORDS = frozenset(
    ["theorem", "forall", "in", "cast", "unit", "std", "val", "norm",
     "deriv", "rpow", *FN_NAMES]
)


def tokenize_by_character(text: str, start: int = 0) -> list[tuple]:
    """(kind, text, start, end, line, col) of each token of ``text[start:]``,
    read one character at a time with ``str`` predicates and each operator
    tried in turn; raises ``ParseError`` where ``lang.parser.tokenize`` must.

    A character for which ``str.isdigit`` holds but which is no decimal
    digit (``²``) raises ``AttributeError`` where it starts a token.
    """
    tokens = []
    line, col = 1, 1
    for ch in text[:start]:
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            tokens.append(("number", m.group(0), i, m.end(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch == "_" or ch.isidentifier():
            j = i + 1
            while j < n and (text[j] == "_" or text[j].isdigit()
                             or text[j].isidentifier()):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append((kind, word, i, j, line, col))
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(("op", op, i, i + len(op), line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col,
                             span=Span(i, i + 1, line, col))
    tokens.append(("eof", "", n, n, line, col))
    return tokens


# -- the polynomial kernel without fast paths ---------------------------------
#
# ``checker.ring``'s multiplication, powers, rational-function arithmetic and
# substitution as they were before they skipped work with a known answer: a
# unit or one-term operand goes through the full product loop, and every
# term of a substitution builds its power again.  Each result has the same
# terms in the same order, so the kernel must match these exactly.


def poly_mul_loop(p, q):
    """``ring.poly_mul`` by the product loop alone."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc if type(nc) is int else _coeff(nc)
    return out


def poly_pow_loop(p, n):
    """``ring.poly_pow``'s binomial split with every ``r^j`` built by
    ``poly_mul_loop``."""
    if n < 0:
        raise ValueError("poly_pow expects a non-negative exponent")
    if n == 0:
        return poly_const(1)
    if n == 1:
        return p
    if len(p) <= 1:
        return {tuple([(a, e * n) for a, e in m]): _coeff(c ** n)
                for m, c in p.items()}
    items = iter(p.items())
    tm, tc = next(items)
    r = dict(items)
    out = {}
    binom, rj = 1, poly_const(1)
    for j in range(n + 1):
        k = n - j
        tk_mono = tuple([(a, e * k) for a, e in tm]) if k else _ONE
        scale = binom * tc ** k
        for m, c in rj.items():
            key = _mono_mul(tk_mono, m)
            nc = out.get(key, 0) + scale * c
            if nc == 0:
                out.pop(key, None)
            else:
                out[key] = nc if type(nc) is int else _coeff(nc)
        if k:
            binom = binom * k // (j + 1)
            rj = poly_mul_loop(rj, r)
    return out


class RationalFuncLoop:
    """``ring.RationalFunc``'s arithmetic over the loop primitives."""

    def __init__(self, num, den=None):
        if den is None:
            den = poly_const(1)
        elif not den:
            raise DivisionByZero("rational function with zero denominator")
        self.num, self.den = num, den

    def add(self, other):
        return RationalFuncLoop(
            poly_add(poly_mul_loop(self.num, other.den),
                     poly_mul_loop(other.num, self.den)),
            poly_mul_loop(self.den, other.den))

    def mul(self, other):
        return RationalFuncLoop(poly_mul_loop(self.num, other.num),
                                poly_mul_loop(self.den, other.den))

    def div(self, other):
        if not other.num:
            raise DivisionByZero("division by a symbolically zero term")
        return RationalFuncLoop(poly_mul_loop(self.num, other.den),
                                poly_mul_loop(self.den, other.num))

    def pow(self, n):
        if n >= 0:
            return RationalFuncLoop(poly_pow_loop(self.num, n),
                                    poly_pow_loop(self.den, n))
        if not self.num:
            raise DivisionByZero("zero term with a negative exponent")
        return RationalFuncLoop(poly_pow_loop(self.den, -n),
                                poly_pow_loop(self.num, -n))


def subst_poly_loop(p, atom, d, sol):
    """``ring._subst_poly`` term by term: ``sol``'s power is built for every
    term, and the running sum is checked against ``ring.ELIM_TERM_BUDGET``
    (read when called) after each term."""
    total = RationalFuncLoop({})
    for m, c in p.items():
        q, r = divmod(poly_degree_in(m, atom), d)
        base = {_mono_mul(tuple((a, k) for a, k in m if a != atom),
                          ((atom, r),) if r else _ONE): c}
        total = total.add(RationalFuncLoop(base).mul(sol.pow(q)))
        for part in (total.num, total.den):
            if len(part) > ring.ELIM_TERM_BUDGET:
                raise EliminationBudgetExceeded(
                    "ELIM_TERM_BUDGET", ring.ELIM_TERM_BUDGET,
                    f"built a polynomial of {len(part)} terms")
    return total


# -- the elimination search that substitutes everywhere -----------------------
#
# ``ring._search`` as it was before unchanged goals and constraints passed
# through it and each constraint's pivots were found once: every node solves
# every constraint again and substitutes into the goal and every other
# constraint, whether or not they hold the pivot.  The budgets are read from
# ``ring`` when called, so a test may set them.


def _pivots_ref(c, preferred):
    poly = c.poly
    candidates = ring._pivot_atoms(ring.poly_atoms(poly))
    out = []
    for atom in sorted(candidates, key=lambda a: (a not in preferred, a)):
        degrees = {poly_degree_in(m, atom) for m in poly}
        nonzero = sorted(d for d in degrees if d)
        if len(nonzero) != 1 or degrees - {0, nonzero[0]}:
            continue
        d = nonzero[0]
        coeff, rest = {}, {}
        for m, cf in poly.items():
            if poly_degree_in(m, atom) == d:
                coeff[tuple((a, e) for a, e in m if a != atom)] = cf
            else:
                rest[m] = cf
        out.append(ring.EliminationStep(c.label, atom, d, RationalFunc(
            ring.poly_neg(rest), coeff), coeff))
    return out


def _check_terms_ref(num, den):
    for p in (num, den):
        if len(p) > ring.ELIM_TERM_BUDGET:
            raise EliminationBudgetExceeded(
                "ELIM_TERM_BUDGET", ring.ELIM_TERM_BUDGET,
                f"built a polynomial of {len(p)} terms")


def _subst_poly_ref(p, atom, d, sol):
    powers = {}
    num, den = {}, poly_const(1)
    for m, c in p.items():
        q, r = divmod(poly_degree_in(m, atom), d)
        power = powers.get(q)
        if power is None:
            power = powers[q] = sol.pow(q)
        if r:
            m = tuple([(a, r if a == atom else k) for a, k in m])
        elif q:
            m = tuple([ak for ak in m if ak[0] != atom])
        num = poly_add(ring.poly_mul(num, power.den),
                       ring.poly_mul(ring.poly_mul({m: c}, power.num), den))
        den = ring.poly_mul(den, power.den)
        _check_terms_ref(num, den)
    return RationalFunc(num, den)


def _subst_rf_ref(rf, atom, d, sol):
    out = _subst_poly_ref(rf.num, atom, d, sol).div(
        _subst_poly_ref(rf.den, atom, d, sol))
    _check_terms_ref(out.num, out.den)
    return out


def search_ref(goal, constraints, depth, trail, left):
    """``ring._search`` substituting everywhere; ``left`` is a one-item list
    of the nodes still allowed."""
    if left[0] == 0:
        raise EliminationBudgetExceeded(
            "ELIM_NODE_BUDGET", ring.ELIM_NODE_BUDGET,
            f"reached node {ring.ELIM_NODE_BUDGET + 1}")
    left[0] -= 1
    if goal.is_zero:
        return ring.Elimination(trail)
    if depth == 0 or not constraints:
        return None
    goal_atoms = ring._pivot_atoms(goal.atoms())
    for i, c in enumerate(constraints):
        for step in _pivots_ref(c, goal_atoms):
            atom, d, sol = step.atom, step.degree, step.solution
            try:
                new_goal = _subst_rf_ref(goal, atom, d, sol)
                rest = []
                for other in constraints[:i] + constraints[i + 1:]:
                    reduced = _subst_poly_ref(other.poly, atom, d, sol)
                    if reduced.num:
                        rest.append(ring.Constraint(reduced.num, other.label))
            except DivisionByZero:
                continue
            found = search_ref(new_goal, rest, depth - 1, trail + (step,),
                               left)
            if found is not None:
                return found
    return None


# -- the recursive tree passes that ``nodes.fold`` replaced ---------------------
#
# Each pass as it was before it became a table of rules over ``nodes.fold``,
# with one Python frame per tree level.  On trees shallow enough for the
# recursion limit, the fold-based passes must return what these return, or
# raise an exception of the same type with the same message, with side
# conditions and opaque atoms recorded in the same order (test_fold.py).


def free_vars_ref(node) -> frozenset[str]:
    """``rewrite.free_vars``, recomputed without a cache."""
    names = frozenset().union(*(free_vars_ref(c) for c in N.children(node)))
    if isinstance(node, N.Var):
        names = names | {node.name}
    elif isinstance(node, (N.Apply, N.Deriv)):
        names = names | {node.fn}
    elif isinstance(node, (N.ForallFn, N.ForallFinite)):
        names = names - {node.var}
    return names


def transform_ref(node, fn):
    """``fn(node)`` or the node with its children transformed, rebuilt only
    where a child changed: the walk the rewriting references share."""
    replacement = fn(node)
    if replacement is not None:
        return replacement
    changed = None
    for name in node._fields:
        value = getattr(node, name)
        if not isinstance(value, N.Node):
            continue
        new_value = transform_ref(value, fn)
        if new_value is not value:
            if changed is None:
                changed = {}
            changed[name] = new_value
    if changed is None:
        return node
    return type(node)(span=node.span,
                      **{f: changed.get(f, getattr(node, f))
                         for f in node._fields})


def _rewrite_ref(node, names, leaf, inserted):
    def visit(n):
        free = free_vars_ref(n)
        if free.isdisjoint(names):
            return n
        if not isinstance(n, (N.ForallFn, N.ForallFinite)):
            return leaf(n, names)
        avoid = inserted(names & free)
        if n.var in avoid:  # to <var>!<k>, free in neither body nor avoid
            taken, k = free_vars_ref(n.body) | avoid, 1
            while f"{n.var}!{k}" in taken:
                k += 1
            fresh = f"{n.var}!{k}"
            n = replace(n, var=fresh,
                        body=subst_var_ref(n.body, n.var, N.Var(fresh)))
        body = _rewrite_ref(n.body, names - {n.var}, leaf, inserted)
        return n if body is n.body else replace(n, body=body)

    return transform_ref(node, visit)


def subst_var_ref(node, name, replacement):
    inserted = free_vars_ref(replacement)
    return _rewrite_ref(
        node, frozenset((name,)),
        lambda n, _: replacement if isinstance(n, N.Var) else None,
        lambda _: inserted)


def expand_fn_ref(node, fname, binder, body):
    inserted = free_vars_ref(body) - {binder}

    def leaf(n, _):
        if isinstance(n, N.Apply) and n.fn == fname:
            return subst_var_ref(body, binder,
                                 expand_fn_ref(n.arg, fname, binder, body))
        return None

    return _rewrite_ref(node, frozenset((fname,)), leaf, lambda _: inserted)


def rewrite_ground_ref(node, pattern, replacement):
    names = free_vars_ref(pattern)
    inserted = free_vars_ref(replacement)

    def leaf(n, live):
        if live != names or not names <= free_vars_ref(n):
            return n
        if isinstance(n, N.Expr) and N.ast_eq(n, pattern):
            return replacement
        return None

    return _rewrite_ref(node, names, leaf,
                        lambda hit: inserted if hit == names else frozenset())


class SubstitutionRef:
    """``rewrite.Substitution`` with its recursive reads."""

    def __init__(self, entries=()):
        self.entries = entries
        self.translations = {}
        self._pending = {}
        self._rhs = {}

    def __len__(self):
        return len(self.entries)

    def pending(self, at):
        found = self._pending.get(at)
        if found is None:
            first = {}
            for j in range(len(self.entries) - 1, at - 1, -1):
                first[self.entries[j][0]] = j
            found = self._pending[at] = first, frozenset(first)
        return found

    def rhs(self, j):
        e = self._rhs.get(j)
        if e is None:
            e = self._rhs[j] = self.read(self.entries[j][1], j + 1)
        return e

    def read(self, node, at):
        first, names = self.pending(at)

        def leaf(n, _):
            return self.rhs(first[n.name]) if isinstance(n, N.Var) else None

        def inserted(hit):
            return frozenset().union(
                *(free_vars_ref(self.rhs(first[x])) for x in hit))

        return _rewrite_ref(node, names, leaf, inserted)


def expr_dim_ref(e, env, db):
    """``dims.expr_dim``: raises ``dims._MismatchSignal`` at the first
    violation.  ``env`` has the ``vars`` and ``fns`` of ``dims._Env``."""
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
        return expr_dim_ref(e.arg, env, db)
    if isinstance(e, (N.Add, N.Sub)):
        left = expr_dim_ref(e.lhs, env, db)
        right = expr_dim_ref(e.rhs, env, db)
        if left != right:
            word = "addition" if isinstance(e, N.Add) else "subtraction"
            raise _MismatchSignal(e.rhs.span, left, right,
                                  f"{word} requires equal dimensions")
        return left
    if isinstance(e, N.Mul):
        return expr_dim_ref(e.lhs, env, db).combine(
            expr_dim_ref(e.rhs, env, db))
    if isinstance(e, N.Div):
        return expr_dim_ref(e.lhs, env, db).combine(
            expr_dim_ref(e.rhs, env, db).invert())
    if isinstance(e, N.Neg):
        return expr_dim_ref(e.arg, env, db)
    if isinstance(e, N.SMul):
        scalar = expr_dim_ref(e.scalar, env, db)
        if not scalar.is_dimensionless:
            raise _MismatchSignal(e.scalar.span, DIMENSIONLESS, scalar,
                                  "scalar position of •")
        return expr_dim_ref(e.arg, env, db)
    if isinstance(e, N.Pow):
        return expr_dim_ref(e.base, env, db).scale(e.exponent)
    if isinstance(e, N.RPow):
        base = expr_dim_ref(e.base, env, db)
        if not base.is_dimensionless:
            raise _MismatchSignal(e.base.span, DIMENSIONLESS, base,
                                  "base of a real power")
        exponent = expr_dim_ref(e.exponent, env, db)
        if not exponent.is_dimensionless:
            raise _MismatchSignal(e.exponent.span, DIMENSIONLESS, exponent,
                                  "exponent of a real power")
        return DIMENSIONLESS
    if isinstance(e, N.Cast):
        target = db.kind(e.kind)
        if isinstance(e.arg, N.StdUnit):
            return target
        found = expr_dim_ref(e.arg, env, db)
        if found != target:
            raise _MismatchSignal(e.arg.span, target, found,
                                  f"cast to {e.kind}")
        return target
    if isinstance(e, (N.Val, N.Norm)):
        expr_dim_ref(e.arg, env, db)
        return DIMENSIONLESS
    if isinstance(e, N.Fn):
        found = expr_dim_ref(e.arg, env, db)
        if not found.is_dimensionless:
            raise _MismatchSignal(e.arg.span, DIMENSIONLESS, found,
                                  f"argument of {e.fn}")
        return DIMENSIONLESS
    if isinstance(e, N.Apply):
        arg_dim, result_dim = env.fns[e.fn]
        found = expr_dim_ref(e.arg, env, db)
        if found != arg_dim:
            raise _MismatchSignal(e.arg.span, arg_dim, found,
                                  f"argument of {e.fn}")
        return result_dim
    if isinstance(e, N.Deriv):
        arg_dim, result_dim = env.fns[e.fn]
        found = expr_dim_ref(e.at, env, db)
        if found != arg_dim:
            raise _MismatchSignal(e.at.span, arg_dim, found,
                                  f"derivative point of {e.fn}")
        return result_dim.combine(arg_dim.invert())
    raise ParseError(f"unsupported expression node {type(e).__name__}",
                     span=getattr(e, "span", N.DUMMY_SPAN))


def check_cmp_ref(p, env, db):
    """``dims._check_cmp`` over ``expr_dim_ref``."""
    if isinstance(p, N.FnEq):
        (la, lr), (ra, rr) = env.fns[p.lhs.name], env.fns[p.rhs.name]
        if la != ra:
            raise _MismatchSignal(p.rhs.span, la, ra,
                                  "function argument kinds differ")
        if lr != rr:
            raise _MismatchSignal(p.rhs.span, lr, rr,
                                  "function result kinds differ")
        return p
    left = expr_dim_ref(p.lhs, env, db)
    right = expr_dim_ref(p.rhs, env, db)
    if left != right:
        raise _MismatchSignal(p.rhs.span, left, right, _CMP_NOTE[type(p)])
    return p


def walk_prop_ref(p, env, db, on_cmp):
    """``dims._walk_prop``: ``on_cmp(cmp, env, db)`` at each comparison,
    with each quantifier's variable in ``env`` while its body is walked; a
    ``ForallFn`` keeps the kind it records and records one it lacks."""
    if isinstance(p, (N.Eq, N.Ne, N.Le, N.Lt, N.FnEq)):
        return on_cmp(p, env, db)
    if isinstance(p, (N.And, N.Or, N.Implies)):
        lhs = walk_prop_ref(p.lhs, env, db, on_cmp)
        rhs = walk_prop_ref(p.rhs, env, db, on_cmp)
        if lhs is p.lhs and rhs is p.rhs:
            return p
        return replace(p, lhs=lhs, rhs=rhs)
    if isinstance(p, (N.ForallFinite, N.ForallFn)):
        if isinstance(p, N.ForallFinite):
            dim = DIMENSIONLESS
        elif p.dim is not None:
            dim = p.dim
        else:
            dim = _forall_var_dim(p, env)
        saved = env.vars.get(p.var)
        env.vars[p.var] = dim
        try:
            body = walk_prop_ref(p.body, env, db, on_cmp)
        finally:
            if saved is None:
                del env.vars[p.var]
            else:
                env.vars[p.var] = saved
        if isinstance(p, N.ForallFn) and p.dim is None:
            return replace(p, body=body, dim=dim)
        return p if body is p.body else replace(p, body=body)
    raise ParseError(f"unsupported proposition node {type(p).__name__}",
                     span=getattr(p, "span", N.DUMMY_SPAN))


_ARITH = {N.Add: Quantity.add, N.Sub: Quantity.sub, N.Mul: Quantity.mul,
          N.Div: Quantity.div}


def eval_ref(e, env, db):
    """``evaluate.eval_numeric``."""
    op = _ARITH.get(e.__class__)
    if op is not None:
        return op(eval_ref(e.lhs, env, db), eval_ref(e.rhs, env, db))
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
        return eval_ref(e.arg, env, db).smul(db.prefix(e.prefix))
    if isinstance(e, N.Neg):
        return eval_ref(e.arg, env, db).neg()
    if isinstance(e, N.SMul):
        scalar = eval_ref(e.scalar, env, db)
        if not scalar.dim.is_dimensionless:
            raise DimensionMismatch(DIMENSIONLESS, scalar.dim,
                                    "scalar position of •")
        return eval_ref(e.arg, env, db).smul(scalar.value)
    if isinstance(e, N.Pow):
        return eval_ref(e.base, env, db).pow(e.exponent)
    if isinstance(e, N.RPow):
        base = eval_ref(e.base, env, db)
        exponent = eval_ref(e.exponent, env, db)
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
        return eval_ref(e.arg, env, db).cast(db.kind(e.kind))
    if isinstance(e, N.Val):
        return Quantity.scalar(eval_ref(e.arg, env, db).val())
    if isinstance(e, N.Norm):
        return Quantity.scalar(eval_ref(e.arg, env, db).norm())
    if isinstance(e, N.Fn):
        arg = eval_ref(e.arg, env, db)
        if not arg.dim.is_dimensionless:
            raise DimensionMismatch(DIMENSIONLESS, arg.dim,
                                    f"argument of {e.fn}")
        return Quantity.scalar(_eval_fn(e.fn, arg.value))
    if isinstance(e, (N.Apply, N.Deriv)):
        raise UnboundVariable(e.fn)
    raise UnsupportedNode(f"cannot evaluate node {type(e).__name__}")


_COMPARE_REF = {N.Eq: lambda c: c.equal, N.Ne: lambda c: not c.equal,
                N.Le: lambda c: c.sign <= 0, N.Lt: lambda c: c.sign < 0,
                N.FnEq: lambda c: c.equal}
_CONNECT_REF = {N.And: lambda a, b: a and b, N.Or: lambda a, b: a or b,
                N.Implies: lambda a, b: not a or b}


def eval_prop_ref(p, env, db):
    """``evaluate.eval_prop``: (truth, exact); a connective evaluates both
    sides."""
    truth = _COMPARE_REF.get(p.__class__)
    if truth is not None:
        cmp = eval_ref(p.lhs, env, db).compare(eval_ref(p.rhs, env, db))
        return truth(cmp), cmp.exact
    truth = _CONNECT_REF.get(p.__class__)
    if truth is not None:
        lt, le = eval_prop_ref(p.lhs, env, db)
        rt, re_ = eval_prop_ref(p.rhs, env, db)
        return truth(lt, rt), le and re_
    raise UnsupportedNode(
        f"cannot numerically evaluate a {type(p).__name__} proposition")


class XlateRef:
    """``ring._Xlate`` with its recursive ``tr``; it reads through a
    ``SubstitutionRef`` and prints labels with ``print_expr_ref``."""

    def __init__(self, db, subst=None, at=0):
        self.db = db
        self.subst = SubstitutionRef() if subst is None else subst
        self.sides = []
        self.opaque_vars = {}
        self._move(at)

    def _move(self, at):
        self.at = at
        self.pending = self.subst.pending(at)[0]

    def _label(self, e):
        return print_expr_ref(self.subst.read(e, self.at))

    def _defined(self, j):
        memo = self.subst.translations
        if j not in memo:
            outer = self.at, self.sides, self.opaque_vars
            self.sides, self.opaque_vars = [], {}
            self._move(j + 1)
            try:
                rf = self.tr(self.subst.entries[j][1])
                memo[j] = rf, self.sides, self.opaque_vars
            finally:
                self._move(outer[0])
                self.sides, self.opaque_vars = outer[1], outer[2]
        rf, sides, opaque_vars = memo[j]
        self.sides.extend(sides)
        for key, names in opaque_vars.items():
            self.opaque_vars.setdefault(key, names)
        return rf

    def _opaque(self, e):
        e = self.subst.read(e, self.at)
        key = (ring._OPAQUE, print_expr_ref(e))
        self.opaque_vars.setdefault(key, frozenset(free_vars_ref(e)))
        return RationalFunc.atom(key)

    def _dim_rf(self, dim):
        poly = poly_const(1)
        for base in BaseDim:
            e = dim.exponents[base]
            if e == 0:
                continue
            if type(e) is not int:
                raise UnsupportedNode(
                    "fractional base-dimension exponents are outside the ring")
            poly = ring.poly_mul(poly, {(((ring._BASE, base.name), e),): 1})
        return RationalFunc(poly)

    def tr(self, e):
        if isinstance(e, N.NumLit):
            return RationalFunc.const(e.value)
        if isinstance(e, N.Var):
            j = self.pending.get(e.name)
            if j is None:
                return RationalFunc.atom((ring._VAR, e.name))
            return self._defined(j)
        if isinstance(e, N.ConstRef):
            name = CONSTANT_ALIASES.get(e.name, e.name)
            return RationalFunc.atom((ring._CONST, name))
        if isinstance(e, N.UnitRef):
            q = self.db.unit(e.name)
            return self._dim_rf(q.dim).mul(RationalFunc.const(q.value))
        if isinstance(e, N.StdUnit):
            if e.dim is None:
                raise ParseError("'std' was not resolved to a dimension here",
                                 span=e.span)
            return self._dim_rf(e.dim)
        if isinstance(e, N.PrefixApp):
            factor = self.db.prefix(e.prefix)
            return self.tr(e.arg).mul(RationalFunc.const(factor))
        if isinstance(e, N.Add):
            return self.tr(e.lhs).add(self.tr(e.rhs))
        if isinstance(e, N.Sub):
            return self.tr(e.lhs).sub(self.tr(e.rhs))
        if isinstance(e, N.Mul):
            return self.tr(e.lhs).mul(self.tr(e.rhs))
        if isinstance(e, N.Div):
            denom = self.tr(e.rhs)
            if denom.is_zero:
                raise DivisionByZero(
                    f"division by the symbolically zero term "
                    f"{self._label(e.rhs)}")
            self.sides.append((denom, self._label(e.rhs)))
            return self.tr(e.lhs).div(denom)
        if isinstance(e, N.Neg):
            return self.tr(e.arg).neg()
        if isinstance(e, N.SMul):
            return self.tr(e.scalar).mul(self.tr(e.arg))
        if isinstance(e, N.Pow):
            if e.exponent.denominator != 1:
                return self._opaque(e)
            n = int(e.exponent)
            base = self.tr(e.base)
            if n < 0:
                if base.is_zero:
                    raise DivisionByZero(
                        f"negative power of the symbolically zero term "
                        f"{self._label(e.base)}")
                self.sides.append((base, self._label(e.base)))
            return base.pow(n)
        if isinstance(e, N.Cast):
            return self.tr(e.arg)
        if isinstance(e, (N.RPow, N.Val, N.Norm, N.Fn, N.Apply, N.Deriv)):
            return self._opaque(e)
        raise UnsupportedNode(f"cannot translate node {type(e).__name__}")


# The printer's levels (``lang.printer``).
_FORALL = 0
_UNARY = _CMP = 1 + max(bp for _, bp, _ in N.BINARY.values())
_POW = _UNARY + 1
_ATOM = _POW + 1


def _rat_ref(value):
    text = render_rational(value)
    if "/" in text:
        return text, N.BINARY[N.Div][1]
    return text, _ATOM if value >= 0 and value.denominator == 1 else _UNARY


def _exponent_ref(value):
    if value.denominator == 1 and value >= 0:
        return str(value.numerator)
    if value.denominator == 1:
        return f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


def text_ref(n):
    """``printer``'s text of a node and the level it prints at."""
    cls = n.__class__
    op = N.BINARY.get(cls)
    if op is not None:
        spelling, bp, right = op
        if right:
            lhs, rhs = cls._fields
            return (f"{_sub_ref(getattr(n, lhs), bp + 1)} {spelling} "
                    f"{_sub_ref(getattr(n, rhs), bp)}", bp)
        parts = [_sub_ref(n.rhs, bp + 1), spelling]
        n = n.lhs
        op = N.BINARY.get(n.__class__)
        while op is not None and op[1] == bp and not op[2]:
            parts += (_sub_ref(n.rhs, bp + 1), op[0])
            n = n.lhs
            op = N.BINARY.get(n.__class__)
        parts.append(_sub_ref(n, bp))
        parts.reverse()
        return " ".join(parts), bp
    op = "=" if cls is N.FnEq else N.COMPARISONS.get(cls)
    if op is not None:
        return f"{print_expr_ref(n.lhs)} {op} {print_expr_ref(n.rhs)}", _CMP
    if isinstance(n, N.NumLit):
        return _rat_ref(n.value)
    if isinstance(n, (N.Var, N.ConstRef, N.UnitRef)):
        return n.name, _ATOM
    if isinstance(n, N.StdUnit):
        return "std", _ATOM
    if isinstance(n, N.PrefixApp):
        return f"{n.prefix}({print_expr_ref(n.arg)})", _ATOM
    if isinstance(n, N.Neg):
        return f"-{_sub_ref(n.arg, _UNARY)}", _UNARY
    if isinstance(n, N.Pow):
        return f"{_sub_ref(n.base, _ATOM)}**{_exponent_ref(n.exponent)}", _POW
    if isinstance(n, N.RPow):
        return (f"rpow({print_expr_ref(n.base)}, "
                f"{print_expr_ref(n.exponent)})", _ATOM)
    if isinstance(n, N.Cast):
        if isinstance(n.arg, N.StdUnit):
            return f"unit({n.kind})", _ATOM
        return f"cast({print_expr_ref(n.arg)}, {n.kind})", _ATOM
    if isinstance(n, N.Val):
        return f"val({print_expr_ref(n.arg)})", _ATOM
    if isinstance(n, N.Norm):
        return f"norm({print_expr_ref(n.arg)})", _ATOM
    if isinstance(n, (N.Fn, N.Apply)):
        return f"{n.fn}({print_expr_ref(n.arg)})", _ATOM
    if isinstance(n, N.Deriv):
        return f"deriv({n.fn}, {print_expr_ref(n.at)})", _ATOM
    if isinstance(n, N.ForallFinite):
        values = ", ".join(render_rational(v) for v in n.values)
        return (f"forall {n.var} in {{{values}}}, "
                f"{print_expr_ref(n.body)}", _FORALL)
    if isinstance(n, N.ForallFn):
        annot = f" : {n.kind_annot}" if n.kind_annot else ""
        return f"forall {n.var}{annot}, {print_expr_ref(n.body)}", _FORALL
    raise TypeError(f"not an expression or a proposition node: {n!r}")


def _sub_ref(n, required):
    text, level = text_ref(n)
    return f"({text})" if level < required else text


def print_expr_ref(n) -> str:
    """``printer.print_expr`` (and ``print_prop``)."""
    return text_ref(n)[0]


# -- the refutation witness as a fixpoint ------------------------------------
#
# ``prover._Session._closure_env`` as it was before it evaluated each log
# entry once: each defined name's last entry read through the whole log
# (the former ``Substitution.bindings``), evaluated once every name free in
# it has a value, in passes until a pass adds none.


def closure_env_ref(subst, db):
    last = {name: j for j, (name, _) in enumerate(subst.entries)}
    pending = {name: subst.rhs(j) for name, j in last.items()}
    env = {}
    for _ in range(len(pending) + 1):
        for name, expr in list(pending.items()):
            if name in env:
                continue
            if free_vars_ref(expr) <= set(env):
                env[name] = eval_ref(expr, env, db)
    return env
