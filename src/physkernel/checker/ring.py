"""Exact rational-function algebra over expression atoms.

Expressions are translated into rational functions over a commutative ring
whose atoms are variables, symbolic constants, base dimensions, and opaque
stand-ins for subterms the ring cannot interpret (transcendental functions,
real powers, magnitudes, unexpanded applications).  Opaque atoms are keyed by
the printed syntax of the subterm, so structurally identical occurrences share
an atom while everything else stays independent; that keeps the translation
conservative.  ``ring_equal`` rejects a side that needs an opaque atom.

A translation may read its tree through a :class:`~.rewrite.Substitution`:
a defined variable translates as its definition's right-hand side, which is
translated once per log, side conditions and opaque atoms included, and only
when a translation reaches it.  ``translate_difference`` translates each
pair of sides once per log and position, and ``ring_equal`` and
``poly_coeff_eqs`` translate through it.  The search, the replay of its
script and sibling branches that record the same entries share one log, so
a tree object is translated once per prepared statement.  A subterm is
printed under the substitution only where a label needs its text, so labels
read as if the tree had been rewritten first.

Polynomials are ``Poly`` dicts, sparse maps from monomials to exact rational
coefficients, from translation through elimination to the prover's side
conditions; a dict is never mutated after it is built, so records and
rational functions share them freely, and a result may be one of the
operands.  The kernel skips work whose answer is known: ``poly_mul`` returns
the other operand of a unit (``{(): 1}``) and maps the other operand's
monomials for a one-term one, ``poly_pow`` of a two-term polynomial builds
each term's monomial directly, ``RationalFunc.add`` and ``mul`` work on the
numerators alone over unit denominators, and a substitution builds each
power of its solution once and hands back a polynomial without its atom.
Each still builds the terms of the plain product loop, in the same order.
Elimination passes on unchanged the goal and constraints without the pivot,
and solves each constraint once per search.  A monomial is a sorted tuple of
(atom, exponent) pairs with no zero exponent.
Every coefficient is in one normal form (``_coeff``): an ``int`` when it is
integral, a ``Fraction`` otherwise, so integer arithmetic builds no
``Fraction``.  Floats never enter.  Equality of rational functions is decided
exactly by cross-multiplication (the ring is an integral domain).
``canonical`` cancels the common monomial factor and makes the denominator
monic, in exact arithmetic, for display.  An integer power expands by a
binomial split (``poly_pow``), so its cost grows with the terms of the
result; no budget bounds it yet, and a base of many atoms can make a huge
result (``(a+b+c+d)**200`` has about 1.4M terms).

``eliminate`` reduces a goal to zero by substituting pivots solved from
constraint equations.  It searches only the constraints connected to the goal
through shared variable or opaque atoms, since no other constraint can change
the goal, it tries trails of at most ``ELIM_MAX_DEPTH`` substitutions, it
visits at most ``ELIM_NODE_BUDGET`` search nodes, and no substituted
polynomial may have more than ``ELIM_TERM_BUDGET`` terms; past the node or
term budget it raises ``EliminationBudgetExceeded``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from ..dimension import BaseDim, Dimension
from ..errors import (
    DivisionByZero, EliminationBudgetExceeded, NotPolynomial, ParseError,
    PhysKernelError, UnsupportedNode,
)
from ..lang import nodes as N
from ..lang.printer import print_expr
from ..quantity import render_numeric
from ..record import record
from ..unitdb import CONSTANT_ALIASES, UnitDatabase, builtin_database
from .rewrite import Substitution, definition_order, free_vars

# Atom ranks; atoms are (rank, name) so the full atom set is orderable.
_VAR, _CONST, _BASE, _OPAQUE = 0, 1, 2, 3

Atom = tuple[int, str]
Monomial = tuple[tuple[Atom, int], ...]
Coeff = int | Fraction  # normal form: an int when integral (see ``_coeff``)
Poly = dict[Monomial, Coeff]

_ONE: Monomial = ()
_UNIT: Poly = {_ONE: 1}  # compared with, never handed out


# -- polynomial primitives ----------------------------------------------------


def _coeff(c: Coeff) -> Coeff:
    """The coefficient normal form: an integral ``Fraction`` becomes its
    numerator, an ``int``; any other coefficient passes through."""
    if type(c) is int:
        return c
    return c.numerator if c.denominator == 1 else c


def poly_const(c: Coeff) -> Poly:
    c = _coeff(c)
    return {} if c == 0 else {_ONE: c}


def poly_atom(a: Atom, exp: int = 1) -> Poly:
    return {((a, exp),): 1}


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc: dict[Atom, int] = dict(m1)
    for a, e in m2:
        acc[a] = acc.get(a, 0) + e
    # No new atom: the keys keep m1's sorted order.  Exponents that cancel
    # (base dimensions can be negative) are dropped either way.
    items = acc.items() if len(acc) == len(m1) else sorted(acc.items())
    return tuple([ae for ae in items if ae[1]])


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + c
        if nc == 0:
            out.pop(m, None)
        else:
            out[m] = nc if type(nc) is int else _coeff(nc)
    return out


def poly_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    """``p * q``; the result may be an operand: a unit operand returns the
    other.  A one-term operand maps the other's monomials, since multiplying
    by a fixed monomial is injective: no two products collide or cancel."""
    if len(p) == 1:
        (m1, c1), = p.items()
        if not m1 and c1 == 1:
            return q
        return {_mono_mul(m1, m2): _coeff(c1 * c2) for m2, c2 in q.items()}
    if len(q) == 1:
        (m2, c2), = q.items()
        if not m2 and c2 == 1:
            return p
        return {_mono_mul(m1, m2): _coeff(c1 * c2) for m1, c1 in p.items()}
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc if type(nc) is int else _coeff(nc)
    return out


def poly_pow(p: Poly, n: int) -> Poly:
    """``p ** n`` by the binomial split ``p = t + r`` of one term ``t``:
    ``sum C(n, j) t^(n-j) r^j``.  The powers of ``r`` are built by repeated
    multiplication, one at a time, so the cost grows with the terms of the
    result, not with the products of dense intermediate squares.

    The result may be the operand itself: ``p ** 1`` is ``p``.  When ``r``
    is one term (``p`` has two), every term ``t^(n-j) r^j`` of the sum has
    a monomial of its own, built from the two terms' exponents at once.
    """
    if n < 0:
        raise ValueError("poly_pow expects a non-negative exponent")
    if n == 0:
        return poly_const(1)
    if n == 1:
        return p
    if len(p) <= 1:  # zero or one monomial
        return {tuple([(a, e * n) for a, e in m]): _coeff(c ** n)
                for m, c in p.items()}
    items = iter(p.items())
    tm, tc = next(items)
    r = dict(items)
    out: Poly = {}
    binom = 1  # C(n, j)
    if len(r) == 1:
        (rm, rc), = r.items()
        t_exps, r_exps = dict(tm), dict(rm)
        # (atom, its exponent in t, in r) over both terms' atoms, sorted.
        exps = [(a, t_exps.get(a, 0), r_exps.get(a, 0))
                for a in sorted({*t_exps, *r_exps})]
        for j in range(n + 1):
            k = n - j
            out[tuple([(a, e) for a, et, er in exps
                       if (e := et * k + er * j)])] = _coeff(
                binom * tc ** k * rc ** j)
            binom = binom * k // (j + 1)
        return out
    rj = poly_const(1)  # r^j
    for j in range(n + 1):
        k = n - j
        # t^0 is the empty monomial, not t's atoms to the power 0:
        # _mono_mul returns its other operand unfiltered.
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
            rj = poly_mul(rj, r)
    return out


def poly_scale(p: Poly, c: Coeff) -> Poly:
    if c == 0:
        return {}
    return {m: _coeff(coeff * c) for m, coeff in p.items()}


def poly_atoms(p: Poly) -> set[Atom]:
    return {a for m in p for a, _ in m}


def poly_degree_in(m: Monomial, atom: Atom) -> int:
    for a, e in m:
        if a == atom:
            return e
    return 0


def _atom_display(a: Atom) -> str:
    rank, name = a
    if rank == _BASE:
        return f"[{name}]"
    return name


def _mono_key(m: Monomial):
    return (sum(e for _, e in m), m)


def poly_render(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=_mono_key, reverse=True):
        c = p[m]
        factors = []
        if not m or abs(c) != 1:
            factors.append(render_numeric(abs(c)))
        for a, e in m:
            factors.append(_atom_display(a) if e == 1
                           else f"{_atom_display(a)}^{e}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# -- rational functions ---------------------------------------------------------


@record(eq=False)
class RationalFunc:
    """A quotient of polynomials; the denominator is never the zero polynomial."""

    num: Poly
    den: Poly = None  # None stands for the constant 1

    def __post_init__(self):
        if self.den is None:
            self.den = poly_const(1)
        elif not self.den:
            raise DivisionByZero("rational function with zero denominator")

    @classmethod
    def const(cls, c: Coeff) -> "RationalFunc":
        return cls(poly_const(c))

    @classmethod
    def atom(cls, a: Atom) -> "RationalFunc":
        return cls(poly_atom(a))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def add(self, other: "RationalFunc") -> "RationalFunc":
        if self.den == _UNIT and other.den == _UNIT:
            return RationalFunc(poly_add(self.num, other.num), self.den)
        return RationalFunc(
            poly_add(poly_mul(self.num, other.den),
                     poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den))

    def neg(self) -> "RationalFunc":
        return RationalFunc(poly_neg(self.num), self.den)

    def sub(self, other: "RationalFunc") -> "RationalFunc":
        return self.add(other.neg())

    def mul(self, other: "RationalFunc") -> "RationalFunc":
        if self.den == _UNIT and other.den == _UNIT:
            return RationalFunc(poly_mul(self.num, other.num), self.den)
        return RationalFunc(poly_mul(self.num, other.num),
                            poly_mul(self.den, other.den))

    def div(self, other: "RationalFunc") -> "RationalFunc":
        if other.is_zero:
            raise DivisionByZero("division by a symbolically zero term")
        return RationalFunc(poly_mul(self.num, other.den),
                            poly_mul(self.den, other.num))

    def pow(self, n: int) -> "RationalFunc":
        if n >= 0:
            return RationalFunc(poly_pow(self.num, n), poly_pow(self.den, n))
        if self.is_zero:
            raise DivisionByZero("zero term with a negative exponent")
        return RationalFunc(poly_pow(self.den, -n), poly_pow(self.num, -n))

    def equal(self, other: "RationalFunc") -> bool:
        return not poly_sub(poly_mul(self.num, other.den),
                            poly_mul(other.num, self.den))

    def atoms(self) -> set[Atom]:
        return poly_atoms(self.num) | poly_atoms(self.den)

    # -- normal form -----------------------------------------------------------

    def canonical(self) -> "RationalFunc":
        """An exact, value-preserving normal form for display.

        Divides the numerator and the denominator by their monomial gcd (each
        atom to the smallest exponent it has in every monomial of both) and
        scales both so that the denominator's leading coefficient is 1; a zero
        numerator gives ``0``.  The result always ``equal``s ``self``.  It is
        not unique when the numerator and the denominator share a factor that
        is not a monomial: ``(x + 1) / (x + 1)`` stays as it is.
        """
        if self.is_zero:
            return RationalFunc({})
        monos = [*self.num, *self.den]
        common = dict(monos[0])
        for m in monos[1:]:
            exps = dict(m)
            common = {a: min(e, exps[a])
                      for a, e in common.items() if a in exps}

        def reduce(p: Poly) -> Poly:
            return {tuple((a, e - common.get(a, 0)) for a, e in m
                          if e != common.get(a, 0)): c for m, c in p.items()}

        num, den = reduce(self.num), reduce(self.den)
        inv = Fraction(1) / den[max(den, key=_mono_key)]
        return RationalFunc(poly_scale(num, inv), poly_scale(den, inv))

    def render(self) -> str:
        if self.den == _UNIT:
            return poly_render(self.num)
        return f"({poly_render(self.num)}) / ({poly_render(self.den)})"


# -- translation -----------------------------------------------------------------

@record(frozen=True, eq=False)
class Translation:
    """A translated expression plus the non-vanishing claims it relies on."""

    rf: RationalFunc
    sides: tuple[tuple[RationalFunc, str], ...]
    opaque_vars: dict[Atom, frozenset[str]]


def _dim_rf(dim: Dimension) -> RationalFunc:
    poly = poly_const(1)
    for base in BaseDim:
        e = dim.exponents[base]
        if e == 0:
            continue
        if type(e) is not int:  # a normal-form Fraction is never integral
            raise UnsupportedNode(
                "fractional base-dimension exponents are outside the ring")
        poly = poly_mul(poly, {(((_BASE, base.name), e),): 1})
    return RationalFunc(poly)


def _std(e: N.StdUnit) -> RationalFunc:
    if e.dim is None:
        raise ParseError("'std' was not resolved to a dimension here",
                         span=e.span)
    return _dim_rf(e.dim)


# The translator's fold rules that read no translator state.
_RULES = {
    N.NumLit: lambda e: RationalFunc.const(e.value),
    N.ConstRef: lambda e: RationalFunc.atom(
        (_CONST, CONSTANT_ALIASES.get(e.name, e.name))),
    N.StdUnit: _std,
    N.Add: lambda e, a, b: a.add(b),
    N.Sub: lambda e, a, b: a.sub(b),
    N.Mul: lambda e, a, b: a.mul(b),
    N.Neg: lambda e, arg: arg.neg(),
    N.SMul: lambda e, scalar, arg: scalar.mul(arg),
    N.Cast: lambda e, arg: arg,
}
_OPAQUE_NODES = (N.RPow, N.Val, N.Norm, N.Fn, N.Apply, N.Deriv)


class _Xlate:
    """Translates trees at position ``at`` of ``subst`` (see ``Substitution``).

    A variable asks the log's per-name index for its first entry from
    ``at`` on and takes that entry's memoised translation; the translator
    keeps no copy of the index.  ``tr`` is a fold over the tree.  A
    denominator is translated, checked and recorded as a side condition
    before its numerator is walked; a prefix is looked up before its
    argument; a subterm outside the ring becomes an opaque atom without
    being walked.
    """

    def __init__(self, db: UnitDatabase, subst: Substitution | None = None,
                 at: int = 0):
        self.db = db
        self.subst = Substitution() if subst is None else subst
        self.sides: list[tuple[RationalFunc, str]] = []
        self.opaque_vars: dict[Atom, frozenset[str]] = {}
        self.at = at

    def _label(self, e: N.Expr) -> str:
        """The label text of ``e``: printed as the substitution reads it."""
        return print_expr(self.subst.read(e, self.at))

    def _tables(self) -> tuple[dict, dict]:
        """The fold's rules and ``pre``.  Built per call and never stored
        on the translator, which their methods reference."""
        rules = _RULES.copy()
        rules[N.Var] = self._var
        rules[N.UnitRef] = self._unit
        rules[N.PrefixApp] = self._scaled
        rules[N.Div] = ("rhs", self._denominator, "lhs",
                        lambda e, denom, num: num.div(denom))
        rules[N.Pow] = self._pow
        pre = dict.fromkeys(_OPAQUE_NODES, self._opaque)
        pre[N.PrefixApp] = self._prefix
        pre[N.Pow] = self._fractional
        return rules, pre

    def tr(self, e: N.Expr) -> RationalFunc:
        """The translation of ``e``.

        The entries ``e``'s free names read at ``at`` are translated first,
        each by its own translator at the position after it and after the
        entries it reaches (``Substitution.fill``), so no translation
        recurses.  An entry that fails to translate keeps its error, which
        a translation raises where it reaches the entry, as a nested
        translation would.
        """
        subst = self.subst
        if self.at < len(subst):
            subst.fill(subst.translations,
                       [j for x in free_vars(e)
                        if (j := subst.first(x, self.at)) is not None],
                       self._entry)
        return N.fold(e, *self._tables())

    def _entry(self, k: int):
        """Entry ``k``'s translation, side conditions and opaque atoms, or
        its error; ``fill`` has translated the entries it reaches."""
        x = _Xlate(self.db, self.subst, k + 1)
        try:
            rf = N.fold(self.subst.entry(k)[1], *x._tables())
            return rf, x.sides, x.opaque_vars
        except PhysKernelError as exc:
            return exc

    def _var(self, e: N.Var) -> RationalFunc:
        """A variable, or the translation of the entry that defines it;
        every use records the entry's side conditions and opaque atoms."""
        j = self.subst.first(e.name, self.at)
        if j is None:
            return RationalFunc.atom((_VAR, e.name))
        found = self.subst.translations[j]
        if isinstance(found, PhysKernelError):
            raise found.with_traceback(None)
        rf, sides, opaque_vars = found
        self.sides.extend(sides)
        for key, names in opaque_vars.items():
            self.opaque_vars.setdefault(key, names)
        return rf

    def _opaque(self, e: N.Expr) -> RationalFunc:
        e = self.subst.read(e, self.at)
        key: Atom = (_OPAQUE, print_expr(e))
        self.opaque_vars.setdefault(key, frozenset(free_vars(e)))
        return RationalFunc.atom(key)

    def _unit(self, e: N.UnitRef) -> RationalFunc:
        q = self.db.unit(e.name)
        return _dim_rf(q.dim).mul(RationalFunc.const(q.value))

    def _prefix(self, e: N.PrefixApp) -> None:
        self.db.prefix(e.prefix)  # an unknown prefix raises here

    def _scaled(self, e: N.PrefixApp, arg: RationalFunc) -> RationalFunc:
        return arg.mul(RationalFunc.const(self.db.prefix(e.prefix)))

    def _fractional(self, e: N.Pow) -> RationalFunc | None:
        return None if e.exponent.denominator == 1 else self._opaque(e)

    def _nonzero(self, rf: RationalFunc, e: N.Expr, what: str) -> None:
        """Record that ``rf``, the translation of ``e``, must not vanish."""
        if rf.is_zero:
            raise DivisionByZero(
                f"{what} the symbolically zero term {self._label(e)}")
        self.sides.append((rf, self._label(e)))

    def _denominator(self, e: N.Div, denom: RationalFunc) -> RationalFunc:
        self._nonzero(denom, e.rhs, "division by")
        return denom

    def _pow(self, e: N.Pow, base: RationalFunc) -> RationalFunc:
        n = int(e.exponent)
        if n < 0:
            self._nonzero(base, e.base, "negative power of")
        return base.pow(n)


def translate_difference(lhs: N.Expr, rhs: N.Expr,
                         db: UnitDatabase | None = None,
                         subst: Substitution | None = None,
                         at: int = 0) -> Translation:
    """Translate ``lhs - rhs`` with abstraction; its numerator is zero iff
    the sides agree wherever the recorded denominators do not vanish.

    The sides are read at position ``at`` of ``subst``.  The translation
    (or its error, raised again) is memoised on the log, keyed on the two
    tree objects and ``at``; the log's entries are translated for one unit
    database, so a log is only ever used with one.
    """
    db = db or builtin_database()
    subst = Substitution() if subst is None else subst
    key = lhs, rhs, at
    found = subst.differences.get(key)
    if found is None:
        try:
            found = _translate_difference(lhs, rhs, _Xlate(db, subst, at))
        except PhysKernelError as exc:
            found = exc
        subst.differences[key] = found
    if isinstance(found, PhysKernelError):
        raise found.with_traceback(None)
    return found


def _translate_difference(lhs: N.Expr, rhs: N.Expr, x: _Xlate) -> Translation:
    rf = x.tr(lhs).sub(x.tr(rhs))
    return Translation(rf, tuple(x.sides), x.opaque_vars)


def ring_equal(lhs: N.Expr, rhs: N.Expr,
               env: Mapping[str, N.Expr] | None = None,
               db: UnitDatabase | None = None) -> bool:
    """Exact symbolic equality in the ring fragment.

    ``env`` is an acyclic definitional substitution applied to both sides
    before translation; a cyclic ``env`` is rejected with UnsupportedNode.
    The fragment is +, -, *, / and integer powers over variables, constants
    and units; a side that needs an opaque atom for a subterm outside it is
    rejected with UnsupportedNode naming the first such subterm.
    """
    env = env or {}
    order = definition_order({name: free_vars(e) for name, e in env.items()})
    if len(order) < len(env):
        cyclic = ", ".join(sorted(set(env).difference(order)))
        raise UnsupportedNode(f"env is cyclic: {cyclic} cannot all be "
                              "substituted out")
    tr = translate_difference(
        lhs, rhs, db, Substitution(tuple((name, env[name]) for name in order)))
    if tr.opaque_vars:
        term = next(iter(tr.opaque_vars))[1]
        raise UnsupportedNode(f"{term} is outside the ring fragment")
    return tr.rf.is_zero


# -- polynomial coefficient matching ----------------------------------------------


@record(frozen=True)
class CoeffEq:
    """One matched coefficient: ``poly = 0`` at the given parameter degree."""

    degree: int
    poly: Poly

    def render(self) -> str:
        return f"degree {self.degree}: {poly_render(self.poly)} = 0"


@record(frozen=True)
class PolyMatch:
    eqs: tuple[CoeffEq, ...]
    sides: tuple[tuple[RationalFunc, str], ...]


def poly_coeff_eqs(lhs_body: N.Expr, rhs_body: N.Expr, param: str,
                   db: UnitDatabase | None = None,
                   subst: Substitution | None = None) -> PolyMatch:
    """Equate coefficients of two function bodies polynomial in ``param``.

    The difference of the bodies, read at the end of ``subst``, is
    translated by ``translate_difference``, with abstraction; it must be a
    polynomial in the parameter (parameter-free denominators, and no opaque
    term may capture the parameter), otherwise NotPolynomial is raised.
    Returns one constraint per parameter degree with a nonzero coefficient,
    highest degree first.
    """
    subst = Substitution() if subst is None else subst
    tr = translate_difference(lhs_body, rhs_body, db, subst, len(subst))
    tau: Atom = (_VAR, param)
    if tau in poly_atoms(tr.rf.den):
        raise NotPolynomial(f"a body's denominator depends on '{param}'")
    for atom, vs in tr.opaque_vars.items():
        if param in vs:
            raise NotPolynomial(
                f"the non-polynomial term {atom[1]} depends on '{param}'")
    # A monomial is its tau-free part plus its tau degree, so no two terms
    # share a slot: every coefficient arrives once, nonzero and normal.
    by_degree: dict[int, Poly] = {}
    for m, c in tr.rf.num.items():
        reduced = tuple((a, e) for a, e in m if a != tau)
        by_degree.setdefault(poly_degree_in(m, tau), {})[reduced] = c
    eqs = tuple(CoeffEq(d, by_degree[d])
                for d in sorted(by_degree, reverse=True))
    return PolyMatch(eqs, tr.sides)


# -- constraint elimination ---------------------------------------------------------


@record(frozen=True)
class Constraint:
    """An equation ``poly = 0`` available to the elimination search."""

    poly: Poly
    label: str


@record(frozen=True)
class EliminationStep:
    """Constraint ``label``, ``A atom^degree + B = 0``, solved for
    ``atom^degree``: ``solution`` is -B / A and ``nonzero`` is A."""

    label: str
    atom: Atom
    degree: int
    solution: RationalFunc
    nonzero: Poly


@record(frozen=True)
class Elimination:
    steps: tuple[EliminationStep, ...]


def _pivot_atoms(atoms: Iterable[Atom]) -> set[Atom]:
    return {a for a in atoms if a[0] in (_VAR, _OPAQUE)}


def _pivots(c: Constraint, atoms: set[Atom]) -> list[EliminationStep]:
    """The steps solving ``c`` for one of its pivot ``atoms``, by atom."""
    poly = c.poly
    out = []
    for atom in sorted(atoms):
        degrees = {poly_degree_in(m, atom) for m in poly}
        nonzero = sorted(d for d in degrees if d)
        if len(nonzero) != 1 or degrees - {0, nonzero[0]}:
            continue
        d = nonzero[0]
        coeff: Poly = {}
        rest: Poly = {}
        for m, cf in poly.items():
            if poly_degree_in(m, atom) == d:
                coeff[tuple((a, e) for a, e in m if a != atom)] = cf
            else:
                rest[m] = cf
        out.append(EliminationStep(
            c.label, atom, d, RationalFunc(poly_neg(rest), coeff), coeff))
    return out


def _check_terms(*sizes: int) -> None:
    for n in sizes:
        if n > ELIM_TERM_BUDGET:
            raise EliminationBudgetExceeded(
                "ELIM_TERM_BUDGET", ELIM_TERM_BUDGET,
                f"built a polynomial of {n} terms")


def _unchanged(p: Poly) -> Poly:
    """``p``, as substituting an atom it lacks gives it back.  Every partial
    sum of that substitution is a prefix of ``p``, so past
    ``ELIM_TERM_BUDGET`` it stops at one term more, as the sum would."""
    if len(p) > ELIM_TERM_BUDGET:
        _check_terms(ELIM_TERM_BUDGET + 1)
    return p


def _subst_poly(p: Poly, atom: Atom, d: int, sol: RationalFunc) -> RationalFunc:
    """Replace atom^d by ``sol`` throughout ``p`` (atom^e -> atom^(e mod d) sol^(e//d)).

    A ``p`` without ``atom`` comes back as it is (``_unchanged``).  Each
    power of ``sol`` is built once.  The terms are summed as
    ``RationalFunc.add`` sums them, over the product of their denominators,
    and every partial sum is held to ``ELIM_TERM_BUDGET``, since its
    denominator grows with every term.
    """
    if all(a != atom for m in p for a, _ in m):
        return RationalFunc(_unchanged(p))
    powers: dict[int, RationalFunc] = {}
    num: Poly = {}
    den = poly_const(1)
    for m, c in p.items():
        q, r = divmod(poly_degree_in(m, atom), d)
        power = powers.get(q)
        if power is None:
            power = powers[q] = sol.pow(q)
        # m with atom^e replaced by atom^r: the atoms keep their order.
        if r:
            m = tuple([(a, r if a == atom else k) for a, k in m])
        elif q:
            m = tuple([ak for ak in m if ak[0] != atom])
        base: Poly = {m: c}
        num = poly_add(poly_mul(num, power.den),
                       poly_mul(poly_mul(base, power.num), den))
        den = poly_mul(den, power.den)
        _check_terms(len(num), len(den))
    return RationalFunc(num, den)


def _subst_rf(rf: RationalFunc, atom: Atom, d: int,
              sol: RationalFunc) -> RationalFunc:
    out = _subst_poly(rf.num, atom, d, sol).div(
        _subst_poly(rf.den, atom, d, sol))
    _check_terms(len(out.num), len(out.den))
    return out


#: Search nodes (calls of ``_search``) one ``eliminate`` may visit.  No
#: corpus entry or benchmark family needs more than 25 and no test more than
#: 83, so the budget stops only searches that grow exponentially, such as
#: long connected chains that cannot prove the goal (a cold prove of five
#: links stops in 0.2 s on a 2-vCPU x86-64 host, 20-35 ms in the search).
ELIM_NODE_BUDGET = 1000

#: Terms one polynomial built by a substitution (goal or constraint,
#: numerator or denominator, partial sums included) may have.  Substitution
#: cancels no common factor, so one node can build hundreds of terms from
#: cubic constraints.  No corpus entry or test builds more than 16 and no
#: benchmark family more than 2, so the budget stops only such runaway
#: growth (a cold prove stops in 0.4 s on a 2-vCPU x86-64 host, and takes
#: 3 s unbounded).
ELIM_TERM_BUDGET = 160

#: Substitution steps one elimination trail may have; a goal that needs more
#: is not found, and the ``ring`` step fails with its residual.  No corpus
#: entry or test needs more than 4, and the benchmark's longest elimination
#: chain needs exactly 6.
ELIM_MAX_DEPTH = 6


def _connected(goal: RationalFunc,
               constraints: list[Constraint]) -> list[Constraint]:
    """The constraints reachable from the goal's variable and opaque atoms
    through shared variable or opaque atoms, in their original order.

    Constants and base dimensions are never substituted, so they connect
    nothing.  A substitution from one constraint rewrites only atoms of its
    own component, so the others can never change the goal.
    """
    reached = _pivot_atoms(goal.atoms())
    atoms = [_pivot_atoms(poly_atoms(c.poly)) for c in constraints]
    keep = [False] * len(constraints)
    grew = True
    while grew:
        grew = False
        for i, a in enumerate(atoms):
            if not keep[i] and a & reached:
                keep[i] = grew = True
                reached |= a
    return [c for c, k in zip(constraints, keep) if k]


def eliminate(goal: RationalFunc,
              constraints: list[Constraint]) -> Elimination | None:
    """Search for constraint substitutions that reduce ``goal`` to zero.

    Only the constraints connected to the goal (see ``_connected``) are
    searched, in list order; each is used at most once, and within a
    constraint pivot atoms occurring in the current goal are preferred.
    Returns the substitution trail, or None when no trail of at most
    ``ELIM_MAX_DEPTH`` steps exists.  Raises EliminationBudgetExceeded when the
    search visits more than ``ELIM_NODE_BUDGET`` nodes or a substitution
    builds a polynomial of more than ``ELIM_TERM_BUDGET`` terms.  Each
    constraint object is solved for its pivots once per call.
    """
    return _search(goal, _connected(goal, constraints), ELIM_MAX_DEPTH, (),
                   [ELIM_NODE_BUDGET], {})


def _search(goal: RationalFunc, constraints: list[Constraint],
            depth: int, trail: tuple, left: list[int] | None = None,
            pivots: dict | None = None) -> Elimination | None:
    """Depth-first search over every pivot of ``constraints``.

    ``left`` holds the number of nodes still allowed; None searches without
    a node bound.  ``ELIM_TERM_BUDGET`` always applies.  ``pivots`` maps a
    constraint's ``id`` to it (so no id is reused), its pivot atoms, and its
    ``_pivots``, found when first tried.  The goal and the constraints
    without the pivot pass on as they are.
    """
    if left is not None:
        if left[0] == 0:
            raise EliminationBudgetExceeded(
                "ELIM_NODE_BUDGET", ELIM_NODE_BUDGET,
                f"reached node {ELIM_NODE_BUDGET + 1}")
        left[0] -= 1
    if goal.is_zero:
        return Elimination(trail)
    if depth == 0 or not constraints:
        return None
    pivots = {} if pivots is None else pivots
    for c in constraints:
        if id(c) not in pivots:
            pivots[id(c)] = [c, _pivot_atoms(poly_atoms(c.poly)), None]
    solved = [pivots[id(c)] for c in constraints]
    goal_atoms = _pivot_atoms(goal.atoms())
    for i, entry in enumerate(solved):
        if entry[2] is None:
            entry[2] = _pivots(entry[0], entry[1])
        for step in sorted(entry[2], key=lambda st: st.atom not in goal_atoms):
            atom, d, sol = step.atom, step.degree, step.solution
            try:
                if atom in goal_atoms:
                    new_goal = _subst_rf(goal, atom, d, sol)
                else:
                    _unchanged(goal.num)
                    _unchanged(goal.den)
                    new_goal = goal
                rest = []
                for other, atoms, _ in solved[:i] + solved[i + 1:]:
                    if atom not in atoms:
                        _unchanged(other.poly)
                        rest.append(other)
                        continue
                    reduced = _subst_poly(other.poly, atom, d, sol)
                    if reduced.num:
                        rest.append(Constraint(reduced.num, other.label))
            except DivisionByZero:
                continue
            found = _search(new_goal, rest, depth - 1, trail + (step,), left,
                            pivots)
            if found is not None:
                return found
    return None
