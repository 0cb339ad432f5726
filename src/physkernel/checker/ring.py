"""Exact rational-function algebra over expression atoms.

Expressions are translated into rational functions over a commutative ring
whose atoms are variables, symbolic constants, base dimensions, and — in
abstracting mode — opaque stand-ins for subterms the ring cannot interpret
(transcendental functions, real powers, magnitudes, unexpanded applications).
Opaque atoms are keyed by the printed syntax of the subterm, so structurally
identical occurrences share an atom while everything else stays independent;
that keeps the translation conservative.

Polynomials are sparse maps from monomials to exact rational coefficients; a
monomial is a sorted tuple of (atom, exponent) pairs with no zero exponent.
Every coefficient is in one normal form (``_coeff``): an ``int`` when it is
integral, a ``Fraction`` otherwise, so integer arithmetic builds no
``Fraction``.  Floats never enter.  Equality of rational functions is decided
exactly by cross-multiplication (the ring is an integral domain).
``canonical`` cancels the common monomial factor and makes the denominator
monic, in exact arithmetic, for display.

``eliminate`` reduces a goal to zero by substituting pivots solved from
constraint equations.  It searches only the constraints connected to the goal
through shared variable or opaque atoms, since no other constraint can change
the goal, it tries trails of at most ``ELIM_MAX_DEPTH`` substitutions, it
visits at most ``ELIM_NODE_BUDGET`` search nodes, and no substituted
polynomial may have more than ``ELIM_TERM_BUDGET`` terms; past the node or
term budget it raises ``EliminationBudgetExceeded``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from ..dimension import BaseDim, Dimension
from ..errors import (
    DivisionByZero, EliminationBudgetExceeded, NotPolynomial, ParseError,
    UnsupportedNode,
)
from ..lang import nodes as N
from ..lang.printer import print_expr
from ..unitdb import CONSTANT_ALIASES, UnitDatabase, builtin_database
from .rewrite import free_vars, subst_var

# Atom ranks; atoms are (rank, name) so the full atom set is orderable.
_VAR, _CONST, _BASE, _OPAQUE = 0, 1, 2, 3

Atom = tuple[int, str]
Monomial = tuple[tuple[Atom, int], ...]
Coeff = int | Fraction  # normal form: an int when integral (see ``_coeff``)
Poly = dict[Monomial, Coeff]

_ONE: Monomial = ()


# -- polynomial primitives ----------------------------------------------------


def _coeff(c: Coeff) -> Coeff:
    """The coefficient normal form: an integral ``Fraction`` becomes its
    numerator, an ``int``; any other coefficient passes through."""
    if type(c) is int:
        return c
    return c.numerator if c.denominator == 1 else c


def poly_zero() -> Poly:
    return {}


def poly_const(c: Coeff) -> Poly:
    c = _coeff(c)
    return {} if c == 0 else {_ONE: c}


def poly_atom(a: Atom, exp: int = 1) -> Poly:
    return {((a, exp),): 1}


def poly_is_zero(p: Poly) -> bool:
    return not p


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
    if n < 0:
        raise ValueError("poly_pow expects a non-negative exponent")
    out = poly_const(1)
    while n:  # square-and-multiply
        if n & 1:
            out = poly_mul(out, p)
        n >>= 1
        if n:
            p = poly_mul(p, p)
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


def poly_eval(p: Poly, env: Mapping[Atom, Fraction]) -> Fraction:
    """Exact evaluation at a rational point (every atom must be bound); always
    a ``Fraction``, even where every coefficient is an ``int``."""
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for a, e in m:
            term *= env[a] ** e
        total += term
    return total


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
            factors.append(str(abs(c)))
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


@dataclass(eq=False)
class RationalFunc:
    """A quotient of polynomials; the denominator is never the zero polynomial."""

    num: Poly
    den: Poly = field(default_factory=lambda: poly_const(1))

    def __post_init__(self):
        if poly_is_zero(self.den):
            raise DivisionByZero("rational function with zero denominator")

    @classmethod
    def const(cls, c: Coeff) -> "RationalFunc":
        return cls(poly_const(c))

    @classmethod
    def atom(cls, a: Atom) -> "RationalFunc":
        return cls(poly_atom(a))

    @property
    def is_zero(self) -> bool:
        return poly_is_zero(self.num)

    def add(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc(
            poly_add(poly_mul(self.num, other.den),
                     poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den))

    def neg(self) -> "RationalFunc":
        return RationalFunc(poly_neg(self.num), self.den)

    def sub(self, other: "RationalFunc") -> "RationalFunc":
        return self.add(other.neg())

    def mul(self, other: "RationalFunc") -> "RationalFunc":
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
        return poly_is_zero(
            poly_sub(poly_mul(self.num, other.den),
                     poly_mul(other.num, self.den)))

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
            return RationalFunc(poly_zero())
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
        if self.den == poly_const(1):
            return poly_render(self.num)
        return f"({poly_render(self.num)}) / ({poly_render(self.den)})"


# -- translation -----------------------------------------------------------------

STRICT = "strict"
ABSTRACT = "abstract"


@dataclass
class Translation:
    """A translated expression plus the non-vanishing claims it relies on."""

    rf: RationalFunc
    sides: list[tuple[RationalFunc, str]]
    opaque_vars: dict[Atom, frozenset[str]]


class _Xlate:
    def __init__(self, db: UnitDatabase, mode: str):
        self.db = db
        self.mode = mode
        self.sides: list[tuple[RationalFunc, str]] = []
        self.opaque_vars: dict[Atom, frozenset[str]] = {}

    def _opaque(self, e: N.Expr) -> RationalFunc:
        if self.mode == STRICT:
            raise UnsupportedNode(
                f"{type(e).__name__} is outside the strict ring fragment")
        key: Atom = (_OPAQUE, print_expr(e))
        self.opaque_vars.setdefault(key, frozenset(free_vars(e)))
        return RationalFunc.atom(key)

    def _dim_rf(self, dim: Dimension) -> RationalFunc:
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

    def tr(self, e: N.Expr) -> RationalFunc:
        if isinstance(e, N.NumLit):
            return RationalFunc.const(e.value)
        if isinstance(e, N.Var):
            return RationalFunc.atom((_VAR, e.name))
        if isinstance(e, N.ConstRef):
            name = CONSTANT_ALIASES.get(e.name, e.name)
            return RationalFunc.atom((_CONST, name))
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
                    f"{print_expr(e.rhs)}")
            self.sides.append((denom, print_expr(e.rhs)))
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
                        f"{print_expr(e.base)}")
                self.sides.append((base, print_expr(e.base)))
            return base.pow(n)
        if isinstance(e, N.Cast):
            return self.tr(e.arg)
        if isinstance(e, (N.RPow, N.Val, N.Norm, N.Fn, N.Apply, N.Deriv)):
            return self._opaque(e)
        raise UnsupportedNode(f"cannot translate node {type(e).__name__}")


def translate_difference(lhs: N.Expr, rhs: N.Expr,
                         db: UnitDatabase | None = None) -> Translation:
    """Translate ``lhs - rhs`` with abstraction; its numerator is zero iff
    the sides agree wherever the recorded denominators do not vanish."""
    db = db or builtin_database()
    x = _Xlate(db, ABSTRACT)
    rf = x.tr(lhs).sub(x.tr(rhs))
    return Translation(rf, x.sides, x.opaque_vars)


def ring_equal(lhs: N.Expr, rhs: N.Expr,
               env: Mapping[str, N.Expr] | None = None,
               db: UnitDatabase | None = None) -> bool:
    """Exact symbolic equality in the strict ring fragment.

    ``env`` is an acyclic definitional substitution applied to both sides
    before translation.  Raises UnsupportedNode when either side leaves the
    fragment (+, -, *, /, integer powers over variables, constants, units).
    """
    db = db or builtin_database()
    if env:
        for _ in range(len(env) + 1):
            for name, repl in env.items():
                lhs = subst_var(lhs, name, repl)
                rhs = subst_var(rhs, name, repl)
    x = _Xlate(db, STRICT)
    return x.tr(lhs).equal(x.tr(rhs))


# -- polynomial coefficient matching ----------------------------------------------


@dataclass(frozen=True)
class CoeffEq:
    """One matched coefficient: ``poly = 0`` at the given parameter degree."""

    degree: int
    poly: tuple  # frozen Poly as sorted ((monomial, coeff), ...)

    def as_poly(self) -> Poly:
        return {m: c for m, c in self.poly}

    def render(self) -> str:
        return f"degree {self.degree}: {poly_render(self.as_poly())} = 0"


@dataclass(frozen=True)
class PolyMatch:
    eqs: tuple[CoeffEq, ...]
    sides: tuple[tuple[RationalFunc, str], ...]


def _freeze_poly(p: Poly) -> tuple:
    return tuple(sorted(p.items(), key=lambda kv: _mono_key(kv[0])))


def poly_coeff_eqs(lhs_body: N.Expr, rhs_body: N.Expr, param: str,
                   db: UnitDatabase | None = None) -> PolyMatch:
    """Equate coefficients of two function bodies polynomial in ``param``.

    Both bodies are translated with abstraction; the difference must be a
    polynomial in the parameter (parameter-free denominators, and no opaque
    term may capture the parameter), otherwise NotPolynomial is raised.
    Returns one constraint per parameter degree with a nonzero coefficient,
    highest degree first.
    """
    db = db or builtin_database()
    x = _Xlate(db, ABSTRACT)
    left, right = x.tr(lhs_body), x.tr(rhs_body)
    tau: Atom = (_VAR, param)
    for part, side in ((left, "left"), (right, "right")):
        if tau in poly_atoms(part.den):
            raise NotPolynomial(
                f"the {side} body's denominator depends on '{param}'")
    for atom, vs in x.opaque_vars.items():
        if param in vs:
            raise NotPolynomial(
                f"the non-polynomial term {atom[1]} depends on '{param}'")
    diff = left.sub(right)
    # A monomial is its tau-free part plus its tau degree, so no two terms
    # share a slot: every coefficient arrives once, nonzero and normal.
    by_degree: dict[int, Poly] = {}
    for m, c in diff.num.items():
        reduced = tuple((a, e) for a, e in m if a != tau)
        by_degree.setdefault(poly_degree_in(m, tau), {})[reduced] = c
    eqs = tuple(CoeffEq(d, _freeze_poly(by_degree[d]))
                for d in sorted(by_degree, reverse=True))
    return PolyMatch(eqs, tuple(x.sides))


# -- constraint elimination ---------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """An equation ``poly = 0`` available to the elimination search."""

    poly: tuple  # frozen Poly
    label: str

    @classmethod
    def make(cls, poly: Poly, label: str) -> "Constraint":
        return cls(_freeze_poly(poly), label)

    def as_poly(self) -> Poly:
        return {m: c for m, c in self.poly}

    def render(self) -> str:
        return f"{self.label}: {poly_render(self.as_poly())} = 0"


@dataclass(frozen=True)
class Pivot:
    atom: Atom
    degree: int
    coeff: tuple   # frozen Poly A (the x^d coefficient)
    rest: tuple    # frozen Poly B (the remainder)

    def solution(self) -> RationalFunc:
        """x^degree = -B / A."""
        return RationalFunc(poly_neg({m: c for m, c in self.rest}),
                            {m: c for m, c in self.coeff})


def _pivot_atoms(atoms: Iterable[Atom]) -> set[Atom]:
    return {a for a in atoms if a[0] in (_VAR, _OPAQUE)}


def _pivots(c: Constraint, preferred: set[Atom]) -> list[Pivot]:
    poly = c.as_poly()
    candidates = _pivot_atoms(poly_atoms(poly))
    out = []
    for atom in sorted(candidates, key=lambda a: (a not in preferred, a)):
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
        out.append(Pivot(atom, d, _freeze_poly(coeff), _freeze_poly(rest)))
    return out


def _check_terms(rf: RationalFunc) -> RationalFunc:
    for p in (rf.num, rf.den):
        if len(p) > ELIM_TERM_BUDGET:
            raise EliminationBudgetExceeded(
                "ELIM_TERM_BUDGET", ELIM_TERM_BUDGET,
                f"built a polynomial of {len(p)} terms")
    return rf


def _subst_poly(p: Poly, atom: Atom, d: int, sol: RationalFunc) -> RationalFunc:
    """Replace atom^d by ``sol`` throughout ``p`` (atom^e -> atom^(e mod d) sol^(e//d)).

    The running sum is held to ``ELIM_TERM_BUDGET``, since its denominator
    grows with every term.
    """
    total = RationalFunc(poly_zero())
    for m, c in p.items():
        e = poly_degree_in(m, atom)
        q, r = divmod(e, d)
        base: Poly = {_mono_mul(
            tuple((a, k) for a, k in m if a != atom),
            ((atom, r),) if r else _ONE,
        ): c}
        total = _check_terms(total.add(RationalFunc(base).mul(sol.pow(q))))
    return total


def _subst_rf(rf: RationalFunc, atom: Atom, d: int,
              sol: RationalFunc) -> RationalFunc:
    return _check_terms(_subst_poly(rf.num, atom, d, sol).div(
        _subst_poly(rf.den, atom, d, sol)))


@dataclass(frozen=True)
class EliminationStep:
    label: str
    atom: Atom
    degree: int
    solution: RationalFunc
    nonzero: tuple  # frozen Poly that must not vanish (the pivot coefficient)

    def render(self) -> str:
        target = _atom_display(self.atom)
        if self.degree != 1:
            target = f"{target}^{self.degree}"
        guard = poly_render({m: c for m, c in self.nonzero})
        return (f"eliminate {target} := {self.solution.render()} "
                f"using {self.label} (requires {guard} ≠ 0)")


@dataclass(frozen=True)
class Elimination:
    steps: tuple[EliminationStep, ...]


#: Search nodes (calls of ``_search``) one ``eliminate`` may visit.  No
#: corpus entry or benchmark family needs more than 25 and no test more than
#: 83, so the budget stops only searches that grow exponentially, such as
#: long connected chains that cannot prove the goal (about 0.3 s on a 2-core
#: x86-64 host).
ELIM_NODE_BUDGET = 1000

#: Terms one polynomial built by a substitution (goal or constraint,
#: numerator or denominator, partial sums included) may have.  Substitution
#: cancels no common factor, so one node can build hundreds of terms from
#: cubic constraints.  No corpus entry or test builds more than 16 and no
#: benchmark family more than 2, so the budget stops only such runaway
#: growth (about 0.4 s on a 2-core x86-64 host, against 5 s unbounded).
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
    atoms = [_pivot_atoms(poly_atoms(c.as_poly())) for c in constraints]
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
    builds a polynomial of more than ``ELIM_TERM_BUDGET`` terms.
    """
    return _search(goal, _connected(goal, constraints), ELIM_MAX_DEPTH, (),
                   [ELIM_NODE_BUDGET])


def _search(goal: RationalFunc, constraints: list[Constraint],
            depth: int, trail: tuple,
            left: list[int] | None = None) -> Elimination | None:
    """Depth-first search over every pivot of ``constraints``.

    ``left`` holds the number of nodes still allowed; None searches without
    a node bound.  ``ELIM_TERM_BUDGET`` always applies.
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
    goal_atoms = _pivot_atoms(goal.atoms())
    for i, c in enumerate(constraints):
        for pv in _pivots(c, goal_atoms):
            sol = pv.solution()
            try:
                new_goal = _subst_rf(goal, pv.atom, pv.degree, sol)
                rest = []
                for other in constraints[:i] + constraints[i + 1:]:
                    reduced = _subst_poly(other.as_poly(), pv.atom,
                                          pv.degree, sol)
                    if not poly_is_zero(reduced.num):
                        rest.append(Constraint.make(reduced.num, other.label))
            except DivisionByZero:
                continue
            step = EliminationStep(c.label, pv.atom, pv.degree, sol, pv.coeff)
            found = _search(new_goal, rest, depth - 1, trail + (step,), left)
            if found is not None:
                return found
    return None
