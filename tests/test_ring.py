"""Symbolic ring equality checked against exact numeric evaluation.

The central property: for a pair of expressions in the strict fragment,
`ring_equal` must agree with exact rational evaluation at random sample
points.  Pairs come in two families — an expression against an algebraic
rewriting of itself (commuted, distributed, expanded; must be equal) and an
expression against a shifted copy (must differ everywhere).
"""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from physkernel.checker.dims import resolve_statement
from physkernel.checker.evaluate import eval_numeric
from physkernel.checker import ring
from physkernel.checker.ring import (
    Constraint, RationalFunc, _Xlate, eliminate, poly_add,
    poly_coeff_eqs, poly_mul, poly_pow, ring_equal,
    translate_difference,
)
from physkernel.errors import (
    DivisionByZero, EliminationBudgetExceeded, NotPolynomial, UnsupportedNode,
)
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_expression, parse_statement
from physkernel.quantity import Quantity

from oracles import (
    RationalFuncLoop, poly_eval, poly_mul_loop, poly_pow_loop, search_ref,
    subst_poly_loop,
)

N_RING_ORACLE_CASES = 600
N_SAMPLE_POINTS = 10

VAR_NAMES = ("u", "w", "z")


def lit(n, d=1):
    return N.NumLit(Fraction(n, d))


class Gen:
    """Random expressions in the strict ring fragment over Real variables."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def fraction(self):
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 7))

    def expr(self, depth):
        r = self.rng
        if depth == 0:
            if r.random() < 0.4:
                return N.NumLit(self.fraction())
            return N.Var(r.choice(VAR_NAMES))
        kind = r.randrange(6)
        if kind == 0:
            return N.Add(self.expr(depth - 1), self.expr(depth - 1))
        if kind == 1:
            return N.Sub(self.expr(depth - 1), self.expr(depth - 1))
        if kind == 2:
            return N.Mul(self.expr(depth - 1), self.expr(depth - 1))
        if kind == 3:
            return N.Neg(self.expr(depth - 1))
        if kind == 4:
            return N.Pow(self.expr(depth - 1), Fraction(r.choice((2, 3))))
        # Division: keep the divisor shallow so poles stay easy to dodge.
        return N.Div(self.expr(depth - 1),
                     N.Add(N.Var(r.choice(VAR_NAMES)),
                           N.NumLit(Fraction(r.randint(1, 9)))))

    def rewrite(self, e):
        """An algebraically equal expression with a different shape."""
        r = self.rng
        e = self._rewrite_children(e)
        choice = r.random()
        if isinstance(e, (N.Add, N.Mul)) and choice < 0.5:
            return type(e)(e.rhs, e.lhs)
        if isinstance(e, N.Sub) and choice < 0.5:
            return N.Add(e.lhs, N.Neg(e.rhs))
        if isinstance(e, N.Mul) and isinstance(e.rhs, N.Add) and choice < 0.8:
            return N.Add(N.Mul(e.lhs, e.rhs.lhs), N.Mul(e.lhs, e.rhs.rhs))
        if isinstance(e, N.Pow) and e.exponent == 2 and choice < 0.7:
            return N.Mul(e.base, e.base)
        if isinstance(e, N.Div) and choice < 0.4:
            return N.Mul(e.lhs, N.Pow(e.rhs, Fraction(-1)))
        if choice < 0.15:
            return N.Neg(N.Neg(e))
        if choice < 0.25:
            return N.Add(e, lit(0))
        if choice < 0.35:
            return N.Mul(lit(1), e)
        return e

    def _rewrite_children(self, e):
        if isinstance(e, (N.Add, N.Sub, N.Mul, N.Div)):
            return type(e)(self.rewrite(e.lhs), self.rewrite(e.rhs))
        if isinstance(e, N.Neg):
            return N.Neg(self.rewrite(e.arg))
        if isinstance(e, N.Pow):
            return N.Pow(self.rewrite(e.base), e.exponent)
        return e

    def perturb(self, e):
        """An expression differing from ``e`` at every point."""
        shift = Fraction(self.rng.randint(1, 9))
        if self.rng.random() < 0.5:
            shift = -shift
        return N.Add(e, N.NumLit(shift))

    def point(self):
        return {name: Quantity.scalar(Fraction(self.rng.randint(-20, 20),
                                               self.rng.randint(1, 9)))
                for name in VAR_NAMES}


def sample_agreement(e1, e2, gen, db):
    """Evaluate both at random points; (all equal, any decided) summary."""
    decided = 0
    equal_everywhere = True
    while decided < N_SAMPLE_POINTS:
        env = gen.point()
        try:
            v1 = eval_numeric(e1, env, db)
            v2 = eval_numeric(e2, env, db)
        except DivisionByZero:
            continue  # pole at this sample; draw another point
        decided += 1
        if v1.value != v2.value:
            equal_everywhere = False
    return equal_everywhere


def test_ring_equal_matches_numeric_oracle(db):
    gen = Gen(0xA11CE)
    checked = 0
    while checked < N_RING_ORACLE_CASES:
        base = gen.expr(3)
        expect_equal = checked % 2 == 0
        other = gen.rewrite(base) if expect_equal else gen.perturb(base)
        try:
            verdict = ring_equal(base, other, db=db)
        except DivisionByZero:
            continue  # a generated divisor was symbolically zero; redraw
        assert verdict == expect_equal, (
            f"case {checked}: ring_equal={verdict}, expected {expect_equal}")
        assert sample_agreement(base, other, gen, db) == expect_equal, (
            f"case {checked}: numeric oracle disagrees with construction")
        checked += 1
    assert checked >= 500


def test_ring_equal_golden_identities(db):
    u = {"u": "Real", "w": "Real", "z": "Real"}

    def eq(a, b):
        return ring_equal(parse_expression(a, db, u, {}),
                          parse_expression(b, db, u, {}), db=db)

    assert eq("(u + w)**2", "u**2 + 2*u*w + w**2")
    assert eq("(u - w) * (u + w)", "u**2 - w**2")
    assert eq("u / w + z / w", "(u + z) / w")
    assert eq("u / (w * z)", "(u / w) / z")
    assert eq("(u**3 - w**3) / (u - w)", "u**2 + u*w + w**2")
    assert not eq("(u + w)**2", "u**2 + w**2")
    assert not eq("u / w", "w / u")
    assert not eq("u + 1", "u")


def test_ring_equal_with_definitional_env(db):
    u = {"a": "Real", "m_1": "Real", "m_2": "Real", "g": "Real"}
    a = parse_expression("a", db, u, {})
    rhs = parse_expression("(m_2 / (m_1 + m_2)) * g", db, u, {})
    env = {"a": parse_expression("m_2 * g / (m_1 + m_2)", db, u, {})}
    assert ring_equal(a, rhs, env=env, db=db)
    assert not ring_equal(a, parse_expression("g", db, u, {}), env=env, db=db)


@pytest.mark.parametrize("env_text", [
    {"a": "a + 1"},
    {"a": "b + 1", "b": "2 * a", "c": "3"},
])
def test_ring_equal_rejects_a_cyclic_env(db, env_text):
    u = {"a": "Real", "b": "Real", "c": "Real"}
    env = {name: parse_expression(text, db, u, {})
           for name, text in env_text.items()}
    a = parse_expression("a", db, u, {})
    with pytest.raises(UnsupportedNode, match="env is cyclic"):
        ring_equal(a, a, env=env, db=db)


def test_ring_equal_env_in_any_order(db):
    u = {"a": "Real", "b": "Real", "c": "Real"}
    env = {"c": parse_expression("b * b", db, u, {}),
           "a": parse_expression("c + b", db, u, {}),
           "b": parse_expression("3", db, u, {})}
    a = parse_expression("a", db, u, {})
    assert ring_equal(a, parse_expression("12", db, u, {}), env=env, db=db)


def test_units_and_constants_are_ring_atoms(db):
    v = {"x": "Length", "t": "Time"}

    def pe(text):
        return parse_expression(text, db, v, {})

    assert ring_equal(pe("x / t * t"), pe("x"), db=db)
    assert ring_equal(pe("2 • meter + 3 • meter"), pe("5 • meter"), db=db)
    assert ring_equal(pe("K * g"), pe("g * K"), db=db)
    assert not ring_equal(pe("meter"), pe("second"), db=db)


def test_out_of_fragment_nodes_raise(db):
    v = {"u": "Real"}

    def pe(text):
        return parse_expression(text, db, v, {})

    with pytest.raises(UnsupportedNode):
        ring_equal(pe("sin(u)"), pe("sin(u)"), db=db)
    with pytest.raises(UnsupportedNode):
        ring_equal(pe("rpow(u, 1/2)"), pe("u"), db=db)
    # The error names the first subterm that needed an opaque atom.
    with pytest.raises(UnsupportedNode, match=r"^cos\(u\) is outside"):
        ring_equal(pe("u * (u + cos(u))"), pe("u + sin(u)"), db=db)


def test_symbolically_zero_divisor_raises(db):
    v = {"u": "Real"}
    e = parse_expression("1 / (u - u)", db, v, {})
    with pytest.raises(DivisionByZero):
        ring_equal(e, e, db=db)
    # Both sides are translated in full before an opaque atom is rejected,
    # so a zero divisor after an opaque subterm is still found.
    mixed = parse_expression("sin(u) + 1 / (u - u)", db, v, {})
    with pytest.raises(DivisionByZero):
        ring_equal(mixed, mixed, db=db)


def test_prefixes_and_casts_translate_to_their_values(db):
    v = {"x": "Length"}

    def pe(text):
        return parse_expression(text, db, v, {})

    assert ring_equal(pe("kilo(meter)"), pe("1000 • meter"), db=db)
    assert ring_equal(pe("cast(x, Length)"), pe("x"), db=db)


def test_resolved_std_is_its_coherent_unit(db):
    stmt = resolve_statement(
        parse_statement("theorem s (x : Length) : x = 3 • std\n", db), db)
    three_meters = parse_expression("3 • meter", db, {}, {})
    assert translate_difference(three_meters, stmt.goal.rhs, db).rf.is_zero


def test_real_powers_are_opaque_atoms(db):
    v = {"u": "Real"}
    root = parse_expression("u**(1/2)", db, v, {})
    tr = translate_difference(root, root, db)
    assert tr.rf.is_zero
    assert list(tr.opaque_vars.values()) == [frozenset({"u"})]
    with pytest.raises(UnsupportedNode):
        ring_equal(root, root, db=db)


def test_negative_power_of_a_symbolic_zero_raises(db):
    e = parse_expression("(u - u)**(-1)", db, {"u": "Real"}, {})
    with pytest.raises(DivisionByZero):
        ring_equal(e, e, db=db)
    with pytest.raises(DivisionByZero):
        translate_difference(e, e, db)


def _sympy_canonical(rf):
    """The coprime form with a monic denominator, by sympy's gcd cancellation.

    The oracle for ``RationalFunc.canonical``, which cancels only monomial
    factors: two rational functions are ``equal`` iff their sympy forms have
    identical polynomial maps.
    """
    import sympy

    atoms = sorted(rf.atoms())
    if not atoms:
        c = Fraction(0)
        if not rf.is_zero:
            c = Fraction(rf.num[()]) / rf.den[()]
        return RationalFunc.const(c)
    syms = [sympy.Symbol(f"x{i}") for i in range(len(atoms))]
    index = {a: i for i, a in enumerate(atoms)}

    def to_sympy(p):
        expr = sympy.Integer(0)
        for m, c in p.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for a, e in m:
                term *= syms[index[a]] ** e
            expr += term
        return expr

    cancelled = sympy.cancel(to_sympy(rf.num) / to_sympy(rf.den))
    n_expr, d_expr = cancelled.as_numer_denom()

    def from_sympy(expr):
        poly = sympy.Poly(expr, *syms)
        out = {}
        for exps, coeff in poly.as_dict().items():
            r = sympy.Rational(coeff)
            m = tuple(sorted((atoms[i], e)
                             for i, e in enumerate(exps) if e != 0))
            frac = Fraction(int(r.p), int(r.q))
            if frac != 0:
                out[m] = frac
        return out

    num, den = from_sympy(n_expr), from_sympy(d_expr)
    if not num:
        return RationalFunc({})
    lead = den[max(den, key=ring._mono_key)]
    return RationalFunc({m: c / lead for m, c in num.items()},
                        {m: c / lead for m, c in den.items()})


def _canonical_pairs(db):
    """200 seeded pairs: an expression and a rewriting (equal) or a shifted
    copy (unequal), translated."""
    gen = Gen(0xBEEF)
    x = _Xlate(db)
    pairs = []
    while len(pairs) < 200:
        e1 = gen.expr(2)
        e2 = gen.rewrite(e1) if len(pairs) % 2 == 0 else gen.perturb(e1)
        try:
            pairs.append((x.tr(e1), x.tr(e2)))
        except DivisionByZero:
            continue
    return pairs


def test_canonical_agrees_with_equal(db):
    for r1, r2 in _canonical_pairs(db):
        c1, c2 = _sympy_canonical(r1), _sympy_canonical(r2)
        assert r1.equal(r2) == ((c1.num == c2.num) and (c1.den == c2.den))


def test_canonical_is_exact_reduced_and_monic(db):
    exact = 0
    for rf in (r for pair in _canonical_pairs(db) for r in pair):
        c = rf.canonical()
        assert c.equal(rf)
        assert c.den[max(c.den, key=ring._mono_key)] == 1
        monos = [*c.num, *c.den]
        shared = set.intersection(*({a for a, _ in m} for m in monos))
        assert not shared, f"{sorted(shared)} divides every monomial"
        if len(rf.den) == 1:
            # A monomial denominator can share only monomial factors with
            # the numerator, so cancelling those gives the coprime form.
            oracle = _sympy_canonical(rf)
            assert (c.num, c.den) == (oracle.num, oracle.den)
            exact += 1
    assert exact >= 100


def test_canonical_cancels_monomials_only(db):
    v = {"u": "Real", "w": "Real"}
    x = _Xlate(db)

    def rf(text):
        return x.tr(parse_expression(text, db, v, {}))

    # The leading term is taken after cancelling u*w: u^2*w leads 5*u*w^2,
    # but 5*w leads u.
    c = rf("(u*w) / (u**2*w + 5*u*w**2)").canonical()
    assert c.render() == "(1/5) / (w + 1/5*u)"
    assert rf("(u*w - u) / (w*u)").canonical().render() == "(w - 1) / (w)"
    assert rf("(u - u) / w").canonical().render() == "0"
    same = rf("((u + 1) * w) / ((u + 1) * w**2)").canonical()
    assert same.render() == "(u + 1) / (u*w + w)"
    # An int leading coefficient: 1/2 must stay exact, not become 0.5.
    half = rf("u / (2*w)").canonical()
    assert half.render() == "(1/2*u) / (w)"
    assert [type(c) for c in half.num.values()] == [Fraction]
    assert [type(c) for c in half.den.values()] == [int]


def test_rope_residual_is_unchanged(db, corpus_dir):
    from physkernel.checker.prover import Unknown, auto_prove
    from physkernel.corpus import load_corpus

    entry = next(e for e in load_corpus(corpus_dir, db)
                 if e.name == "rope_friction_turns")
    v = auto_prove(entry.statement, db)
    assert isinstance(v, Unknown)
    assert v.reason == ("the goal does not follow by ring arithmetic; "
                        "residual: (n*μ*pi - 1/2*log(val(M) / val(m))) "
                        "/ (μ*pi)")


def test_runtime_does_not_import_sympy(corpus_dir):
    code = (
        "import sys\n"
        "import physkernel.cli\n"
        "from physkernel.checker.prover import auto_prove\n"
        "from physkernel.corpus import load_corpus\n"
        "from physkernel.unitdb import builtin_database\n"
        "db = builtin_database()\n"
        f"entries = load_corpus({str(corpus_dir)!r}, db)\n"
        "e = next(e for e in entries if e.name == 'rope_friction_turns')\n"
        "assert auto_prove(e.statement, db).kind == 'unknown'\n"
        "print('sympy' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_poly_coeff_eqs_degrees(db):
    v = {"t": "Real", "x_0": "Real", "v_0": "Real", "a": "Real"}

    def pe(text):
        return parse_expression(text, db, v, {})

    match = poly_coeff_eqs(pe("x_0 + v_0 * t + (1/2) * a * t**2"),
                           pe("5 - 2*t + 3*t**2"), "t", db=db)
    assert [eq.degree for eq in match.eqs] == [2, 1, 0]
    rendered = [eq.render() for eq in match.eqs]
    assert all("= 0" in r for r in rendered)

    # Identical bodies produce no constraints at all.
    same = poly_coeff_eqs(pe("v_0 * t"), pe("t * v_0"), "t", db=db)
    assert same.eqs == ()


def test_poly_coeff_eqs_rejects_non_polynomial(db):
    v = {"t": "Real", "a": "Real"}

    def pe(text):
        return parse_expression(text, db, v, {})

    with pytest.raises(NotPolynomial):
        poly_coeff_eqs(pe("a / t"), pe("a"), "t", db=db)
    with pytest.raises(NotPolynomial):
        poly_coeff_eqs(pe("sin(t)"), pe("a"), "t", db=db)


# -- constraint elimination ------------------------------------------------------

N_ELIM_SYSTEMS = 240

#: Constraints over these variables share no atom with a goal over VAR_NAMES.
FAR_NAMES = {"u": "p", "w": "q", "z": "r"}


def _rename(poly, names):
    return {tuple(sorted(((rank, names.get(name, name)), e)
                         for (rank, name), e in m)): c
            for m, c in poly.items()}


def _system(gen, x):
    """A goal over VAR_NAMES and up to 4 constraints ``leaf op leaf = leaf``,
    some of them over FAR_NAMES.  Every other goal is a combination of the
    near constraints, so both found and missing trails occur."""
    r = gen.rng
    cons = []
    for i in range(r.randint(1, 4)):
        op = r.choice((N.Add, N.Sub, N.Mul))
        diff = x.tr(N.Sub(op(gen.expr(0), gen.expr(0)), gen.expr(0))).num
        if not diff:
            continue
        far = r.random() < 0.4
        label = f"far{i}" if far else f"near{i}"
        cons.append(Constraint(_rename(diff, FAR_NAMES) if far else diff,
                               label))
    if r.random() < 0.5:
        return RationalFunc(x.tr(gen.expr(1)).num), cons
    goal = RationalFunc({})
    for c in cons:
        if c.label.startswith("near"):
            goal = goal.add(RationalFunc(c.poly).mul(x.tr(gen.expr(0))))
    return goal, cons


def test_pruned_elimination_matches_unpruned_search(db):
    gen = Gen(0xE11)
    x = _Xlate(db)
    found = missing = with_far = 0
    for _ in range(N_ELIM_SYSTEMS):
        goal, cons = _system(gen, x)
        if goal.is_zero:
            continue
        with_far += any(c.label.startswith("far") for c in cons)
        pruned = eliminate(goal, cons)
        reference = ring._search(goal, cons, 6, ())
        assert (pruned is None) == (reference is None)
        connected = {c.label for c in ring._connected(goal, cons)}
        assert not any(label.startswith("far") for label in connected)
        if pruned is None:
            missing += 1
            continue
        found += 1
        assert {st.label for st in pruned.steps} <= connected
    assert found + missing >= 200
    assert found >= 50 and missing >= 50 and with_far >= 50


#: (ELIM_NODE_BUDGET, ELIM_TERM_BUDGET) pairs: the defaults, node budgets
#: that stop deep searches, and term budgets that stop substitutions.
ELIM_BUDGETS = ((1000, 160), (12, 160), (5, 160), (1000, 6), (30, 10))
N_ELIM_ORACLE_SYSTEMS = 400


def _elimination(search, *args):
    """The outcome of ``search(*args)`` as plain data: None, the error's
    type and message, or each step's label, atom, degree and the terms of
    its solution and ``nonzero`` in order."""
    try:
        found = search(*args)
    except (DivisionByZero, EliminationBudgetExceeded) as e:
        return type(e), str(e)
    if found is None:
        return None
    return [(st.label, st.atom, st.degree, _terms(st.solution.num),
             _terms(st.solution.den), _terms(st.nonzero))
            for st in found.steps]


def test_elimination_matches_the_search_that_substitutes_everywhere(
        db, monkeypatch):
    # Passing unchanged goals and constraints through and finding each
    # constraint's pivots once must change no trail, no budget stop and no
    # budget message, whatever the budgets.
    x = _Xlate(db)
    found = stops = 0
    for nodes, terms in ELIM_BUDGETS:
        monkeypatch.setattr(ring, "ELIM_NODE_BUDGET", nodes)
        monkeypatch.setattr(ring, "ELIM_TERM_BUDGET", terms)
        gen = Gen(0xE12)
        for _ in range(N_ELIM_ORACLE_SYSTEMS):
            goal, cons = _system(gen, x)
            if goal.is_zero:
                continue
            got = _elimination(eliminate, goal, cons)
            assert got == _elimination(
                search_ref, goal, ring._connected(goal, cons),
                ring.ELIM_MAX_DEPTH, (), [nodes])
            found += type(got) is list
            stops += type(got) is tuple
    assert found >= 500 and stops >= 50, (found, stops)
    # Generated systems seldom reach these: a constraint, a goal, then a
    # goal's denominator past the term budget and without the pivot stops
    # the search as its substitution would; and a constraint's pivots in
    # the goal go first.
    v = {n: "Real" for n in ("a", "b", "c", "d", "e", "u", "w", "z")}

    def rf(text):
        return x.tr(parse_expression(text, db, v, {}))

    monkeypatch.setattr(ring, "ELIM_NODE_BUDGET", 1000)
    for terms, goal, cons, expected in (
            (6, "a * e - b * e", ["a - b", "(c + d)**7 - e"],
             (EliminationBudgetExceeded, 7)),
            (6, "(c + d)**7 + e", ["a - e**2 - e"],
             (EliminationBudgetExceeded, 7)),
            (6, "a / (c + d)**7", ["a - b"], (EliminationBudgetExceeded, 7)),
            (160, "w - z", ["u - w", "u - z"],
             [("h0", (ring._VAR, "w")), ("h1", (ring._VAR, "u"))])):
        monkeypatch.setattr(ring, "ELIM_TERM_BUDGET", terms)
        goal = rf(goal)
        cons = [Constraint(rf(c).num, f"h{i}") for i, c in enumerate(cons)]
        got = _elimination(eliminate, goal, cons)
        assert got == _elimination(search_ref, goal, cons, 6, (), [1000])
        if type(got) is list:
            assert [st[:2] for st in got] == expected
        else:
            assert got[0] is expected[0]
            assert f"built a polynomial of {expected[1]} terms" in got[1]


def test_unrelated_constraints_are_not_searched(db):
    v = {n: "Real" for n in ("a", "b", "c", "d", "e")}
    x = _Xlate(db)

    def poly(lhs, rhs):
        return x.tr(parse_expression(lhs, db, v, {})).sub(
            x.tr(parse_expression(rhs, db, v, {}))).num

    related = Constraint(poly("a * b", "2 * b * b"), "h0")
    unrelated = Constraint(poly("d * e", "c"), "h1")
    goal = RationalFunc(poly("3 * a * b", "6 * b * b"))
    assert ring._connected(goal, [unrelated, related]) == [related]
    trail = eliminate(goal, [unrelated, related])
    assert [(st.label, st.atom, st.degree) for st in trail.steps] == [
        ("h0", (ring._VAR, "a"), 1)]


def test_poly_pow_matches_repeated_multiplication(db):
    gen = Gen(0x90E)
    x = _Xlate(db)
    checked = 0
    while checked < 60:
        try:
            p = x.tr(gen.expr(2)).num
        except DivisionByZero:
            continue
        n = checked % 13
        expected = {(): Fraction(1)}
        for _ in range(n):
            expected = poly_mul(expected, p)
        assert poly_pow(p, n) == expected
        checked += 1
    ints = x.tr(parse_expression("(2*u - 3*w + 1)", db,
                                 {"u": "Real", "w": "Real"}, {})).num
    expected = {(): 1}
    for n in range(13):
        powered = poly_pow(ints, n)
        assert powered == expected
        assert all(type(c) is int for c in powered.values())
        expected = poly_mul(expected, ints)
    with pytest.raises(ValueError):
        poly_pow({(): Fraction(2)}, -1)


# -- the coefficient normal form: int when integral, Fraction otherwise --------


def _frac_mono_mul(m1, m2):
    acc = dict(m1)
    for a, e in m2:
        acc[a] = acc.get(a, 0) + e
    return tuple(sorted((a, e) for a, e in acc.items() if e != 0))


def _frac_add(p, q):
    """Fraction-only ``poly_add``: the oracle for the int/Fraction form."""
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, Fraction(0)) + c
        if nc == 0:
            out.pop(m, None)
        else:
            out[m] = nc
    return out


def _frac_mul(p, q):
    """Fraction-only ``poly_mul``."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _frac_mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + Fraction(c1) * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    return out


def _frac_pow(p, n):
    """Fraction-only ``poly_pow``, by repeated multiplication."""
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _frac_mul(out, p)
    return out


def _assert_normal(p):
    for c in p.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            f"coefficient {c!r} is not in normal form"


def test_int_coefficients_match_the_fraction_oracle(db, monkeypatch):
    gen = Gen(0xC0EF)
    exprs, rfs = [], []
    while len(exprs) < 150:
        e = gen.expr(2)
        try:
            rfs.append(_Xlate(db).tr(e))
        except DivisionByZero:
            continue
        exprs.append(e)
    with_int = with_frac = 0
    for rf, other in zip(rfs, rfs[1:] + rfs[:1]):
        p, q = rf.num, other.den
        for result, oracle in ((poly_add(p, q), _frac_add(p, q)),
                               (poly_mul(p, q), _frac_mul(p, q)),
                               *((poly_pow(p, n), _frac_pow(p, n))
                                 for n in range(4))):
            assert result == oracle
            _assert_normal(result)
        for part in (rf.num, rf.den):
            _assert_normal(part)
            with_int += any(type(c) is int for c in part.values())
            with_frac += any(type(c) is Fraction for c in part.values())
    assert with_int >= 50 and with_frac >= 50
    # The whole translation, run again on the Fraction-only primitives.
    monkeypatch.setattr(ring, "poly_const", lambda c: (
        {} if c == 0 else {(): Fraction(c)}))
    monkeypatch.setattr(ring, "poly_atom", lambda a, exp=1: {
        ((a, exp),): Fraction(1)})
    monkeypatch.setattr(ring, "poly_add", _frac_add)
    monkeypatch.setattr(ring, "poly_mul", _frac_mul)
    monkeypatch.setattr(ring, "poly_pow", _frac_pow)
    for e, rf in zip(exprs, rfs):
        oracle = _Xlate(db).tr(e)
        assert all(type(c) is Fraction
                   for part in (oracle.num, oracle.den) for c in part.values())
        assert (rf.num, rf.den) == (oracle.num, oracle.den)


_U, _W, _LENGTH = (ring._VAR, "u"), (ring._VAR, "w"), (ring._BASE, "LENGTH")


@pytest.mark.parametrize("p", [
    # One term: a negative base-dimension exponent, a Fraction coefficient.
    {((_U, 1), (_LENGTH, -2)): Fraction(-3, 2)},
    # A constant monomial in the base: the k = 0 term has no atoms.
    {(): Fraction(1, 2), ((_U, 1),): 1, ((_W, 1),): -1},
    {((_U, 1),): 2, (): 3},
    # Colliding monomials: (1 + u + u^2)^n.
    {(): 1, ((_U, 1),): 1, ((_U, 2),): 1},
    # Alternating signs: (u - w)^n.
    {((_U, 1),): 1, ((_W, 1),): -1},
    # Exponents that cancel between the split term and the rest.
    {((_U, 1), (_LENGTH, 1)): 1, ((_LENGTH, -1),): Fraction(2, 3)},
], ids=["one-term", "constant-first", "constant-last", "colliding",
        "alternating", "cancelling"])
def test_poly_pow_binomial_split_matches_repeated_multiplication(p):
    assert poly_pow(p, 0) == {(): 1}
    assert poly_pow(p, 1) is p
    for n in range(2, 9):
        powered = poly_pow(p, n)
        assert powered == _frac_pow(p, n)
        _assert_normal(powered)
        for m in powered:
            atoms = [a for a, _ in m]
            assert atoms == sorted(set(atoms)) and all(e for _, e in m), m


def test_poly_pow_work_is_linear_in_the_exponent(monkeypatch):
    # Square-and-multiply made O(n^2) monomial products for (u + w)^n; the
    # binomial split makes about 2n.  A count, not a timing.
    calls = 0
    mono_mul = ring._mono_mul

    def counted(m1, m2):
        nonlocal calls
        calls += 1
        return mono_mul(m1, m2)

    monkeypatch.setattr(ring, "_mono_mul", counted)
    n = 1500
    powered = poly_pow({((_U, 1),): 1, ((_W, 1),): 1}, n)
    assert calls <= 4 * n
    assert len(powered) == n + 1
    assert powered[((_U, 750), (_W, 750))] == math.comb(n, 750)


# -- the kernel's fast paths against the plain product loop -------------------

N_KERNEL_CASES = 2000
#: Sorted, as a monomial's atoms are; the base dimension may have a negative
#: exponent, and _U is the atom substituted.
_KERNEL_ATOMS = (_U, _W, (ring._CONST, "c"), _LENGTH, (ring._OPAQUE, "sin(w)"))
#: Products of these are integral often enough to test the normal form.
_KERNEL_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                  Fraction(3, 2), Fraction(2, 3))


def _kernel_poly(rng, atoms=_KERNEL_ATOMS):
    """The unit, the constant -1, one term, two terms (a one-term binomial
    remainder) or zero to four terms."""
    kind = rng.randrange(5)
    if kind == 0:
        return {(): 1}
    if kind == 1:
        return {(): -1}
    p = {}
    for _ in range(kind - 1 if kind < 4 else rng.randint(0, 4)):
        m = tuple((a, rng.choice((-2, -1, 1, 2)) if a == _LENGTH
                   else rng.randint(1, 3 if a != _U else 5))
                  for a in atoms if rng.random() < 0.4)
        p[m] = rng.choice(_KERNEL_COEFFS)
    return p


def _terms(p):
    """Terms in order, with each coefficient's type (its normal form)."""
    return [(m, c, type(c)) for m, c in p.items()]


def _outcome(f, *args):
    try:
        rf = f(*args)
    except (DivisionByZero, EliminationBudgetExceeded) as e:
        return type(e), str(e)
    return _terms(rf.num), _terms(rf.den)


def test_kernel_fast_paths_match_the_product_loop(monkeypatch):
    # The unit and one-term paths of poly_mul, the two-term path of
    # poly_pow, the unit-denominator paths of RationalFunc.add and mul, and
    # _subst_poly's shared powers must build the same terms, in the same
    # order and normal form, as the loop oracles (pivots, budget messages
    # and reports depend on the order), and must mutate no operand, even one
    # they return.  A budget of 4 makes _subst_poly stop at a partial sum.
    rng = random.Random(0x4E1)
    seen = {"unit": 0, "one-term": 0, "binomial": 0, "budget": 0,
            "division": 0, "substituted": 0}
    for budget in (4, ring.ELIM_TERM_BUDGET):
        monkeypatch.setattr(ring, "ELIM_TERM_BUDGET", budget)
        for _ in range(N_KERNEL_CASES // 2):
            p, q, pd, qd = (_kernel_poly(rng) for _ in range(4))
            pd, qd = pd or None, qd or None
            subst = _kernel_poly(rng)
            sol_num, sol_den = (_kernel_poly(rng, _KERNEL_ATOMS[1:])
                                for _ in range(2))
            sol_den = sol_den or None
            inputs = [p, q, pd or {}, qd or {}, subst, sol_num, sol_den or {}]
            before = [_terms(part) for part in inputs]
            n = rng.randint(0, 6)
            assert _terms(poly_mul(p, q)) == _terms(poly_mul_loop(p, q))
            assert _terms(poly_pow(p, n)) == _terms(poly_pow_loop(p, n))
            a, b = RationalFunc(p, pd), RationalFunc(q, qd)
            a_loop, b_loop = RationalFuncLoop(p, pd), RationalFuncLoop(q, qd)
            for op in ("add", "mul", "div"):
                assert (_outcome(getattr(a, op), b)
                        == _outcome(getattr(a_loop, op), b_loop))
            assert _outcome(a.pow, n - 3) == _outcome(a_loop.pow, n - 3)
            d = rng.randint(1, 3)
            got = _outcome(ring._subst_poly, subst, _U, d,
                           RationalFunc(sol_num, sol_den))
            assert got == _outcome(subst_poly_loop, subst, _U, d,
                                   RationalFuncLoop(sol_num, sol_den))
            assert [_terms(part) for part in inputs] == before
            seen["unit"] += {(): 1} in (p, q, pd, qd)
            seen["one-term"] += len(p) == 1 or len(q) == 1
            seen["binomial"] += len(p) == 2 and n >= 2
            seen["budget"] += got[0] is EliminationBudgetExceeded
            seen["division"] += not q
            seen["substituted"] += any(_U in dict(m) for m in subst)
    assert min(seen.values()) >= 50, seen


def test_exact_coefficient_corners(db):
    x = _Xlate(db)
    # hertz is T^-1: the exponents cancel to 0 and the atom is dropped.
    cancelled = x.tr(parse_expression("hertz * second", db, {}, {}))
    assert (cancelled.num, cancelled.den) == ({(): 1}, {(): 1})
    _assert_normal(cancelled.num)
    mixed = x.tr(parse_expression("newton * second**2", db, {}, {})).num
    assert mixed == {(((ring._BASE, "LENGTH"), 1),
                      ((ring._BASE, "MASS"), 1)): 1}
    value = poly_eval({(): 3, (((ring._VAR, "u"), 2),): -1},
                      {(ring._VAR, "u"): Fraction(1, 2)})
    assert type(value) is Fraction and value == Fraction(11, 4)
    assert type(poly_eval({(): 3}, {})) is Fraction
