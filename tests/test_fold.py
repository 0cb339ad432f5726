"""The tree passes over ``nodes.fold`` against the recursive passes they
replaced (``oracles``): the same result, or an exception of the same type
with the same message, on seeded trees at most 30 levels deep."""

import itertools
import random
from fractions import Fraction

import pytest
from oracles import (
    SubstitutionRef, XlateRef, check_cmp_ref, eval_prop_ref, eval_ref,
    expand_fn_ref, expr_dim_ref, free_vars_ref, print_expr_ref,
    rewrite_ground_ref, subst_var_ref, walk_prop_ref,
)

from physkernel.checker import dims, ring
from physkernel.checker.evaluate import eval_numeric, eval_prop
from physkernel.checker.rewrite import (
    Substitution, expand_fn, free_vars, rewrite_ground, subst_var,
)
from physkernel.errors import UnsupportedNode
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_expression, parse_statement
from physkernel.lang.printer import print_expr, print_prop
from physkernel.quantity import Quantity

HEADER = ("theorem t (x y : Length) (t : Time) (s r : Real) "
          "(f : Length -> Length) (g : Time -> Length) : x = x")
VARS = ["x", "y", "t", "s", "r", "w", "f"]  # w is undeclared, f a function
BOUND = ["x", "y", "s", "w", "x!1"]
LITERALS = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
            Fraction(-3), Fraction(7, 5)]
UNARY = ["Neg", "PrefixApp", "Pow", "Cast", "Val", "Norm", "Fn", "Apply",
         "Deriv"]
BINARY = [N.Add, N.Sub, N.Mul, N.Div, N.SMul, N.RPow]


class Trees:
    """Seeded expressions and propositions: a deep spine with shallow
    branches, leaves that break one rule or another, and quantifiers whose
    names clash with the names that rewriting inserts."""

    def __init__(self, seed: int, db):
        self.rng = random.Random(seed)
        self.db = db

    def leaf(self):
        r = self.rng
        kind = r.randrange(7)
        if kind == 6:  # symbolically zero
            v = N.Var(r.choice(VARS[:5]))
            return N.Sub(v, v)
        if kind == 0:
            return N.NumLit(r.choice(LITERALS))
        if kind == 1:
            return N.ConstRef(r.choice(["g", "pi", "K"]))
        if kind == 2:
            return N.UnitRef(r.choice(["meter", "second", "kilogram"]))
        if kind == 3:
            return N.StdUnit(r.choice([None, self.db.kind("Length")]))
        return N.Var(r.choice(VARS))

    def expr(self, depth: int):
        r = self.rng
        if depth == 0 or r.random() < 0.1:
            return self.leaf()
        deep = self.expr(depth - 1)
        if r.random() < 0.35:
            kind = r.choice(UNARY)
            if kind == "Neg":
                return N.Neg(deep)
            if kind == "PrefixApp":
                return N.PrefixApp(r.choice(["kilo", "milli", "bogus"]), deep)
            if kind == "Pow":  # on a shallow base: powers do not nest
                return N.Pow(self.expr(r.randint(0, 2)),
                             r.choice([Fraction(2), Fraction(-1),
                                       Fraction(1, 2), Fraction(3)]))
            if kind == "Cast":
                arg = N.StdUnit() if r.random() < 0.3 else deep
                return N.Cast(arg, r.choice(["Length", "Time", "Real",
                                             "Bogus"]))
            if kind in ("Val", "Norm"):
                return getattr(N, kind)(deep)
            if kind == "Fn":
                return N.Fn(r.choice(N.FN_NAMES), deep)
            if kind == "Apply":
                return N.Apply(r.choice(["f", "g"]), deep)
            return N.Deriv(r.choice(["f", "g"]), deep)
        cls = r.choice(BINARY)
        shallow = self.expr(r.randint(0, 2))
        if r.random() < 0.5:
            return cls(deep, shallow)
        return cls(shallow, deep)

    def prop(self, depth: int):
        r = self.rng
        if depth <= 1 or r.random() < 0.15:
            cls = r.choice([N.Eq, N.Le, N.Lt, N.Ne])
            return cls(self.expr(r.randint(0, depth)),
                       self.expr(r.randint(0, min(depth, 3))))
        kind = r.randrange(5)
        if kind == 0:
            return N.ForallFinite(r.choice(BOUND),
                                  (Fraction(1), Fraction(2)),
                                  self.prop(depth - 1))
        if kind == 1:
            return N.ForallFn(r.choice(BOUND), self.prop(depth - 1),
                              r.choice([None, "Length", "Time"]))
        cls = r.choice([N.And, N.Or, N.Implies])
        deep, shallow = self.prop(depth - 1), self.prop(r.randint(1, 2))
        return cls(deep, shallow) if r.random() < 0.5 else cls(shallow, deep)

    def entries(self, count: int):
        return tuple((self.rng.choice(["x", "y", "s", "w"]),
                      self.expr(self.rng.randint(0, 6)))
                     for _ in range(count))


def outcome(run):
    """What ``run()`` returns, or the type and message of what it raises
    (with the fields a dimension mismatch reports)."""
    try:
        return "value", run()
    except dims._MismatchSignal as s:
        return "mismatch", (s.span, s.expected, s.found, s.note)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def same_tree(a, b):
    return (a is b) or (N.ast_eq(a, b) and print_expr_ref(a)
                        == print_expr_ref(b))


def kinded_tree(p):
    """``p`` as its printed form and the kinds its ``ForallFn``s record."""
    return print_expr_ref(p), [n.dim for n in N.walk(p)
                               if n.__class__ is N.ForallFn]


def translation(x, e):
    rf = x.tr(e)
    return ((rf.num, rf.den), [(s.num, s.den, label) for s, label in x.sides],
            list(x.opaque_vars.items()))


def quantity(q):
    return q.value, q.dim


@pytest.fixture(scope="module")
def env(db):
    return dims._Env(parse_statement(HEADER, db), db)


@pytest.fixture(scope="module")
def bindings(db):
    length, time = db.kind("Length"), db.kind("Time")
    return {"x": Quantity(Fraction(2), length),
            "y": Quantity(Fraction(3), length),
            "t": Quantity(Fraction(5), time),
            "s": Quantity.scalar(Fraction(1, 2)),
            "r": Quantity.scalar(Fraction(3))}


def check_expr(e, db, env, bindings, entries=()):
    assert print_expr(e) == print_expr_ref(e)
    assert free_vars(e) == free_vars_ref(e)
    assert outcome(lambda: dims.expr_dim(e, env)) == outcome(
        lambda: expr_dim_ref(e, env, db))
    assert outcome(lambda: quantity(eval_numeric(e, bindings, db))) \
        == outcome(lambda: quantity(eval_ref(e, bindings, db)))
    check_log(e, db, Substitution(entries))


def check_log(tree, db, log):
    """Reads and translations at every position of ``log`` against the
    references over its entries."""
    ref = SubstitutionRef(log.entries)
    for at in range(len(log) + 1):
        a, b = log.read(tree, at), ref.read(tree, at)
        assert same_tree(a, b), (at, print_expr_ref(a), print_expr_ref(b))
        assert (a is tree) == (b is tree)
        if isinstance(tree, N.Expr):
            got = outcome(lambda: translation(ring._Xlate(db, log, at), tree))
            want = outcome(lambda: translation(XlateRef(db, ref, at), tree))
            assert got == want, at


def check_prop(p, trees, db, env, bindings):
    assert print_prop(p) == print_expr_ref(p)
    assert free_vars(p) == free_vars_ref(p)
    before = dict(env.vars)
    got = outcome(lambda: dims._walk_prop(p, env, dims._check_cmp) is p)
    assert env.vars == before
    assert got == outcome(lambda: walk_prop_ref(p, env, db, check_cmp_ref)
                          is p)
    assert outcome(lambda: eval_prop(p, bindings, db)) == outcome(
        lambda: eval_prop_ref(p, bindings, db))
    replacement = trees.expr(3)
    body = trees.expr(3)
    entries = trees.entries(3)
    pattern = N.Apply("f", N.Var(trees.rng.choice(["x", "y", "w"])))
    for got, want in [
        (lambda: subst_var(p, "x", replacement),
         lambda: subst_var_ref(p, "x", replacement)),
        (lambda: expand_fn(p, "f", "w", body),
         lambda: expand_fn_ref(p, "f", "w", body)),
        (lambda: rewrite_ground(p, pattern, replacement),
         lambda: rewrite_ground_ref(p, pattern, replacement)),
    ]:
        a, b = got(), want()
        assert same_tree(a, b), (print_expr_ref(a), print_expr_ref(b))
        assert (a is p) == (b is p)
    check_log(p, db, Substitution(entries))


@pytest.mark.parametrize("seed", range(8))
def test_fold_passes_match_the_recursive_ones(seed, db, env, bindings):
    trees = Trees(seed, db)
    for _ in range(25):
        entries = trees.entries(trees.rng.randint(0, 4))
        check_expr(trees.expr(30), db, env, bindings, entries)
    for _ in range(10):
        check_prop(trees.prop(30), trees, db, env, bindings)


def _span(k: int) -> N.Span:
    return N.Span(k, k + 1, 1, k + 1)


# Trees with an error on each side of a site where a pass checks or looks
# up one part before it walks the next: the first error must stay first.
x, t, s = N.Var("x", _span(1)), N.Var("t", _span(2)), N.Var("s", _span(3))
bad_sum = N.Add(x, t, _span(4))  # a dimension mismatch
zero = N.Sub(x, x, _span(5))  # symbolically zero
ORDER_SITES = [
    N.SMul(N.Mul(x, x, _span(6)), bad_sum, _span(7)),
    N.SMul(N.Add(x, N.Val(t), _span(8)), N.Fn("sin", x), _span(9)),
    N.RPow(x, bad_sum, _span(10)),
    N.RPow(t, N.Fn("log", x), _span(11)),
    N.Cast(N.StdUnit(), "Length", _span(12)),
    N.Cast(N.StdUnit(), "Bogus", _span(13)),
    N.Cast(bad_sum, "Bogus", _span(14)),
    N.Apply("f", N.Div(x, zero, _span(15)), _span(16)),
    N.Deriv("f", N.Var("w"), _span(17)),
    N.Div(N.Div(t, zero), N.Div(x, N.Sub(t, t)), _span(18)),
    N.Div(N.Div(t, N.Pow(s, Fraction(-1))), N.Sub(x, N.Var("y")), _span(19)),
    N.Pow(N.Div(x, zero), Fraction(1, 2), _span(20)),
    N.Pow(N.Sub(x, x), Fraction(-2), _span(21)),
    N.PrefixApp("bogus", N.Div(x, zero), _span(22)),
    N.Mul(N.Fn("sin", x), N.Div(N.Norm(t), N.Fn("cos", s)), _span(23)),
]


@pytest.mark.parametrize("e", ORDER_SITES, ids=print_expr)
def test_order_sensitive_sites_raise_the_first_error(e, db, env, bindings):
    check_expr(e, db, env, bindings, (("x", N.Div(t, zero)),))


def test_a_quantifier_kind_is_found_before_its_body_is_walked(db, env):
    body = N.Eq(N.Add(x, t), N.Var("w"))
    for p in (N.ForallFn("w", body), N.ForallFn("w", body, "Bogus"),
              N.And(N.ForallFinite("w", (Fraction(1),), body), body),
              N.ForallFn("q", N.Eq(N.Apply("g", N.Var("q")), x))):
        got = outcome(lambda: kinded_tree(
            dims._walk_prop(p, env, dims._check_cmp)))
        assert got == outcome(lambda: kinded_tree(
            walk_prop_ref(p, env, db, check_cmp_ref)))
        assert "w" not in env.vars and "q" not in env.vars


def test_a_function_equality_passes_as_the_references_do(db, env, bindings):
    # f and g differ in argument kind; an Eq of two function variables, which
    # the parser never builds, is checked as quantities are.
    f, g = N.Var("f"), N.Var("g")
    for p in (N.FnEq(f, f), N.FnEq(f, g), N.Eq(f, f),
              N.And(N.Eq(x, x), N.FnEq(f, f)),
              N.ForallFn("w", N.FnEq(f, f), "Length")):
        check_prop(p, Trees(0, db), db, env, bindings)


def test_a_definition_that_fails_to_translate_fails_where_it_is_read(db):
    # Each entry reads the later ones.  The error raised first is the one
    # the translation reaches first, in a definition or in what it reads.
    own_first = N.Add(N.Div(t, N.Sub(t, t)), s)
    read_first = N.Add(s, N.Div(t, N.Sub(t, t)))
    for y in (own_first, read_first):
        entries = (("y", y), ("s", N.Div(t, zero)))
        for e in (N.Var("y"), N.Add(N.Var("s"), N.Var("y"))):
            got = outcome(lambda: translation(
                ring._Xlate(db, Substitution(entries)), e))
            want = outcome(lambda: translation(
                XlateRef(db, SubstitutionRef(entries)), e))
            assert got == want and got[0] == "DivisionByZero"


@pytest.mark.parametrize("seed", range(4))
def test_logs_that_branch_from_one_parent_read_as_their_entries(seed, db):
    # Each log extends one made before it, so some logs have two or more
    # children, made before and after their siblings' own children.
    trees = Trees(seed, db)
    logs = [Substitution()]
    for _ in range(12):
        (name, rhs), = trees.entries(1)
        logs.append(trees.rng.choice(logs).then(name, rhs))
    for _ in range(4):
        e, p = trees.expr(12), trees.prop(8)
        for log in trees.rng.sample(logs, 6):
            check_log(e, db, log)
            check_log(p, db, log)


ENV = {"a": "b + c", "b": "2 * d", "c": "d * e", "d": "e + 1", "e": "x / y"}


@pytest.mark.parametrize("rhs, answer", [
    ("2 * (x / y + 1) + (x / y + 1) * (x / y)", ("value", True)),
    ("2 * (x / y + 1) + (x / y + 1) * x", ("value", False)),
    ("sin(x)", ("UnsupportedNode", "sin(x) is outside the ring fragment")),
])
def test_ring_equal_gives_one_answer_for_every_order_of_env(rhs, answer,
                                                              db):
    scope = dict.fromkeys("abcdexy", "Real")

    def expr(text):
        return parse_expression(text, db, scope, {})

    env = {name: expr(text) for name, text in ENV.items()}
    lhs, rhs = expr("a"), expr(rhs)
    for order in itertools.permutations(env):
        assert outcome(lambda: ring.ring_equal(
            lhs, rhs, {name: env[name] for name in order}, db)) == answer


@pytest.mark.parametrize("env, names", [
    ({"x": "x + 1"}, "x"),
    ({"a": "b", "b": "a", "c": "a", "d": "1"}, "a, b"),
    ({"e": "1", "a": "b", "b": "a + e"}, "a, b, e"),
])
def test_a_cyclic_env_names_what_cannot_be_substituted(env, names, db):
    scope = dict.fromkeys("abcdex", "Real")
    env = {name: parse_expression(text, db, scope, {})
           for name, text in env.items()}
    x = N.Var("x")
    with pytest.raises(UnsupportedNode) as exc:
        ring.ring_equal(x, x, env, db)
    assert str(exc.value) == (f"env is cyclic: {names} cannot all be "
                              "substituted out")
