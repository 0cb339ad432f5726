"""Parser and printer: golden texts, random round trips, spans, errors.

The round-trip property — print then reparse yields a structurally equal
tree — is checked over randomly generated ASTs.  The generator avoids the
two shapes the parser folds at parse time (a negated literal and a literal
ratio), since those deliberately normalize to a single literal node.
"""

import ast
import itertools
import pathlib
import random
import time
from fractions import Fraction

import pytest

from physkernel.checker.rewrite import free_vars
from physkernel.errors import ParseError
from physkernel.lang import nodes as N
from physkernel.lang import parser
from physkernel.lang.parser import parse_prop, parse_statement
from physkernel.lang.printer import (print_expr, print_prop,
                                     print_statement)

from oracles import tokenize_by_character

N_ROUNDTRIP_CASES = 600

VARS = {"x": "Length", "t": "Time", "m": "Mass", "u": "Real"}
FNS = {"h": ("Time", "Length")}

GOLDEN = [
    "x = 3 • meter",
    "x * x = 9 • meter**2",
    "val(x) / val(x) <= 1",
    "m * x / t**2 = milli(2 • newton)",
    "forall t : Time, h(t) = x",
    "forall u in {1, -1}, (u • x = x -> x = x)",
    "x = cast(m * x / m, Length)",
    "0 < val(m) ∧ 0 < val(x) ∨ x != x",
    "u = rpow(val(x), 1/3)",
    "deriv(h, t) = x / t / 1",
    "u • m • x = m * (u • x / 1)",
    "x = nano(2.5 • meter) + std",
]


def test_golden_round_trips(db):
    for text in GOLDEN:
        p1 = parse_prop(text, db, VARS, FNS)
        printed = print_prop(p1)
        p2 = parse_prop(printed, db, VARS, FNS)
        assert N.ast_eq(p1, p2), f"{text!r} -> {printed!r}"


def test_statement_round_trip(db, corpus_dir):
    for path in sorted(corpus_dir.rglob("*.phys")):
        s1 = parse_statement(path.read_text(encoding="utf-8"), db)
        printed = print_statement(s1, front_matter=True)
        s2 = parse_statement(printed, db)
        assert N.ast_eq(s1, s2), path.name


def test_parse_is_deterministic(db, corpus_dir):
    for path in sorted(corpus_dir.rglob("*.phys")):
        text = path.read_text(encoding="utf-8")
        assert N.ast_eq(parse_statement(text, db), parse_statement(text, db))
        assert print_statement(parse_statement(text, db)) == \
            print_statement(parse_statement(text, db))


# -- random AST round trips ------------------------------------------------------


class Gen:
    def __init__(self, rng):
        self.rng = rng

    def lit(self):
        n = self.rng.randint(-40, 40)
        d = self.rng.choice([1, 1, 1, 2, 4, 10])
        return N.NumLit(Fraction(n, d))

    def atom(self, depth):
        choices = ["var", "lit", "unit", "std", "const"]
        kind = self.rng.choice(choices)
        if kind == "var":
            return N.Var(self.rng.choice(list(VARS)))
        if kind == "lit":
            return self.lit()
        if kind == "unit":
            return N.UnitRef(self.rng.choice(
                ["meter", "second", "newton", "kelvin"]))
        if kind == "std":
            return N.StdUnit()
        return N.ConstRef(self.rng.choice(["g", "pi"]))

    def expr(self, depth):
        if depth <= 0:
            return self.atom(depth)
        kind = self.rng.choice([
            "add", "sub", "mul", "div", "neg", "smul", "pow", "rpow",
            "prefix", "cast", "val", "norm", "fn", "apply", "deriv", "atom"])
        a = self.expr(depth - 1)
        b = self.expr(depth - 1)
        if kind == "add":
            return N.Add(a, b)
        if kind == "sub":
            return N.Sub(a, b)
        if kind == "mul":
            return N.Mul(a, b)
        if kind == "div":
            if isinstance(a, N.NumLit) and isinstance(b, N.NumLit):
                a = N.Var("x")  # literal/literal folds to one literal
            if isinstance(b, N.NumLit) and b.value == 0:
                b = N.NumLit(Fraction(1))
            return N.Div(a, b)
        if kind == "neg":
            if isinstance(a, N.NumLit):
                a = N.Var("t")  # -literal folds to a negative literal
            return N.Neg(a)
        if kind == "smul":
            return N.SMul(a, b)
        if kind == "pow":
            e = Fraction(self.rng.randint(-4, 4),
                         self.rng.choice([1, 1, 2, 3]))
            return N.Pow(a, e)
        if kind == "rpow":
            return N.RPow(a, b)
        if kind == "prefix":
            return N.PrefixApp(self.rng.choice(["nano", "milli", "kilo"]), a)
        if kind == "cast":
            return N.Cast(a, self.rng.choice(["Length", "Force", "Real"]))
        if kind == "val":
            return N.Val(a)
        if kind == "norm":
            return N.Norm(a)
        if kind == "fn":
            return N.Fn(self.rng.choice(N.FN_NAMES), a)
        if kind == "apply":
            return N.Apply("h", a)
        if kind == "deriv":
            return N.Deriv("h", a)
        return self.atom(depth)

    def prop(self, depth):
        if depth <= 0 or self.rng.random() < 0.3:
            cmp_kind = self.rng.choice([N.Eq, N.Le, N.Lt, N.Ne])
            return cmp_kind(self.expr(max(depth - 1, 1)),
                            self.expr(max(depth - 1, 1)))
        kind = self.rng.choice(["and", "or", "implies", "finite", "fn"])
        if kind == "and":
            return N.And(self.prop(depth - 1), self.prop(depth - 1))
        if kind == "or":
            return N.Or(self.prop(depth - 1), self.prop(depth - 1))
        if kind == "implies":
            return N.Implies(self.prop(depth - 1), self.prop(depth - 1))
        if kind == "finite":
            vals = sorted({Fraction(self.rng.randint(-5, 5))
                           for _ in range(self.rng.randint(1, 3))})
            return N.ForallFinite("u", tuple(vals),
                                  self.prop(depth - 1))
        return N.ForallFn("t", self.prop(depth - 1),
                          self.rng.choice([None, "Time"]))


CMP_OPS = {N.Eq: "=", N.Ne: "≠", N.Le: "≤", N.Lt: "<"}


def test_random_round_trips(db):
    rng = random.Random(424281)
    gen = Gen(rng)
    for case in range(N_ROUNDTRIP_CASES):
        tree = gen.prop(rng.randint(1, 4))
        printed = print_prop(tree)
        reparsed = parse_prop(printed, db, VARS, FNS)
        assert N.ast_eq(tree, reparsed), (
            f"case {case}: {printed!r}\n{tree}\n{reparsed}")
        # A comparison may open with a group: its left operand, or the
        # whole comparison, in parentheses.
        for cmp in N.walk(tree):
            op = CMP_OPS.get(type(cmp))
            if op is None:
                continue
            for text in (f"({print_expr(cmp.lhs)}) {op} {print_expr(cmp.rhs)}",
                         f"({print_prop(cmp)})"):
                assert N.ast_eq(cmp, parse_prop(text, db, VARS, FNS)), (
                    f"case {case}: {text!r}")


def test_operator_precedence_pins():
    db = None
    # smul binds tighter than * and /, ** tighter than unary minus
    p = parse_prop("x = 2 • meter / t", variables=VARS)
    assert isinstance(p.rhs, N.Div)
    assert isinstance(p.rhs.lhs, N.SMul)
    p2 = parse_prop("u = -x**2 / x", variables=VARS)
    assert isinstance(p2.rhs, N.Div)
    assert isinstance(p2.rhs.lhs, N.Neg)
    assert isinstance(p2.rhs.lhs.arg, N.Pow)
    # -> is right-associative and binds looser than ∧/∨
    p3 = parse_prop("x = x -> x = x ∧ u = u -> u = u", variables=VARS)
    assert isinstance(p3, N.Implies)
    assert isinstance(p3.rhs, N.Implies)
    assert isinstance(p3.rhs.lhs, N.And)


# Binary operators as the grammar defines them, written out here rather than
# read from the operator table: (node, spelling, binding power, right-assoc).
ARITH_OPS = [(N.Add, "+", 1, False), (N.Sub, "-", 1, False),
             (N.Mul, "*", 2, False), (N.Div, "/", 2, False),
             (N.SMul, "•", 3, True)]
CONNECTIVES = [(N.Implies, "->", 1, True), (N.Or, "∨", 2, False),
               (N.And, "∧", 3, False)]


def test_binary_operator_parenthesization(db):
    """Each operator nested on each side of each other one in its table:
    parentheses exactly when the inner operator binds looser, or equally
    on the outer operator's non-associative side; the reparse is equal."""
    arith_leaf = N.Var
    prop_leaf = lambda name: N.Eq(N.Var(name), N.Var(name))  # noqa: E731
    for table, leaf, show in ((ARITH_OPS, arith_leaf, print_expr),
                              (CONNECTIVES, prop_leaf, print_prop)):
        a, b, c = leaf("x"), leaf("t"), leaf("m")
        ta, tb, tc = show(a), show(b), show(c)
        for (outer, o_op, o_bp, o_right), (inner, i_op, i_bp, _) in \
                itertools.product(table, repeat=2):
            for side in ("left", "right"):
                loose = "left" if o_right else "right"
                parens = i_bp < o_bp or (i_bp == o_bp and side == loose)
                if side == "left":
                    tree = outer(inner(a, b), c)
                    inner_text = f"{ta} {i_op} {tb}"
                else:
                    tree = outer(a, inner(b, c))
                    inner_text = f"{tb} {i_op} {tc}"
                if parens:
                    inner_text = f"({inner_text})"
                expected = (f"{inner_text} {o_op} {tc}" if side == "left"
                            else f"{ta} {o_op} {inner_text}")
                assert show(tree) == expected, (outer, inner, side)
                if table is ARITH_OPS:
                    tree = N.Eq(N.Var("u"), tree)
                    expected = f"u = {expected}"
                assert N.ast_eq(tree, parse_prop(expected, db, VARS)), expected


def test_a_long_chain_prints_without_recursion(db):
    # 3000 terms nest 3000 deep, three times the recursion limit; the
    # printer walks the left spine of a chain of one power in a loop, and
    # ast_eq and free_vars walk with an explicit stack.
    terms = [f"{k} • x" if k % 3 else "x * t / t" for k in range(3000)]
    text = " + ".join(terms[:1500]) + " - " + " - ".join(terms[1500:])
    stmt = parse_statement(
        f"theorem long (x : Length) (t : Time) : {text} = x", db)
    printed = print_prop(stmt.goal)
    reparsed = parse_prop(printed, db, VARS, FNS)
    assert printed == f"{text} = x"
    assert N.ast_eq(reparsed, stmt.goal)
    assert free_vars(stmt.goal) == {"x", "t"}


def test_comparisons_print_and_swap(db):
    for cls, op in ((N.Eq, "="), (N.Ne, "!="), (N.Le, "<="), (N.Lt, "<")):
        assert print_prop(cls(N.Var("x"), N.Var("x"))) == f"x {op} x"
    # ">=" and ">" (and "≥") are sugar: the operands swap into "<=" / "<".
    for text, cls in (("x + x >= t • x", N.Le), ("x + x ≥ t • x", N.Le),
                      ("x + x > t • x", N.Lt)):
        p = parse_prop(text, db, VARS)
        assert isinstance(p, cls)
        assert isinstance(p.lhs, N.SMul) and isinstance(p.rhs, N.Add)
        assert print_prop(p) == f"t • x {'<=' if cls is N.Le else '<'} x + x"


def test_literal_folds():
    p = parse_prop("u = -3", variables=VARS)
    assert isinstance(p.rhs, N.NumLit) and p.rhs.value == -3
    p2 = parse_prop("u = 10832250 / 144739", variables=VARS)
    assert isinstance(p2.rhs, N.NumLit)
    assert p2.rhs.value == Fraction(10832250, 144739)
    p3 = parse_prop("u = 4e6 + 2.5", variables=VARS)
    assert p3.rhs.lhs.value == Fraction(4000000)
    assert p3.rhs.rhs.value == Fraction(5, 2)


def test_span_containment(db, corpus_dir):
    for path in sorted(corpus_dir.rglob("*.phys")):
        stmt = parse_statement(path.read_text(encoding="utf-8"), db)

        def visit(node):
            for child in N.children(node):
                if child.span is not N.DUMMY_SPAN \
                        and node.span is not N.DUMMY_SPAN:
                    assert node.span.start <= child.span.start, path.name
                    assert child.span.end <= node.span.end, path.name
                visit(child)

        for h in stmt.hyps:
            visit(h[1])
        visit(stmt.goal)


HEAD = "theorem t (x : Length) : "

# (statement, message, line, column, expected): none of these starts a
# comparison with a parenthesis, so every reading agrees on where it fails.
BAD_INPUTS = [
    (HEAD + "x =", "unexpected end of input", 1, 29, ("expression",)),
    ("theorem t (x : Nope) : x = x", "unknown kind 'Nope'", 1, 16, ()),
    (HEAD + "x = 3 • metre",
     "undeclared identifier 'metre' (did you mean: meter, ampere?)",
     1, 34, ()),
    ("theorem t (x : Length) (x : Time) : x = x",
     "duplicate binder name 'x'", 1, 25, ()),
    (HEAD + "y = x", "undeclared identifier 'y'", 1, 26, ()),
    (HEAD + "x = (3 • meter", "unexpected end of input", 1, 40, (")",)),
    (HEAD + "x < x < x", "unexpected '<'", 1, 32, ("eof",)),
    (HEAD + "x = 3 •", "unexpected end of input", 1, 33, ("expression",)),
    (HEAD + "x = x ∧", "unexpected end of input", 1, 33, ("expression",)),
    (HEAD + "x + x", "expected a comparison operator", 1, 31,
     ("=", "!=", "<=", "<", ">=", ">")),
    (HEAD + "x = meter(3)", "'meter' is not callable", 1, 30, ()),
    (HEAD + "x ** x = x", "expected an exponent literal", 1, 31, ("number",)),
    (HEAD + "x = deriv(x, x)", "expected a declared function variable",
     1, 36, ("function variable",)),
    (HEAD + "forall u in {1, 1}, x = x",
     "duplicate value in quantifier list", 1, 33, ()),
    (HEAD + "x = x -> forall u in {1/0}, x = x",
     "zero denominator in rational literal", 1, 50, ()),
    (HEAD + "x = 3 $", "unexpected character '$'", 1, 32, ()),
    (HEAD + "x = ² • meter", "unexpected character '²'", 1, 30, ()),
    (HEAD + "x = ① • meter", "unexpected character '①'", 1, 30, ()),
]


def _error(text, db, parse=parse_statement, *args):
    with pytest.raises(ParseError) as e:
        parse(text, db, *args)
    return e.value


def _pinned(e, message, line, col, expected):
    return (str(e), e.line, e.col, e.expected) == (
        str(ParseError(message, line, col, expected)), line, col, expected)


def test_error_cases_have_positions(db):
    for text, message, line, col, expected in BAD_INPUTS:
        assert _pinned(_error(text, db), message, line, col, expected), text


def test_errors_in_a_leading_group_are_where_no_reading_continues(db):
    # The group is read once, so its error is where neither a proposition
    # nor an expression can go on, not where the expression reading stopped.
    scope = {"x": "Length", "y": "Length"}
    for text, message, line, col, expected in [
            ("(x = y", "unexpected end of input", 1, 7, (")",)),
            ("(x = )", "unexpected ')'", 1, 6, ("expression",)),
            ("(x = z)", "undeclared identifier 'z'", 1, 6, ())]:
        e = _error(text, db, parse_prop, scope)
        assert _pinned(e, message, line, col, expected), text


def test_unknown_unit_suggestion(db):
    with pytest.raises(ParseError) as e:
        parse_statement("theorem t (x : Length) : x = 3 • metre", db)
    assert "meter" in str(e.value)


FN_HEAD = "theorem t (x : Length) (f g : Time -> Length) : "


def test_bare_function_variables_only_in_function_equalities(db):
    from physkernel.checker.evaluate import eval_prop
    from physkernel.errors import UnboundVariable
    for goal in ("f = g", "(f) = g", "f = (g)"):
        stmt = parse_statement(FN_HEAD + goal, db)
        assert stmt.goal.__class__ is N.FnEq, goal
        assert isinstance(stmt.goal.lhs, N.Var) and stmt.goal.rhs.name == "g"
        assert print_prop(stmt.goal) == "f = g"
        assert N.ast_eq(parse_statement(print_statement(stmt), db), stmt)
    with pytest.raises(UnboundVariable, match="f"):
        eval_prop(stmt.goal, {}, db)
    at = len(FN_HEAD) + 1
    # The first bare use in the source is reported, also where ">=" and ">"
    # swap their sides; a parenthesized one spans its parentheses.
    for goal, col, width in (("f = x", at, 1),
                             ("f = g ∧ (x = f)", at + 13, 1),
                             ("f >= g", at, 1), ("f > g", at, 1),
                             ("(f) + x = g", at, 3)):
        e = _error(FN_HEAD + goal, db)
        assert str(e) == f"1:{col}: function variable 'f' used as a quantity"
        assert (e.span.start, e.span.end) == (col - 1, col - 1 + width), goal


def test_a_quantifier_hides_the_function_variable_it_shadows(db):
    from physkernel.checker.prover import Proved, auto_prove
    stmt = parse_statement(FN_HEAD + "forall f in {1}, f • x = x", db)
    assert isinstance(auto_prove(stmt, db), Proved)
    # Outside the binder, the bare name is still the function variable.
    goal = "(forall f in {1}, f • x = x) ∧ f • x = x"
    col = len(FN_HEAD) + goal.rindex("f") + 1
    e = _error(FN_HEAD + goal, db)
    assert str(e) == f"1:{col}: function variable 'f' used as a quantity"


def test_each_token_is_read_once(db, monkeypatch):
    # Parentheses before a comparison operator are read once, not once per
    # reading tried.
    calls = []
    real_next = parser._Parser.next

    def counting_next(self):
        calls.append(1)
        return real_next(self)

    monkeypatch.setattr(parser._Parser, "next", counting_next)
    text = "(" * 100 + "x" + ")" * 100 + " = x"
    n_tokens = len(parser.tokenize(text))  # eof included
    parse_prop(text, db, VARS)
    assert (len(calls), n_tokens) == (204, 204)


def test_digit_like_characters_continue_identifiers_only(db):
    # "²" is a digit to str.isdigit but no decimal digit; "٣" is one.
    assert [(t.kind, t.text) for t in parser.tokenize("x² = ٣")] == [
        ("ident", "x²"), ("op", "="), ("number", "٣"), ("eof", "")]
    assert parse_prop("u = ٣.٥", db, VARS).rhs.value == Fraction(7, 2)


# -- the scanner against a character-at-a-time reference -------------------------

def _error_of(e: ParseError):
    return str(e), (e.span.start, e.span.end, e.span.line, e.span.col)


def _scanned(text, start):
    try:
        return [(t.kind, t.text, t.start, t.end, t.line, t.col)
                for t in parser.tokenize(text, start)]
    except ParseError as e:
        return _error_of(e)


def _by_character(text, start):
    try:
        return tokenize_by_character(text, start)
    except ParseError as e:
        return _error_of(e)


def _assert_scans_like_reference(text, start=0):
    got = _scanned(text, start)
    try:
        want = _by_character(text, start)
    except AttributeError:
        # The reference crashes where a digit-like "²" starts a token; the
        # scanner must reject it where the reference rejects "$".
        assert isinstance(got, tuple), (text, start)
        at = got[1][0]
        ch = text[at]
        assert ch.isdigit() and not ch.isdecimal(), (text, start)
        message, span = _by_character(text[:at] + "$" + text[at + 1:], start)
        want = (message.replace("'$'", repr(ch)), span)
    assert got == want, (text, start)


_FRAGMENTS = [*parser._OPERATORS, " ", "\t", "\r", "\n", "# note", "#", "x",
              "ab", "_", "v1", "theorem", "forall", "in", "0", "12", "3.5",
              "1e3", "2E-4", ".", "e", "@", "μ", "μ_s", "θ", "é℘",
              "e\u0301", "٣", "²", "½"]  # e and a combining accent


def test_scanner_matches_the_character_reference(corpus_dir):
    corpus = [p.read_text(encoding="utf-8")
              for p in sorted(corpus_dir.rglob("*.phys"))]
    texts = list(corpus)
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        texts += [node.value for node in ast.walk(ast.parse(path.read_text(
            encoding="utf-8"))) if isinstance(node, ast.Constant)
            and isinstance(node.value, str)]
    for text in texts:
        _assert_scans_like_reference(text)
    rng = random.Random(16)
    for k in range(20_000):
        text = "".join(rng.choices(_FRAGMENTS, k=rng.randint(1, 6)))
        _assert_scans_like_reference(text)
        if k % 500 == 0:
            _assert_scans_like_reference(text, rng.randint(1, len(text)))
    for text in corpus:
        for start in (1, len(text) // 3, len(text) // 2):
            _assert_scans_like_reference(text, start)


DEPTH_SHAPES = {
    "group left of =": lambda d: "(" * d + "x" + ")" * d + " = x",
    "group right of =": lambda d: "x = " + "(" * d + "x" + ")" * d,
    "grouped proposition": lambda d: "(" * d + "x = x" + ")" * d,
    "unary minus": lambda d: "x = " + "-" * d + "x",
    "sqrt": lambda d: "u = " + "sqrt(" * d + "u" + ")" * d,
    "cast": lambda d: "x = " + "cast(" * d + "x" + ", Length)" * d,
    "function variable": lambda d: "x = " + "h(" * d + "t" + ")" * d,
    "prefix": lambda d: "x = " + "kilo(" * d + "x" + ")" * d,
    "•": lambda d: "x = " + "u • " * d + "x",
    "->": lambda d: "x = x -> " * d + "x = x",
    "forall": lambda d: "forall t, " * d + "x = x",
}


def _parse_below(frames, text, db):
    """parse_prop with ``frames`` more interpreter frames on the stack."""
    if frames:
        return _parse_below(frames - 1, text, db)
    return parse_prop(text, db, VARS, FNS)


def test_depth_budget(db):
    budget = parser.PARSE_DEPTH_BUDGET
    assert budget == 100
    for shape, text_at in DEPTH_SHAPES.items():
        _parse_below(300, text_at(budget), db)
        for depth in (budget + 1, 5000):
            with pytest.raises(ParseError, match="PARSE_DEPTH_BUDGET") as e:
                parse_prop(text_at(depth), db, VARS, FNS)
            assert e.value.line == 1, shape


def test_literal_digit_budget(db):
    assert parser.LITERAL_DIGIT_BUDGET == 4300
    assert parse_prop("u = 1e4299", db, VARS).rhs.value == 10**4299
    for literal in ("1e4300", "1e-4300", "1" * 4301):
        with pytest.raises(ParseError, match="LITERAL_DIGIT_BUDGET"):
            parse_prop(f"u = {literal}", db, VARS)
    started = time.process_time()
    with pytest.raises(ParseError, match="LITERAL_DIGIT_BUDGET"):
        parse_prop("u = 1e999999999", db, VARS)
    assert time.process_time() - started < 0.1


# A literal folded from two, at each place the parser folds one: a division
# of literals, a quantifier value and a rational exponent.
FOLD_SITES = {
    "division": "u = {}",
    "quantifier value": "forall v in {{{}}}, u = u",
    "exponent": "u = u**({})",
}


@pytest.mark.parametrize("site", FOLD_SITES)
def test_folded_literal_digit_budget(db, site):
    template = FOLD_SITES[site]
    for ratio in ("1e4299 / 1e-4299", "1e-4299 / 1e4299", "-1e4299 / 1e-1"):
        with pytest.raises(ParseError, match="LITERAL_DIGIT_BUDGET"):
            parse_prop(template.format(ratio), db, VARS)
    # Within the budget, a folded literal prints and reparses, also where
    # its decimal expansion would be longer than the budget.
    for ratio in ("1e4299 / 3", "1e4299 / 4", "9" * 4300 + " / 2"):
        text = ("theorem folded (u : Real) (h := "
                + template.format(ratio) + ") : u = u")
        stmt = parse_statement(text, db)
        assert N.ast_eq(parse_statement(print_statement(stmt), db), stmt)
