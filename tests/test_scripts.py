"""Derivation scripts: text round trip, step semantics, malformed input."""

import textwrap
from fractions import Fraction

import pytest

from physkernel.checker.prover import Proved, auto_prove, check_derivation
from physkernel.checker.script import (
    CaseSplit, ExactHyp, Instantiate, Intro, MalformedScript, NumericCheck,
    PolyMatch, RingCheck, Split, Subst, parse_script, print_script,
)
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement


def stmt_of(body: str, db):
    return parse_statement(textwrap.dedent(body).strip() + "\n", db)


SCOPE_STMT = """
    theorem scope
    (f : Time -> Length) (t : Time) (u : Real)
    (hf := forall s, f(s) = f(s))
    (hu := u = 1)
    : u = 1
"""


def test_text_round_trip_covers_every_step(db):
    s = stmt_of(SCOPE_STMT, db)
    steps = (
        Split(), Intro(),
        CaseSplit("u", (Fraction(1), Fraction(-1), Fraction(1, 2))),
        Subst("hu"), Instantiate("hf", N.Var("t")),
        PolyMatch("hf", "s"), RingCheck(), NumericCheck(), ExactHyp("hu"),
    )
    text = print_script(steps)
    parsed = parse_script(text, s, db)
    assert len(parsed) == len(steps)
    for got, want in zip(parsed, steps):
        if isinstance(want, Instantiate):
            assert isinstance(got, Instantiate) and got.hyp == want.hyp
            assert N.ast_eq(got.arg, want.arg)  # spans differ, shape must not
        else:
            assert got == want
    # Printing is stable under a second round trip.
    assert print_script(parsed) == text


def test_script_text_forms(db):
    s = stmt_of(SCOPE_STMT, db)
    text = textwrap.dedent("""
        # a comment line
        split
        cases u {1, -1}
        subst hu   # trailing comment
        inst hf t * 2
        exact hu
    """)
    steps = parse_script(text, s, db)
    assert steps[0] == Split()
    assert steps[1] == CaseSplit("u", (Fraction(1), Fraction(-1)))
    assert steps[2] == Subst("hu")
    inst = steps[3]
    assert isinstance(inst, Instantiate) and inst.hyp == "hf"
    assert isinstance(inst.arg, N.Mul)
    assert steps[4] == ExactHyp("hu")


def test_malformed_scripts_carry_step_index(db):
    s = stmt_of(SCOPE_STMT, db)
    cases = [
        ("frobnicate hu", "unknown step"),
        ("split hu", "takes no argument"),
        ("subst", "one hypothesis name"),
        ("subst a b", "one hypothesis name"),
        ("polymatch hf", "parameter"),
        ("cases u 1, -1", "expects a variable"),
        ("cases u {1, }", "empty case value"),
        ("cases u {2*3}", "not a literal"),
        ("inst hf", "expects a hypothesis name and an expression"),
        ("inst hf )(", "bad 'inst' argument"),
    ]
    for text, fragment in cases:
        with pytest.raises(MalformedScript, match=fragment) as exc:
            parse_script("split\n" + text, s, db)
        assert exc.value.step_index == 1, text


def test_instantiation_names_count_up(db):
    s = stmt_of("""
        theorem twice
        (f : Time -> Length) (t : Time)
        (hf := forall s, f(s) = f(s))
        (ht := t = 1 • second)
        : f(t) = f(t)
    """, db)
    steps = parse_script("inst hf t\ninst hf t * 2\nexact hf@1\n", s, db)
    v = check_derivation(s, steps, db)
    assert isinstance(v, Proved)


def test_an_inst_argument_may_be_written_in_a_kind_unit(db):
    s = stmt_of("""
        theorem kind_unit
        (f : Time -> Length)
        (hf := forall t, f(t) = 2 • meter / second * t)
        : f(3 • unit(Time)) = 6 • meter
    """, db)
    steps = parse_script("inst hf (3 • unit(Time))\nsubst hf@1\nring\n",
                         s, db)
    assert isinstance(check_derivation(s, steps, db), Proved)
    again = parse_script(print_script(steps), s, db)
    assert isinstance(check_derivation(s, again, db), Proved)


def test_cases_splits_a_disjunctive_hypothesis(db):
    s = stmt_of("""
        theorem either_way
        (u : Real) (w : Real)
        (hu := u = 1 ∨ u = -1)
        (hw := w = u * u)
        : w = 1
    """, db)
    steps = parse_script("cases u {1, -1}\n"
                         "subst hu\nsubst hw\nring\n"
                         "subst hu\nsubst hw\nring\n", s, db)
    v = check_derivation(s, steps, db)
    assert isinstance(v, Proved)
    assert v.eval_count == 0


def test_cases_value_set_must_match(db):
    s = stmt_of("""
        theorem wrong_set
        (u : Real)
        (hu := u = 1 ∨ u = -1)
        : u * u = 1
    """, db)
    steps = parse_script("cases u {1, 2}\nring\nring\n", s, db)
    with pytest.raises(MalformedScript, match="matches neither"):
        check_derivation(s, steps, db)


def test_quantified_goal_cases_matches_order(db):
    s = stmt_of("""
        theorem signs
        (u : Real)
        (h := 0 = 0)
        : forall e in {1, -1}, e * e = 1
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    case_steps = [st for st in v.steps if isinstance(st, CaseSplit)]
    assert case_steps and case_steps[0].values == (Fraction(1), Fraction(-1))


def test_intro_adds_hypothesis_for_implication(db):
    s = stmt_of("""
        theorem modus
        (u : Real)
        (hu := u = 3)
        : u = 3 -> u + 1 = 4
    """, db)
    steps = parse_script("intro\nsubst hu\nring\n", s, db)
    assert isinstance(check_derivation(s, steps, db), Proved)


def test_printed_auto_scripts_parse_for_all_corpus_entries(db, corpus_dir):
    from physkernel.corpus import Tier, load_corpus
    for entry in load_corpus(corpus_dir, db):
        if entry.tier is not Tier.AUTO:
            continue
        v = auto_prove(entry.statement, db)
        assert isinstance(v, Proved)
        text = print_script(v.steps)
        assert parse_script(text, entry.statement, db) == tuple(v.steps)


@pytest.mark.parametrize("decls, hyps, goal, script, outcome", [
    # After x := y + 1, h2 reads y = y + 1: no longer a definition.
    ("(x y : Real)", "(h1 := x = y + 1) (h2 := y = x)", "x = y + 1",
     "subst h1\nsubst h2\nring\n", "malformed at 1"),
    # An inst argument written after a subst is not substituted.
    ("(x : Real) (f : Real -> Real)",
     "(hx := x = 2) (hf := forall s, f(s) = s)", "f(x) = x", "subst hx\ninst hf x\nexact hf@1\n", "unknown at 2"),
    # exact compares the goal with the substituted hypothesis.
    ("(x y : Real)", "(hx := x = 2) (hy := y = x + 1)", "y = 2 + 1",
     "subst hx\nexact hy\n", "proved"),
    # A subst leaves the hypothesis it consumed as it was.
    ("(u : Real)", "(hu := u = 3)", "u = 3",
     "subst hu\nexact hu\n", "unknown at 1"),
    # intro of a substituted implication adds the substituted premise.
    ("(u : Real)", "(hu := u = 3)", "u = 3 -> u = 3",
     "subst hu\nintro\nexact h!1\n", "proved"),
    # A quantifier that binds a defined name stops its definition.
    ("(t : Time) (v : Speed) (f : Time -> Length)",
     "(ht := t = 3 • second) (hv := v = 2 • meter / second)"
     " (hf := forall t, f(t) = v * t)",
     "f(2 • second) = 2 • meter / second * (2 • second)",
     "subst ht\nsubst hv\ninst hf 2 • second\nexact hf@1\n", "proved"),
    # A function definition unfolds what a recorded definition brings in.
    ("(x : Real) (f : Real -> Real)",
     "(hx := x = f(2)) (hf := forall s, f(s) = s + 1)", "x = 3",
     "subst hx\nsubst hf\nnumeric\n", "proved"),
    # cases reads a disjunction as the substitution left it.
    ("(u v : Real)", "(hv := v = u) (hu := v = 1 ∨ v = -1)", "v * v = 1",
     "subst hv\ncases u {1, -1}\nring\nring\n", "proved"),
])
def test_steps_read_hypotheses_as_substituted(db, decls, hyps, goal, script,
                                              outcome):
    s = stmt_of(f"theorem t {decls} {hyps} : {goal}", db)
    steps = parse_script(script, s, db)
    try:
        v = check_derivation(s, steps, db)
    except MalformedScript as exc:
        assert outcome == f"malformed at {exc.step_index}"
        assert "'h2' is not a definitional hypothesis" in str(exc)
        return
    if outcome == "proved":
        assert isinstance(v, Proved), v
    else:
        assert v.kind == "unknown" and outcome == f"unknown at {v.failed_step}"


CAPTURE_DECLS = ("(t : Time) (x : Length) (v : Speed) (f : Time -> Length)"
                 " (hx := x = v * t)")


@pytest.mark.parametrize("hyps, goal, script, proved", [
    # x := v * t under forall t: the binder is renamed, so hf says f is the
    # constant v * t, not f(t) = v * t.
    ("(hf := forall t, f(t) = x)", "f(1 • second) = v * (1 • second)",
     "subst hx\ninst hf 1 • second\nexact hf@1\n", False),
    ("(hf := forall t, f(t) = x)", "forall t, f(t) = v * t",
     "subst hx\nexact hf\n", False),
    # A later definition of t does not reach past the binder either.
    ("(ht := t = 5 • second) (hf := forall t, f(t) = x)",
     "forall t, f(t) = v * t", "subst hx\nsubst ht\nexact hf\n", False),
    # The goal and the hypothesis are renamed alike.
    ("(hf := forall t, f(t) = x)", "forall t, f(t) = x",
     "subst hx\nexact hf\n", True),
    # Unfolding a function whose body names t under forall t.
    ("(hf := forall s, f(s) = v * t)", "forall t, f(t) = v * t",
     "subst hf\nintro\nring\n", False),
    # Rewriting a ground application by a right-hand side that names t.
    ("(hf := f(1 • second) = v * t)", "forall t, f(1 • second) = v * t",
     "subst hf\nintro\nring\n", False),
])
def test_substitution_renames_a_binder_it_would_capture(db, hyps, goal,
                                                        script, proved):
    s = stmt_of(f"theorem t {CAPTURE_DECLS} {hyps} : {goal}", db)
    v = check_derivation(s, parse_script(script, s, db), db)
    assert isinstance(v, Proved) == proved, v
    if not proved:
        assert not isinstance(auto_prove(s, db), Proved)


def test_a_ground_definition_does_not_reach_a_bound_name(db):
    # hg is about the declared t; the goal's t is bound, so f(t) there is
    # not hg's f(t), and ring cannot close the goal after intro.
    s = stmt_of("theorem bad (t : Time) (x : Length) (f : Time -> Length)"
                " (hg := f(t) = x) : forall t, f(t) = x", db)
    v = check_derivation(s, parse_script("subst hg\nintro\nring\n", s, db),
                         db)
    assert v.kind == "unknown" and v.failed_step == 2, v
    assert auto_prove(s, db).kind == "unknown"


DEF_X = "(x : Length) (hx := x = 2 • meter)"
PQ = "(p q : Time -> Length) (hp := forall t, p(t) = 2 • meter * t / second)"


@pytest.mark.parametrize("decls, goal, script, outcome, message", [
    (DEF_X, "x = 2 • meter", "split", "malformed at 0",
     "'split' requires a conjunction goal"),
    (DEF_X, "x = 2 • meter", "intro", "malformed at 0",
     "'intro' requires an implication or quantified goal"),
    (DEF_X, "x = 2 • meter", "inst hx 2 • meter", "malformed at 0",
     "'hx' is not a quantified hypothesis"),
    (DEF_X, "x = 2 • meter", "polymatch hx t", "malformed at 0",
     "'hx' is not a function-equality hypothesis"),
    (DEF_X, "x < 3 • meter", "ring", "malformed at 0",
     "'ring' requires an equality goal"),
    ("(u : Real)", "forall u in {1}, u = 1", "numeric", "malformed at 0",
     "'numeric' cannot decide a quantified goal"),
    (DEF_X, "x = 2 • meter", "subst nope", "malformed at 0",
     "no hypothesis named 'nope' in scope"),
    (DEF_X, "x = 2 • meter", "subst hx\nring\nring", "malformed at 2",
     "steps remain after all goals closed"),
    (PQ + " (hpq := p = q)", "p = q", "polymatch hpq t", "unknown at 0",
     "no pointwise definition of 'q' is in scope"),
    ("(x : Length) (p q : Time -> Length) (hp := forall t, p(t) = x)"
     " (hq := forall t, q(t) = x) (hpq := p = q)", "p = q",
     "polymatch hpq x", "unknown at 0",
     "parameter 'x' collides with a free variable of the definition of 'p'"),
    (PQ + " (hpq := p = q)", "p = q", "ring", "unknown at 0",
     "ring arithmetic cannot decide function equality"),
    ("(x : Length)", "x = 2 • meter", "numeric", "unknown at 0",
     "the goal still mentions 'x'; 'numeric' needs a fully instantiated"
     " goal"),
    ("(u : Real)", "pi = 3", "numeric", "unknown at 0",
     "the goal is false at the working precision, which is not exact enough"
     " to refute"),
    (DEF_X, "x = 2 • meter", "subst hx", "unknown at 1",
     "1 goal(s) remain open"),
])
def test_the_replay_refuses_a_script_that_does_not_fit(db, decls, goal,
                                                        script, outcome,
                                                        message):
    s = stmt_of(f"theorem t {decls} : {goal}", db)
    steps = parse_script(script, s, db)
    try:
        v = check_derivation(s, steps, db)
    except MalformedScript as exc:
        assert f"malformed at {exc.step_index}" == outcome
        assert str(exc) == f"step {exc.step_index}: {message}"
        return
    assert (f"{v.kind} at {v.failed_step}", v.reason) == (outcome, message)
