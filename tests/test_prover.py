"""Prover: auto search, script replay, verdict taxonomy, side conditions."""

import random
import textwrap
import time
from fractions import Fraction

import pytest

from physkernel.checker import ring
from physkernel.checker.dims import check_dimensions
from physkernel.checker.prover import (
    Proved, Refuted, Unknown, _Session, _Subgoal, auto_prove,
    check_derivation, database_for,
)
from physkernel.checker.rewrite import Substitution
from physkernel.checker.script import (
    ExactHyp, Intro, MalformedScript, NumericCheck, RingCheck, Split, Subst,
    parse_script, print_script,
)
from physkernel.errors import ParseError
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement
from physkernel.lang.printer import print_prop, print_statement
from physkernel.record import replace

from oracles import SubstitutionRef, closure_env_ref


def stmt_of(body: str, db):
    return parse_statement(textwrap.dedent(body).strip() + "\n", db)


def test_concrete_chain_proves_and_replays(db):
    s = stmt_of("""
        theorem free_fall_depth
        (d : Length) (t : Time)
        (ht := t = 3 • second)
        (hd := d = (1/2) * g * t**2)
        : d = (441/10) • meter
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert not v.approx_decided
    # The returned script replays to the same verdict through the replayer.
    replay = check_derivation(s, parse_script(print_script(v.steps), s, db), db)
    assert isinstance(replay, Proved)
    assert replay.eval_count == v.eval_count


def test_every_auto_corpus_entry_proves_and_replays(db, corpus_dir):
    from physkernel.corpus import Tier, load_corpus
    for entry in load_corpus(corpus_dir, db):
        if entry.tier is not Tier.AUTO:
            continue
        v = auto_prove(entry.statement, db)
        assert isinstance(v, Proved), f"{entry.name}: {v}"
        script = parse_script(print_script(v.steps), entry.statement, db)
        replay = check_derivation(entry.statement, script, db)
        assert isinstance(replay, Proved), f"{entry.name} replay: {replay}"


def test_orientation_is_order_insensitive(db):
    # Definitions arrive in reverse dependency order; orientation sorts them.
    s = stmt_of("""
        theorem chain
        (a : Real) (b : Real) (c : Real)
        (ha := a = b + 1)
        (hb := b = c * 2)
        (hc := c = 5)
        : a = 11
    """, db)
    assert isinstance(auto_prove(s, db), Proved)

    flipped = stmt_of("""
        theorem chain_flipped
        (a : Real) (b : Real) (c : Real)
        (hc := c = 5)
        (hb := b = c * 2)
        (ha := a = b + 1)
        : a = 11
    """, db)
    assert isinstance(auto_prove(flipped, db), Proved)


def test_cyclic_definitions_demote_to_constraints(db):
    s = stmt_of("""
        theorem cycle
        (x : Real) (y : Real)
        (hx := x = y + 1)
        (hy := y = x - 1)
        (hval := x = 4)
        : y = 3
    """, db)
    # One direction is accepted, the cycle-closing hypothesis stays a
    # constraint, and the goal still follows.
    assert isinstance(auto_prove(s, db), Proved)


def test_ring_closure_counts_no_numeric_evaluations(db):
    s = stmt_of("""
        theorem rearrange
        (a : Real) (m_1 : Real) (m_2 : Real) (q : Real)
        (ha := a = m_2 * q / (m_1 + m_2))
        : a = (m_2 / (m_1 + m_2)) * q
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert v.eval_count == 0
    assert any(isinstance(step, RingCheck) for step in v.steps)
    # The hidden non-vanishing assumption is surfaced, not silently used.
    assert any("m_1 + m_2" in sc.claim for sc in v.side_conditions)
    assert all(sc.verified is None for sc in v.side_conditions
               if "m_1" in sc.claim)


def test_concrete_side_conditions_are_verified(db):
    s = stmt_of("""
        theorem concrete_div
        (r : Real)
        (hr := r = 10 / 4)
        : r = 5/2
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert all(sc.verified is not False for sc in v.side_conditions)


def test_unrelated_hypothesis_adds_no_side_condition(db):
    # h1 shares no variable with the goal; eliminating through it would add
    # its pivot's guard to the side conditions.
    s = stmt_of("""
        theorem t
        (a b c d e : Real)
        (h0 := a * b = 2 * b * b)
        (h1 := d * e = c)
        : 3 * a * b = 6 * b * b
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert [sc.claim for sc in v.side_conditions] == ["b ≠ 0"]


def _failing_chain(links):
    a = [f"a{i:02d}" for i in range(links + 1)]
    b = [f"b{i:02d}" for i in range(links)]
    hyps = "".join(f"(h{i} := {a[i]} * {b[i]} = {a[i + 1]} + {b[i]})\n"
                   for i in range(links))
    return (f"theorem chain\n({' '.join(a + b)} : Real)\n{hyps}"
            f": {a[0]} = {a[links]}\n")


def test_elimination_search_stops_at_its_node_budget(db):
    # Every link is connected to the goal, and none proves it: unbounded,
    # the search visits tens of thousands of nodes.
    s = stmt_of(_failing_chain(5), db)
    v = auto_prove(s, db)
    assert isinstance(v, Unknown)
    assert "ELIM_NODE_BUDGET" in v.reason
    assert str(ring.ELIM_NODE_BUDGET) in v.reason
    # A bare 'ring' step in a script searches under the same bound.
    replay = check_derivation(s, (RingCheck(),), db)
    assert isinstance(replay, Unknown)
    assert replay.failed_step == 0
    assert "ELIM_NODE_BUDGET" in replay.reason


def test_elimination_stops_at_its_term_budget(db):
    # Four constraints over u, w, z with cubic terms: the search visits
    # few nodes, but without a size bound single substitutions build
    # polynomials of hundreds of terms and the search takes seconds.
    s = stmt_of("""
        theorem runaway
        (u w z : Real)
        (h3 := -u/2 - 3/2 = 0)
        (h2 := w*z**2 + 8*z**2 + w*z + u*w + 8*z + 8*u - 8/5 = 0)
        (h1 := -u**3*z - 3*u**3 + w*z - u*z + 3*w - 3*u - 5/7 = 0)
        (h0 := u - w**3 - w = 0)
        : -z = 0
    """, db)
    started = time.process_time()
    v = auto_prove(s, db)
    assert time.process_time() - started < 1.0
    assert isinstance(v, Unknown)
    assert "ELIM_TERM_BUDGET" in v.reason
    assert str(ring.ELIM_TERM_BUDGET) in v.reason
    assert "ELIM_NODE_BUDGET" not in v.reason
    replay = check_derivation(s, (RingCheck(),), db)
    assert isinstance(replay, Unknown)
    assert "ELIM_TERM_BUDGET" in replay.reason


def test_refutation_carries_a_witness(db):
    s = stmt_of("""
        theorem wrong_sum
        (x : Length)
        (hx := x = 2 • meter)
        : x + x = 5 • meter
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Refuted)
    assert v.detail
    env = dict(v.env)
    assert "x" in env


@pytest.mark.parametrize("decls, h2, reason", [
    ("", "x • meter = 3 • meter",
     "hypothesis 'h2' is false under the forced assignment; "
     "the statement is vacuous there"),
    ("(y : Real)", "y <= x",
     "goal is exactly false, but hypothesis 'h2' still has unbound "
     "variables"),
    ("", "sqrt(2) * sqrt(2) = 2",
     "hypothesis 'h2' only verifies approximately; approximate agreement "
     "never refutes"),
    ("(f : Real -> Real)", "forall t, f(t) <= t",
     "goal is exactly false, but the quantified hypothesis 'h2' cannot be "
     "verified numerically"),
    ("", "log(0) = 1",
     "goal is exactly false, but hypothesis 'h2' failed to evaluate: "
     "log of a non-positive value (0)"),
])
def test_refutation_needs_every_hypothesis_exactly_true(db, decls, h2,
                                                        reason):
    s = stmt_of(f"""
        theorem guarded
        (x : Real) {decls}
        (h1 := x = 2)
        (h2 := {h2})
        : x = 5
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Unknown)
    assert v.reason == reason


@pytest.mark.parametrize("text, script, reason", [
    ("theorem vacuous (x : Real) (y z : Length) "
     "(hx := x = 1 • meter / (y - y)) (hz := z = 3 • meter) : z = 2 • meter",
     "subst hx\nsubst hz\nnumeric\n",
     "goal is exactly false, but consumed hypothesis 'hx' may have no "
     "solution"),
    ("theorem vacuous_fn (f : Time -> Length) (z : Length) "
     "(hf := forall t, f(t) = 1 • meter * second / (t - t)) "
     "(hz := z = 3 • meter) : z = 2 • meter",
     "subst hf\nsubst hz\nnumeric\n",
     "goal is exactly false, but consumed hypothesis 'hf' may have no "
     "solution"),
    ("theorem vacuous_fn_closed (f : Time -> Length) (z : Length) "
     "(hf := forall t, f(t) = 1 • meter / (2 - 2)) "
     "(hz := z = 3 • meter) : z = 2 • meter",
     "subst hf\nsubst hz\nnumeric\n",
     "goal is exactly false, but consumed hypothesis 'hf' may have no "
     "solution"),
    ("theorem vacuous_closed (x : Real) (z : Length) "
     "(hx := x = 1 / (1 - 1)) (hz := z = 3 • meter) : z = 2 • meter",
     "subst hx\nsubst hz\nnumeric\n",
     "goal is exactly false, but consumed hypothesis 'hx' failed to "
     "evaluate: division by a zero quantity"),
    ("theorem vacuous_match (c : Real) (xf zf : Time -> Length) "
     "(hx := forall t, xf(t) = c • meter / second * t) "
     "(hz := forall t, zf(t) = 2 • meter / second * t) "
     "(he := xf = zf) (hc := c = 3) : c = 4",
     "subst hc\nsubst hx\nsubst hz\npolymatch he t\nnumeric\n",
     "goal is exactly false, but consumed hypothesis 'he' may have no "
     "solution"),
], ids=["vacuous", "vacuous_fn", "vacuous_fn_closed", "vacuous_closed",
       "vacuous_match"])
def test_hypotheses_without_a_common_solution_never_refute(db, text, script,
                                                           reason):
    # No values satisfy every hypothesis, so each statement holds vacuously,
    # although its goal is false at the values its definitions force.
    s = stmt_of(text, db)
    v = auto_prove(s, db)
    assert isinstance(v, Unknown)
    assert v.reason == reason
    replay = check_derivation(s, parse_script(script, s, db), db)
    assert isinstance(replay, Unknown)
    assert replay.reason == reason


def test_a_definition_that_evaluates_or_divides_by_a_unit_still_refutes(db):
    s = stmt_of("""
        theorem wrong_height
        (t : Time) (x z : Length) (k : Real)
        (hx := x = 2 • meter / second * t)
        (hk := k = 1 / 4)
        (hz := z = 3 • meter)
        : z = 2 • meter
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Refuted)
    assert v.env == (("k", "1/4"), ("z", "3 [L]"))


def _witness_log(rng: random.Random) -> tuple:
    """Entries in an order ``auto_prove`` records them in: each right-hand
    side mentions only names recorded after it, or names never recorded.
    A name may be recorded twice; some logs are a star around one name."""
    names = [f"x{rng.randrange(8)}" for _ in range(rng.randint(1, 14))]
    star = rng.random() < 0.3
    entries = []
    for k, name in enumerate(names):
        later = sorted(set(names[k + 1:]) - {name})
        picks = rng.sample(later + ["u0", "u1"], min(len(later) + 2,
                                                     rng.randint(0, 3)))
        if star and names[-1] in later:
            picks.append(names[-1])
        rhs = N.NumLit(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for y in picks:  # branching where there is more than one pick
            term = N.Mul(N.NumLit(Fraction(rng.randint(1, 5))), N.Var(y))
            term = N.Div(term, N.NumLit(Fraction(rng.randint(1, 3))))
            rhs = N.Add(rhs, term)
        entries.append((name, rhs))
    return tuple(entries)


def test_the_witness_matches_the_fixpoint_closure(db):
    session = _Session(stmt_of("theorem t (x : Real) : x = x", db), db,
                       Substitution(), None)
    reached = unreached = 0
    for seed in range(200):
        entries = _witness_log(random.Random(seed))
        log = Substitution()
        for name, rhs in entries:
            log = log.then(name, rhs)
        goal = N.Eq(N.Var("x"), N.Var("x"))
        got = session._closure_env(_Subgoal(goal, {}, [], log))
        want = closure_env_ref(SubstitutionRef(entries), db)
        assert {x: q.render() for x, q in got.items() if q is not None} == {
            x: q.render() for x, q in want.items()}, entries
        reached += len(want)
        unreached += len({x for x, _ in entries} - want.keys())
    assert reached > 100 and unreached > 100


def test_consumed_function_definitions_are_rewritten_for_polymatch(db):
    # 'subst hx' rewrites the consumed definition of yf, which applies xf,
    # so that 'polymatch he t' matches the coefficients of x_0 + v * t.
    s = stmt_of("""
        theorem nested_profiles
        (x_0 : Length) (v : Speed) (xf yf zf : Time -> Length)
        (hx := forall t, xf(t) = x_0 + v * t)
        (hy := forall t, yf(t) = xf(t) + 1 • meter)
        (hz := forall t, zf(t) = 3 • meter + 2 • meter / second * t)
        (he := yf = zf)
        : v = 2 • meter / second ∧ x_0 = 2 • meter
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    branch = "subst hy\nsubst hx\nsubst hz\npolymatch he t\nring\n"
    assert print_script(v.steps) == "split\n" + branch * 2
    replay = check_derivation(s, parse_script(print_script(v.steps), s, db),
                              db)
    assert isinstance(replay, Proved)


def test_a_function_equality_goal_needs_an_identical_hypothesis(db):
    s = stmt_of("""
        theorem fn_goal
        (f g : Length -> Length)
        (hf := forall w, f(w) = 2 * w)
        : f = g
    """, db)
    assert auto_prove(s, db) == Unknown(
        "function-equality goals close only via an identical hypothesis")


def test_a_function_equality_without_a_pointwise_definition_is_skipped(db):
    # f has no definition, so 'he' gives no coefficient constraints, and
    # the search proves the goal without it.
    s = stmt_of("""
        theorem undefined_side
        (f g : Length -> Length) (x : Length)
        (hg := forall w, g(w) = 2 * w)
        (he := f = g)
        : g(x) = 2 * x
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert v.steps == (Subst("hg"), RingCheck())


def test_intro_renames_a_binder_that_shadows_a_declaration(db):
    s = stmt_of("""
        theorem fr
        (f : Time -> Length) (x : Length) (t : Time)
        (hf := forall t, f(t) = x)
        : forall t : Time, f(t) = x
    """, db)
    session = _Session(s, db, Substitution(), None)
    session.apply(Intro())
    assert print_prop(session.subgoals[0].goal) == "f(t!1) = x"
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert v.steps == (Intro(), Subst("hf"), RingCheck())
    replay = check_derivation(s, parse_script(print_script(v.steps), s, db), db)
    assert isinstance(replay, Proved)


def test_inhomogeneous_statement_reports_dimensions(db):
    s = stmt_of("""
        theorem bad_dims
        (x : Length) (t : Time)
        (h := x = t)
        : x = x
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Unknown)
    assert "homogeneous" in v.reason
    assert v.dim_report is not None
    assert not v.dim_report.homogeneous


def test_free_variable_comparison_stays_open(db):
    s = stmt_of("""
        theorem open_goal
        (x : Length)
        (h := x = x)
        : 0 • meter < x
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Unknown)
    assert "cannot be decided automatically" in v.reason


def test_disjunctive_goal_requires_a_script(db):
    s = stmt_of("""
        theorem pick_side
        (u : Real)
        (hu := u = 2)
        : u = 2 ∨ u = 7
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Unknown)
    assert "script" in v.reason


def test_script_replay_failure_pinpoints_step(db):
    s = stmt_of("""
        theorem two_facts
        (u : Real)
        (hu := u = 3)
        : u = 3 ∧ u < 4
    """, db)
    auto = auto_prove(s, db)
    assert isinstance(auto, Proved)

    # A subst naming a missing hypothesis is structurally malformed.
    with pytest.raises(MalformedScript) as exc:
        check_derivation(s, (Split(), Subst("nope")), db)
    assert exc.value.step_index == 1

    # A well-formed step that cannot close its goal fails at its own index.
    off = stmt_of("""
        theorem off_by_two
        (u : Real) (w : Real)
        (hu := u = w + 3)
        : u = w + 5
    """, db)
    v = check_derivation(off, (RingCheck(),), db)
    assert isinstance(v, Unknown)
    assert v.failed_step == 0
    assert "residual" in v.reason

    # A truncated script leaves goals open; the index points past the end.
    truncated = (Split(), Subst("hu"), NumericCheck())
    v2 = check_derivation(s, truncated, db)
    assert isinstance(v2, Unknown)
    assert "open" in v2.reason
    assert v2.failed_step == len(truncated)

    # Steps after the last goal closes are malformed, not silently ignored.
    full = tuple(auto.steps)
    with pytest.raises(MalformedScript):
        check_derivation(s, full + (ExactHyp("hu"),), db)


def test_exact_hypothesis_closes_immediately(db):
    s = stmt_of("""
        theorem by_assumption
        (f : Time -> Length) (g : Time -> Length)
        (h := f = g)
        : f = g
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved)
    assert any(isinstance(step, ExactHyp) for step in v.steps)
    assert v.eval_count == 0


def test_statement_constants_override_database(db):
    s = stmt_of("""
        name: moon_fall
        constants: g = (8/5) • meter / second**2
        theorem moon_fall
        (d : Length) (t : Time)
        (ht := t = 5 • second)
        (hd := d = (1/2) * g * t**2)
        : d = 20 • meter
    """, db)
    local = database_for(s, db)
    assert local.constant("g").value == Fraction(8, 5)
    assert db.constant("g").value == Fraction(49, 5)  # base db untouched
    assert isinstance(auto_prove(s, db), Proved)


@pytest.mark.parametrize("unit", ["unit(Acceleration)",
                                  "cast(std, Acceleration)"])
def test_a_constant_override_may_be_written_in_a_kind_unit(db, unit):
    s = stmt_of(f"""
        name: kind_unit
        constants: g = 10 • {unit}
        theorem kind_unit
        (d : Length) (t : Time)
        (ht := t = 2 • second)
        (hd := d = (1/2) * g * t**2)
        : d = 20 • meter
    """, db)
    assert database_for(s, db).constant("g").value == 10
    assert isinstance(auto_prove(s, db), Proved)


def test_non_overridable_constant_is_rejected(db):
    s = stmt_of("""
        name: bad_pi
        constants: pi = 3
        theorem bad_pi
        (u : Real)
        (h := u = 1)
        : u = 1
    """, db)
    with pytest.raises(ParseError, match="not overridable"):
        auto_prove(s, db)


def test_override_refusal_points_at_the_override(db):
    s = stmt_of("""
        name: bad_pi
        constants: g = 10 • meter / second**2, pi = 3
        theorem bad_pi
        (u : Real)
        (h := u = 1)
        : u = 1
    """, db)
    with pytest.raises(ParseError, match="not overridable") as exc:
        database_for(s, db)
    assert (exc.value.line, exc.value.col) == (2, 45)


def test_huge_coefficients_are_reported_by_size(db):
    # 2**20000 has 6021 digits, past the interpreter's 4300-digit limit on
    # converting an int to text: the verdict gives its size instead.
    start = time.process_time()
    unknown = auto_prove(stmt_of("""
        theorem big
        (n : Real)
        : n = 2**20000
    """, db), db)
    assert isinstance(unknown, Unknown)
    assert unknown.reason == ("the goal does not follow by ring arithmetic;"
                              " residual: n - <20001-bit integer>")
    refuted = auto_prove(stmt_of("""
        theorem big
        (n : Real)
        (h := n = -(2**20000))
        : n = 0
    """, db), db)
    assert isinstance(refuted, Refuted)
    assert refuted.env == (("n", "-<20001-bit integer>"),)
    assert time.process_time() - start < 1


def _repeated_sum(terms: int, db):
    return parse_statement("theorem repeated_sum (x : Length) : "
                           f"{' + '.join(['x'] * terms)} = {terms} • x", db)


def test_deep_sums_and_tall_chains_prove_print_and_check(db):
    # A long sum parses (left-associative chains do not nest in the parser)
    # into a tree as deep as it is long; no pass recurses on it.
    deep = _repeated_sum(1200, db)
    v = auto_prove(deep, db)
    assert isinstance(v, Proved), v
    script = parse_script(print_script(v.steps), deep, db)
    assert isinstance(check_derivation(deep, script, db), Proved)
    assert print_prop(deep.goal).count(" + ") == 1199
    assert print_statement(deep).count(" + ") == 1199
    # A right-nested chain, here of implications, which the parser's depth
    # budget rejects but the checker can build.
    goal = N.Eq(N.Var("x"), N.Var("x"))
    for _ in range(1200):
        goal = N.Implies(N.Eq(N.Var("x"), N.Var("x")), goal)
    tall = replace(deep, goal=goal)
    assert print_prop(tall.goal) == "x = x -> " * 1200 + "x = x"
    assert print_statement(tall).endswith(
        "    : " + "x = x -> " * 1200 + "x = x\n")
    assert check_dimensions(tall, db).homogeneous


def test_a_large_power_proves_and_replays(db):
    # The binomial split expands (x + y)**1500 in time linear in its 1501
    # terms; square-and-multiply took seconds.
    s = parse_statement(
        "theorem big (x y : Real) : (x + y)**1500 = (y + x)**1500", db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved), v
    script = parse_script(print_script(v.steps), s, db)
    assert isinstance(check_derivation(s, script, db), Proved)


def test_a_hypothesis_name_in_scope_twice_is_a_malformed_statement(db):
    # The parser rejects a repeated name; a statement built in code, or a
    # name that intro or inst would give a second time, is refused here.
    s = stmt_of("""
        theorem twice
        (x : Length)
        (h := x = 1 • meter)
        : x = 1 • meter -> x = 1 • meter
    """, db)
    (_, prop), = s.hyps
    twice = replace(s, hyps=(("h", prop), ("h", prop)))
    intro_name = replace(s, hyps=(("h!1", prop),))
    for stmt, step in ((twice, Subst("h")), (intro_name, Intro())):
        name = stmt.hyps[-1][0]
        with pytest.raises(MalformedScript,
                           match=f"hypothesis '{name}' is already in scope"):
            auto_prove(stmt, db)
        with pytest.raises(MalformedScript,
                           match=f"hypothesis '{name}' is already in scope"):
            check_derivation(stmt, [step], db)


def test_a_failed_polymatch_probe_leaves_no_side_conditions(db):
    # The probe of hpq records p's denominators, then fails on q's, which
    # is zero at the built-in g: the search restores what it recorded.
    s = stmt_of("""
        theorem probe
        (x : Length) (p q : Time -> Length)
        (hx := x = 2 • meter)
        (hp := forall t, p(t) = 2 • meter * t / (1 • second))
        (hq := forall t, q(t) = 2 • meter * t / (1 • second)
            + 3 • meter * (g - (49/5) • meter / second**2)
              / (g - (49/5) • meter / second**2))
        (hpq := p = q)
        : x = 1 • meter + 1 • meter
    """, db)
    v = auto_prove(s, db)
    assert isinstance(v, Proved), v
    assert v.side_conditions == ()
