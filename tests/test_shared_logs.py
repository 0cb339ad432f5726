"""Search and replay read and translate through one trie of logs per
prepared statement.

``Substitution.read`` and ``ring.translate_difference`` are memoised on
the log.  A value served from a memo must equal a fresh computation, the
memos must not outlive the statement they were prepared for, and the replay
of the prover's script must find what the search translated.
"""

import functools
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from physkernel.checker import ring
from physkernel.checker.prover import (
    Proved, auto_prove, check_derivation,
)
from physkernel.checker.rewrite import Substitution
from physkernel.checker.script import parse_script, print_script
from physkernel.corpus import load_corpus
from physkernel.errors import PhysKernelError
from physkernel.harness import BuiltinProver, run_eval
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement
from physkernel.lang.printer import print_expr

from test_ring import N_ELIM_SYSTEMS, Gen, _system


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PhysKernelError as exc:
        return exc


def _same_translation(a, b) -> bool:
    if isinstance(a, PhysKernelError) or isinstance(b, PhysKernelError):
        return type(a) is type(b) and str(a) == str(b)

    def rf(r):
        return list(r.num.items()), list(r.den.items())

    return (rf(a.rf) == rf(b.rf)
            and [(rf(s), label) for s, label in a.sides]
            == [(rf(s), label) for s, label in b.sides]
            and list(a.opaque_vars.items()) == list(b.opaque_vars.items()))


@pytest.fixture
def served(monkeypatch):
    """Check each read and translation a log serves from its memo against
    a fresh one, on a new log with the same entries; count them."""
    counts = Counter()
    read, translate = Substitution.read, ring.translate_difference

    def checked_read(log, node, at):
        hit = (node, at) in log._reads
        out = read(log, node, at)
        if hit:
            assert N.ast_eq(out, Substitution(log.entries).read(node, at))
            counts["read"] += 1
        return out

    def checked_translate(lhs, rhs, db=None, subst=None, at=0):
        hit = (subst is not None
               and (lhs, rhs, at) in subst.differences)
        out = _outcome(translate, lhs, rhs, db, subst, at)
        if hit:
            fresh = _outcome(translate, lhs, rhs, db,
                             Substitution(subst.entries), at)
            assert _same_translation(out, fresh)
            counts["translation"] += 1
        if isinstance(out, PhysKernelError):
            raise out
        return out

    monkeypatch.setattr(Substitution, "read", checked_read)
    monkeypatch.setattr(ring, "translate_difference", checked_translate)
    return counts


def test_a_log_is_a_trie_and_reads_by_tree_and_position():
    one, two = N.NumLit(Fraction(1)), N.NumLit(Fraction(2))
    root = Substitution()
    log = root.then("y", one)
    assert root.then("y", one) is log
    # A structurally equal right-hand side is another object: another child.
    other = root.then("y", N.NumLit(Fraction(1)))
    assert other is not log and N.ast_eq(other.entries, log.entries)
    log = log.then("y", two)
    y = N.Var("y")
    for _ in range(2):  # made, then served
        assert log.read(y, 0) is one and log.read(y, 1) is two
        assert log.read(y, 2) is y


def test_a_chain_in_a_trie_costs_memory_linear_in_its_length():
    # The trie keeps every log alive, so the logs of a line must share
    # their entries: a tuple per log would cost memory quadratic in n.
    def retained(n):
        tracemalloc.start()
        root = log = Substitution()
        for k in range(n):
            log = log.then(f"v{k}", N.Var(f"v{k + 1}"))
        del log  # only the root holds the line now
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return size, root

    (large, _), (small, _) = retained(2000), retained(1000)
    assert large / small <= 2.2


def test_memoised_reads_and_translations_on_the_corpus(db, corpus_dir,
                                                       served):
    entries = load_corpus(corpus_dir, db)
    report, _ = run_eval(entries, BuiltinProver(db), db=db)
    assert [r.name for r in report.results if not r.passed] == [
        "rope_friction_turns"]
    assert served["read"] > 0 and served["translation"] > 0


def _poly_tree(poly) -> N.Expr:
    terms = []
    for mono, c in poly.items():
        term = N.NumLit(Fraction(c))
        for (_, name), e in mono:
            term = N.Mul(term, N.Var(name) if e == 1
                         else N.Pow(N.Var(name), Fraction(e)))
        terms.append(term)
    return functools.reduce(N.Add, terms, N.NumLit(Fraction(0)))


def _hypothesis(c: ring.Constraint) -> str:
    """``c`` as a definition of a variable it has only in a term of its
    own, degree 1, or else as ``poly = 0``."""
    for (atom, e), in (m for m in c.poly if len(m) == 1):
        rest = {m: k for m, k in c.poly.items() if m != ((atom, e),)}
        if e == 1 and atom[0] == ring._VAR and atom not in ring.poly_atoms(
                rest):
            scale = Fraction(-1) / c.poly[((atom, e),)]
            rhs = _poly_tree({m: k * scale for m, k in rest.items()})
            return f"{atom[1]} = {print_expr(rhs)}"
    return f"{print_expr(_poly_tree(c.poly))} = 0"


def test_memoised_reads_and_translations_on_seeded_systems(db, served):
    # test_ring's elimination systems, as statements: the definitions are
    # substituted, so reads and translations go through longer logs.
    gen = Gen(0xE11)
    x = ring._Xlate(db)
    verdicts = Counter()
    for k in range(N_ELIM_SYSTEMS):
        goal, cons = _system(gen, x)
        hyps = "".join(f" ({c.label} := {_hypothesis(c)})" for c in cons)
        stmt = parse_statement(
            f"theorem system_{k} (u w z p q r : Real){hyps}"
            f" : {print_expr(_poly_tree(goal.num))} = 0", db)
        verdict = auto_prove(stmt, db)
        verdicts[verdict.kind] += 1
        if isinstance(verdict, Proved):
            steps = parse_script(print_script(verdict.steps), stmt, db)
            assert isinstance(check_derivation(stmt, steps, db), Proved)
    assert verdicts["proved"] >= 50 and verdicts["unknown"] >= 50, verdicts
    assert served["read"] >= 100 and served["translation"] >= 50, served


def test_memos_do_not_outlive_the_prepared_statement(db, corpus_dir,
                                                     monkeypatch):
    # Each run reruns the same statement objects: a memo kept past the next
    # statement's set-up would make the second run translate less.
    folds = Counter()
    fold = N.fold

    def counting(node, rules, pre=None):
        if isinstance(getattr(rules.get(N.Var), "__self__", None),
                      ring._Xlate):
            folds[run] += 1
        return fold(node, rules, pre)

    monkeypatch.setattr(N, "fold", counting)
    entries = load_corpus(corpus_dir, db)
    for run in (1, 2):
        run_eval(entries, BuiltinProver(db), db=db)
    assert folds[1] == folds[2] > 0


@pytest.mark.parametrize("name", ["friction_circular_motion_cases",
                                  "uniform_acceleration_coefficients"])
def test_the_replay_translates_nothing_the_search_translated(
        db, corpus_dir, monkeypatch, name):
    translated = []  # (lhs, rhs) of each translation made, not served
    translate = ring._translate_difference

    def recording(lhs, rhs, x):
        translated.append((lhs, rhs))
        return translate(lhs, rhs, x)

    monkeypatch.setattr(ring, "_translate_difference", recording)
    (entry,) = [e for e in load_corpus(corpus_dir, db) if e.name == name]
    stmt = entry.statement
    verdict = auto_prove(stmt, db)
    assert isinstance(verdict, Proved)
    search = translated[:]
    del translated[:]
    steps = parse_script(print_script(verdict.steps), stmt, db)
    assert isinstance(check_derivation(stmt, steps, db), Proved)
    again = [(lhs, rhs) for lhs, rhs in translated
             if any(lhs is a and rhs is b for a, b in search)]
    assert again == []
    assert len(translated) < len(search)


def test_the_replay_of_the_corpus_translates_few_trees(db, corpus_dir,
                                                       monkeypatch):
    # What the replay translates anew: trees that cases and intro rebuild,
    # and hypotheses that a function subst rewrote.  polymatch finds the
    # search's translations on the log, as ring does.
    calls = Counter()
    tr = ring._Xlate.tr

    def counting(x, e):
        calls[phase] += 1
        return tr(x, e)

    monkeypatch.setattr(ring._Xlate, "tr", counting)
    for entry in load_corpus(corpus_dir, db):
        phase = "search"
        verdict = auto_prove(entry.statement, db)
        if isinstance(verdict, Proved):
            phase = "replay"
            steps = parse_script(print_script(verdict.steps),
                                 entry.statement, db)
            assert isinstance(
                check_derivation(entry.statement, steps, db), Proved)
    assert calls["replay"] <= 12, calls
