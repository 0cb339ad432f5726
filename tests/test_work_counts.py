"""Definition chains cost work linear in their length, elimination
rewrites only what holds its pivot, and a statement is set up once for a
script's parse and replay.

The gates count the line events that physkernel's own code executes under
``sys.settrace``, or the calls of one function: work, not seconds, so they
read the same on any host.  Doubling a chain may multiply the count by at
most ``RATIO``; linear work reads about 2.0, and a per-entry scan of the
chain reads 2.5 or more.
"""

import collections
import pathlib
import sys

import physkernel
from physkernel.checker import dims, prover, ring
from physkernel.checker.prover import (
    Proved, Refuted, auto_prove, check_derivation,
)
from physkernel.checker.ring import ring_equal
from physkernel.checker.script import parse_script
from physkernel.corpus import load_corpus
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement

from test_deep_trees import _fn_chain
from test_prover import _failing_chain

PACKAGE = str(pathlib.Path(physkernel.__file__).parent) + "/"
RATIO = 2.2


def line_events(run) -> int:
    """The line events that ``run()`` executes in physkernel's modules."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def _growth(work, n: int) -> float:
    work(10)  # warm any lazily built table outside the counts
    small, large = work(n), work(2 * n)
    return large / small


def test_proving_and_replaying_a_definition_chain(gen, db):
    def work(n):
        stmt = parse_statement(gen.def_chain_text(n), db)

        def run():
            verdict = auto_prove(stmt, db)
            assert isinstance(verdict, Proved), verdict
            replay = check_derivation(stmt, verdict.steps, db)
            assert isinstance(replay, Proved), replay

        return line_events(run)

    assert _growth(work, 200) <= RATIO


def test_proving_and_replaying_a_chain_of_applications(db):
    # v_i = f(v_{i-1}): the goal reads as f nested once per link, and 'subst
    # hf' unfolds it once; no consumed definition is rewritten.
    def work(n):
        stmt = parse_statement(_fn_chain(n), db)

        def run():
            verdict = auto_prove(stmt, db)
            assert isinstance(verdict, Proved), verdict
            replay = check_derivation(stmt, verdict.steps, db)
            assert isinstance(replay, Proved), replay

        return line_events(run)

    assert _growth(work, 100) <= RATIO


def _star(n: int) -> tuple[str, str]:
    """``v_i = v0 + i • meter`` and a script that substitutes ``v0`` first:
    each later ``subst`` reads its hypothesis through the first entry."""
    names = " ".join(f"v{i}" for i in range(n + 1))
    hyps = "".join(f"  (h{i} := v{i} = v0 + {i} • meter)\n"
                   for i in range(1, n + 1))
    return (f"theorem star\n  ({names} : Length)\n  (h0 := v0 = 1 • meter)\n"
            f"{hyps}  : v{n} = {n + 1} • meter\n",
            "".join(f"subst h{i}\n" for i in range(n + 1)) + "numeric\n")


def test_replaying_a_script_that_reads_through_an_early_definition(db):
    def work(n):
        text, script = _star(n)
        stmt = parse_statement(text, db)
        steps = parse_script(script, stmt, db)
        replay = []
        count = line_events(
            lambda: replay.append(check_derivation(stmt, steps, db)))
        assert isinstance(replay[0], Proved), replay
        return count

    assert _growth(work, 100) <= RATIO


def test_refuting_a_definition_chain(gen, db):
    # The witness evaluates each definition once, under the values of the
    # definitions it reads.
    def work(n):
        stmt = parse_statement(gen.def_chain_text(n, off=1), db)
        verdict = []
        count = line_events(lambda: verdict.append(auto_prove(stmt, db)))
        assert isinstance(verdict[0], Refuted), verdict
        return count

    assert _growth(work, 100) <= RATIO


def test_ring_equal_with_a_definition_chain_as_env(gen, db):
    def work(n):
        stmt = parse_statement(gen.def_chain_text(n), db)
        env = {p.lhs.name: p.rhs for _, p in stmt.hyps}
        equal = []
        count = line_events(lambda: equal.append(
            ring_equal(stmt.goal.lhs, stmt.goal.rhs, env, db)))
        assert equal == [True]
        return count

    assert _growth(work, 100) <= RATIO


def test_elimination_rewrites_only_what_holds_the_pivot(gen, db,
                                                        monkeypatch):
    # A substitution into a polynomial without the pivot atom hands that
    # polynomial back; the search does not call it for a goal or a
    # constraint without the atom, so the calls left are those for the
    # denominators of goals that hold it.  Each constraint object is solved
    # for its pivots once per search.
    subst_poly, pivots, eliminate = (
        ring._subst_poly, ring._pivots, ring.eliminate)
    absent = []
    solved = []

    def counted_subst_poly(p, atom, d, sol):
        out = subst_poly(p, atom, d, sol)
        if atom not in ring.poly_atoms(p):
            assert out.num is p
            absent.append(p)
        return out

    def counted_pivots(c, atoms):
        assert all(c is not seen for seen in solved)
        solved.append(c)
        return pivots(c, atoms)

    def one_search(goal, constraints):
        solved.clear()
        return eliminate(goal, constraints)

    monkeypatch.setattr(ring, "_subst_poly", counted_subst_poly)
    monkeypatch.setattr(ring, "_pivots", counted_pivots)
    monkeypatch.setattr(ring, "eliminate", one_search)
    for text, most in ((gen.unrelated_text(4), 8), (_failing_chain(5), 289)):
        absent.clear()
        auto_prove(parse_statement(text, db), db)
        assert 0 < len(absent) <= most, len(absent)


def _insts(n: int) -> tuple[str, str]:
    """``n`` declarations, and a script of one ``inst`` per declaration."""
    names = " ".join(f"v{i}" for i in range(n))
    return (f"theorem insts ({names} : Length) (f : Length -> Length) "
            "(hf := forall w, f(w) = 2 * w) : f(v0) = 2 * v0\n",
            "".join(f"inst hf v{i}\n" for i in range(n)) + "exact hf@1\n")


def test_parsing_a_script_builds_the_statement_scope_once(db):
    def work(n):
        text, script = _insts(n)
        stmt = parse_statement(text, db)
        steps = []
        count = line_events(lambda: steps.extend(
            parse_script(script, stmt, db)))
        assert isinstance(check_derivation(stmt, steps, db), Proved)
        return count

    assert _growth(work, 100) <= RATIO


def test_a_quantifier_kind_is_inferred_once(db, corpus_dir, monkeypatch):
    # Resolution records each ForallFn's kind, and the dimension check and
    # the inst check read it: one inference per quantifier, and two walks
    # per proposition, one to resolve it and one to check it.
    calls = collections.Counter()

    def count(name):
        fn = getattr(dims, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(dims, name, counted)

    count("_forall_var_dim")
    count("_walk_prop")
    monkeypatch.setattr(prover, "_last_prepared", (None, None, None))
    stmts = [entry.statement for entry in load_corpus(corpus_dir, db)]
    for stmt in stmts:
        auto_prove(stmt, db)
    props = [p for s in stmts for p in (*(p for _, p in s.hyps), s.goal)]
    foralls = sum(n.__class__ is N.ForallFn for p in props for n in N.walk(p))
    assert (len(stmts), foralls, len(props)) == (8, 4, 61)
    assert calls == {"_forall_var_dim": foralls, "_walk_prop": 2 * len(props)}
