"""No pass recurses once per tree level: every layer decides trees hundreds
or thousands of levels deep with the recursion limit a fixed margin above
the caller's own depth."""

import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from physkernel.checker.dims import check_dimensions
from physkernel.checker.evaluate import eval_numeric, eval_prop
from physkernel.checker.prover import Proved, auto_prove, check_derivation
from physkernel.checker.rewrite import Substitution, expand_fn
from physkernel.checker.ring import ring_equal
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement
from physkernel.lang.printer import print_statement
from physkernel.quantity import Quantity
from physkernel.record import replace

from test_dimcheck import resolved_once

#: Frames the checker may use above the caller's, however deep the tree.
MARGIN = 100

@contextmanager
def shallow_stack():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + MARGIN)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _fn_chain(links: int) -> str:
    """``v_i = f(v_{i-1})`` with ``f`` defined pointwise by a ``forall``."""
    names = " ".join(f"v{i}" for i in range(links + 1))
    hyps = "".join(f"  (h{i} := v{i} = f(v{i - 1}))\n"
                   for i in range(1, links + 1))
    return (f"theorem fn_chain\n  (f : Length -> Length) ({names} : Length)\n"
            f"  (hf := forall w, f(w) = 2 * w)\n{hyps}"
            f"  : v{links} = {2 ** links} * v0\n")


def _implication_chain(stmt: N.Statement, height: int) -> N.Statement:
    goal = N.Eq(N.Var("x"), N.Var("x"))
    for _ in range(height):
        goal = N.Implies(N.Eq(N.Var("x"), N.Var("x")), goal)
    return replace(stmt, goal=goal)


def _definitions(stmt: N.Statement) -> Substitution:
    """The statement's variable definitions, each reading the later ones."""
    return Substitution(tuple((p.lhs.name, p.rhs) for _, p in stmt.hyps
                              if isinstance(p, N.Eq)
                              and isinstance(p.lhs, N.Var))[::-1])


def _decide(stmt, db):
    resolved_once(stmt, db)
    assert check_dimensions(stmt, db).homogeneous
    verdict = auto_prove(stmt, db)
    assert isinstance(verdict, Proved), verdict
    assert isinstance(check_derivation(stmt, verdict.steps, db), Proved)
    return print_statement(stmt)


def test_a_long_sum(gen, db):
    stmt = parse_statement(gen.sum_text(20000), db)
    lhs, rhs = stmt.goal.lhs, stmt.goal.rhs
    meter = Quantity(Fraction(1), db.kind("Length"))
    with shallow_stack():
        text = _decide(stmt, db)
        value = eval_numeric(lhs, {"x": meter}, db)
        equal = ring_equal(lhs, rhs, db=db)
    assert text.count(" + ") == 19999
    assert value == Quantity(Fraction(20000), db.kind("Length"))
    assert equal


def test_a_tall_implication_chain(gen, db):
    stmt = _implication_chain(parse_statement(gen.sum_text(2), db), 1200)
    meter = Quantity(Fraction(1), db.kind("Length"))
    with shallow_stack():
        text = _decide(stmt, db)
        truth = eval_prop(stmt.goal, {"x": meter}, db)
        equal = ring_equal(stmt.goal.lhs.lhs, stmt.goal.lhs.rhs, db=db)
    assert text.count(" -> ") == 1200
    assert truth == (True, True) and equal


def test_a_long_definition_chain(gen, db):
    stmt = parse_statement(gen.def_chain_text(600), db)
    defs = _definitions(stmt)
    goal = stmt.goal
    with shallow_stack():
        text = _decide(stmt, db)
        value = defs.read(goal.lhs, 0)  # 600 definitions deep
        equal = ring_equal(value, goal.rhs, db=db)
        value = eval_numeric(value, {}, db)
    assert text.count(":=") == 601
    assert value == eval_numeric(goal.rhs, {}, db)
    assert equal


def test_a_long_chain_of_applications(db):
    links = 150
    stmt = parse_statement(_fn_chain(links), db)
    defs = _definitions(stmt)
    goal = stmt.goal
    meter = Quantity(Fraction(1), db.kind("Length"))
    with shallow_stack():
        text = _decide(stmt, db)
        nested = defs.read(goal.lhs, 0)  # f(f(...f(v0)...))
        unfolded = expand_fn(nested, "f", "w", N.Mul(N.NumLit(Fraction(2)),
                                                    N.Var("w")))
        value = eval_numeric(unfolded, {"v0": meter}, db)
        equal = ring_equal(unfolded, goal.rhs, db=db)
    assert text.count("f(v") == links
    assert value == Quantity(Fraction(2 ** links), db.kind("Length"))
    assert equal
