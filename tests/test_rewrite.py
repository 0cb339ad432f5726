"""Rewriting against the reflective reference traversal.

``_Oracle`` is the generic traversal the rewriter used before node classes
recorded their fields and nodes cached their free variables: it asks
``dataclasses`` for the fields of every node and walks every subtree.  It is
kept here as the reference the faster core must agree with.  Results are
compared by ``repr``, which shows every field, spans and ``std`` dimensions
included, so a rebuilt node must match the reference exactly.
"""

import dataclasses
from fractions import Fraction

import pytest

from physkernel.checker.dims import resolve_statement
from physkernel.checker.prover import database_for
from physkernel.checker.rewrite import (
    applied_fns, expand_fn, free_vars, rewrite_ground, subst_var, transform,
)
from physkernel.corpus import load_corpus
from physkernel.lang import nodes as N


class _Oracle:
    @staticmethod
    def transform(node, fn, shadowed=frozenset()):
        replacement = fn(node, shadowed)
        if replacement is not None:
            return replacement
        if isinstance(node, (N.ForallFn, N.ForallFinite)):
            shadowed = shadowed | {node.var}
        changed = {}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            new_value = _Oracle.value(value, fn, shadowed)
            if new_value is not value:
                changed[field.name] = new_value
        if not changed:
            return node
        return dataclasses.replace(node, **changed)

    @staticmethod
    def value(value, fn, shadowed):
        if isinstance(value, N.Node):
            return _Oracle.transform(value, fn, shadowed)
        if isinstance(value, tuple):
            items = tuple(_Oracle.value(v, fn, shadowed) for v in value)
            if all(a is b for a, b in zip(items, value)):
                return value
            return items
        return value

    @staticmethod
    def subst_var(node, name, replacement):
        def visit(n, shadowed):
            if isinstance(n, N.Var) and n.name == name and name not in shadowed:
                return replacement
            return None
        return _Oracle.transform(node, visit)

    @staticmethod
    def expand_fn(node, fname, binder, body):
        def visit(n, shadowed):
            if isinstance(n, N.Apply) and n.fn == fname:
                arg = _Oracle.transform(n.arg, visit, shadowed)
                return _Oracle.subst_var(body, binder, arg)
            return None
        return _Oracle.transform(node, visit)

    @staticmethod
    def rewrite_ground(node, pattern, replacement):
        def visit(n, shadowed):
            if isinstance(n, N.Expr) and _Oracle.ast_eq(n, pattern):
                return replacement
            return None
        return _Oracle.transform(node, visit)

    @staticmethod
    def names(node, heads_only):
        out = set()

        def visit(n, shadowed):
            if (not heads_only and isinstance(n, N.Var)
                    and n.name not in shadowed):
                out.add(n.name)
            elif isinstance(n, (N.Apply, N.Deriv)) and n.fn not in shadowed:
                out.add(n.fn)
            return None
        _Oracle.transform(node, visit)
        return out

    @staticmethod
    def ast_eq(a, b):
        if a is b:
            return True
        if (isinstance(a, N.Node) or isinstance(b, N.Node)
                or dataclasses.is_dataclass(a)):
            if type(a) is not type(b):
                return False
            skip = {"span"} | ({"dim"} if type(a) is N.StdUnit else set())
            return all(_Oracle.ast_eq(getattr(a, f.name), getattr(b, f.name))
                       for f in dataclasses.fields(a) if f.name not in skip)
        if isinstance(a, tuple) and isinstance(b, tuple):
            return len(a) == len(b) and all(
                _Oracle.ast_eq(x, y) for x, y in zip(a, b))
        return type(a) is type(b) and a == b


REPLACEMENT = N.Add(N.Var("r!"), N.NumLit(Fraction(1, 2)))
BINDER, BODY = "t!", N.Mul(N.Var("t!"), N.Var("t!"))


def _statements(db, corpus_dir):
    """Every corpus statement as parsed and with ``std`` resolved."""
    for entry in load_corpus(corpus_dir, db):
        stmt = entry.statement
        yield entry.name, stmt
        yield entry.name + " (resolved)", resolve_statement(
            stmt, database_for(stmt, db))


def _names(stmt):
    """Declared names, and every variable, head and binder in the props."""
    names = {d.name for d in stmt.decls}
    for p in [p for _, p in stmt.hyps] + [stmt.goal]:
        for n in N.walk(p):
            if isinstance(n, N.Var):
                names.add(n.name)
            elif isinstance(n, (N.Apply, N.Deriv)):
                names.add(n.fn)
            elif isinstance(n, (N.ForallFn, N.ForallFinite)):
                names.add(n.var)
    return sorted(names)


def _patterns(stmt):
    pats = [N.Var(d.name) for d in stmt.decls]
    for p in [p for _, p in stmt.hyps] + [stmt.goal]:
        pats += [n for n in N.walk(p) if isinstance(n, (N.Apply, N.Deriv))]
    return pats


def test_rewriting_agrees_with_the_reflective_oracle(db, corpus_dir):
    checked = 0
    for label, stmt in _statements(db, corpus_dir):
        props = [p for _, p in stmt.hyps] + [stmt.goal]
        for prop in props:
            for name in _names(stmt):
                want = _Oracle.subst_var(prop, name, REPLACEMENT)
                got = subst_var(prop, name, REPLACEMENT)
                assert repr(got) == repr(want), (label, name)
                assert (got is prop) == (want is prop), (label, name)
                want = _Oracle.expand_fn(prop, name, BINDER, BODY)
                got = expand_fn(prop, name, BINDER, BODY)
                assert repr(got) == repr(want), (label, name)
                assert (got is prop) == (want is prop), (label, name)
                checked += 1
            for pattern in _patterns(stmt):
                want = _Oracle.rewrite_ground(prop, pattern, REPLACEMENT)
                got = rewrite_ground(prop, pattern, REPLACEMENT)
                assert repr(got) == repr(want), (label, pattern)
                assert (got is prop) == (want is prop), (label, pattern)
            for node in N.walk(prop):
                assert free_vars(node) == _Oracle.names(node, False), label
                assert applied_fns(node) == _Oracle.names(node, True), label
            for other in props:
                assert N.ast_eq(prop, other) == _Oracle.ast_eq(prop, other)
    assert checked > 500


def test_ast_eq_ignores_spans_and_std_dimensions(db, corpus_dir):
    pairs = list(_statements(db, corpus_dir))
    for (_, raw), (_, resolved) in zip(pairs[::2], pairs[1::2]):
        assert N.ast_eq(raw, resolved) and _Oracle.ast_eq(raw, resolved)
    a = N.Add(N.Var("x", N.Span(0, 1)), N.StdUnit(None, N.Span(4, 7)))
    b = N.Add(N.Var("x", N.Span(5, 6)), N.StdUnit("a dimension"))
    assert N.ast_eq(a, b) and _Oracle.ast_eq(a, b)
    assert not N.ast_eq(a, N.Add(N.Var("y"), N.StdUnit()))
    assert not N.ast_eq(N.NumLit(Fraction(1)), N.NumLit(1))


@pytest.mark.parametrize("quantifier", [
    lambda body: N.ForallFn("x", body),
    lambda body: N.ForallFinite("x", (Fraction(1), Fraction(-1)), body),
])
def test_substitution_stops_at_a_binder_of_the_same_name(quantifier):
    body = N.Eq(N.Var("x"), N.Add(N.Var("y"), N.Var("x")))
    q = quantifier(body)
    assert subst_var(q, "x", REPLACEMENT) is q
    assert free_vars(q) == {"y"}
    outer = N.And(N.Eq(N.Var("x"), N.NumLit(Fraction(2))), q)
    got = subst_var(outer, "x", REPLACEMENT)
    assert got.rhs is q  # the bound x is untouched ...
    assert got.lhs.lhs is REPLACEMENT  # ... the free one replaced
    got = subst_var(q, "y", REPLACEMENT)
    assert got.var == "x" and got.body.rhs.lhs is REPLACEMENT
    assert got.body.lhs is body.lhs and got.body.rhs.rhs is body.rhs.rhs


def test_unfolding_under_a_binder_matches_the_oracle():
    # Unfolding and ground rewriting look through binders, as they always
    # did: pruning on free variables happens only inside expressions.
    f_t = N.Apply("f", N.Var("t"))
    for binder in ("f", "t"):
        q = N.ForallFn(binder, N.Eq(f_t, N.Var("t")))
        got = expand_fn(q, "f", BINDER, BODY)
        assert repr(got) == repr(_Oracle.expand_fn(q, "f", BINDER, BODY))
        assert got is not q
        got = rewrite_ground(q, f_t, REPLACEMENT)
        assert repr(got) == repr(_Oracle.rewrite_ground(q, f_t, REPLACEMENT))
        assert got.body.lhs is REPLACEMENT


def test_substituting_an_absent_name_returns_the_same_object(db, corpus_dir):
    for _, stmt in _statements(db, corpus_dir):
        for _, prop in stmt.hyps:
            assert subst_var(prop, "absent!", REPLACEMENT) is prop
            assert expand_fn(prop, "absent!", BINDER, BODY) is prop
    p = N.Eq(N.Var("x"), N.Mul(N.Var("y"), N.NumLit(Fraction(3))))
    got = subst_var(p, "x", REPLACEMENT)
    assert got.rhs is p.rhs and got.span is p.span
    assert transform(p, lambda n: None) is p


def test_free_vars_cache_does_not_survive_a_changed_copy():
    node = N.Add(N.Var("x"), N.Apply("f", N.Var("y")))
    assert free_vars(node) == {"x", "f", "y"}
    swapped = dataclasses.replace(node, rhs=N.Var("z"))
    assert free_vars(swapped) == {"x", "z"}
    assert free_vars(node) == {"x", "f", "y"}
    rebuilt = subst_var(node, "y", N.Var("w"))
    assert free_vars(rebuilt) == {"x", "f", "w"}
    assert isinstance(free_vars(node), frozenset)


def _recursive_walk(node):
    """The recursive preorder generator that ``N.walk`` replaced."""
    yield node
    for c in N.children(node):
        yield from _recursive_walk(c)


def test_walk_visits_every_subtree_in_the_recursive_preorder(db, corpus_dir):
    visited = 0
    for label, stmt in _statements(db, corpus_dir):
        for prop in [p for _, p in stmt.hyps] + [stmt.goal]:
            for node in _recursive_walk(prop):
                got, want = list(N.walk(node)), list(_recursive_walk(node))
                assert len(got) == len(want), label
                assert all(a is b for a, b in zip(got, want)), label
                visited += 1
    assert visited > 1000


def test_walk_of_a_deep_sum_needs_no_recursion():
    depth = 3000  # three times the default recursion limit
    e = N.Var("x")
    for _ in range(depth - 1):
        e = N.Add(e, N.Var("x"))
    nodes = list(N.walk(e))
    assert len(nodes) == 2 * depth - 1
    assert nodes[0] is e and nodes[-1] is e.rhs
    assert sum(isinstance(n, N.Add) for n in nodes) == depth - 1
