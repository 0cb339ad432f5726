"""Dimensional analysis: per-entry reports, std resolution, typing rules.

Each test builds a small statement from source text, so the checks cover the
parser-to-report pipeline exactly as the command-line `check` verb uses it.
"""

import textwrap

import pytest

from physkernel.checker.dims import check_dimensions, resolve_statement
from physkernel.dimension import DIMENSIONLESS
from physkernel.errors import ParseError
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement


def stmt_of(body: str, db):
    return parse_statement(textwrap.dedent(body).strip() + "\n", db)


def resolved_once(s, db):
    """``resolve_statement(s, db)``, checked to resolve to itself and to
    keep each hypothesis, and the goal, that has no ``ForallFn``."""
    resolved = resolve_statement(s, db)
    assert resolve_statement(resolved, db) is resolved
    before = [*s.hyps, ("goal", s.goal)]
    after = [*resolved.hyps, ("goal", resolved.goal)]
    for (_, old), (_, new) in zip(before, after, strict=True):
        if not any(n.__class__ is N.ForallFn for n in N.walk(old)):
            assert new is old
    return resolved


def test_homogeneous_statement_reports_every_entry(db):
    s = stmt_of("""
        theorem energy_balance
        (m : Mass) (v : Speed) (E : Energy)
        (hE := E = (1/2) * m * v**2)
        (hv := v = 3 • meter / second)
        : E = (9/2) • m * meter**2 / second**2
    """, db)
    report = check_dimensions(s, db)
    assert report.homogeneous
    assert [e.label for e in report.entries] == ["hE", "hv", "goal"]
    assert all(e.homogeneous for e in report.entries)
    assert "homogeneous" in report.render()


def test_mismatch_pinpoints_entry_and_dimensions(db):
    s = stmt_of("""
        theorem bad_sum
        (x : Length) (t : Time)
        (h1 := x = 2 • meter)
        (h2 := x + t = 3 • meter)
        : x = x
    """, db)
    report = check_dimensions(s, db)
    assert not report.homogeneous
    assert report.entry("h1").homogeneous
    assert report.entry("goal").homogeneous
    bad = report.entry("h2")
    assert not bad.homogeneous
    m = bad.mismatch
    assert m.expected.render() == "L"
    assert m.found.render() == "T"
    assert "addition" in m.note
    assert m.span.line > 0 and m.span.col > 0
    with pytest.raises(KeyError):
        report.entry("h3")


def test_comparison_sides_must_agree(db):
    s = stmt_of("""
        theorem bad_eq
        (x : Length) (t : Time)
        (h := x = t)
        : x = x
    """, db)
    report = check_dimensions(s, db)
    m = report.entry("h").mismatch
    assert m is not None
    assert (m.expected.render(), m.found.render()) == ("L", "T")
    assert m.note == "equation sides"


def test_smul_scalar_must_be_dimensionless(db):
    s = stmt_of("""
        theorem bad_smul
        (x : Length) (t : Time)
        (h := x = t • meter)
        : x = x
    """, db)
    m = check_dimensions(s, db).entry("h").mismatch
    assert m.note == "scalar position of •"
    assert m.expected == DIMENSIONLESS


def test_rpow_requires_dimensionless_base_and_exponent(db):
    s = stmt_of("""
        theorem bad_rpow
        (x : Length) (u : Real)
        (h := u = rpow(x, 1/2))
        : u = u
    """, db)
    m = check_dimensions(s, db).entry("h").mismatch
    assert m.note == "base of a real power"

    s2 = stmt_of("""
        theorem bad_rpow_exp
        (x : Length) (u : Real)
        (h := u = rpow(2, x))
        : u = u
    """, db)
    m2 = check_dimensions(s2, db).entry("h").mismatch
    assert m2.note == "exponent of a real power"


def test_cast_checks_argument_against_target_kind(db):
    s = stmt_of("""
        theorem bad_cast
        (x : Length)
        (h := cast(x, Time) = 3 • second)
        : x = x
    """, db)
    m = check_dimensions(s, db).entry("h").mismatch
    assert m.note == "cast to Time"
    assert (m.expected.render(), m.found.render()) == ("T", "L")


def test_function_application_checks_argument_kind(db):
    s = stmt_of("""
        theorem fn_arg
        (f : Time -> Length)
        (x : Length)
        (h := f(x) = x)
        : x = x
    """, db)
    m = check_dimensions(s, db).entry("h").mismatch
    assert m.note == "argument of f"
    assert (m.expected.render(), m.found.render()) == ("T", "L")


def test_derivative_has_quotient_dimension(db):
    s = stmt_of("""
        theorem deriv_dim
        (f : Time -> Length) (t : Time) (v : Speed)
        (h := deriv(f, t) = v)
        : v = v
    """, db)
    assert check_dimensions(s, db).homogeneous


def test_function_equality_compares_signatures(db):
    good = stmt_of("""
        theorem fn_eq
        (f : Time -> Length) (g : Time -> Length)
        (h := f = g)
        : f = g
    """, db)
    assert check_dimensions(good, db).homogeneous

    bad = stmt_of("""
        theorem fn_neq
        (f : Time -> Length) (g : Time -> Mass)
        (h := f = g)
        : f = f
    """, db)
    m = check_dimensions(bad, db).entry("h").mismatch
    assert m.note == "function result kinds differ"
    assert (m.span.line, m.span.col) == (3, 11)  # at g

    bad_arg = stmt_of("""
        theorem fn_arg_neq
        (f : Length -> Length) (g : Time -> Length)
        (h := f = g)
        : f = f
    """, db)
    m = check_dimensions(bad_arg, db).entry("h").mismatch
    assert m.note == "function argument kinds differ"
    assert (m.expected, m.found) == (db.kind("Length"), db.kind("Time"))


def test_std_takes_dimension_of_opposite_side(db):
    s = stmt_of("""
        theorem std_infer
        (E : Energy)
        (h := E = 5 • std)
        : E = 5 • std
    """, db)
    resolved = resolve_statement(s, db)
    stds = [n for n in N.walk(resolved.goal) if isinstance(n, N.StdUnit)]
    assert len(stds) == 1
    assert stds[0].dim == db.kind("Energy")
    assert check_dimensions(s, db).homogeneous
    # Idempotent: resolving a resolved statement returns it unchanged.
    assert resolve_statement(resolved, db) is resolved


def test_std_in_cast_takes_cast_kind(db):
    s = stmt_of("""
        theorem std_cast
        (C : Capacitance)
        (h := C = 3 • cast(std, Capacitance))
        : C = C
    """, db)
    # The parser gives a cast argument its kind: nothing is left to resolve.
    (_, h) = s.hyps[0]
    stds = [n for n in N.walk(h) if isinstance(n, N.StdUnit)]
    assert stds and all(n.dim == db.kind("Capacitance") for n in stds)
    assert resolve_statement(s, db) is s


@pytest.mark.parametrize("hyp, dim, report", [
    ("5 • std = E", "M L^2 T^-2", "homogeneous"),
    # The opposite side has no dimension: the std stays unresolved, and the
    # report names the first error a left-to-right walk meets.
    ("x + t = 3 • std", None,
     "expected L, found T — addition requires equal dimensions"),
    ("3 • std = x + t", None, "the dimension of 'std' could not be inferred"),
])
def test_std_takes_the_opposite_side_only_if_it_has_a_dimension(
        db, hyp, dim, report):
    s = stmt_of(f"""
        theorem std_sides
        (E : Energy) (x : Length) (t : Time)
        (h := {hyp})
        : x = x
    """, db)
    (_, h) = resolve_statement(s, db).hyps[0]
    (std,) = [n for n in N.walk(h) if isinstance(n, N.StdUnit)]
    assert (std.dim and std.dim.render()) == dim
    m = check_dimensions(s, db).entry("h").mismatch
    assert (m.render().rsplit(" (line", 1)[0] if m
            else "homogeneous") == report


def test_std_on_both_sides_is_rejected(db):
    with pytest.raises(ParseError, match="both sides"):
        check_dimensions(stmt_of("""
            theorem std_both
            (x : Length)
            (h := 2 • std = 3 • std)
            : x = x
        """, db), db)


def test_std_must_head_a_comparison_side(db):
    with pytest.raises(ParseError, match="scaled head"):
        check_dimensions(stmt_of("""
            theorem std_buried
            (x : Length)
            (h := x = x + 2 • std)
            : x = x
        """, db), db)


def test_quantified_variable_kinds(db):
    s = stmt_of("""
        theorem quantified
        (f : Time -> Length)
        (h := forall t, f(t) = f(t))
        : forall u in {1, -1}, u * u = 1
    """, db)
    assert check_dimensions(s, db).homogeneous

    with pytest.raises(ParseError, match="cannot infer the kind"):
        check_dimensions(stmt_of("""
            theorem unknowable
            (x : Length)
            (h := forall w, w = w)
            : x = x
        """, db), db)


def test_a_statement_without_std_resolves_to_itself(db, monkeypatch):
    from physkernel.checker import dims

    def rebuild(*args):
        raise AssertionError("a statement without std was rebuilt")

    monkeypatch.setattr(dims, "_fill_std", rebuild)
    s = stmt_of("""
        theorem no_std
        (x : Length) (t : Time) (f : Time -> Length)
        (h := forall u, f(u) = cast(x, Length))
        (h2 := x = t)
        : x = 2 • meter
    """, db)
    resolved = resolved_once(s, db)
    assert resolved.hyps[0][1].dim == db.kind("Time")  # h's quantifier
    report = check_dimensions(s, db)
    assert [e.homogeneous for e in report.entries] == [True, False, True]
    # A quantifier whose kind cannot be inferred is still rejected, even
    # behind a mismatch that the report alone would stop at.
    with pytest.raises(ParseError, match="cannot infer the kind"):
        resolve_statement(stmt_of("""
            theorem unknowable
            (x : Length) (t : Time)
            (h := x = t ∧ (forall w, w = w))
            : x = x
        """, db), db)


def test_every_corpus_statement_is_homogeneous(db, corpus_dir):
    for path in sorted(corpus_dir.rglob("*.phys")):
        s = parse_statement(path.read_text(encoding="utf-8"), db)
        report = check_dimensions(s, db)
        assert report.homogeneous, f"{path.name}: {report.render()}"


def test_report_records_serialize(db):
    s = stmt_of("""
        theorem mixed
        (x : Length) (t : Time)
        (h1 := x = 2 • meter)
        (h2 := x = t)
        : x = x
    """, db)
    records = check_dimensions(s, db).to_records()
    assert records[0] == {"label": "h1", "homogeneous": True}
    assert records[1]["label"] == "h2"
    assert records[1]["homogeneous"] is False
    assert records[1]["expected"] == "L"
    assert records[1]["found"] == "T"
    assert records[1]["line"] >= 1


def test_auto_prove_resolves_the_statement_once(db, corpus_dir, monkeypatch):
    from physkernel.checker import dims, prover

    calls = []

    def counting(stmt, db=None):
        calls.append(stmt)
        return resolve_statement(stmt, db)

    monkeypatch.setattr(dims, "resolve_statement", counting)
    monkeypatch.setattr(prover, "resolve_statement", counting)
    path = corpus_dir / "mechanics" / "crate_friction_coefficients.phys"
    s = parse_statement(path.read_text(encoding="utf-8"), db)
    assert isinstance(prover.auto_prove(s, db), prover.Proved)
    assert len(calls) == 1
