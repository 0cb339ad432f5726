"""Verdicts pinned byte for byte against ``tests/golden_verdicts.txt``.

For each statement the file holds ``repr(auto_prove(s))`` and, when that is
``Proved``, ``repr`` of replaying its printed script through
``check_derivation``.  The statements are the corpus entries, the seeded
constraint systems of ``test_ring.py`` written out as theorems, seeded
definitions whose right-hand sides divide, and seeded definitional chains
shaped like the benchmark's (each chain is also replayed with a
hand-written ``subst ... / numeric`` script, so a refutation is pinned
through the replay too).  A refactor of the prover or the ring engine must
leave every line unchanged.

Run this file as a script to print the rendering, or with ``--write`` to
rewrite the golden file (only when a verdict is meant to change)::

    PYTHONPATH=src python tests/test_verdicts.py --write
"""

import pathlib
import random
import sys
from fractions import Fraction

from physkernel.checker.prover import (
    auto_prove, check_derivation, database_for,
)
from physkernel.checker.ring import translate_difference
from physkernel.checker.rewrite import subst_var
from physkernel.checker.script import parse_script, print_script
from physkernel.corpus import load_corpus
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement
from physkernel.lang.printer import print_expr
from physkernel.unitdb import builtin_database

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from test_ring import FAR_NAMES, N_ELIM_SYSTEMS, Gen  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_verdicts.txt"
N_CHAINS = 20
N_DEFS = 30


def _gen_statement(gen: Gen, index: int, db) -> str:
    """The ``_system`` of ``test_ring.py`` as a theorem: each constraint
    ``a op b - c`` is the hypothesis ``c = a op b`` (a definition when ``c``
    is a variable that ``a op b`` does not mention) and the goal is
    ``expr = 0``.  The random draws follow ``_system`` exactly, so seed
    0xE11 gives the same systems."""
    r = gen.rng
    hyps, near = [], []
    for i in range(r.randint(1, 4)):
        op = r.choice((N.Add, N.Sub, N.Mul))
        lhs, rhs = op(gen.expr(0), gen.expr(0)), gen.expr(0)
        if translate_difference(lhs, rhs, db).rf.is_zero:
            continue
        if r.random() < 0.4:
            for near_name, far_name in FAR_NAMES.items():
                lhs = subst_var(lhs, near_name, N.Var(far_name))
                rhs = subst_var(rhs, near_name, N.Var(far_name))
        else:
            near.append(N.Sub(rhs, lhs))
        hyps.append(f"  (h{i} := {print_expr(rhs)} = {print_expr(lhs)})\n")
    if r.random() < 0.5:
        goal = gen.expr(1)
    else:
        goal = N.NumLit(Fraction(0))
        for diff in near:
            goal = N.Add(goal, N.Mul(diff, gen.expr(0)))
    names = " ".join(["u", "w", "z", *FAR_NAMES.values()])
    return (f"theorem system_{index}\n  ({names} : Real)\n" + "".join(hyps)
            + f"  : {print_expr(goal)} = 0\n")


def _defs_statement(gen: Gen, index: int) -> str:
    """``a`` and ``b`` defined by generated expressions over u, w, z (``b``
    divides by ``a + k``, so side conditions print substituted terms), and
    the constraint ``u * a = w``.  The goal ``a * b = ...`` holds outright
    (index 0 mod 3), holds only through the constraint (1), or is one off
    (2)."""
    e1 = gen.expr(2)
    e2 = N.Div(gen.expr(1), N.Add(N.Var("a"), N.NumLit(
        Fraction(gen.rng.randint(1, 9)))))
    rhs = N.Mul(e1, subst_var(e2, "a", e1))
    lhs = N.Mul(N.Var("a"), N.Var("b"))
    if index % 3 == 1:
        lhs = N.Add(lhs, N.Mul(N.Var("u"), N.Var("a")))
        rhs = N.Add(rhs, N.Var("w"))
    elif index % 3 == 2:
        rhs = N.Add(rhs, N.NumLit(Fraction(1)))
    return (f"theorem defs_{index}\n  (u w z a b : Real)\n"
            f"  (ha := a = {print_expr(e1)})\n"
            f"  (hb := b = {print_expr(e2)})\n"
            f"  (hc := u * a = w)\n"
            f"  : {print_expr(lhs)} = {print_expr(rhs)}\n")


def _chain_statement(rng: random.Random, length: int, off: int) -> str:
    """``v_i = (a/b) * v_{i-1} - c • meter`` from a ground start; the goal
    states the end value, exact or ``off`` meters away."""
    names = [f"v{i:02d}" for i in range(length + 1)]
    value = Fraction(rng.randint(1, 9))
    hyps = [f"  (h0 := {names[0]} = {value} • meter)"]
    for i in range(1, length + 1):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        shift = rng.randint(1, 9)
        hyps.append(f"  (h{i} := {names[i]} = ({scale.numerator}/"
                    f"{scale.denominator}) * {names[i - 1]} - {shift}"
                    " • meter)")
        value = scale * value - shift
    end = value + off
    return (f"theorem chain\n  ({' '.join(names)} : Length)\n"
            + "\n".join(hyps)
            + f"\n  : {names[length]} = ({end.numerator}/{end.denominator})"
              " • meter\n")


def cases(db) -> list[tuple[str, object, str | None]]:
    """(label, statement, hand-written script or None), in a fixed order."""
    out = []
    for entry in load_corpus(ROOT / "corpus", db):
        out.append((f"corpus/{entry.name}", entry.statement, None))
    gen = Gen(0xE11)
    for i in range(N_ELIM_SYSTEMS):
        out.append((f"system/{i}",
                    parse_statement(_gen_statement(gen, i, db), db), None))
    gen = Gen(0xDEF5)
    for i in range(N_DEFS):
        out.append((f"defs/{i}",
                    parse_statement(_defs_statement(gen, i), db), None))
    rng = random.Random(0xC4A1)
    for i in range(N_CHAINS):
        length = rng.randint(5, 15)
        stmt = parse_statement(_chain_statement(rng, length, i % 2), db)
        script = "".join(f"subst h{k}\n" for k in range(length, -1, -1))
        out.append((f"chain/{i}", stmt, script + "numeric\n"))
    return out


def render() -> str:
    db = builtin_database()
    lines = []
    for label, stmt, script in cases(db):
        full_db = database_for(stmt, db)
        verdict = auto_prove(stmt, db)
        lines.append(f"== {label}")
        lines.append(f"auto: {verdict!r}")
        if verdict.kind == "proved":
            steps = parse_script(print_script(verdict.steps), stmt, full_db)
            lines.append(f"replay: {check_derivation(stmt, steps, db)!r}")
        if script is not None:
            steps = parse_script(script, stmt, full_db)
            lines.append(f"script: {check_derivation(stmt, steps, db)!r}")
    return "\n".join(lines) + "\n"


def test_verdicts_match_golden_file():
    got = render().splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_golden_covers_every_kind_of_outcome():
    text = GOLDEN.read_text(encoding="utf-8")
    assert text.count("== corpus/") == 8
    assert text.count("== system/") == N_ELIM_SYSTEMS
    assert text.count("== defs/") == N_DEFS
    assert text.count("== chain/") == N_CHAINS
    for prefix in ("auto: Proved(", "auto: Refuted(", "auto: Unknown(",
                   "replay: Proved(", "script: Refuted("):
        assert prefix in text, prefix


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(render(), encoding="utf-8")
    else:
        sys.stdout.write(render())
