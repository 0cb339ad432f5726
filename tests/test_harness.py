"""Evaluation harness: pass@k semantics, reports, external prover protocol."""

import functools
import json
import os
import pathlib
import shlex
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

from physkernel.checker.evaluate import with_overrides
from physkernel.checker.prover import auto_prove, check_derivation
from physkernel.checker.script import parse_script
from physkernel.corpus import CorpusEntry, Tier, load_corpus
from physkernel.errors import MismatchedModels
from physkernel.harness import (
    BuiltinProver, EvalReport, ExternalProver, aggregate, improvement_delta,
    percent, render_attempt_log, render_report, run_eval, verify_script_text,
)
from physkernel.harness import EntryResult
from physkernel.lang.parser import parse_overrides, parse_statement
from physkernel.record import replace
from physkernel.unitdb import builtin_database

TINY_TEXT = textwrap.dedent("""\
    name: tiny_pass
    level: basic
    topic: mechanics
    source: synthetic fixture

    theorem tiny_pass
      (u : Real)
      (hu := u = 1)
      : u = 1
""")

MOCK_PROVER = textwrap.dedent("""\
    import json
    import sys
    import time

    mode = sys.argv[1]
    for line in sys.stdin:
        req = json.loads(line)
        out = None
        if mode == "ok":
            out = {"id": req["id"], "script": "exact hu\\n"}
        elif mode == "bad-script":
            out = {"id": req["id"], "script": "subst hu\\nsubst hu\\n"}
        elif mode == "error":
            out = {"id": req["id"], "error": "no strategy found"}
        elif mode == "malformed":
            print("} this is not json {", flush=True)
            continue
        elif mode == "wrong-id":
            out = {"id": "bogus", "script": "exact hu\\n"}
        elif mode == "flaky":
            if req["attempt"] < 2:
                out = {"id": req["id"], "error": "warming up"}
            else:
                out = {"id": req["id"], "script": "exact hu\\n"}
        elif mode == "crash-then-ok":
            if req["attempt"] == 1:
                sys.exit(3)
            out = {"id": req["id"], "script": "exact hu\\n"}
        elif mode == "slow":
            time.sleep(5)
            out = {"id": req["id"], "script": "exact hu\\n"}
        elif mode == "not-utf8":
            sys.stdout.buffer.write(b"\\xff\\n")
            sys.stdout.flush()
            continue
        print(json.dumps(out), flush=True)
""")


@pytest.fixture()
def tiny_entry(db):
    stmt = parse_statement(TINY_TEXT, db)
    return CorpusEntry("tiny_pass", "mechanics", Tier.AUTO,
                       pathlib.Path("tiny_pass.phys"), TINY_TEXT, stmt)


@pytest.fixture()
def mock_prover(tmp_path):
    script = tmp_path / "mock_prover.py"
    script.write_text(MOCK_PROVER, encoding="utf-8")

    def make(mode, **kwargs):
        return ExternalProver((sys.executable, str(script), mode),
                              name=f"mock-{mode}", **kwargs)

    return make


# -- rate arithmetic ---------------------------------------------------------------


def test_percent_is_exact_half_up():
    assert percent(9, 104) == "8.65%"
    assert percent(18, 62) == "29.03%"
    assert percent(2, 34) == "5.88%"
    assert percent(29, 200) == "14.50%"
    assert percent(33, 104) == "31.73%"
    assert percent(46, 62) == "74.19%"
    assert percent(0, 34) == "0.00%"
    assert percent(79, 200) == "39.50%"
    assert percent(1, 8) == "12.50%"
    assert percent(1, 800) == "0.13%"       # 0.125% rounds half up
    assert percent(1, 3) == "33.33%"
    assert percent(2, 3) == "66.67%"
    assert percent(5, 5) == "100.00%"
    with pytest.raises(ValueError):
        percent(1, 0)


def test_aggregate_returns_exact_fractions():
    by_level, overall = aggregate([
        *[("basic", True)] * 9, *[("basic", False)] * 95,
        *[("intermediate", True)] * 18, *[("intermediate", False)] * 44,
        *[("advanced", True)] * 2, *[("advanced", False)] * 32,
    ])
    assert by_level["basic"] == Fraction(9, 104)
    assert by_level["intermediate"] == Fraction(18, 62)
    assert by_level["advanced"] == Fraction(2, 34)
    assert overall == Fraction(29, 200)

    lone, total = aggregate([(None, True), ("basic", False)])
    assert lone["unleveled"] == Fraction(1)
    assert total == Fraction(1, 2)

    with pytest.raises(ValueError):
        aggregate([])


# -- the builtin binding ------------------------------------------------------------


def test_builtin_eval_over_bundled_corpus(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    report, log = run_eval(entries, BuiltinProver(db), k=1, db=db)
    assert report.model == "builtin-auto"
    failed = [r.name for r in report.results if not r.passed]
    assert failed == ["rope_friction_turns"]
    assert len(log) == len(entries)
    assert all(rec.wall_ms >= 0 for rec in log)
    rendered = render_report(report)
    assert "overall)" in rendered and "[FAIL] mechanics/rope_friction_turns" in rendered
    assert render_attempt_log(log).count("\n") == len(log) - 1


def test_run_eval_prepares_each_statement_once(db, corpus_dir, monkeypatch):
    # Proving and then replaying one entry resolves its statement once: the
    # replay finds the prover's set-up of the same statement object.
    from physkernel.checker import prover

    calls = []
    resolve = prover.resolve_statement

    def counting(stmt, db=None):
        calls.append(stmt)
        return resolve(stmt, db)

    monkeypatch.setattr(prover, "resolve_statement", counting)
    (entry,) = [e for e in load_corpus(corpus_dir, db)
                if e.name == "crate_friction_coefficients"]
    report, _ = run_eval([entry], BuiltinProver(db), db=db)
    assert report.results[0].passed
    assert len(calls) == 1


def test_run_eval_walks_each_classified_tree_once(db, corpus_dir,
                                                  monkeypatch):
    # Proving and replaying the corpus asks prover.applied_fns about the
    # same hypothesis trees again and again; the answer is cached on the
    # tree, so each distinct tree is walked once.
    from physkernel.checker import prover
    from physkernel.lang import nodes

    walks = inner = 0
    trees = []
    walk, applied_fns = nodes.walk, prover.applied_fns

    def counting_walk(node):
        nonlocal walks
        walks += 1
        return walk(node)

    def recording(node):
        nonlocal inner
        trees.append(node)
        before = walks
        result = applied_fns(node)
        inner += walks - before
        return result

    monkeypatch.setattr(nodes, "walk", counting_walk)
    monkeypatch.setattr(prover, "applied_fns", recording)
    # Fresh trees: no earlier test has cached a classification on them.
    entries = load_corpus(corpus_dir, db)
    report, _ = run_eval(entries, BuiltinProver(db), db=db)
    distinct = len({id(t) for t in trees})
    assert len(trees) > 2 * distinct > 0
    assert inner == distinct


G_TEXT = "theorem g_value\n  : g = 9.8 • meter / second**2\n"


@functools.lru_cache(maxsize=None)
def _g_statement():
    """One statement object, shared by every case run in this process."""
    return parse_statement(G_TEXT, builtin_database())


def _g_verdict(case: str):
    db = builtin_database()
    stmt = _g_statement()
    g_length = parse_overrides("g = 10 • meter", db)
    if case == "builtin":
        return auto_prove(stmt, db)
    if case == "overridden db":
        return auto_prove(stmt, with_overrides(db, g_length))
    if case == "replaced statement":
        return auto_prove(replace(stmt, constants=g_length), db)
    assert case == "replay, overridden db"
    steps = parse_script("numeric\n", stmt, db)
    g_ten = parse_overrides("g = 10 • meter / second**2", db)
    return check_derivation(stmt, steps, with_overrides(db, g_ten))


def test_set_up_of_another_statement_or_database_is_not_reused():
    # Each case in a fresh process, then all of them in one process, each
    # after a case that set up the same statement object.
    cases = ("builtin", "overridden db", "replaced statement",
             "replay, overridden db")
    here = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fresh = {}
    for case in cases:
        out = subprocess.run(
            [sys.executable, "-c", "from test_harness import _g_verdict\n"
             f"print(repr(_g_verdict({case!r})))\n"],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr[-2000:]
        fresh[case] = out.stdout.strip()
    assert [fresh[c].split("(")[0] for c in cases] == [
        "Proved", "Unknown", "Unknown", "Refuted"]
    for case in ("builtin", "overridden db", "builtin", "replaced statement",
                 "builtin", "replay, overridden db", "builtin"):
        assert repr(_g_verdict(case)) == fresh[case], case


def test_reports_are_byte_identical_across_runs(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    r1, _ = run_eval(entries, BuiltinProver(db), k=1, db=db)
    r2, _ = run_eval(entries, BuiltinProver(db), k=1, db=db)
    assert r1.to_json() == r2.to_json()
    assert render_report(r1) == render_report(r2)


def test_parallel_jobs_do_not_change_the_report(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    serial, _ = run_eval(entries, BuiltinProver(db), k=1, jobs=1, db=db)
    parallel, _ = run_eval(entries, BuiltinProver(db), k=1, jobs=3, db=db)
    assert serial.to_json() == parallel.to_json()


def test_a_prover_that_cannot_start_fails_each_attempt(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    binding = ExternalProver(("/nonexistent/prover",))
    report, log = run_eval(entries, binding, k=2, jobs=2, db=db)
    assert [r.attempts_used for r in report.results] == [2] * len(entries)
    assert not any(r.passed for r in report.results)
    assert [(rec.entry, rec.attempt) for rec in log] == [
        (e.name, a) for e in entries for a in (1, 2)]
    assert all("/nonexistent/prover" in rec.reason for rec in log)


def test_run_eval_refuses_no_entries_before_any_work(db):
    # Neither to_json nor render_report can render a report of no results.
    for binding in (BuiltinProver(db),
                    ExternalProver(("/nonexistent/prover",))):
        with pytest.raises(ValueError, match="no entries to evaluate"):
            run_eval(iter(()), binding, k=2, db=db)


def test_deterministic_binding_stops_after_first_failure(db, corpus_dir):
    entries = [e for e in load_corpus(corpus_dir, db)
               if e.name == "rope_friction_turns"]
    report, log = run_eval(entries, BuiltinProver(db), k=5, db=db)
    assert not report.results[0].passed
    assert report.results[0].attempts_used == 1
    assert len(log) == 1


def test_report_json_shape(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    report, _ = run_eval(entries, BuiltinProver(db), k=1, db=db)
    obj = json.loads(report.to_json())
    assert list(obj) == ["model", "k", "corpus_size", "results", "aggregates"]
    assert obj["corpus_size"] == len(entries)
    assert list(obj["aggregates"]["by_level"]) == [
        "basic", "intermediate", "advanced"]
    overall = obj["aggregates"]["overall"]
    assert overall["rate"] == percent(overall["passed"], overall["total"])
    assert "wall" not in report.to_json() and "ms" not in report.to_json()


# -- verification is independent of the producer -------------------------------------


def test_verify_script_text_accepts_only_replaying_scripts(db, tiny_entry):
    assert verify_script_text(tiny_entry, "exact hu\n", db)
    assert not verify_script_text(tiny_entry, "subst hu\nsubst hu\n", db)
    assert not verify_script_text(tiny_entry, "gibberish step\n", db)
    assert not verify_script_text(tiny_entry, "", db)


def test_inst_argument_may_name_a_statement_constant(db):
    text = textwrap.dedent("""\
        name: doubled_light
        constants: c = 3 • meter / second

        theorem doubled_light
          (f : Speed -> Speed)
          (hv := forall w, f(w) = 2 * w)
          : f(c) = 6 • meter / second
    """)
    entry = CorpusEntry("doubled_light", "mechanics", Tier.SCRIPT,
                        pathlib.Path("doubled_light.phys"), text,
                        parse_statement(text, db))
    assert verify_script_text(entry, "inst hv c\nsubst hv@1\nnumeric\n", db)


# -- the external binding -----------------------------------------------------------


def test_external_prover_happy_path(db, tiny_entry, mock_prover):
    report, log = run_eval([tiny_entry], mock_prover("ok"), k=1, db=db)
    assert report.results[0].passed
    assert report.model == "mock-ok"
    assert log[0].reason is None


def test_external_prover_script_must_verify(db, tiny_entry, mock_prover):
    report, log = run_eval([tiny_entry], mock_prover("bad-script"), k=1, db=db)
    assert not report.results[0].passed
    assert log[0].reason == "script did not verify"


def test_external_prover_error_reply(db, tiny_entry, mock_prover):
    report, log = run_eval([tiny_entry], mock_prover("error"), k=1, db=db)
    assert not report.results[0].passed
    assert "no strategy found" in log[0].reason


def test_external_prover_malformed_reply(db, tiny_entry, mock_prover):
    report, log = run_eval([tiny_entry], mock_prover("malformed"), k=1, db=db)
    assert not report.results[0].passed
    assert "malformed prover reply" in log[0].reason


def test_external_prover_reply_that_is_not_utf8(db, tiny_entry, mock_prover):
    binding = mock_prover("not-utf8", timeout=30)
    report, log = run_eval([tiny_entry], binding, k=1, db=db)
    assert not report.results[0].passed
    assert "malformed prover reply" in log[0].reason


def test_external_prover_id_mismatch(db, tiny_entry, mock_prover):
    report, log = run_eval([tiny_entry], mock_prover("wrong-id"), k=1, db=db)
    assert not report.results[0].passed
    assert "id does not match" in log[0].reason


def test_external_prover_crash_and_respawn(db, tiny_entry, mock_prover):
    binding = mock_prover("crash-then-ok")
    report, log = run_eval([tiny_entry], binding, k=2, db=db)
    assert report.results[0].passed
    assert report.results[0].attempts_used == 2
    assert not log[0].passed and "without replying" in log[0].reason
    assert log[1].passed


def test_external_prover_timeout(db, tiny_entry, mock_prover):
    binding = mock_prover("slow", timeout=0.3)
    report, log = run_eval([tiny_entry], binding, k=1, db=db)
    assert not report.results[0].passed
    assert "timed out" in log[0].reason


def test_pass_at_k_uses_extra_attempts(db, tiny_entry, mock_prover):
    binding = mock_prover("flaky")
    at_1, _ = run_eval([tiny_entry], binding, k=1, db=db)
    assert not at_1.results[0].passed
    at_3, log = run_eval([tiny_entry], binding, k=3, db=db)
    assert at_3.results[0].passed
    assert at_3.results[0].attempts_used == 2  # stop at first success
    assert [rec.attempt for rec in log] == [1, 2]


def _tiny_entries(db, count):
    entries = []
    for n in range(count):
        name = f"tiny_{n}"
        text = TINY_TEXT.replace("tiny_pass", name)
        entries.append(CorpusEntry(name, "mechanics", Tier.AUTO,
                                   pathlib.Path(f"{name}.phys"), text,
                                   parse_statement(text, db)))
    return entries


def test_external_jobs_do_not_change_the_report_or_the_log(db, mock_prover):
    # Three processes answer in whatever order they finish; the report and
    # the attempt log stay in entry-then-attempt order.
    entries = _tiny_entries(db, 6)
    binding = mock_prover("flaky")
    (serial, serial_log), (parallel, parallel_log) = (
        run_eval(entries, binding, k=3, jobs=jobs, db=db) for jobs in (1, 3))
    assert serial.to_json() == parallel.to_json()

    def timeless(log):
        return [(r.entry, r.attempt, r.passed, r.reason) for r in log]

    assert timeless(serial_log) == timeless(parallel_log)
    assert timeless(serial_log) == [
        (e.name, a, a == 2, None if a == 2 else "prover reported: warming up")
        for e in entries for a in (1, 2)]


NEVER_ANSWERS = textwrap.dedent("""\
    import os
    import signal
    import sys
    import time

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for line in sys.stdin:
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(60)
""")


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("jobs", [1, 2])
def test_ctrl_c_ends_eval_at_once_and_leaves_no_prover_running(
        tmp_path, corpus_dir, jobs):
    # The provers ignore SIGINT and never answer.  SIGINT goes to the CLI
    # process alone once every prover has a request; the CLI must exit
    # within 1 s and take every prover with it.
    corpus, pids = tmp_path / "corpus", tmp_path / "pids"
    (corpus / "mechanics").mkdir(parents=True)
    pids.mkdir()
    names = ("crate_friction_coefficients",
             "uniform_acceleration_coefficients")
    for name in names:
        shutil.copy(corpus_dir / "mechanics" / f"{name}.phys",
                    corpus / "mechanics")
    (corpus / "manifest.json").write_text(json.dumps(
        {"entries": {n: {"expected": "auto"} for n in names}}))
    stub = tmp_path / "never_answers.py"
    stub.write_text(NEVER_ANSWERS, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cli = subprocess.Popen(
        [sys.executable, "-m", "physkernel.cli", "eval", str(corpus),
         "--jobs", str(jobs), "--prover-cmd",
         shlex.join([sys.executable, str(stub), str(pids)])],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(pids)) < jobs:
            assert cli.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        cli.send_signal(signal.SIGINT)
        sent = time.monotonic()
        cli.wait(timeout=10)
        assert time.monotonic() - sent < 1.0
        assert [p for p in os.listdir(pids) if _running(int(p))] == []
    finally:
        if cli.poll() is None:
            cli.kill()
            cli.wait()
        for pid in os.listdir(pids):
            if _running(int(pid)):
                os.kill(int(pid), signal.SIGKILL)


# -- run-to-run comparison ------------------------------------------------------------


def fake_report(model, names_levels_passed, k=1):
    results = tuple(
        EntryResult(name, "mechanics", level, "auto", passed, 1)
        for name, level, passed in names_levels_passed)
    return EvalReport(model, k, results)


def test_improvement_delta_formats_signed_percent():
    before = fake_report("m", [("a", "basic", False), ("b", "advanced", True)])
    after = fake_report("m", [("a", "basic", True), ("b", "advanced", False)])
    delta = improvement_delta(before, after)
    assert delta == {"basic": "+100.00%", "advanced": "-100.00%",
                     "overall": "+0.00%"}


def test_improvement_delta_rejects_mismatches():
    a = fake_report("model-a", [("a", "basic", True)])
    b = fake_report("model-b", [("a", "basic", True)])
    with pytest.raises(MismatchedModels):
        improvement_delta(a, b)
    c = fake_report("model-a", [("other", "basic", True)])
    with pytest.raises(ValueError, match="different corpus entries"):
        improvement_delta(a, c)
