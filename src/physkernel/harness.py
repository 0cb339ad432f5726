"""Evaluation harness: pass@k over a benchmark corpus.

The harness drives one of two provers over corpus entries and
independently verifies every script either returns with the checker — a
claimed proof counts only if the script actually replays to a proved
verdict.  An entry passes when any of its attempts verifies.

* :class:`BuiltinProver` runs the automatic prover in process.  It is
  deterministic, so each entry gets one attempt and pass@k equals pass@1.
* :class:`ExternalProver` drives a subprocess speaking a line-JSON
  protocol: one request object per line on stdin, one response object per
  line on stdout.  Requests carry ``{"id", "statement", "attempt"}``; the
  response must echo the ``id`` and give either a ``"script"`` string or
  an ``"error"``.  A crash, malformed response, or timeout counts as a
  failed attempt, and the subprocess is restarted for the next request.
  Each entry gets up to ``k`` attempts and stops at the first that
  verifies.  Up to ``jobs`` processes run at once, driven by one
  ``selectors`` loop in the calling thread (POSIX only: it selects on
  pipes).

Reports are deliberately timing-free and field-ordered so that the same
run always serializes to the same bytes; wall-clock numbers live only in
the separate attempt log.  Pass rates are kept as exact fractions and
rendered with half-up rounding to two decimals.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

from .checker.prover import Proved, auto_prove, check_derivation
from .checker.script import parse_script, print_script
from .corpus import CorpusEntry
from .errors import MismatchedModels, PhysKernelError
from .record import record
from .unitdb import UnitDatabase, builtin_database

__all__ = [
    "AttemptRecord", "BuiltinProver", "EvalReport", "ExternalProver",
    "aggregate", "improvement_delta", "percent", "render_attempt_log",
    "render_report", "run_eval", "verify_script_text",
]

#: Canonical difficulty order for report columns; levels outside this list
#: are appended alphabetically, and entries without a level are grouped
#: under "unleveled".
LEVEL_ORDER = ("basic", "intermediate", "advanced")

_UNLEVELED = "unleveled"


def percent(passes: int, total: int) -> str:
    """Render passes/total as a percentage with two half-up decimals."""
    if total <= 0:
        raise ValueError("percent() needs a positive total")
    q, r = divmod(passes * 10000, total)
    if 2 * r >= total:
        q += 1
    return f"{q // 100}.{q % 100:02d}%"


def _delta_percent(delta: Fraction) -> str:
    sign = "-" if delta < 0 else "+"
    mag = abs(delta)
    return sign + percent(mag.numerator, mag.denominator)


def _level_sort_key(level: str) -> tuple[int, str]:
    try:
        return (LEVEL_ORDER.index(level), "")
    except ValueError:
        return (len(LEVEL_ORDER), level)


# -- the two provers --------------------------------------------------------------


class BuiltinProver:
    """The packaged automatic prover, exposed as an evaluation subject."""

    name = "builtin-auto"

    def __init__(self, db: UnitDatabase | None = None):
        self.db = db or builtin_database()

    def attempt(self, entry: CorpusEntry) -> str:
        """The printed script of the entry's proof; raises without one."""
        verdict = auto_prove(entry.statement, self.db)
        if verdict.kind != "proved":
            raise PhysKernelError(f"automatic prover returned {verdict.kind}")
        return print_script(verdict.steps)


class ExternalProver:
    """A subprocess prover speaking newline-delimited JSON."""

    def __init__(self, argv: tuple[str, ...], name: str | None = None,
                 timeout: float = 60.0):
        if not argv:
            raise ValueError("external prover needs a command")
        self.argv = tuple(argv)
        self.name = name or argv[0]
        self.timeout = timeout


class _Slot:
    """One prover process of the external loop and its attempt in flight."""

    proc = None
    buf = b""  # the part of a reply line read so far
    entry: int | None = None  # the attempt's entry index; None when done
    attempt = 0
    rid = ""  # the request's id
    started = 0.0


def _run_external(binding: ExternalProver, entries, jobs: int,
                  settle) -> None:
    """Run every entry's attempts on up to ``jobs`` prover processes.

    ``settle(i, started, script, reason)`` logs an attempt at entry ``i``
    and says whether the entry gets another, which goes to the same slot.
    After an exception, such as Ctrl-C's KeyboardInterrupt, every process
    is killed at once; after a normal end each has 2 s to exit.
    """
    import selectors  # only here: runs of the built-in prover load neither
    import subprocess

    sel = selectors.DefaultSelector()
    todo = iter(range(len(entries)))
    slots = [_Slot() for _ in range(min(jobs, len(entries)))]

    def stop(s: _Slot, grace: float = 0.0) -> None:
        """Close the process's input; kill it if it runs ``grace`` s on."""
        if s.proc is None:
            return
        s.proc.stdin.close()
        try:
            s.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            s.proc.kill()
            s.proc.wait()
        sel.unregister(s.proc.stdout)
        s.proc.stdout.close()
        s.proc, s.buf = None, b""

    def send(s: _Slot) -> str | None:
        """Send the slot's attempt: None, or why it could not be sent."""
        s.started = time.monotonic()
        if s.proc is None or s.proc.poll() is not None:
            stop(s)
            try:
                s.proc = subprocess.Popen(  # unbuffered: no flush to fail
                    binding.argv, bufsize=0, stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            except OSError as exc:
                return str(exc)
            sel.register(s.proc.stdout, selectors.EVENT_READ, s)
        entry = entries[s.entry]
        s.rid = f"{entry.name}#{s.attempt}"
        request = {"id": s.rid, "statement": entry.text,
                   "attempt": s.attempt}
        try:
            s.proc.stdin.write(json.dumps(request).encode() + b"\n")
        except OSError as exc:
            stop(s)
            return f"prover process died: {exc}"
        return None

    def step(s: _Slot, script: str | None = None,
             reason: str | None = None) -> None:
        """Settle the slot's attempt, if any, and send it the next one."""
        while True:
            if s.entry is not None and settle(s.entry, s.started, script,
                                              reason):
                s.attempt += 1
            else:
                s.entry, s.attempt = next(todo, None), 1
                if s.entry is None:  # no work left: let the process exit
                    if s.proc is not None:
                        s.proc.stdin.close()
                    return
            script, reason = None, send(s)
            if reason is None:
                return

    def reply(s: _Slot, line: bytes) -> tuple[str | None, str | None]:
        """The script in a reply line, or why the attempt failed."""
        try:
            obj = json.loads(line.decode())
        except ValueError as exc:
            stop(s)
            return None, f"malformed prover reply: {exc}"
        if not isinstance(obj, dict) or obj.get("id") != s.rid:
            stop(s)
            return None, "prover reply id does not match request"
        if "error" in obj:
            return None, f"prover reported: {obj['error']}"
        script = obj.get("script")
        if not isinstance(script, str):
            return None, "prover reply carries no script"
        return script, None

    grace = 0.0
    try:
        for s in slots:
            step(s)
        while busy := [s for s in slots if s.entry is not None]:
            wait = (min(s.started for s in busy) + binding.timeout
                    - time.monotonic())
            for key, _ in sel.select(max(wait, 0.0)):
                s = key.data
                data = os.read(key.fd, 65536)
                if not data:
                    stop(s)
                    step(s, None, "prover process exited without replying")
                s.buf += data
                # A line past the reply is read as the next request's reply.
                while s.entry is not None and b"\n" in s.buf:
                    end = s.buf.index(b"\n") + 1
                    line, s.buf = s.buf[:end], s.buf[end:]
                    step(s, *reply(s, line))
            expired = time.monotonic() - binding.timeout
            for s in busy:
                if s.entry is not None and s.started <= expired:
                    stop(s)
                    step(s, None, f"prover timed out after {binding.timeout}s")
        grace = 2.0
    finally:
        deadline = time.monotonic() + grace
        for s in slots:
            stop(s, max(deadline - time.monotonic(), 0.0))
        sel.close()


# -- verification ----------------------------------------------------------------


def verify_script_text(entry: CorpusEntry, script_text: str,
                       db: UnitDatabase | None = None) -> bool:
    """True iff the script text replays to a proved verdict for the entry."""
    db = db or builtin_database()
    try:
        steps = parse_script(script_text, entry.statement, db)
        verdict = check_derivation(entry.statement, steps, db)
    except PhysKernelError:
        return False
    return isinstance(verdict, Proved)


# -- evaluation ------------------------------------------------------------------


@record(frozen=True)
class AttemptRecord:
    """One prover attempt, with timing; kept out of the report proper."""

    entry: str
    attempt: int
    passed: bool
    reason: str | None
    wall_ms: float


@record(frozen=True)
class EntryResult:
    name: str
    topic: str
    level: str
    tier: str
    passed: bool
    attempts_used: int


@record(frozen=True)
class EvalReport:
    model: str
    k: int
    results: tuple[EntryResult, ...]

    def counts(self) -> dict[str, tuple[int, int]]:
        """Passes and totals by level."""
        return _tally((r.level, r.passed) for r in self.results)

    def rates(self) -> tuple[dict[str, Fraction], Fraction]:
        """Exact pass rates by level, plus the overall rate."""
        return aggregate((r.level, r.passed) for r in self.results)

    def to_json(self) -> str:
        counts = self.counts()
        passed = sum(p for p, _ in counts.values())
        obj = {
            "model": self.model,
            "k": self.k,
            "corpus_size": len(self.results),
            "results": [
                {"name": r.name, "topic": r.topic, "level": r.level,
                 "tier": r.tier, "passed": r.passed,
                 "attempts_used": r.attempts_used}
                for r in self.results
            ],
            "aggregates": {
                "by_level": {
                    lvl: {"passed": counts[lvl][0], "total": counts[lvl][1],
                          "rate": percent(*counts[lvl])}
                    for lvl in sorted(counts, key=_level_sort_key)
                },
                "overall": {
                    "passed": passed,
                    "total": len(self.results),
                    "rate": percent(passed, len(self.results)),
                },
            },
        }
        return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _tally(level_passed_pairs) -> dict[str, tuple[int, int]]:
    """Passes and totals grouped by level, in one pass."""
    counts: dict[str, list[int]] = {}
    for level, passed in level_passed_pairs:
        c = counts.setdefault(level or _UNLEVELED, [0, 0])
        c[0] += int(passed)
        c[1] += 1
    if not counts:
        raise ValueError("cannot aggregate an empty result set")
    return {lvl: (c[0], c[1]) for lvl, c in counts.items()}


def aggregate(level_passed_pairs) -> tuple[dict[str, Fraction], Fraction]:
    """Exact pass rates grouped by level, plus the overall rate."""
    counts = _tally(level_passed_pairs)
    by_level = {lvl: Fraction(p, t) for lvl, (p, t) in counts.items()}
    return by_level, Fraction(sum(p for p, _ in counts.values()),
                              sum(t for _, t in counts.values()))


def run_eval(entries, binding: BuiltinProver | ExternalProver, k: int = 1,
             jobs: int = 1, db: UnitDatabase | None = None,
             ) -> tuple[EvalReport, tuple[AttemptRecord, ...]]:
    """Evaluate a prover over corpus entries with pass@k semantics.

    Returns the deterministic report and the timed attempt log, both in
    entry order.  An :class:`ExternalProver` gets up to ``k`` attempts per
    entry on up to ``jobs`` processes at once; a :class:`BuiltinProver`
    gets one attempt per entry, one entry after another, whatever ``k``
    and ``jobs`` are.  Everything runs in the calling thread, so an
    exception there, such as Ctrl-C's KeyboardInterrupt, ends the run at
    once.
    """
    entries = tuple(entries)
    if not entries:
        raise ValueError("no entries to evaluate")
    if k < 1:
        raise ValueError("k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    db = db or builtin_database()
    logs: list[list[AttemptRecord]] = [[] for _ in entries]

    def settle(i: int, started: float, script: str | None,
               reason: str | None) -> bool:
        """Verify and log an attempt at entry ``i``: does it get another?"""
        entry, log = entries[i], logs[i]
        if reason is None:
            try:
                if not verify_script_text(entry, script, db):
                    reason = "script did not verify"
            except Exception as exc:
                reason = str(exc) or type(exc).__name__
        wall_ms = (time.monotonic() - started) * 1000.0
        log.append(AttemptRecord(entry.name, len(log) + 1, reason is None,
                                 reason, wall_ms))
        return reason is not None and len(log) < k

    if isinstance(binding, ExternalProver):
        _run_external(binding, entries, jobs, settle)
    else:
        for i, entry in enumerate(entries):
            started = time.monotonic()
            try:
                script, reason = binding.attempt(entry), None
            except Exception as exc:
                script, reason = None, str(exc) or type(exc).__name__
            settle(i, started, script, reason)

    results = tuple(EntryResult(e.name, e.topic, e.level or _UNLEVELED,
                                e.tier.value, log[-1].passed, len(log))
                    for e, log in zip(entries, logs))
    attempt_log = tuple(rec for log in logs for rec in log)
    return EvalReport(binding.name, k, results), attempt_log


# -- rendering and comparison ----------------------------------------------------


def render_report(report: EvalReport) -> str:
    """Human-readable summary; rates joined as 'lvl | lvl | ... | overall'."""
    counts = report.counts()
    levels = sorted(counts, key=_level_sort_key)
    rate_line = " | ".join([percent(*counts[lvl]) for lvl in levels]
                           + [percent(sum(p for p, _ in counts.values()),
                                      len(report.results))])
    legend = " | ".join(levels + ["overall"])
    lines = [
        f"model: {report.model}   pass@{report.k}   "
        f"entries: {len(report.results)}",
        f"pass rate: {rate_line}   ({legend})",
    ]
    for r in report.results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"  [{mark}] {r.topic}/{r.name} (level {r.level},"
                     f" tier {r.tier}, attempts {r.attempts_used})")
    return "\n".join(lines)


def render_attempt_log(attempts) -> str:
    lines = []
    for a in attempts:
        status = "pass" if a.passed else f"fail ({a.reason})"
        lines.append(f"{a.entry} attempt {a.attempt}: {status}"
                     f" [{a.wall_ms:.1f} ms]")
    return "\n".join(lines)


def improvement_delta(before: EvalReport,
                      after: EvalReport) -> dict[str, str]:
    """Per-level and overall rate change between two runs of one model.

    Raises MismatchedModels when the reports name different models, and
    ValueError when they do not cover the same corpus entries.
    """
    if before.model != after.model:
        raise MismatchedModels(
            f"cannot compare runs of {before.model!r} and {after.model!r}")
    if ({r.name for r in before.results} != {r.name for r in after.results}):
        raise ValueError("the two reports cover different corpus entries")
    rates_before, overall_before = before.rates()
    rates_after, overall_after = after.rates()
    delta = {lvl: _delta_percent(rates_after[lvl] - rates_before[lvl])
             for lvl in sorted(rates_before, key=_level_sort_key)}
    delta["overall"] = _delta_percent(overall_after - overall_before)
    return delta
