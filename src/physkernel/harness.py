"""Evaluation harness: pass@k over a benchmark corpus.

A *prover binding* turns a statement into candidate derivation scripts.
The harness gives each binding up to ``k`` attempts per corpus entry and
independently verifies every returned script with the checker — a claimed
proof counts only if the script actually replays to a proved verdict.  An
entry passes when any of its attempts verifies; attempts stop early at the
first success (and after the first failure for bindings that declare
themselves deterministic, since retrying them cannot change the outcome).

Two bindings ship with the package:

* :class:`BuiltinProver` wraps the automatic prover.  It is deterministic,
  so pass@k equals pass@1.
* :class:`ExternalProver` drives a subprocess speaking a line-JSON
  protocol: one request object per line on stdin, one response object per
  line on stdout.  Requests carry ``{"id", "statement", "attempt"}``; the
  response must echo the ``id`` and give either a ``"script"`` string or
  an ``"error"``.  A crash, malformed response, or timeout counts as a
  failed attempt, and the subprocess is restarted for the next request.

Reports are deliberately timing-free and field-ordered so that the same
run always serializes to the same bytes; wall-clock numbers live only in
the separate attempt log.  Pass rates are kept as exact fractions and
rendered with half-up rounding to two decimals.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .checker.prover import Proved, auto_prove, check_derivation, database_for
from .checker.script import parse_script, print_script
from .corpus import CorpusEntry
from .errors import MismatchedModels, PhysKernelError
from .record import record
from .unitdb import UnitDatabase, builtin_database

__all__ = [
    "AttemptRecord", "BuiltinProver", "EvalReport", "ExternalProver",
    "ProverBinding", "aggregate", "improvement_delta", "percent",
    "render_attempt_log", "render_report", "run_eval", "verify_script_text",
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


# -- prover bindings -------------------------------------------------------------


class ProverBinding:
    """Interface for anything that proposes derivation scripts.

    ``name`` identifies the binding in reports; ``deterministic`` lets the
    harness skip retries that are guaranteed to repeat a failure.  Call
    ``session()`` once per worker thread; sessions are not thread-safe.
    """

    name: str = "unnamed"
    deterministic: bool = False

    def session(self) -> "ProverSession":
        raise NotImplementedError


class ProverSession:
    def attempt(self, entry: CorpusEntry, attempt_no: int) -> str:
        """Return a derivation-script text for the entry's statement.

        Raise any exception to record a failed attempt.
        """
        raise NotImplementedError

    def close(self) -> None:
        pass


class BuiltinProver(ProverBinding):
    """The packaged automatic prover, exposed as an evaluation subject."""

    name = "builtin-auto"
    deterministic = True

    def __init__(self, db: UnitDatabase | None = None):
        self.db = db or builtin_database()

    def session(self) -> ProverSession:
        outer = self

        class _S(ProverSession):
            def attempt(self, entry: CorpusEntry, attempt_no: int) -> str:
                verdict = auto_prove(entry.statement, outer.db)
                if verdict.kind != "proved":
                    raise PhysKernelError(
                        f"automatic prover returned {verdict.kind}")
                return print_script(verdict.steps)

        return _S()


class ExternalProver(ProverBinding):
    """A subprocess prover speaking newline-delimited JSON."""

    def __init__(self, argv: tuple[str, ...], name: str | None = None,
                 timeout: float = 60.0, deterministic: bool = False):
        if not argv:
            raise ValueError("external prover needs a command")
        self.argv = tuple(argv)
        self.name = name or argv[0]
        self.timeout = timeout
        self.deterministic = deterministic

    def session(self) -> ProverSession:
        return _ExternalSession(self)


# Only this session runs processes and threads, so it imports their modules
# itself: the built-in prover's runs never load them.
class _ExternalSession(ProverSession):
    def __init__(self, binding: ExternalProver):
        self.binding = binding
        self.proc: subprocess.Popen | None = None
        self.lines: queue.Queue[str | None] | None = None  # set by _spawn

    def _spawn(self) -> None:
        import queue
        import subprocess
        import threading
        self.proc = subprocess.Popen(
            self.binding.argv, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.lines = queue.Queue()

        def pump(proc: subprocess.Popen, out: queue.Queue) -> None:
            assert proc.stdout is not None
            for line in proc.stdout:
                out.put(line)
            out.put(None)

        threading.Thread(target=pump, args=(self.proc, self.lines),
                         daemon=True).start()

    def _kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def attempt(self, entry: CorpusEntry, attempt_no: int) -> str:
        import queue
        if self.proc is None or self.proc.poll() is not None:
            self._spawn()
        assert self.proc is not None and self.proc.stdin is not None
        request = {"id": f"{entry.name}#{attempt_no}",
                   "statement": entry.text, "attempt": attempt_no}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self._kill()
            raise PhysKernelError(f"prover process died: {exc}") from None
        try:
            line = self.lines.get(timeout=self.binding.timeout)
        except queue.Empty:
            self._kill()
            raise PhysKernelError(
                f"prover timed out after {self.binding.timeout}s") from None
        if line is None:
            self._kill()
            raise PhysKernelError("prover process exited without replying")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            self._kill()
            raise PhysKernelError(f"malformed prover reply: {exc}") from None
        if not isinstance(reply, dict) or reply.get("id") != request["id"]:
            self._kill()
            raise PhysKernelError("prover reply id does not match request")
        if "error" in reply:
            raise PhysKernelError(f"prover reported: {reply['error']}")
        script = reply.get("script")
        if not isinstance(script, str):
            raise PhysKernelError("prover reply carries no script")
        return script

    def close(self) -> None:
        import subprocess
        if self.proc is not None and self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._kill()
        self.proc = None


# -- verification ----------------------------------------------------------------


def verify_script_text(entry: CorpusEntry, script_text: str,
                       db: UnitDatabase | None = None) -> bool:
    """True iff the script text replays to a proved verdict for the entry."""
    db = db or builtin_database()
    try:
        # ``inst`` arguments may name the statement's own constants.
        steps = parse_script(script_text, entry.statement,
                             database_for(entry.statement, db))
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


def run_eval(entries, binding: ProverBinding, k: int = 1, jobs: int = 1,
             db: UnitDatabase | None = None,
             ) -> tuple[EvalReport, tuple[AttemptRecord, ...]]:
    """Evaluate a binding over corpus entries with pass@k semantics.

    Returns the deterministic report and the timed attempt log.  ``jobs``
    parallelizes across entries; each worker thread gets its own prover
    session, so external bindings run one subprocess per worker.  An
    exception in the calling thread, such as Ctrl-C's KeyboardInterrupt,
    surfaces without waiting for the workers, which stop before their next
    entry.
    """
    entries = tuple(entries)
    if k < 1:
        raise ValueError("k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    db = db or builtin_database()

    def evaluate(session: ProverSession,
                 entry: CorpusEntry) -> tuple[EntryResult, list[AttemptRecord]]:
        log: list[AttemptRecord] = []
        passed = False
        for attempt_no in range(1, k + 1):
            started = time.monotonic()
            reason: str | None = None
            try:
                script = session.attempt(entry, attempt_no)
                ok = verify_script_text(entry, script, db)
                if not ok:
                    reason = "script did not verify"
            except Exception as exc:
                ok = False
                reason = str(exc) or type(exc).__name__
            wall_ms = (time.monotonic() - started) * 1000.0
            log.append(AttemptRecord(entry.name, attempt_no, ok, reason,
                                     wall_ms))
            if ok:
                passed = True
                break
            if binding.deterministic:
                break
        result = EntryResult(entry.name, entry.topic,
                             entry.level or _UNLEVELED, entry.tier.value,
                             passed, len(log))
        return result, log

    results: dict[str, EntryResult] = {}
    logs: dict[str, list[AttemptRecord]] = {}

    if jobs == 1:
        session = binding.session()
        try:
            for entry in entries:
                results[entry.name], logs[entry.name] = evaluate(session,
                                                                 entry)
        finally:
            session.close()
    else:
        import queue
        import threading

        # Each worker hands every finished entry, and at its end its error or
        # None, to this thread, which waits for nothing else: Ctrl-C
        # surfaces at once, or when the next entry ends if no signal wakes
        # this thread, and the workers stop before their next entry.
        stop = threading.Event()
        done: queue.SimpleQueue = queue.SimpleQueue()

        def worker(chunk: tuple[CorpusEntry, ...]) -> None:
            error = None
            try:
                session = binding.session()
                try:
                    for entry in chunk:
                        if stop.is_set():
                            break
                        done.put((entry, evaluate(session, entry)))
                finally:
                    session.close()
            except BaseException as exc:  # re-raised in the caller's thread
                error = exc
            done.put((None, error))

        threads = [threading.Thread(target=worker, args=(chunk,))
                   for chunk in (entries[i::jobs] for i in range(jobs))
                   if chunk]
        for t in threads:
            t.start()
        running = len(threads)
        try:
            while running:
                entry, outcome = done.get()
                if entry is not None:
                    results[entry.name], logs[entry.name] = outcome
                elif outcome is not None:
                    raise outcome
                else:
                    running -= 1
        finally:
            stop.set()
        for t in threads:
            t.join()

    ordered = tuple(results[e.name] for e in entries)
    attempt_log = tuple(rec for e in entries for rec in logs[e.name])
    return EvalReport(binding.name, k, ordered), attempt_log


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
