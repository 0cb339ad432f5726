"""One workload in a fresh interpreter: set-up, the timed loop, the checks.

``bench/run.py`` starts this script; it is not meant to be run by hand.
It runs from the root of a checkout with ``src`` on ``PYTHONPATH`` and
prints, as its last line, a JSON object with the raw metrics.

Set-up (the ``setup_s`` interval) starts before ``physkernel`` is imported
and ends after input generation and one warm-up pass.  The timed loop is
closed: one client, no threads, the next unit of work starts when the last
one has finished.  Every outcome is checked against a known answer; a
wrong answer ends the run with exit code 1.

Set-up and every unit of work are timed in CPU seconds (``cpu_s``): the
work runs on one thread, or in one child process at a time, so on an idle
core that is its wall-clock time, while on a host shared with other tenants
wall-clock time also counts the time the core spent on their work.  The
run's length (``--seconds``) is wall-clock time, and each run prints both
totals.

CPU time still moves with the host's speed (clock frequency, caches shared
with other tenants): the same unit cost up to 40% more in one run than in
another a minute later.  So the timed loop also runs ``speed_probe``, a
fixed piece of work that uses no physkernel code, every ``PROBE_EVERY_S``,
and ``bench/run.py`` scales the run's times by the probe's median.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time


def cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


SETUP_START = cpu_s()
PROBE_EVERY_S = 1.0


def speed_probe() -> float:
    """CPU seconds of a fixed piece of pure-Python work (about 50 ms).

    Powers of a sparse polynomial with big ``Fraction`` coefficients, kept
    in dicts keyed by exponent tuples: the kind of work the checker does,
    with a working set of thousands of objects, so a slower or more
    contended host slows it as it slows the units.  (A smaller probe whose
    working set fit in the fastest caches sped up by 1.8x in a fast spell
    of the host while the units sped up by 1.5x.)
    """
    start = process_time()
    factor = {(i, 7 - i % 8, i % 3): Fraction(3 ** (i % 40) + i, 7 + i)
              for i in range(40)}
    acc = {(0, 0, 0): Fraction(1)}
    for _ in range(3):
        product: dict = {}
        for (a, b, c), x in acc.items():
            for (d, e, f), y in factor.items():
                key = (a + d, b + e, c + f)
                product[key] = product.get(key, 0) + x * y
        acc = product
    return process_time() - start

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH / "expected" / "corpus.json").read_text("utf-8"))


class WrongAnswer(Exception):
    """The program contradicted a known answer."""


def _check_corpus(names) -> None:
    if sorted(names) != sorted(EXPECTED):
        raise SystemExit("the corpus and bench/expected/corpus.json list "
                         "different entries")


def _load_physkernel():
    import physkernel
    from physkernel import corpus, harness, unitdb
    from physkernel.checker import dims, prover, script
    from physkernel.lang import parser
    location = Path(physkernel.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"physkernel was imported from {location}, "
                         f"not from {ROOT / 'src'}")
    return dict(corpus=corpus, harness=harness, unitdb=unitdb, dims=dims,
                prover=prover, script=script, parser=parser,
                error=physkernel.PhysKernelError)


# -- grading ------------------------------------------------------------------

#: For each known answer, the outcomes that contradict it.
CONTRADICTS = {
    "proved": {"refuted"},
    "refuted": {"proved"},
    "unknown": {"proved", "refuted"},
    "homogeneous": {"inhomogeneous"},
    "inhomogeneous": {"homogeneous"},
    "decided": {"refuted"},
}


def grade(expect: str, got: str, what: str) -> bool:
    """True when ``got`` is the known answer, False when it is weaker.

    Raises WrongAnswer when it contradicts the known answer.
    """
    if got in CONTRADICTS[expect]:
        raise WrongAnswer(f"{what}: expected {expect}, got {got}")
    if expect == "decided":
        return got in ("proved", "unknown", "typed-error")
    return got == expect


# -- workloads ----------------------------------------------------------------


class CorpusEval:
    """One pass@1 ``run_eval`` of the bundled corpus with ``BuiltinProver``."""

    name = "corpus-eval"
    block = 1

    def __init__(self, seed: int, part: int, traced: bool):
        pass  # the corpus is fixed; the seed changes nothing

    def setup(self) -> None:
        pk = self.pk = _load_physkernel()
        self.db = pk["unitdb"].builtin_database()
        self.entries = pk["corpus"].load_corpus(ROOT / "corpus", self.db)
        _check_corpus(e.name for e in self.entries)
        self.run("pass")

    def operations(self):
        return itertools.repeat("pass")

    def family(self, op) -> str:
        return op

    def run(self, op) -> tuple[bool, int]:
        harness = self.pk["harness"]
        report, _ = harness.run_eval(self.entries,
                                     harness.BuiltinProver(self.db),
                                     k=1, jobs=1, db=self.db)
        decided = 0
        for result in report.results:
            # A pass means the script replayed, so it is never wrong for a
            # corpus theorem; a miss on a provable entry is a weaker answer.
            if result.passed or EXPECTED[result.name]["kind"] != "proved":
                decided += 1
        return decided == len(self.entries), decided

    def final_check(self) -> None:
        """Every verdict, its approximation flag and its replay."""
        pk = self.pk
        for entry in self.entries:
            known = EXPECTED[entry.name]
            verdict = pk["prover"].auto_prove(entry.statement, self.db)
            what = f"corpus entry {entry.name}"
            grade(known["kind"], verdict.kind, what)
            if verdict.kind == "proved":
                _check_replay(pk, entry.statement, verdict, self.db, what,
                              known.get("approx_decided", False))

    def traced_setup(self, tracer: Tracer) -> dict[str, float]:
        tracer.install()
        try:
            self.pk["corpus"].load_corpus(ROOT / "corpus", self.db)
        finally:
            tracer.uninstall()
        return {"corpus.load_ms": 1000 * tracer.incl_s["corpus"],
                "corpus.parse_ms": 1000 * tracer.self_s["parser"]}


def _check_replay(pk, stmt, verdict, db, what: str, approx: bool) -> None:
    script = pk["script"]
    try:
        steps = script.parse_script(script.print_script(verdict.steps),
                                    stmt, db)
        replayed = pk["prover"].check_derivation(stmt, steps, db)
    except pk["error"] as exc:
        raise WrongAnswer(f"{what}: the proof script does not replay "
                          f"({exc})") from None
    if replayed.kind != "proved":
        raise WrongAnswer(f"{what}: the proof script does not replay "
                          f"({replayed.kind})")
    for flag in (verdict.approx_decided, replayed.approx_decided):
        if flag != approx:
            raise WrongAnswer(f"{what}: approx_decided is {flag}, "
                              f"expected {approx}")


class Generated:
    """``ring-stress`` and ``frontend-deep``: seeded generated statements.

    The over-limit family runs in the traced run only (see ``bench/gen.py``).
    """

    def __init__(self, name: str, seed: int, part: int, traced: bool):
        self.name = name
        self.seed = seed
        self.part = part
        self.overlimit = traced
        self.block = gen.block_size(name, traced)
        self.failures: Counter = Counter()

    def setup(self) -> None:
        self.pk = _load_physkernel()
        self.db = self.pk["unitdb"].builtin_database()
        self.stream = gen.operations(self.name, self.seed, self.part,
                                     self.overlimit)
        for op in gen.BLOCKS[self.name][1]():
            self.run(op)
        self.failures.clear()

    def operations(self):
        return self.stream

    def family(self, op: gen.Op) -> str:
        return op.family

    def decide(self, op: gen.Op) -> str:
        pk = self.pk
        stmt = pk["parser"].parse_statement(op.text, self.db)
        if op.kind == "dims":
            dims = pk["dims"]
            resolved = dims.resolve_statement(stmt, self.db)
            report = dims.check_dimensions(resolved, self.db)
            return "homogeneous" if report.homogeneous else "inhomogeneous"
        verdict = pk["prover"].auto_prove(stmt, self.db)
        if verdict.kind == "proved":
            # Generated statements are exact rational identities.
            _check_replay(pk, stmt, verdict, self.db, op.family, False)
        return verdict.kind

    def run(self, op: gen.Op) -> tuple[bool, int]:
        try:
            got = self.decide(op)
        except self.pk["error"]:
            got = "typed-error"
        except WrongAnswer:
            raise
        except Exception as exc:  # an untyped failure is measured, not fatal
            self.failures[f"{op.family}: {type(exc).__name__}"] += 1
            got = "untyped-error"
        ok = grade(op.expect, got, f"{op.family} operation")
        return ok, int(ok)

    def final_check(self) -> None:
        pass


VERDICT_EXIT = {"proved": 0, "unknown": 1, "refuted": 2}  # the CLI's codes


class CliCold:
    """Sequential cold CLI processes: check, prove x2, verify-script, eval."""

    name = "cli-cold"
    block = 5  # check, prove (proved), prove (unknown), verify-script, eval

    def __init__(self, seed: int, part: int, traced: bool):
        self.rng = random.Random(f"cli-cold/{seed}/{part}")
        self.proofs: set[tuple[str, str]] = set()

    def setup(self) -> None:
        self.files = {p.stem: p for p in (ROOT / "corpus").glob("*/*.phys")}
        _check_corpus(self.files)
        self.provable = [n for n in sorted(EXPECTED)
                         if EXPECTED[n]["kind"] == "proved"]
        self.unknown = [n for n in sorted(EXPECTED)
                        if EXPECTED[n]["kind"] == "unknown"]
        self.scripts = sorted((BENCH / "scripts").glob("*.script"))
        self.run(("check", self.provable[0]))

    def operations(self):
        def cycle(names):
            """Every name once, in a seeded order, then again."""
            names = sorted(names)
            while True:
                self.rng.shuffle(names)
                yield from names

        checks, proofs, unknowns = (cycle(self.files), cycle(self.provable),
                                    cycle(self.unknown))
        scripts = cycle(p.stem for p in self.scripts)
        while True:
            yield ("check", next(checks))
            yield ("prove", next(proofs))
            yield ("prove", next(unknowns))
            yield ("verify-script", next(scripts))
            yield ("eval", "corpus")

    def family(self, op) -> str:
        command, target = op
        if command == "prove":
            return f"prove_{EXPECTED[target]['kind']}"
        return command.replace("-", "_")

    def cli(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "physkernel.cli", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120)

    def run(self, op) -> tuple[bool, int]:
        command, target = op
        if command == "eval":
            proc = self.cli("eval", str(ROOT / "corpus"), "--format", "json")
        elif command == "verify-script":
            proc = self.cli("verify-script", str(self.files[target]),
                            str(BENCH / "scripts" / f"{target}.script"),
                            "--format", "json")
        else:
            proc = self.cli(command, str(self.files[target]),
                            "--format", "json")
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return False, 0
        what = f"{command} {target}"
        known = EXPECTED.get(target, {})
        if command == "check":
            got = "homogeneous" if out["homogeneous"] else "inhomogeneous"
            ok = grade("homogeneous", got, what) and proc.returncode == 0
        elif command == "eval":
            ok = proc.returncode == 0
            for result in out["results"]:
                if EXPECTED[result["name"]]["kind"] == "proved":
                    ok = ok and result["passed"]
        else:
            expect = "proved" if command == "verify-script" else known["kind"]
            ok = grade(expect, out["verdict"], what) and (
                proc.returncode == VERDICT_EXIT[out["verdict"]])
            if out["verdict"] == "proved":
                if out["approx_decided"] != known.get("approx_decided", False):
                    raise WrongAnswer(f"{what}: approx_decided is "
                                      f"{out['approx_decided']}")
                if command == "prove":
                    self.proofs.add((target, out["script"]))
        return ok, int(ok)

    def final_check(self) -> None:
        """Replay every script the CLI printed, in process."""
        pk = _load_physkernel()
        db = pk["unitdb"].builtin_database()
        for target, text in sorted(self.proofs):
            stmt = pk["parser"].parse_statement(
                self.files[target].read_text("utf-8"), db)
            steps = pk["script"].parse_script(text, stmt, db)
            replayed = pk["prover"].check_derivation(stmt, steps, db)
            if replayed.kind != "proved":
                raise WrongAnswer(f"prove {target}: the printed script "
                                  "does not replay")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {
    "corpus-eval": CorpusEval,
    "ring-stress": lambda *args: Generated("ring-stress", *args),
    "frontend-deep": lambda *args: Generated("frontend-deep", *args),
    "cli-cold": CliCold,
}


# -- measurement --------------------------------------------------------------


class Segment:
    """Units of work run in order, with each one's family and outcome."""

    def __init__(self):
        self.ops: list = []
        self.samples: list[tuple[str, float, bool, int]] = []
        self.probes: list[float] = []
        self.wall_s = 0.0

    @property
    def ok(self) -> list[bool]:
        return [s[2] for s in self.samples]

    @property
    def busy_s(self) -> float:
        return sum(s[1] for s in self.samples)

    def mix(self) -> str:
        counts = Counter(s[0] for s in self.samples)
        return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def measure(wl, ops, deadline: float | None = None,
            tracer: Tracer | None = None, probe: bool = False) -> Segment:
    """Run ``ops``, or whole blocks of them until about ``deadline``.

    Stopping only between blocks keeps every run's mix of families and sizes
    the designed one; the run stops when one more block would probably end
    more than half a block past the deadline.  With ``probe``, the speed
    probe runs between units every ``PROBE_EVERY_S`` of wall-clock time.
    """
    seg = Segment()
    wall_start = last_probe = perf_counter()
    if probe:
        seg.probes.append(speed_probe())
    for i, op in enumerate(ops):
        if deadline is not None and i and i % wl.block == 0:
            now = perf_counter()
            if now + (now - wall_start) / (i // wl.block) / 2 >= deadline:
                break
        if probe and perf_counter() - last_probe >= PROBE_EVERY_S:
            seg.probes.append(speed_probe())
            last_probe = perf_counter()
        start = cpu_s()
        if tracer is None:
            ok, decided = wl.run(op)
        else:
            with tracer.span("op"):
                ok, decided = wl.run(op)
        seg.samples.append((wl.family(op), cpu_s() - start, ok, decided))
        seg.ops.append(op)
    seg.wall_s = perf_counter() - wall_start
    return seg


# -- traced run ---------------------------------------------------------------

LAYER_MS = {  # metric -> span names whose self time it sums
    "parser.ms": ["parser"],
    "dims.resolve_ms": ["dims.resolve"],
    "dims.check_ms": ["dims.check"],
    "rewrite.subst_ms": ["rewrite.subst"],
    "rewrite.free_vars_ms": ["rewrite.free_vars"],
    "rewrite.other_ms": ["rewrite.other"],
    "ring.translate_ms": ["ring.translate"],
    "ring.eliminate_ms": ["ring.eliminate"],
    "ring.coeff_ms": ["ring.coeff"],
    "ring.canonical_ms": ["ring.canonical"],
    "evaluate.ms": ["evaluate"],
    "prover.self_ms": ["prover"],
    "replay.self_ms": ["replay"],
    "script.print_ms": ["script.print"],
    "script.parse_ms": ["script.parse"],
    "harness.self_ms": ["harness"],
    "trace.unattributed_ms": ["op"],
}
LAYER_CALLS = {  # metric -> span names whose calls it sums
    "parser.calls": ["parser"],
    "dims.calls": ["dims.resolve", "dims.check"],
    "rewrite.subst_calls": ["rewrite.subst"],
    "rewrite.free_vars_calls": ["rewrite.free_vars"],
    "ring.translate_calls": ["ring.translate"],
    "ring.eliminate_calls": ["ring.eliminate"],
    "ring.coeff_calls": ["ring.coeff"],
    "ring.canonical_calls": ["ring.canonical"],
    "evaluate.calls": ["evaluate"],
}
LAYER_COUNTS = ["parser.nodes", "prover.steps", "prover.verdict.proved",
                "prover.verdict.refuted", "prover.verdict.unknown",
                "harness.attempts"]


def layer_metrics(tracer: Tracer, n: int) -> dict[str, float]:
    tracer.count_parsed()
    out = {}
    for metric, names in LAYER_MS.items():
        out[metric] = 1000 * sum(tracer.self_s[s] for s in names) / n
    for metric, names in LAYER_CALLS.items():
        out[metric] = sum(tracer.calls[s] for s in names) / n
    for metric in LAYER_COUNTS:
        out[metric] = tracer.counts[metric] / n
    parse_s = tracer.self_s["parser"]
    out["parser.tokens_per_s"] = (tracer.counts["parser.tokens"] / parse_s
                                  if parse_s else 0.0)
    out["ring.poly_terms_max"] = tracer.counts["ring.poly_terms_max"]
    searches = tracer.calls["ring.eliminate"]
    out["ring.eliminate_found_ratio"] = (
        tracer.counts["ring.eliminate_found"] / searches if searches else 0.0)
    layer_spans = sum(tracer.calls.values()) - tracer.calls["op"]
    layer_spans -= tracer.calls["trace.observe"]
    out["trace.spans_per_op"] = layer_spans / n
    out["trace.observe_ms"] = 1000 * tracer.self_s["trace.observe"] / n
    return out


def _time_decision(pk, db, text: str) -> tuple[float, str]:
    """Parse and prove once, untraced; the outcome or the failure's type."""
    start = cpu_s()
    try:
        stmt = pk["parser"].parse_statement(text, db)
        outcome = pk["prover"].auto_prove(stmt, db).kind
    except pk["error"] as exc:
        outcome = f"typed {type(exc).__name__}"
    except Exception as exc:  # the failure type is the measurement
        outcome = type(exc).__name__
    return 1000 * (cpu_s() - start), outcome


def scaling_sweep(wl) -> tuple[dict[str, float], list[str]]:
    """The ROADMAP scaling families, once each, without a gate."""
    points = {
        "ring-stress": [
            *[(f"pow_n{n}", gen.pow_text(n)) for n in (50, 100, 200)],
            *[(f"elim_k{k}", gen.unrelated_text(k)) for k in (3, 4, 5)]],
        "frontend-deep": [
            *[(f"sum_d{d}", gen.sum_text(d)) for d in range(100, 1000, 100)],
            *[(f"chain_l{n}", gen.def_chain_text(n, random.Random(n)))
              for n in (5, 10, 15, 20)]],
    }.get(wl.name, [])
    # The smallest sum depth that fails untyped; 1000 when none up to 900 does.
    out, lines, fail_from = {}, [], 1000
    for label, text in points:
        ms, outcome = _time_decision(wl.pk, wl.db, text)
        out[f"scaling.{label}_ms"] = ms
        lines.append(f"scaling {label}: {outcome} in {ms:.1f} ms")
        decided = outcome.startswith(("proved", "unknown", "refuted", "typed"))
        if label.startswith("sum_d") and not decided and fail_from == 1000:
            fail_from = int(label[5:])
    if points:
        def ratio(a: str, b: str) -> float:
            return out[f"scaling.{a}_ms"] / out[f"scaling.{b}_ms"]
        if wl.name == "ring-stress":
            out["scaling.pow_n200_over_n100"] = ratio("pow_n200", "pow_n100")
            out["scaling.elim_k4_over_k3"] = ratio("elim_k4", "elim_k3")
            out["scaling.elim_k5_over_k4"] = ratio("elim_k5", "elim_k4")
        else:
            out["scaling.sum_d400_over_d200"] = ratio("sum_d400", "sum_d200")
            out["scaling.chain_l20_over_l10"] = ratio("chain_l20", "chain_l10")
            out["scaling.sum_fail_from"] = fail_from
    return out, lines


def cli_probes(repeats: int = 5) -> dict[str, float]:
    """Package import time and bare CLI start-up, each in fresh processes."""
    code = ("import time; t = time.process_time(); import physkernel.cli; "
            "print(time.process_time() - t)")
    imports, startups = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        imports.append(float(proc.stdout))
        start = cpu_s()
        subprocess.run([sys.executable, "-m", "physkernel.cli", "--help"],
                       cwd=ROOT, capture_output=True, timeout=60, check=True)
        startups.append(cpu_s() - start)
    return {"cli.import_ms": 1000 * statistics.median(imports),
            "cli.startup_ms": 1000 * statistics.median(startups)}


#: Blocks of units in a traced run: a fixed number, so its attempted and
#: failed counts depend neither on the seed nor on the host's speed.  A
#: traced run takes 10-40 s on a 2-core host.
TRACE_BLOCKS = {"corpus-eval": 40, "ring-stress": 5, "frontend-deep": 10,
                "cli-cold": 3}


def traced_run(wl) -> tuple[dict, list[str], Segment]:
    """Untraced reference, then the same units traced; then the sweep."""
    tracer = Tracer()
    metrics = {}
    units = itertools.islice(wl.operations(),
                             TRACE_BLOCKS[wl.name] * wl.block)
    if hasattr(wl, "traced_setup"):
        metrics.update(wl.traced_setup(tracer))
    if not isinstance(wl, CliCold):
        reference = measure(wl, units)
        tracer.reset()
        tracer.install()
        try:
            seg = measure(wl, reference.ops, tracer=tracer)
        finally:
            tracer.uninstall()
        n = len(seg.ops)
        metrics.update(layer_metrics(tracer, n))
        metrics["trace.overhead_share"] = seg.busy_s / reference.busy_s - 1
        metrics["trace.hooks_absent"] = len(tracer.absent)
        sweep, lines = scaling_sweep(wl)
        metrics.update(sweep)
    else:
        seg = measure(wl, units)
        by_family: dict[str, list[float]] = {}
        for family, latency, _, _ in seg.samples:
            by_family.setdefault(family, []).append(latency)
        for family, lats in by_family.items():
            metrics[f"cli.{family}_ms"] = 1000 * statistics.median(lats)
        lines = []
    metrics.update(cli_probes())
    metrics["failed_share"] = seg.ok.count(False) / len(seg.ok)
    lines.append(f"traced mix: {seg.mix()}")
    lines += [f"hook absent: {target}" for target in tracer.absent]
    if tracer.counts["trace.unobserved"]:
        lines.append(f"results that could not be observed: "
                     f"{tracer.counts['trace.unobserved']}")
    return metrics, lines, seg


# -- entry point --------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0,
                    help="which of the run's measuring processes this is")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--blocks", type=int, default=0,
                    help="measure this many blocks instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.part, bool(args.trace))
    result = {"correct": True}
    try:
        wl.setup()
        result["setup_s"] = cpu_s() - SETUP_START
        wl.final_check()
        if args.trace:
            metrics, lines, seg = traced_run(wl)
            result.update(attempted=len(seg.ok), failed=seg.ok.count(False),
                          metrics=metrics)
        else:
            if args.blocks:
                ops, deadline = itertools.islice(
                    wl.operations(), args.blocks * wl.block), None
            else:
                ops, deadline = wl.operations(), perf_counter() + args.seconds
            seg = measure(wl, ops, deadline, probe=True)
            rss = getattr(wl, "peak_rss_mb", lambda: resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)()
            lines = []
            result.update(samples=seg.samples, probes=seg.probes,
                          blocks=len(seg.samples) // wl.block,
                          peak_rss_mb=rss, wall_s=seg.wall_s,
                          failures=getattr(wl, "failures", {}))
        wl.final_check()
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False}))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
