"""Span wrappers at the call sites of physkernel's public entry points.

Only the traced run installs them.  Each hook replaces one name in the
module (or class) through which the program calls it, for example
``check_dimensions`` in ``physkernel.checker.prover``, the name the prover
imported, so every call made through that name opens a span.  A span's
self time is its duration minus the time of the spans it contains, in CPU
time like every timing of the benchmark; the benchmark wraps each
operation in a root span ``op``, whose self time is the unattributed
remainder.  A hook whose target no longer exists is recorded as absent.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import process_time


def _observe_parse(tracer, args, result):
    tracer.parsed.append((args[0], result))


def _observe_terms(tracer, args, result):
    rf = getattr(result, "rf", result)
    tracer.counts["ring.poly_terms_max"] = max(
        tracer.counts["ring.poly_terms_max"], len(rf.num) + len(rf.den))


def _observe_eliminate(tracer, args, result):
    tracer.counts["ring.eliminate_found"] += result is not None


def _observe_verdict(tracer, args, result):
    tracer.counts[f"prover.verdict.{result.kind}"] += 1
    if result.kind == "proved":
        tracer.counts["prover.steps"] += len(result.steps)


def _observe_eval(tracer, args, result):
    tracer.counts["harness.attempts"] += len(result[1])


P = "physkernel."
#: (span name or None for no span, module, attribute path, observer run
#: after the span closes)
HOOKS = [
    ("parser", P + "lang.parser", "parse_statement", _observe_parse),
    ("parser", P + "corpus", "parse_statement", _observe_parse),
    ("dims.resolve", P + "checker.dims", "resolve_statement", None),
    ("dims.resolve", P + "checker.prover", "resolve_statement", None),
    ("dims.check", P + "checker.dims", "check_dimensions", None),
    ("dims.check", P + "checker.prover", "check_dimensions", None),
    ("rewrite.subst", P + "checker.prover", "subst_var", None),
    ("rewrite.free_vars", P + "checker.prover", "free_vars", None),
    ("rewrite.other", P + "checker.prover", "expand_fn", None),
    ("rewrite.other", P + "checker.prover", "rewrite_ground", None),
    ("rewrite.other", P + "checker.prover", "applied_fns", None),
    ("ring.translate", P + "checker.ring", "translate_difference",
     _observe_terms),
    ("ring.eliminate", P + "checker.ring", "eliminate", _observe_eliminate),
    ("ring.coeff", P + "checker.ring", "poly_coeff_eqs", None),
    ("ring.canonical", P + "checker.ring", "RationalFunc.canonical", None),
    # Observed without a span: powers build the largest polynomials.
    (None, P + "checker.ring", "RationalFunc.pow", _observe_terms),
    ("evaluate", P + "checker.prover", "eval_numeric", None),
    ("evaluate", P + "checker.prover", "eval_prop", None),
    ("prover", P + "checker.prover", "auto_prove", _observe_verdict),
    ("prover", P + "harness", "auto_prove", _observe_verdict),
    ("replay", P + "checker.prover", "check_derivation", None),
    ("replay", P + "harness", "check_derivation", None),
    ("script.print", P + "checker.script", "print_script", None),
    ("script.print", P + "harness", "print_script", None),
    ("script.parse", P + "checker.script", "parse_script", None),
    ("script.parse", P + "harness", "parse_script", None),
    ("harness", P + "harness", "run_eval", _observe_eval),
    ("corpus", P + "corpus", "load_corpus", None),
]


class Tracer:
    """Per-span-name self time, inclusive time and call counts, in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.parsed: list = []  # (text, statement), counted after the run
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.self_s, self.incl_s, self.calls, self.counts,
                      self.parsed):
            table.clear()

    def count_parsed(self) -> None:
        """Tokens and AST nodes of every parsed text, outside any span."""
        from physkernel.lang.nodes import children
        from physkernel.lang.parser import tokenize
        for text, stmt in self.parsed:
            self.counts["parser.tokens"] += len(tokenize(text))
            stack = [p for _, p in stmt.hyps] + [stmt.goal]
            while stack:  # iterative: over-limit inputs are deep
                self.counts["parser.nodes"] += 1
                stack.extend(children(stack.pop()))
        self.parsed.clear()

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        start = process_time()
        try:
            yield
        finally:
            elapsed = process_time() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.self_s[name] += elapsed - frame[0]
            self.incl_s[name] += elapsed
            self.calls[name] += 1

    def _wrap(self, name, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if observe is not None:
                # Observation is tracing cost: keep it out of the caller's
                # self time.
                with tracer.span("trace.observe"):
                    try:
                        observe(tracer, args, result)
                    except (AttributeError, TypeError):
                        tracer.counts["trace.unobserved"] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hook target that exists; note the others as absent."""
        self.absent = []
        for name, module, path, observe in HOOKS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, observe))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []
