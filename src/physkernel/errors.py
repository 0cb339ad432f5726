"""Exception hierarchy for the physkernel package.

Every error raised by the package's own semantics derives from
:class:`PhysKernelError`, so callers can catch the package's failures without
also swallowing programming errors.  Class names follow the operation that
raises them rather than a blanket ``...Error`` suffix, in the style of
computer-algebra exception vocabularies.
"""

from __future__ import annotations


class PhysKernelError(Exception):
    """Base class for all errors raised by physkernel semantics."""


class DimensionOverflow(PhysKernelError):
    """A dimension exponent left the 64-bit reduced-rational range."""


class DimensionMismatch(PhysKernelError):
    """An operation required equal dimensions and got different ones.

    Carries the two dimensions so callers can render a precise diagnostic.
    """

    def __init__(self, expected, found, context: str = ""):
        self.expected = expected
        self.found = found
        self.context = context
        where = f" in {context}" if context else ""
        super().__init__(
            f"dimension mismatch{where}: expected {expected.render()}, "
            f"found {found.render()}"
        )


class DivisionByZero(PhysKernelError):
    """Division (or a negative power) of a zero quantity.

    The package deliberately rejects zero divisors instead of adopting the
    total-division convention (x / 0 = 0) used by some proof assistants.
    """


class NegativeBaseRationalExponent(PhysKernelError):
    """A non-integer power was applied to a non-positive base."""


class DomainError(PhysKernelError):
    """A builtin function was evaluated outside its domain (e.g. log of 0),
    or a value overflowed the decimal exponent range."""


class InvalidCast(PhysKernelError):
    """A cast between dimensions that are not equal."""

    def __init__(self, found, target):
        self.found = found
        self.target = target
        super().__init__(
            f"invalid cast: value of dimension {found.render()} cannot be cast "
            f"to {target.render()}"
        )


def did_you_mean(name: str, pool) -> str:
    """The " (did you mean: ...?)" suffix naming the names of ``pool``
    closest to ``name``, or "" when none is close."""
    import difflib  # only an error message needs it
    hints = difflib.get_close_matches(name, pool, n=3)
    return f" (did you mean: {', '.join(hints)}?)" if hints else ""


class UnknownIdentifier(PhysKernelError):
    """A unit/prefix/constant/kind name not present in the database."""

    def __init__(self, name: str, category: str, pool=()):
        self.name = name
        self.category = category
        super().__init__(f"unknown {category} {name!r}"
                         + did_you_mean(name, pool))


class ParseError(PhysKernelError):
    """A syntax or scope error in statement text, with source position."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None,
                 expected: tuple[str, ...] = (), span=None):
        self.line = line if line is not None else getattr(span, "line", 0)
        self.col = col if col is not None else getattr(span, "col", 0)
        line, col = self.line, self.col
        self.expected = expected
        self.span = span
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += f" (expected {' | '.join(expected)})"
        super().__init__(detail)


class UnboundVariable(PhysKernelError):
    """Numeric evaluation reached a variable with no binding."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class UnsupportedNode(PhysKernelError):
    """ring_equal met input outside the rational-function fragment: a node
    the ring cannot interpret, or an ``env`` that defines a variable in terms
    of itself (an infinite term)."""


class NotPolynomial(PhysKernelError):
    """A function body is not polynomial in its argument variable."""


class EliminationBudgetExceeded(PhysKernelError):
    """The ring elimination search ran past one of its budgets, which the
    reason names (``ELIM_NODE_BUDGET`` or ``ELIM_TERM_BUDGET``)."""

    def __init__(self, budget_name: str, budget: int, spent: str):
        self.budget = budget
        super().__init__(
            f"the elimination search {spent}, past its {budget_name} of "
            f"{budget}, without reducing the goal to zero")


class MalformedScript(PhysKernelError):
    """A derivation script is structurally unusable at some step."""

    def __init__(self, message: str, step_index: int | None = None):
        self.step_index = step_index
        where = f"step {step_index}: " if step_index is not None else ""
        super().__init__(where + message)


class CorpusValidationError(PhysKernelError):
    """One or more corpus files failed to validate; aggregates every problem
    found in a single pass so a broken corpus can be repaired all at once."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("corpus validation failed:\n"
                         + "\n".join(f"  - {p}" for p in self.problems))


class MismatchedModels(PhysKernelError):
    """improvement_delta got two run sets keyed by different model names."""
