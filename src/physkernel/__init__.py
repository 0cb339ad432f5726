"""physkernel: exact dimensional analysis and checkable derivations.

The package has four layers, each usable on its own:

* :mod:`physkernel.dimension` / :mod:`physkernel.quantity` — exact
  dimension vectors over the seven SI base dimensions, and dimensioned
  quantities whose values are exact rationals or precision-tracked
  decimals;
* :mod:`physkernel.lang` — a small statement language (declarations,
  hypotheses, goal) with a parser and a canonical printer;
* :mod:`physkernel.checker` — dimension checking, numeric evaluation,
  polynomial/ring reasoning, derivation scripts, and the automatic
  prover;
* :mod:`physkernel.corpus` / :mod:`physkernel.harness` — a benchmark
  corpus format and a pass@k evaluation harness for script-producing
  provers.
"""

from .dimension import BaseDim, Dimension, DIMENSIONLESS  # noqa: F401
from .quantity import (  # noqa: F401
    Approx, NumComparison, PRECISION, Quantity, REL_TOL, compare_values,
)
from .unitdb import Topic, UnitDatabase, builtin_database  # noqa: F401
from .errors import (  # noqa: F401
    CorpusValidationError, DimensionMismatch,
    DivisionByZero, DomainError, EliminationBudgetExceeded, InvalidCast,
    MalformedScript, MismatchedModels, NotPolynomial, ParseError,
    PhysKernelError,
    UnboundVariable, UnknownIdentifier, UnsupportedNode,
)
from .lang import (  # noqa: F401
    Statement, ast_eq, parse_expression, parse_prop, parse_statement,
    print_expr, print_prop, print_statement,
)
from .checker import (  # noqa: F401
    DimReport, Proved, Refuted, Unknown, Verdict, auto_prove,
    check_derivation, check_dimensions, eval_numeric, parse_script,
    print_script, resolve_statement, ring_equal,
)
from .corpus import CorpusEntry, Tier, corpus_stats, load_corpus  # noqa: F401
from .harness import (  # noqa: F401
    AttemptRecord, BuiltinProver, EvalReport, ExternalProver, aggregate,
    improvement_delta, render_report, run_eval,
)

__version__ = "0.1.0"
