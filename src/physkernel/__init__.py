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

import importlib

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, names_by_module: dict[str, str]) -> None:
    """Export, from the package whose globals are ``namespace``, each name
    listed under the module of that package which defines it.

    A name is imported on its first access (PEP 562), so importing a package
    loads no layer, and each command-line subcommand loads only the layers
    it runs.  Sets the package's ``_EXPORTS`` (name to module), ``__all__``,
    ``__getattr__`` and ``__dir__``.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in names_by_module.items()
               for name in names.split()}

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(
            importlib.import_module(f"{package}.{exports[name]}"), name)
        namespace[name] = value  # later accesses are plain lookups
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    namespace.update(_EXPORTS=exports, __all__=list(exports),
                     __getattr__=__getattr__, __dir__=__dir__)


_lazy_exports(globals(), {
    "dimension": "BaseDim Dimension DIMENSIONLESS",
    "quantity": "Approx NumComparison PRECISION Quantity REL_TOL"
                " compare_values",
    "unitdb": "Topic UnitDatabase builtin_database",
    "errors": "CorpusValidationError DimensionMismatch DivisionByZero"
              " DomainError EliminationBudgetExceeded InvalidCast"
              " MalformedScript MismatchedModels NotPolynomial ParseError"
              " PhysKernelError UnboundVariable UnknownIdentifier"
              " UnsupportedNode",
    "lang.nodes": "Statement ast_eq",
    "lang.parser": "parse_expression parse_prop parse_statement",
    "lang.printer": "print_expr print_prop print_statement",
    "checker.dims": "DimReport check_dimensions resolve_statement",
    "checker.evaluate": "eval_numeric",
    "checker.ring": "ring_equal",
    "checker.script": "parse_script print_script",
    "checker.prover": "Proved Refuted Unknown Verdict auto_prove"
                      " check_derivation",
    "corpus": "CorpusEntry Tier corpus_stats load_corpus",
    "harness": "AttemptRecord BuiltinProver EvalReport ExternalProver"
               " aggregate improvement_delta render_report run_eval",
})
