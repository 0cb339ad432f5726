"""Dimension checking, numeric evaluation, ring algebra, and the prover."""

from .. import _lazy_exports

# Each exported name, under the module that defines it; see physkernel.
_lazy_exports(globals(), {
    "dims": "DimEntry DimMismatch DimReport check_dimensions"
            " resolve_statement",
    "evaluate": "eval_numeric",
    "ring": "RationalFunc ring_equal poly_coeff_eqs",
    "script": "CaseSplit ExactHyp Instantiate Intro NumericCheck PolyMatch"
              " RingCheck Split Step Subst parse_script print_script",
    "prover": "Proved Refuted Unknown Verdict auto_prove check_derivation",
})
