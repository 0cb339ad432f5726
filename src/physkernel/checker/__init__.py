"""Dimension checking, numeric evaluation, ring algebra, and the prover."""

from .dims import DimEntry, DimMismatch, DimReport, check_dimensions, resolve_statement  # noqa: F401
from .evaluate import eval_numeric  # noqa: F401
from .ring import RationalFunc, ring_equal, poly_coeff_eqs  # noqa: F401
from .script import (  # noqa: F401
    CaseSplit, ExactHyp, Instantiate, Intro, NumericCheck, PolyMatch,
    RingCheck, Split, Step, Subst, parse_script, print_script,
)
from .prover import (  # noqa: F401
    Proved, Refuted, Unknown, Verdict, auto_prove,
    check_derivation,
)
