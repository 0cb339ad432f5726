"""Reference implementations that tests check the engine's results with."""

from fractions import Fraction


def poly_eval(p, env) -> Fraction:
    """Exact value of a ring polynomial (monomial -> coefficient) at a
    rational point that binds every atom; always a ``Fraction``, even where
    every coefficient is an ``int``."""
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for a, e in m:
            term *= env[a] ** e
        total += term
    return total
