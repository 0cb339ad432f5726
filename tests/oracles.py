"""Reference implementations that tests check the engine's results with."""

import re
from fractions import Fraction

from physkernel.checker import ring
from physkernel.checker.ring import (
    _ONE, _coeff, _mono_mul, poly_add, poly_const, poly_degree_in,
)
from physkernel.errors import (
    DivisionByZero, EliminationBudgetExceeded, ParseError,
)
from physkernel.lang.nodes import FN_NAMES, Span


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


_NUMBER_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")
# Longest match first.
_OPERATORS = [
    "**", "*.", ":=", "->", "/\\", "\\/", "!=", "<=", ">=",
    "(", ")", "{", "}", ",", ":", "=", "<", ">", "+", "-", "*", "/",
    "•", "∧", "∨", "→", "≤", "≥", "≠", "∀",
]
_KEYWORDS = frozenset(
    ["theorem", "forall", "in", "cast", "unit", "std", "val", "norm",
     "deriv", "rpow", *FN_NAMES]
)


def tokenize_by_character(text: str, start: int = 0) -> list[tuple]:
    """(kind, text, start, end, line, col) of each token of ``text[start:]``,
    read one character at a time with ``str`` predicates and each operator
    tried in turn; raises ``ParseError`` where ``lang.parser.tokenize`` must.

    A character for which ``str.isdigit`` holds but which is no decimal
    digit (``²``) raises ``AttributeError`` where it starts a token.
    """
    tokens = []
    line, col = 1, 1
    for ch in text[:start]:
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            tokens.append(("number", m.group(0), i, m.end(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch == "_" or ch.isidentifier():
            j = i + 1
            while j < n and (text[j] == "_" or text[j].isdigit()
                             or text[j].isidentifier()):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append((kind, word, i, j, line, col))
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(("op", op, i, i + len(op), line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col,
                             span=Span(i, i + 1, line, col))
    tokens.append(("eof", "", n, n, line, col))
    return tokens


# -- the polynomial kernel without fast paths ---------------------------------
#
# ``checker.ring``'s multiplication, powers, rational-function arithmetic and
# substitution as they were before they skipped work with a known answer: a
# unit or one-term operand goes through the full product loop, and every
# term of a substitution builds its power again.  Each result has the same
# terms in the same order, so the kernel must match these exactly.


def poly_mul_loop(p, q):
    """``ring.poly_mul`` by the product loop alone."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, 0) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc if type(nc) is int else _coeff(nc)
    return out


def poly_pow_loop(p, n):
    """``ring.poly_pow``'s binomial split with every ``r^j`` built by
    ``poly_mul_loop``."""
    if n < 0:
        raise ValueError("poly_pow expects a non-negative exponent")
    if n == 0:
        return poly_const(1)
    if n == 1:
        return p
    if len(p) <= 1:
        return {tuple([(a, e * n) for a, e in m]): _coeff(c ** n)
                for m, c in p.items()}
    items = iter(p.items())
    tm, tc = next(items)
    r = dict(items)
    out = {}
    binom, rj = 1, poly_const(1)
    for j in range(n + 1):
        k = n - j
        tk_mono = tuple([(a, e * k) for a, e in tm]) if k else _ONE
        scale = binom * tc ** k
        for m, c in rj.items():
            key = _mono_mul(tk_mono, m)
            nc = out.get(key, 0) + scale * c
            if nc == 0:
                out.pop(key, None)
            else:
                out[key] = nc if type(nc) is int else _coeff(nc)
        if k:
            binom = binom * k // (j + 1)
            rj = poly_mul_loop(rj, r)
    return out


class RationalFuncLoop:
    """``ring.RationalFunc``'s arithmetic over the loop primitives."""

    def __init__(self, num, den=None):
        if den is None:
            den = poly_const(1)
        elif not den:
            raise DivisionByZero("rational function with zero denominator")
        self.num, self.den = num, den

    def add(self, other):
        return RationalFuncLoop(
            poly_add(poly_mul_loop(self.num, other.den),
                     poly_mul_loop(other.num, self.den)),
            poly_mul_loop(self.den, other.den))

    def mul(self, other):
        return RationalFuncLoop(poly_mul_loop(self.num, other.num),
                                poly_mul_loop(self.den, other.den))

    def div(self, other):
        if not other.num:
            raise DivisionByZero("division by a symbolically zero term")
        return RationalFuncLoop(poly_mul_loop(self.num, other.den),
                                poly_mul_loop(self.den, other.num))

    def pow(self, n):
        if n >= 0:
            return RationalFuncLoop(poly_pow_loop(self.num, n),
                                    poly_pow_loop(self.den, n))
        if not self.num:
            raise DivisionByZero("zero term with a negative exponent")
        return RationalFuncLoop(poly_pow_loop(self.den, -n),
                                poly_pow_loop(self.num, -n))


def subst_poly_loop(p, atom, d, sol):
    """``ring._subst_poly`` term by term: ``sol``'s power is built for every
    term, and the running sum is checked against ``ring.ELIM_TERM_BUDGET``
    (read when called) after each term."""
    total = RationalFuncLoop({})
    for m, c in p.items():
        q, r = divmod(poly_degree_in(m, atom), d)
        base = {_mono_mul(tuple((a, k) for a, k in m if a != atom),
                          ((atom, r),) if r else _ONE): c}
        total = total.add(RationalFuncLoop(base).mul(sol.pow(q)))
        for part in (total.num, total.den):
            if len(part) > ring.ELIM_TERM_BUDGET:
                raise EliminationBudgetExceeded(
                    "ELIM_TERM_BUDGET", ring.ELIM_TERM_BUDGET,
                    f"built a polynomial of {len(part)} terms")
    return total
