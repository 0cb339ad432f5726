"""Reference implementations that tests check the engine's results with."""

import re
from fractions import Fraction

from physkernel.errors import ParseError
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
