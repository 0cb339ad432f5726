"""One-pass precedence parser for the statement language.

Binary operators climb the binding powers of ``nodes.BINARY``, the operator
table the printer also reads, and every token is read once: where a
comparison opens with a parenthesis, the token after the group's first
operand decides whether the group is a proposition or an expression.
``PARSE_DEPTH_BUDGET`` bounds nesting and ``LITERAL_DIGIT_BUDGET`` literals.
The full grammar is in ``docs/grammar.ebnf``.

The scanner matches one compiled pattern, one alternative per kind of
lexeme, once per token; lines and columns come from offsets.  Non-ASCII
identifiers (``μ_s``, ``θ``, ``x²``) go through the ``str`` predicates
``_ident_start`` and ``_ident_cont``.  A token stores the spelling the parser
matches and builds its ``Span`` only when a node or an error asks for it.

Identifier resolution happens during parsing: a bare identifier resolves (in
priority order) to a declared or quantified variable, a unit, or a constant;
anything else is a :class:`~physkernel.errors.ParseError` at the identifier's
span.  A bare function variable is legal only as a side of an ``f = g``
between two of them, which the parser builds as ``FnEq``; a statement
reports the first other one.  Numeric literals — including decimal and
scientific forms — denote exact rationals.  Two literal folds keep printing
and parsing mutually inverse: unary minus of a literal, and division of two
literals, fold into a single rational literal.

Corpus front matter (``name:``, ``level:``, ``topic:``, ``source:``,
``constants:`` lines before the ``theorem`` keyword) is accepted by
:func:`parse_statement` and recorded on the returned
:class:`~physkernel.lang.nodes.Statement`.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from ..errors import ParseError, did_you_mean
from ..record import replace
from ..unitdb import UnitDatabase, builtin_database
from . import nodes as N
from .nodes import Span

__all__ = ["parse_statement", "parse_prop", "parse_expression",
           "parse_overrides"]

#: Levels of nesting: parenthesized groups and call arguments, unary minus,
#: right operands of "•" and "->", and "forall" bodies.  The corpus nests 4.
PARSE_DEPTH_BUDGET = 100
#: Digits of a literal plus its exponent: Python's int-to-text limit.  The
#: numerator and the denominator of a literal folded from two stay below it.
LITERAL_DIGIT_BUDGET = 4300
_LITERAL_LIMIT = 10**LITERAL_DIGIT_BUDGET

# Longest match first.
_OPERATORS = [
    "**", "*.", ":=", "->", "/\\", "\\/", "!=", "<=", ">=",
    "(", ")", "{", "}", ",", ":", "=", "<", ">", "+", "-", "*", "/",
    "•", "∧", "∨", "→", "≤", "≥", "≠", "∀",
]
# Alias normalization: every alias maps to its canonical operator.
_OP_ALIASES = {"*.": "•", "/\\": "∧", "\\/": "∨", "→": "->", "≤": "<=",
               "≠": "!=", "∀": "forall", "≥": ">="}
# Operators and keywords: spelling -> (token kind, the spelling the parser
# matches).  Any other token matches its kind.
_SPELLINGS = {op: ("op", _OP_ALIASES.get(op, op)) for op in _OPERATORS}
_SPELLINGS.update((word, ("keyword", word)) for word in [
    "theorem", "forall", "in", "cast", "unit", "std", "val", "norm",
    "deriv", "rpow", *N.FN_NAMES])

# One alternative per kind of lexeme, and the blanks after it.  "other" is
# one character no other takes: an identifier start, or an error.  An ASCII
# identifier that a non-ASCII character follows also starts with "other"
# (the lookahead also keeps the match from backing off to a shorter one).
# ``\s`` is ``str.isspace`` and ``\d`` a Unicode decimal digit.
_LEXEME_RE = re.compile("(?:" + "|".join([
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_]|[^\x00-\x7f]))",
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)",
    r"(?P<newline>\n)",
    r"(?P<comment>\#[^\n]*)",
    r"(?P<space>\s)",
    r"(?P<other>.)",
]) + r")[^\S\n]*", re.DOTALL)


class Token:
    """A lexeme: its kind ("ident" | "number" | "op" | "keyword" | "eof"),
    its text, the spelling the parser matches (an operator's canonical form,
    a keyword, or else the kind) and where it starts and ends."""

    __slots__ = ("kind", "text", "canon", "start", "end", "line", "col")

    def __init__(self, kind: str, text: str, canon: str, start: int,
                 end: int, line: int, col: int):
        self.kind = kind
        self.text = text
        self.canon = canon
        self.start = start
        self.end = end
        self.line = line
        self.col = col

    @property
    def span(self) -> Span:
        return Span(self.start, self.end, self.line, self.col)


def _ident_start(ch: str) -> bool:
    return ch == "_" or ch.isidentifier()


def _ident_cont(ch: str) -> bool:
    return ch == "_" or ch.isdigit() or ch.isidentifier()


def tokenize(text: str, start: int = 0) -> list[Token]:
    """The tokens of ``text[start:]`` and a closing "eof" token.  A comment
    does not advance the column of the "eof" token after it."""
    tokens: list[Token] = []
    append = tokens.append
    match = _LEXEME_RE.match
    line = text.count("\n", 0, start) + 1
    line_start = text.rfind("\n", 0, start) + 1
    i = start
    n = end_col_at = len(text)
    while i < n:
        m = match(text, i)
        kind = m.lastgroup
        after = m.end()
        if kind == "newline":
            line += 1
            line_start = i + 1
        elif kind == "comment":
            if after == n:
                end_col_at = i
        elif kind != "space":
            word = m[kind]
            j = i + len(word)
            if kind == "other":
                if not _ident_start(text[i]):
                    raise ParseError(
                        f"unexpected character {text[i]!r}",
                        span=Span(i, i + 1, line, i - line_start + 1))
                while j < n and _ident_cont(text[j]):
                    j += 1
                word, kind, after = text[i:j], "ident", j
            kind, canon = _SPELLINGS.get(word, (kind, kind))
            append(Token(kind, word, canon, i, j, line, i - line_start + 1))
        i = after
    append(Token("eof", "", "eof", n, n, line, end_col_at - line_start + 1))
    return tokens


def _over_budget(span: Span) -> ParseError:
    return ParseError("literal longer than LITERAL_DIGIT_BUDGET "
                      f"({LITERAL_DIGIT_BUDGET} digits)", span=span)


def _folded(value: Fraction, span: Span) -> Fraction:
    """A literal folded from two, if it is within LITERAL_DIGIT_BUDGET."""
    if max(abs(value.numerator), value.denominator) >= _LITERAL_LIMIT:
        raise _over_budget(span)
    return value


def _divide(lhs: N.Expr, rhs: N.Expr, span: Span) -> N.Expr:
    if (isinstance(lhs, N.NumLit) and isinstance(rhs, N.NumLit)
            and rhs.value != 0):
        return N.NumLit(_folded(lhs.value / rhs.value, span), span)
    return N.Div(lhs, rhs, span)


# Binary operators by canonical spelling, from ``nodes.BINARY``: (binding
# power, right-associative, node constructor).
_CONNECTIVES = {op: (bp, right, cls) for cls, (op, bp, right)
                in N.BINARY.items() if issubclass(cls, N.Prop)}
_ARITH_OPS = {op: (bp, right, _divide if cls is N.Div else cls)
              for cls, (op, bp, right) in N.BINARY.items()
              if issubclass(cls, N.Expr)}
# Comparison operators: (node, whether the operands swap, as ">=" and ">" do).
_COMPARISONS = {**{op: (cls, False) for cls, op in N.COMPARISONS.items()},
                ">=": (N.Le, True), ">": (N.Lt, True)}


class _Parser:
    def __init__(self, tokens: list[Token], db: UnitDatabase,
                 extra_constants: frozenset[str] = frozenset()):
        self.tokens = tokens
        self.pos = 0
        self.db = db
        self.extra_constants = extra_constants
        self.scope: dict[str, object] = {}  # name -> VarDecl | FnDecl
        self.depth = 0  # nesting levels entered, see PARSE_DEPTH_BUDGET
        # The bare function variables read that are no side of an FnEq.
        self.fn_reads: list[N.Var] = []

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, what: str) -> bool:
        return self.tokens[self.pos].canon == what

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, what: str) -> Token:
        t = self.tokens[self.pos]
        if t.canon != what:
            raise self.err(f"unexpected {t.text!r}" if t.text else
                           "unexpected end of input", (what,))
        return self.next()

    def _ident(self, message: str) -> Token:
        if self.peek().kind != "ident":
            raise self.err(message, ("identifier",))
        return self.next()

    def err(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(message, expected=expected, span=self.peek().span)

    @staticmethod
    def _merge(a: Span | Token, b: Span | Token) -> Span:
        return Span(a.start, b.end, a.line, a.col)

    def _group(self, inner: N.Expr, start: Token, end: Token) -> N.Expr:
        """``inner`` spanning its parentheses, in ``fn_reads`` too."""
        group = replace(inner, span=self._merge(start, end))
        if self.fn_reads and self.fn_reads[-1] is inner:
            self.fn_reads[-1] = group
        return group

    def _nested(self, parse, *args):
        """``parse(*args)`` one level deeper, within PARSE_DEPTH_BUDGET."""
        self.depth += 1
        if self.depth > PARSE_DEPTH_BUDGET:
            raise self.err("input nests deeper than PARSE_DEPTH_BUDGET "
                           f"({PARSE_DEPTH_BUDGET})")
        result = parse(*args)
        self.depth -= 1
        return result

    # -- statements -----------------------------------------------------------

    def statement(self, meta: dict[str, str],
                  constants: tuple[tuple[str, N.Expr], ...]) -> N.Statement:
        start = self.expect("theorem")
        name_tok = self._ident("expected a theorem name")
        decls: list = []
        hyps: list[tuple[str, N.Prop]] = []
        hyp_names: set[str] = set()
        while self.at("("):
            self.next()
            first = self._ident("expected a binder name")
            if self.at(":="):
                self.next()
                if first.text in hyp_names or first.text in self.scope:
                    raise ParseError(f"duplicate binder name {first.text!r}",
                                     span=first.span)
                prop = self.prop()
                hyps.append((first.text, prop))
                hyp_names.add(first.text)
            else:
                group = [first]
                while self.peek().kind == "ident":
                    group.append(self.next())
                self.expect(":")
                kind = self._kind()
                for tok in group:
                    if tok.text in self.scope or tok.text in hyp_names:
                        raise ParseError(f"duplicate binder name "
                                         f"{tok.text!r}", span=tok.span)
                    if isinstance(kind, tuple):
                        d = N.FnDecl(tok.text, kind[0], kind[1], tok.span)
                    else:
                        d = N.VarDecl(tok.text, kind, tok.span)
                    decls.append(d)
                    self.scope[tok.text] = d
            self.expect(")")
        self.expect(":")
        goal = self.prop()
        end = self.expect("eof")
        if "name" in meta and meta["name"] != name_tok.text:
            raise ParseError(
                f"front-matter name {meta['name']!r} does not match theorem "
                f"name {name_tok.text!r}", 1, 1)
        if self.fn_reads:
            bad = self.fn_reads[0]
            raise ParseError(f"function variable {bad.name!r} used as a "
                             "quantity", span=bad.span)
        return N.Statement(
            name=name_tok.text,
            decls=tuple(decls),
            hyps=tuple(hyps),
            goal=goal,
            level=meta.get("level"),
            topic=meta.get("topic"),
            source=meta.get("source"),
            constants=constants,
            span=self._merge(start, end),
        )

    def _kind_name(self) -> str:
        tok = self._ident("expected a kind name")
        if tok.text not in self.db.kinds:
            raise ParseError(f"unknown kind {tok.text!r}"
                             + did_you_mean(tok.text, self.db.kinds),
                             span=tok.span)
        return tok.text

    def _kind(self):
        first = self._kind_name()
        if self.at("->"):
            self.next()
            return (first, self._kind_name())
        return first

    # -- propositions ----------------------------------------------------------

    def prop(self, min_bp: int = 1, lhs: N.Prop | None = None) -> N.Prop:
        """Connectives by precedence climbing over ``_CONNECTIVES``; a group
        that ``_cmp`` read as a proposition comes in as ``lhs``."""
        if lhs is None:
            lhs = self._cmp()
            if isinstance(lhs, N.Expr):
                raise self.err("expected a comparison operator",
                               tuple(_COMPARISONS))
        while True:
            op = self.peek().canon
            bp, right, build = _CONNECTIVES.get(op, (0, False, None))
            if bp < min_bp:
                return lhs
            self.next()
            rhs = self._nested(self.prop, bp) if right else self.prop(bp + 1)
            lhs = build(lhs, rhs, self._merge(lhs.span, rhs.span))

    def _forall(self) -> N.Prop:
        start = self.expect("forall")
        var_tok = self._ident("expected a quantified variable name")
        annot: str | None = None
        if self.at(":"):
            self.next()
            annot = self._kind_name()
        values: tuple[Fraction, ...] | None = None
        if self.at("in"):
            self.next()
            self.expect("{")
            vals = [self._signed_rational()]
            while self.at(","):
                self.next()
                vals.append(self._signed_rational())
            self.expect("}")
            if len(set(vals)) != len(vals):
                raise ParseError("duplicate value in quantifier list",
                                 span=var_tok.span)
            values = tuple(vals)
        self.expect(",")
        shadowed = self.scope.get(var_tok.text)
        self.scope[var_tok.text] = N.VarDecl(var_tok.text, annot or "Real",
                                             var_tok.span)
        body = self._nested(self.prop)
        if shadowed is None:
            del self.scope[var_tok.text]
        else:
            self.scope[var_tok.text] = shadowed
        span = self._merge(start, body.span)
        if values is not None:
            if annot is not None:
                raise ParseError("a finite quantifier takes no kind "
                                 "annotation", span=var_tok.span)
            return N.ForallFinite(var_tok.text, values, body, span)
        return N.ForallFn(var_tok.text, body, annot, span=span)

    def _cmp(self) -> N.Prop | N.Expr:
        """A comparison, a quantifier or a parenthesized proposition, or else
        the expression read when no comparison operator follows it.  Of a
        leading group, a proposition continues to ")", and an expression is
        the first atom of the expression that continues after it."""
        if self.at("forall"):
            return self._forall()
        if self.at("("):
            start = self.next()
            inner = self._nested(self._cmp)
            if isinstance(inner, N.Prop):
                inner = self._nested(self.prop, 1, inner)
                self.expect(")")
                return inner
            end = self.expect(")")
            lhs = self._arith(lhs=self._power(self._group(inner, start, end)))
        else:
            lhs = self._arith()
        op = self.peek().canon
        if op not in _COMPARISONS:
            return lhs
        self.next()
        rhs = self._arith()
        cls, swap = _COMPARISONS[op]
        span = self._merge(lhs.span, rhs.span)
        if cls is N.Eq and self.fn_reads[-2:] == [lhs, rhs]:  # by identity
            del self.fn_reads[-2:]
            return N.FnEq(lhs, rhs, span)
        return cls(rhs, lhs, span) if swap else cls(lhs, rhs, span)

    # -- expressions --------------------------------------------------------------

    def _arith(self, min_bp: int = 1, lhs: N.Expr | None = None) -> N.Expr:
        """Binary operators by precedence climbing over ``_ARITH_OPS``; a
        group that ``_cmp`` read as an expression comes in as ``lhs``."""
        if lhs is None:
            lhs = self._unary()
        while True:
            op = self.peek().canon
            bp, right, build = _ARITH_OPS.get(op, (0, False, None))
            if bp < min_bp:
                return lhs
            self.next()
            rhs = (self._nested(self._arith, bp) if right
                   else self._arith(bp + 1))
            lhs = build(lhs, rhs, self._merge(lhs.span, rhs.span))

    def _unary(self) -> N.Expr:
        if not self.at("-"):
            return self._power(self._atom())
        start = self.next()
        arg = self._nested(self._unary)
        span = self._merge(start, arg.span)
        if isinstance(arg, N.NumLit):
            return N.NumLit(-arg.value, span)
        return N.Neg(arg, span)

    def _power(self, base: N.Expr) -> N.Expr:
        """``**`` is a postfix on its atom."""
        if not self.at("**"):
            return base
        self.next()
        exponent, end = self._exponent()
        return N.Pow(base, exponent, self._merge(base.span, end))

    def _exponent(self) -> tuple[Fraction, Token]:
        if self.at("("):
            self.next()
            value = self._signed_rational()
            return value, self.expect(")")
        return self._signed_number("expected an exponent literal")

    def _signed_number(self, message: str) -> tuple[Fraction, Token]:
        neg = self.at("-")
        if neg:
            self.next()
        tok = self.peek()
        if tok.kind != "number":
            raise self.err(message, ("number",))
        self.next()
        value = _fraction_of(tok)
        return (-value if neg else value), tok

    def _signed_rational(self) -> Fraction:
        value, tok = self._signed_number("expected a number")
        if self.at("/"):
            self.next()
            den_tok = self.peek()
            if den_tok.kind != "number":
                raise self.err("expected a denominator", ("number",))
            self.next()
            den = _fraction_of(den_tok)
            if den == 0:
                raise ParseError("zero denominator in rational literal",
                                 span=den_tok.span)
            value = _folded(value / den, self._merge(tok, den_tok))
        return value

    def _call_arg(self) -> N.Expr:
        self.expect("(")
        arg = self._nested(self._arith)
        self.expect(")")
        return arg

    def _atom(self) -> N.Expr:
        tok = self.peek()
        t = tok.canon
        if tok.kind == "number":
            self.next()
            return N.NumLit(_fraction_of(tok), tok.span)
        if t == "(":
            self.next()
            inner = self._nested(self._arith)
            return self._group(inner, tok, self.expect(")"))
        if t == "std":
            self.next()
            return N.StdUnit(None, tok.span)
        if t in N.FN_NAMES:
            self.next()
            arg = self._call_arg()
            return N.Fn(t, arg, self._merge(tok, arg.span))
        if t == "val" or t == "norm":
            self.next()
            arg = self._call_arg()
            cls = N.Val if t == "val" else N.Norm
            return cls(arg, self._merge(tok, arg.span))
        if t == "cast":
            self.next()
            self.expect("(")
            arg = self._nested(self._arith)
            self.expect(",")
            kind = self._kind_name()
            end = self.expect(")")
            if arg.__class__ is N.StdUnit:  # cast(std, Kind) is unit(Kind)
                arg = N.StdUnit(self.db.kind(kind), arg.span)
            return N.Cast(arg, kind, self._merge(tok, end))
        if t == "unit":
            self.next()
            self.expect("(")
            kind = self._kind_name()
            end = self.expect(")")
            # unit(Kind) is the standard unit at a named kind's dimension.
            return N.Cast(N.StdUnit(self.db.kind(kind), tok.span), kind,
                          self._merge(tok, end))
        if t == "rpow":
            self.next()
            self.expect("(")
            base = self._nested(self._arith)
            self.expect(",")
            exponent = self._nested(self._arith)
            end = self.expect(")")
            return N.RPow(base, exponent, self._merge(tok, end))
        if t == "deriv":
            self.next()
            self.expect("(")
            fn = self._fn_var_name()
            self.expect(",")
            at = self._nested(self._arith)
            end = self.expect(")")
            return N.Deriv(fn, at, self._merge(tok, end))
        if tok.kind == "ident":
            self.next()
            return self._resolve_ident(tok)
        raise self.err(f"unexpected {tok.text!r}" if tok.text else
                       "unexpected end of input", ("expression",))

    def _fn_var_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or not isinstance(self.scope.get(tok.text),
                                                 N.FnDecl):
            raise self.err("expected a declared function variable",
                           ("function variable",))
        self.next()
        return tok.text

    def _resolve_ident(self, tok: Token) -> N.Expr:
        name = tok.text
        decl = self.scope.get(name)
        if self.at("(") and not isinstance(decl, N.VarDecl):
            if isinstance(decl, N.FnDecl):
                arg = self._call_arg()
                return N.Apply(name, arg, self._merge(tok, arg.span))
            if name in self.db.prefixes:
                arg = self._call_arg()
                return N.PrefixApp(name, arg, self._merge(tok, arg.span))
            raise ParseError(f"{name!r} is not callable", span=tok.span)
        if decl is not None:
            var = N.Var(name, tok.span)
            if decl.__class__ is N.FnDecl:
                self.fn_reads.append(var)
            return var
        if name in self.db.units:
            return N.UnitRef(name, tok.span)
        if name in self.db.constants or name in self.extra_constants:
            return N.ConstRef(name, tok.span)
        pool = [*self.scope, *self.db.units, *self.db.constants,
                *self.extra_constants.difference(self.db.constants)]
        raise ParseError(f"undeclared identifier {name!r}"
                         + did_you_mean(name, pool), span=tok.span)


def _fraction_of(tok: Token) -> Fraction:
    mantissa, _, exponent = tok.text.lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0")[:5]  # 5 digits are past it
    digits = len(mantissa.replace(".", "")) + int(exponent or 0)
    if digits > LITERAL_DIGIT_BUDGET:
        raise _over_budget(tok.span)
    if tok.text.isdecimal():
        return Fraction(int(tok.text))
    return Fraction(Decimal(tok.text))


# -- front matter ---------------------------------------------------------------

_FRONT_KEYS = ("name", "level", "topic", "source", "constants")
_FRONT_RE = re.compile(r"^\s*([A-Za-z_][\w-]*):\s*(.*?)\s*$")


def _split_front_matter(text: str) -> tuple[dict[str, tuple[str, int]], int]:
    """Collect leading ``key: value`` lines; return them and the body offset."""
    meta: dict[str, tuple[str, int]] = {}
    offset = 0
    line_no = 0
    for raw in text.splitlines(keepends=True):
        line_no += 1
        stripped = raw.strip()
        m = _FRONT_RE.match(raw)
        if stripped == "" or stripped.startswith("#"):
            offset += len(raw)
            continue
        if m and not stripped.startswith("theorem"):
            key = m.group(1)
            if key not in _FRONT_KEYS:
                raise ParseError(f"unknown front-matter key {key!r}",
                                 line_no, 1)
            if key in meta:
                raise ParseError(f"duplicate front-matter key {key!r}",
                                 line_no, 1)
            meta[key] = (m.group(2), offset + m.start(2))
            offset += len(raw)
            continue
        break
    return meta, offset


def _parse_constant_overrides(text: str, offset: int, db: UnitDatabase):
    """Parse ``name = expr, ...`` from a front-matter constants value."""
    overrides: list[tuple[str, N.Expr]] = []
    p = _Parser(tokenize(text, offset), db)
    while not p.at("eof"):
        name_tok = p._ident("expected a constant name")
        p.expect("=")
        expr = p._arith()
        overrides.append((name_tok.text, expr))
        if p.at(","):
            p.next()
        else:
            break
    p.expect("eof")
    return tuple(overrides)


def parse_statement(text: str, db: UnitDatabase | None = None) -> N.Statement:
    """Parse a statement, with optional corpus front matter, to an AST.

    Parsing is a pure function of (text, database): the same input always
    yields a structurally identical AST.
    """
    db = db or builtin_database()
    meta_raw, offset = _split_front_matter(text)
    meta = {k: v[0] for k, v in meta_raw.items()}
    constants: tuple[tuple[str, N.Expr], ...] = ()
    if "constants" in meta_raw:
        value, value_off = meta_raw["constants"]
        constants = _parse_constant_overrides(text[:value_off + len(value)],
                                              value_off, db)
    extra = frozenset(name for name, _ in constants)
    parser = _Parser(tokenize(text, offset), db, extra)
    return parser.statement(meta, constants)


def _parse(text: str, db: UnitDatabase | None, scope: dict,
           constants: frozenset[str], rule):
    """``rule`` of a parser that reads all of ``text``; see parse_in_scope."""
    p = _Parser(tokenize(text), db or builtin_database(), constants)
    p.scope = scope
    tree = rule(p)
    p.expect("eof")
    return tree


def _scope(variables: dict[str, str] | None,
           functions: dict[str, tuple[str, str]] | None) -> dict:
    return {**{n: N.VarDecl(n, kind) for n, kind in (variables or {}).items()},
            **{n: N.FnDecl(n, *sig) for n, sig in (functions or {}).items()}}


def parse_prop(text: str, db: UnitDatabase | None = None,
               variables: dict[str, str] | None = None,
               functions: dict[str, tuple[str, str]] | None = None) -> N.Prop:
    """Parse a standalone proposition under the given variable scope."""
    return _parse(text, db, _scope(variables, functions), frozenset(),
                  _Parser.prop)


def parse_expression(text: str, db: UnitDatabase | None = None,
                     variables: dict[str, str] | None = None,
                     functions: dict[str, tuple[str, str]] | None = None
                     ) -> N.Expr:
    """Parse a standalone expression under the given variable scope."""
    return parse_in_scope(text, db, _scope(variables, functions))


def parse_in_scope(text: str, db: UnitDatabase | None, scope: dict,
                   constants: frozenset[str] = frozenset()) -> N.Expr:
    """Parse a standalone expression whose names resolve, as in a statement,
    to ``scope`` (name -> ``VarDecl`` or ``FnDecl``), then to a unit, then
    to a constant of ``db`` or one named in ``constants``.  An expression
    binds no name, so ``scope`` is only read, and one scope serves any
    number of expressions."""
    return _parse(text, db, scope, constants, _Parser._arith)


def parse_overrides(text: str, db: UnitDatabase | None = None
                    ) -> tuple[tuple[str, N.Expr], ...]:
    """Parse ``name = expr, name = expr`` constant-override pairs."""
    return _parse_constant_overrides(text, 0, db or builtin_database())
