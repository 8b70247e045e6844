"""Input grammar and canonical printer for systems, maps, and jet components.

Documents are line-oriented.  ``#`` starts a comment.  The first content
line declares variables and every following line is a statement: ``eq
<expr>``, ``map <expr>``, or ``jet <expr>``.  ``_KINDS`` holds one row per
document kind: its declaration (``vars z1 z2``, ``realvars x1 y1 x2 y2``,
``mapvars v t``, or ``params t1 t2``), the statements it admits, its
variable context, and whether its expressions admit the imaginary unit
``i``, ``conj(...)`` and ``exp(var)``.  Expressions are built from those,
rational literals ``p/q``, declared identifiers, and the operators ``+ - *
^`` with explicit multiplication; ``^`` takes a non-negative integer
literal.  Precedence is ``^`` over unary minus over ``*`` over binary ``+ -``.

The printer emits canonical polynomial text (terms descending in grevlex),
and parsing a printed document reproduces the document exactly.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from holoclosure.arith import I as IMAG, GaussianRational, gq
from holoclosure.errors import ResourceLimitError
from holoclosure.poly import (
    Block,
    Polynomial,
    VariableContext,
    ZETA_SWAP,
    param_context,
    polynomial_to_text,
    real_context,
    zeta_context,
)

# Parentheses, conj(...) and unary minus nest at most this deep.  A nested
# level costs up to six parser frames, so the limit keeps the recursive
# descent well inside Python's default recursion limit of 1000.
MAX_NESTING = 100

# Every sum, product and power in an input expression has at most this many
# terms and at most this total degree; a power is checked against both before
# it is expanded, so an oversized one fails at once.
MAX_INPUT_TERMS = 1000
MAX_INPUT_DEGREE = 1000

KIND_SYSTEM_ZETA = "system-zeta"
KIND_SYSTEM_REAL = "system-real"
KIND_MAP = "map"
KIND_PARAMETRIZATION = "parametrization"
KIND_JETS = "jet-components"


class _Kind(NamedTuple):
    declaration: str  # the keyword that declares the variables
    statements: tuple  # the statement keywords admitted, the required one first
    context: Callable  # declared names -> VariableContext
    i_error: str | None  # the message refusing ``i``; None admits it
    conj: bool  # whether ``conj(...)`` is admitted
    exp: bool  # whether ``exp(<declared name>)`` is admitted


def _jet_context(names: tuple) -> VariableContext:
    """The parameters, then one EXP variable ``exp(v)`` per parameter v."""
    blocks = (Block.PARAM,) * len(names) + (Block.EXP,) * len(names)
    return VariableContext(names + tuple(f"exp({v})" for v in names), blocks)


_REAL_I = "the imaginary unit is not allowed in real-form input"
_JET_I = "jet components must have rational coefficients"
_KINDS = {
    KIND_SYSTEM_ZETA: _Kind("vars", ("eq",), zeta_context, None, True, False),
    KIND_SYSTEM_REAL: _Kind("realvars", ("eq",), real_context, _REAL_I, False, False),
    KIND_MAP: _Kind("mapvars", ("map", "eq"), param_context, None, False, False),
    KIND_PARAMETRIZATION: _Kind("params", ("map",), param_context, None, False, False),
    KIND_JETS: _Kind("params", ("jet",), _jet_context, _JET_I, False, True),
}

# declaration keyword -> the kinds it declares, in table order
_KINDS_DECLARED_BY = {
    row.declaration: [kind for kind, r in _KINDS.items() if r.declaration == row.declaration]
    for row in _KINDS.values()
}
_STATEMENTS = {kw for row in _KINDS.values() for kw in row.statements}
_RESERVED = set(_KINDS_DECLARED_BY) | _STATEMENTS | {"i", "conj", "exp"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int) -> list:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch in " \t":
            k += 1
            continue
        col = k + 1
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[k:j], line, col))
            k = j
        elif ch.isalpha() or ch == "_":
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[k:j], line, col))
            k = j
        elif ch in "+-*^()/,":
            tokens.append(Token("op", ch, line, col))
            k += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, len(text) + 1))
    return tokens


def _over_budget(message: str, tok: Token) -> ResourceLimitError:
    return ResourceLimitError(f"line {tok.line}, column {tok.col}: {message}")


def _within_budget(value: Polynomial, tok: Token) -> Polynomial:
    """``value``, the result of the operator at ``tok``, if it fits the input budget."""
    if len(value.terms) > MAX_INPUT_TERMS:
        raise _over_budget(
            f"{len(value.terms)} terms exceed the input budget of {MAX_INPUT_TERMS}", tok
        )
    if value.total_degree() > MAX_INPUT_DEGREE:
        raise _over_budget(
            f"degree {value.total_degree()} exceeds the input budget of {MAX_INPUT_DEGREE}", tok
        )
    return value


def _power(base: Polynomial, e: int, tok: Token) -> Polynomial:
    """``base ** e``, refused before expansion if it could exceed the input budget, which bounds its work."""
    if e > MAX_INPUT_DEGREE or max(base.total_degree(), 0) * e > MAX_INPUT_DEGREE:
        raise _over_budget(f"power ^{e} exceeds the input degree budget of {MAX_INPUT_DEGREE}", tok)
    t = len(base.terms)
    if t > 1 and comb(e + t - 1, t - 1) > MAX_INPUT_TERMS:
        # ``**`` walks one composition, and makes at most one term, per multiset of e of the t terms
        raise _over_budget(
            f"power ^{e} of {t} terms may exceed the input budget of {MAX_INPUT_TERMS} terms", tok
        )
    return base ** e


def _int_value(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(
            f"integer literal of {len(tok.text)} digits is too long", tok.line, tok.col
        ) from None


class _ExprParser:
    """One expression over ``context``, under the lexical rules of the kind ``row``."""

    def __init__(self, tokens: list, row: _Kind, context: VariableContext, declared: tuple):
        self.tokens = tokens
        self.pos = 0
        self.row = row
        self.context = context
        self.declared = declared
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def parse(self) -> Polynomial:
        value = self._sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return value

    def _nested(self, tok: Token, parse):
        """Run ``parse`` one nesting level below ``tok``."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", tok.line, tok.col
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def _sum(self) -> Polynomial:
        value = self._product()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self._product()
                value = _within_budget(value + rhs if tok.text == "+" else value - rhs, tok)
            else:
                return value

    def _product(self) -> Polynomial:
        value = self._factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = _within_budget(value * self._factor(), tok)
            else:
                return value

    def _factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self._nested(tok, self._factor)
        return self._power()

    def _power(self) -> Polynomial:
        base = self._primary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "int":
                raise ParseError(
                    "exponent must be a non-negative integer literal", etok.line, etok.col
                )
            self.advance()
            return _power(base, _int_value(etok), tok)
        return base

    def _rational(self) -> GaussianRational:
        value = gq(_int_value(self.advance()))
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == "/":
            self.advance()
            den = self.peek()
            if den.kind != "int":
                raise ParseError("malformed rational literal", den.line, den.col)
            self.advance()
            divisor = _int_value(den)
            if divisor == 0:
                raise ParseError("zero denominator", den.line, den.col)
            value /= divisor
        return value

    def _primary(self) -> Polynomial:
        row = self.row
        tok = self.peek()
        if tok.kind == "int":
            return Polynomial.constant(self.context, self._rational())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self._nested(tok, self._sum)
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name == "i":
                if row.i_error is not None:
                    raise ParseError(row.i_error, tok.line, tok.col)
                self.advance()
                return Polynomial.constant(self.context, IMAG)
            if name == "conj":
                if not row.conj:
                    raise ParseError(
                        "conj(...) is only allowed in zeta-form systems", tok.line, tok.col
                    )
                self.advance()
                self.expect_op("(")
                inner = self._nested(tok, self._sum)
                self.expect_op(")")
                return inner.conjugate(ZETA_SWAP)
            if name == "exp":
                if not row.exp:
                    raise ParseError(
                        "exp(...) is only allowed in jet components", tok.line, tok.col
                    )
                self.advance()
                self.expect_op("(")
                vtok = self.peek()
                if vtok.kind != "ident" or vtok.text not in self.declared:
                    raise ParseError(
                        "exp(...) takes a declared parameter", vtok.line, vtok.col
                    )
                self.advance()
                self.expect_op(")")
                return Polynomial.variable(self.context, f"exp({vtok.text})")
            if name in self.declared:
                self.advance()
                return Polynomial.variable(self.context, name)
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)
        raise ParseError("expected an expression", tok.line, tok.col)


class InputDocument(NamedTuple):
    kind: str
    context: VariableContext
    declared: tuple
    statements: tuple  # (keyword, Polynomial) in source order

    @property
    def equations(self) -> tuple:
        return tuple(p for kw, p in self.statements if kw == "eq")

    @property
    def map_components(self) -> tuple:
        return tuple(p for kw, p in self.statements if kw == "map")

    @property
    def jet_components(self) -> tuple:
        return tuple(p for kw, p in self.statements if kw == "jet")


def parse(text: str) -> InputDocument:
    """Parse a full input document; diagnostics carry line and column."""
    decl_kw = None
    declared = None
    decl_pos = (1, 1)
    raw_statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        tokens = _tokenize(content, lineno)
        head = tokens[0]
        if head.kind != "ident":
            raise ParseError("expected a keyword", head.line, head.col)
        if head.text in _KINDS_DECLARED_BY:
            if decl_kw is not None:
                raise ParseError("duplicate declaration", head.line, head.col)
            if raw_statements:
                raise ParseError("declaration must precede statements", head.line, head.col)
            names = []
            for tok in tokens[1:-1]:
                if tok.kind != "ident":
                    raise ParseError("expected a variable name", tok.line, tok.col)
                if tok.text in _RESERVED:
                    raise ParseError(f"reserved identifier {tok.text!r}", tok.line, tok.col)
                if tok.text in names:
                    raise ParseError(f"duplicate variable {tok.text!r}", tok.line, tok.col)
                names.append(tok.text)
            if not names:
                raise ParseError("empty declaration", head.line, head.col)
            decl_kw = head.text
            declared = tuple(names)
            decl_pos = (head.line, head.col)
        elif head.text in _STATEMENTS:
            if decl_kw is None:
                raise ParseError("statement before declaration", head.line, head.col)
            raw_statements.append((head.text, tokens[1:], head.line, head.col))
        else:
            raise ParseError(f"unknown keyword {head.text!r}", head.line, head.col)
    if decl_kw is None:
        raise ParseError("missing variable declaration", 1, 1)
    if not raw_statements:
        raise ParseError("document has no statements", *decl_pos)
    if decl_kw == "realvars" and len(declared) % 2 != 0:
        raise ParseError("realvars needs an even number of variables (x,y pairs)", *decl_pos)

    # of the kinds a keyword declares (params), the document is the one whose statements it uses
    used = {kw for kw, _, _, _ in raw_statements}
    kinds = _KINDS_DECLARED_BY[decl_kw]
    chosen = [kind for kind in kinds if used.intersection(_KINDS[kind].statements)]
    if len(chosen) > 1:
        either = " or ".join(_KINDS[kind].statements[0] for kind in chosen)
        message = f"a {decl_kw} document takes either {either} statements, not both"
        raise ParseError(message, *decl_pos)
    kind = (chosen or kinds)[0]
    row = _KINDS[kind]
    context = row.context(declared)
    statements = []
    for kw, tokens, line, col in raw_statements:
        if kw not in row.statements:
            raise ParseError(f"{kw!r} statement not allowed in a {kind} document", line, col)
        statements.append((kw, _ExprParser(tokens, row, context, declared).parse()))
    required = row.statements[0]
    if required not in used:
        raise ParseError(f"a {kind} document needs at least one {required} statement", *decl_pos)
    return InputDocument(kind, context, declared, tuple(statements))


def print_document(doc: InputDocument) -> str:
    """Canonical text form; parse(print_document(doc)) == doc."""
    lines = [f"{_KINDS[doc.kind].declaration} {' '.join(doc.declared)}"]
    for kw, poly in doc.statements:
        lines.append(f"{kw} {polynomial_to_text(poly)}")
    return "\n".join(lines) + "\n"


def parse_point(text: str, n: int | None = None) -> tuple:
    """Comma-separated Gaussian rational coordinates, e.g. ``"1/2+i, 0"``."""
    # a coordinate is a constant under a parametrization's rules: i, no conj or exp
    row = _KINDS[KIND_PARAMETRIZATION]
    parser = _ExprParser(_tokenize(text, 1), row, row.context(()), ())
    coords = []
    while True:
        value = parser._sum()
        const = value.terms.get((), gq(0)) if value.terms else gq(0)
        coords.append(const)
        tok = parser.peek()
        if tok.kind == "end":
            break
        if tok.kind == "op" and tok.text == ",":
            parser.advance()
            continue
        raise ParseError(f"unexpected {tok.text!r} in point", tok.line, tok.col)
    if n is not None and len(coords) != n:
        raise ParseError(f"expected {n} coordinates, got {len(coords)}", 1, 1)
    return tuple(coords)
