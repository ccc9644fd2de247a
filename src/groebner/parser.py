"""The ideal-file text format.

    # comment
    field QQ            (or Fp:7; optional, Fp:32003 when absent)
    ring w x y z
    f1 = w^2 - x*y
    f2 = w*y - x*z

One statement per line.  Coefficients are integers or integer ratios a/b;
operators are + - * ^ with explicit multiplication only; exponents are
nonnegative integer literals.  Printing a parsed file reproduces it in
canonical form, and parsing canonical output returns the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, GF, QQ
from .orders import GREVLEX, OrderSpec
from .poly import Polynomial, PolynomialRing

__all__ = ["ParseError", "IdealFile", "parse_ideal_file", "print_ideal_file", "parse_polynomial"]


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class IdealFile:
    ring: PolynomialRing
    entries: list           # (name, Polynomial) pairs
    field_declared: bool

    @property
    def generators(self):
        return [p for _, p in self.entries]


def _tokenize(text: str, line_no: int):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        if ch in "+-*^/=":
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, i + 1)
    tokens.append((None, None, i + 1))  # end of line, for errors that reach it
    return tokens


class _ExprParser:
    """term {(+|-) term}; term: factor {* factor};
    factor: rational | name [^ int]."""

    def __init__(self, tokens, ring: PolynomialRing, line_no: int):
        self.tokens = tokens
        self.ring = ring
        self.line = line_no
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, msg, tok):
        raise ParseError(msg, self.line, tok[2])

    def parse(self) -> Polynomial:
        result = self.parse_term()
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                result = result + self.parse_term()
            elif kind == "-":
                self.take()
                result = result - self.parse_term()
            elif kind is None:
                return result
            else:
                self.fail(f"expected '+' or '-', got {self.peek()[1]!r}", self.peek())

    def parse_term(self) -> Polynomial:
        sign = 1
        while self.peek()[0] == "-":
            self.take()
            sign = -sign
        result = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.parse_factor()
        return result if sign > 0 else -result

    def parse_factor(self) -> Polynomial:
        tok = kind, value, _ = self.take()
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.take()
                dtok = self.take()
                if dtok[0] != "int":
                    self.fail("expected an integer denominator", dtok)
                den, p = int(dtok[1]), self.ring.field.modulus
                if den == 0 or (p is not None and den % p == 0):
                    self.fail(f"denominator {den} is zero in {self.ring.field}", dtok)
                return self.ring.constant(Fraction(num, den))
            return self.ring.constant(num)
        if kind == "name":
            if value not in self.ring._index:
                self.fail(f"unknown variable {value!r}", tok)
            base = self.ring.variable(value)
            if self.peek()[0] == "^":
                self.take()
                exp = self.take()
                if exp[0] != "int":
                    self.fail("exponent must be a nonnegative integer", exp)
                return base ** int(exp[1])
            return base
        self.fail("expected a coefficient or a variable", tok)


def _parse_field_token(token: str) -> Field:
    """The field of a token QQ | Fp:p; ValueError names what is wrong."""
    if token == "QQ":
        return QQ
    if token.startswith("Fp:"):
        try:
            p = int(token[3:])
        except ValueError:
            raise ValueError(f"bad modulus in {token!r}") from None
        return GF(p)
    raise ValueError(f"unknown field {token!r} (use QQ or Fp:p)")


def parse_ideal_file(text: str, order: OrderSpec = GREVLEX,
                     field_override: Field | None = None) -> IdealFile:
    field = None
    ring = None
    entries = []
    declared = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword):]
        # columns in the raw line: the keyword's, and the first token after
        # the whitespace that follows it (or the one past the keyword when
        # none follows)
        start = len(raw) - len(raw.lstrip()) + 1
        arg = start + len(keyword) + max(1, len(rest) - len(rest.lstrip()))
        if keyword == "field":
            if ring is not None:
                raise ParseError("field must come before the ring", line_no, start)
            declared = True
            try:
                field = _parse_field_token(rest.strip())
            except ValueError as exc:
                raise ParseError(str(exc), line_no, arg)
            continue
        if keyword == "ring":
            if ring is not None:
                raise ParseError("duplicate ring declaration", line_no, start)
            names = rest.split()
            if not names:
                raise ParseError("ring needs at least one variable", line_no, arg)
            use = field_override or field or GF(32003)
            try:
                ring = PolynomialRing(use, names, order)
            except ValueError as exc:
                raise ParseError(str(exc), line_no, arg)
            continue
        if ring is None:
            raise ParseError("polynomials must follow a ring declaration", line_no, 1)
        tokens = _tokenize(raw, line_no)
        if len(tokens) < 2 or tokens[0][0] != "name" or tokens[1][0] != "=":
            raise ParseError("expected 'name = polynomial'", line_no, tokens[0][2])
        name = tokens[0][1]
        parser = _ExprParser(tokens[2:], ring, line_no)
        entries.append((name, parser.parse()))
    if ring is None:
        raise ParseError("missing ring declaration", 1, 1)
    return IdealFile(ring, entries, declared)


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    tokens = _tokenize(text, 1)
    return _ExprParser(tokens, ring, 1).parse()


def _field_token(field: Field) -> str:
    """The token that _parse_field_token reads back as field."""
    return "QQ" if field.kind == "exact-rationals" else f"Fp:{field.modulus}"


def print_ideal_file(ideal: IdealFile) -> str:
    lines = [f"field {_field_token(ideal.ring.field)}"]
    lines.append("ring " + " ".join(ideal.ring.names))
    for name, poly in ideal.entries:
        lines.append(f"{name} = {poly}")
    return "\n".join(lines) + "\n"
