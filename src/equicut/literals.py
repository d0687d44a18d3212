"""Parsing and canonical formatting of exact number literals.

Grammar (whitespace between tokens is ignored)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | 'sqrt' '(' expr ')' | '(' expr ')'
    rational := ['-'] digits ['/' digits]

A literal may adjoin at most 8 square roots to Q; a ``sqrt(`` applied once
8 are adjoined is a ``ParseError``.

``format_number`` emits a canonical form: the rational part first, then
square-root terms in increasing radicand order, " + "/" - " between terms,
no redundant "1*" coefficients, and a leading negative square-root term
written as "-1*sqrt(...)" so the result stays inside the grammar.  Values
involving nested radicals print structurally, with composite coefficients
parenthesized.  Formatting a parsed canonical string reproduces it byte for
byte.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .exact import FieldBuilder, KElement, TowerReal, _split, tower_to_k

__all__ = ["ParseError", "format_k_element", "format_number", "parse_number"]


class ParseError(ValueError):
    """A number literal failed to parse; carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = set("+-*/()")

_MAX_NESTING = 100  # parentheses and sqrt(: well inside the recursion limit

# Square roots one literal may adjoin.  Each adjoined root costs about twice
# the one before (8 nested roots parse in 0.03 s and 12 in 0.7 s, Python 3.11
# on 2 shared CPUs), so the cap bounds a literal's parse time.
_MAX_ROOTS = 8


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word != "sqrt":
                raise ParseError(f"unknown word {word!r}", i)
            tokens.append(("sqrt", word, i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.builder = FieldBuilder()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_expr(self) -> TowerReal:
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> TowerReal:
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> TowerReal:
        kind, text, pos = self.peek()
        if kind == "-" or kind == "int":
            return self.builder.embed(self.parse_rational())
        if kind == "sqrt":
            self.take()
            inner = self.parse_group()
            if self.builder.ctx.depth >= _MAX_ROOTS:
                raise ParseError(f"more than {_MAX_ROOTS} square roots", pos)
            return self.builder.sqrt(inner)
        if kind == "(":
            return self.parse_group()
        raise ParseError(f"expected a number, found {text or 'end of input'!r}", pos)

    def parse_group(self) -> TowerReal:
        """'(' expr ')', at most ``_MAX_NESTING`` deep."""
        pos = self.expect("(")[2]
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        num = int(self.expect("int")[1])
        den = 1
        if self.peek()[0] == "/":
            self.take()
            tok = self.expect("int")
            den = int(tok[1])
            if den == 0:
                raise ParseError("zero denominator", tok[2])
        return Fraction(sign * num, den)


def parse_number(text: str) -> TowerReal:
    """Parse a number literal into an exact tower value."""
    parser = _Parser(text)
    value = parser.parse_expr()
    end = parser.take()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return value


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _join_terms(terms: list[tuple[int, str]]) -> str:
    if not terms:
        return "0"
    sign, body = terms[0]
    if sign < 0:
        if body[0].isdigit():
            out = "-" + body
        else:
            out = "-1*" + body
    else:
        out = body
    for sign, body in terms[1:]:
        out += " + " if sign > 0 else " - "
        out += body
    return out


def _term(c: Fraction, root: str) -> tuple[int, str]:
    """The term c*root as (sign, text), with no "1*" coefficient."""
    return (1 if c > 0 else -1), (root if abs(c) == 1 else f"{_frac_str(abs(c))}*{root}")


def _tower_terms(value: TowerReal) -> list[tuple[int, str]]:
    flat = tower_to_k(value)
    if flat is not None:
        return _k_terms(flat)
    # Genuinely nested field: format structurally as p + q*sqrt(r).
    p, q, r = _split(value, value.ctx)
    terms = _tower_terms(p)
    if not q.is_zero():
        root = f"sqrt({format_number(r)})"
        qf = q.as_fraction()
        terms.append((1, f"({format_number(q)})*{root}") if qf is None else _term(qf, root))
    return terms


def _k_terms(value: KElement) -> list[tuple[int, str]]:
    return [
        (1 if c > 0 else -1, _frac_str(abs(c))) if d == 1 else _term(c, f"sqrt({d})")
        for d, c in value.terms
    ]


def format_number(value: Union[TowerReal, KElement, Fraction, int]) -> str:
    """Canonical literal for an exact value; ``parse_number`` inverts it.

    Values lying in a multiquadratic field print as the rational part
    followed by square-root terms in increasing radicand order; nested
    radicals print structurally with parenthesized composite coefficients.
    """
    if isinstance(value, KElement):
        return format_k_element(value)
    if isinstance(value, (int, Fraction)):
        value = TowerReal.from_rational(value)
    return _join_terms(_tower_terms(value))


def format_k_element(value: KElement) -> str:
    return _join_terms(_k_terms(value))
