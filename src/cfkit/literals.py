"""Text forms of continued fractions and rationals.

Grammar for continued-fraction literals (whitespace insignificant):

    cf      := "[" INT ( (";" | ",") element ("," element)* )? "]"
    element := INT | group
    group   := "(" INT ("," INT)+ ")" "^" POSINT

A group repeats its string of integers inline, e.g. ``[1,(0,1)^3]`` parses
as ``[1,0,1,0,1,0,1]``.  Either ``;`` or ``,`` may follow the leading term;
the renderer always emits ``;``.  Every integer after the leading one must
be >= 0.  A literal expands to at most 1 000 000 terms after the leading
one; an element that would pass that bound raises :class:`CapExceeded`
before a group is expanded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .contfrac import ContinuedFraction
from .errors import CapExceeded, ParseError, _show_int


# Terms a literal may expand to.  A group multiplies its body before anything
# is evaluated, so "(0,1)^10**15" would otherwise exhaust memory; 10**6 terms
# evaluate in a few seconds.
_MAX_TERMS = 1_000_000

_TOKEN = re.compile(r"\s*(-?\d+|[\[\](),;^])")


def _int(token: str, position: int) -> int:
    """``int(token)``, with the interpreter's int/str digit limit raised as a ParseError."""
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("-"))
        raise ParseError(f"an integer of {digits} digits exceeds this interpreter's limit of"
                         f" {sys.get_int_max_str_digits()} digits for int/str conversion",
                         position) from None


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.i]

    def take(self, expected: str) -> None:
        tok, pos = self.tokens[self.i]
        if tok != expected:
            found = repr(tok) if tok else "end of input"
            raise ParseError(f"expected {expected!r}, found {found}", pos)
        self.i += 1

    def take_int(self, minimum: int | None = None) -> int:
        tok, pos = self.tokens[self.i]
        if not re.fullmatch(r"-?\d+", tok or ""):
            found = repr(tok) if tok else "end of input"
            raise ParseError(f"expected an integer, found {found}", pos)
        value = _int(tok, pos)
        if minimum is not None and value < minimum:
            raise ParseError(f"expected an integer >= {minimum}, found {_show_int(value)}", pos)
        self.i += 1
        return value

    def parse_cf(self) -> ContinuedFraction:
        self.take("[")
        a0 = self.take_int()
        terms: list[int] = []
        if self.peek()[0] in (";", ","):
            self.i += 1
            self.parse_element(terms)
            while self.peek()[0] == ",":
                self.i += 1
                self.parse_element(terms)
        self.take("]")
        tok, pos = self.peek()
        if tok:
            raise ParseError(f"trailing input {tok!r}", pos)
        return ContinuedFraction(a0, tuple(terms))

    def parse_element(self, terms: list[int]) -> None:
        """Append one element to ``terms``, checking the term bound before expanding."""
        if self.peek()[0] == "(":
            body, count = self.parse_group()
        else:
            body, count = [self.take_int(minimum=0)], 1
        total = len(terms) + len(body) * count
        if total > _MAX_TERMS:
            raise CapExceeded(f"the literal expands to at least {_show_int(total)} terms;"
                              f" at most {_MAX_TERMS} are accepted")
        terms.extend(body * count)

    def parse_group(self) -> tuple[list[int], int]:
        self.take("(")
        body = [self.take_int(minimum=0)]
        self.take(",")
        body.append(self.take_int(minimum=0))
        while self.peek()[0] == ",":
            self.i += 1
            body.append(self.take_int(minimum=0))
        self.take(")")
        self.take("^")
        return body, self.take_int(minimum=1)


def parse_cf(text: str) -> ContinuedFraction:
    """Parse a continued-fraction literal; repetition groups are expanded inline."""
    return _Parser(text).parse_cf()


def render_cf(cf: ContinuedFraction) -> str:
    """Canonical text form, re-parseable by :func:`parse_cf`."""
    return str(cf)


_RATIONAL = re.compile(r"\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a bare integer as an exact rational."""
    m = _RATIONAL.match(text)
    if m is None:
        raise ParseError(f"expected a rational like 2/5 or 0, found {text!r}", 0)
    num = _int(m.group(1), m.start(1))
    den = _int(m.group(2), m.start(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ParseError("denominator must be nonzero", m.start(2))
    return Fraction(num, den)
