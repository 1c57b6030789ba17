"""Exact arithmetic on the rationals extended by a single point at infinity.

Continued fractions with zero partial quotients cannot be evaluated with
ordinary rational arithmetic: subexpressions like ``1/0`` appear and must be
read as the point at infinity of the one-point compactification of the reals.
This module provides that partially defined arithmetic.  The two operations
needed by continued-fraction evaluation are addition and reciprocal, with

    x + inf = inf            (x finite)
    1/0     = inf
    1/inf   = 0
    inf + inf = undefined

``undefined`` is an absorbing value rather than an exception, so evaluation
stays total; callers that must not see it check the result.  All values are
immutable and all operations pure.

An extended rational stores an integer pair ``(num, den)``: a finite value is
reduced with ``den > 0``, ``inf`` is ``(1, 0)`` and ``undefined`` is
``(0, 0)``.  Addition and reciprocal work on these integers alone, so a
continued-fraction fold builds no :class:`fractions.Fraction`; the finite
value is handed out as a ``Fraction`` only when :attr:`ExtendedRational.value`
is read, or by ``contfrac.k_value``, which guards and converts the fold's pair
itself, and rationals elsewhere in the package are ``Fraction`` throughout.

The fold's hot branches (an int coerced by :func:`as_extended`, :func:`add`
with an integer left operand, :func:`reciprocal` of a positive value) build
their result in place with the same three calls as ``_make``, so that each
fold step runs two Python frames, ``add`` and ``reciprocal``, not four.
``0 + y``, the step of every zero entry in a k-sequence's padded form,
builds nothing: :func:`add` returns ``y`` itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd
from numbers import Rational as _RationalABC

from .errors import DomainError, _show_int


class ExtendedRational:
    """A rational number, the (unsigned) point at infinity, or ``undefined``.

    There is exactly one infinity; negative infinity does not exist in this
    arithmetic.  Use :func:`finite`, :data:`INFINITY` and :data:`UNDEFINED`
    to obtain instances.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, *args, **kwargs):
        raise TypeError("ExtendedRational has no public constructor; use finite(), INFINITY or UNDEFINED")

    def __setattr__(self, name, value):
        raise AttributeError("ExtendedRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("ExtendedRational is immutable")

    @property
    def is_finite(self) -> bool:
        return self._den != 0

    @property
    def is_infinite(self) -> bool:
        return self._den == 0 and self._num != 0

    @property
    def is_undefined(self) -> bool:
        return self._den == 0 and self._num == 0

    @property
    def value(self) -> Fraction:
        """The finite rational value; raises on ``inf`` and ``undefined``."""
        if self._den == 0:
            raise ValueError(f"no finite value: {self}")
        return Fraction(self._num, self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtendedRational):
            return self._num == other._num and self._den == other._den
        if isinstance(other, _RationalABC):
            return self._den == other.denominator and self._num == other.numerator
        return NotImplemented

    def __hash__(self):
        # A finite value hashes as the equal Fraction does.
        return hash(self.value) if self._den else hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"ExtendedRational({self})"

    def __str__(self) -> str:
        if self._den == 1:
            return str(self._num)
        if self._den:
            return f"{self._num}/{self._den}"
        return "inf" if self._num else "undefined"


# The slot descriptors' setters bypass the __setattr__ that keeps instances immutable.
_new = object.__new__
_set_num = ExtendedRational._num.__set__
_set_den = ExtendedRational._den.__set__


def _make(num: int, den: int) -> ExtendedRational:
    """Build an instance of ``(num, den)``, which must already be in the stored form.

    The cold paths use it; the hot branches of :func:`as_extended`, :func:`add`
    and :func:`reciprocal` inline its three calls.
    """
    x = _new(ExtendedRational)
    _set_num(x, num)
    _set_den(x, den)
    return x


INFINITY = _make(1, 0)
UNDEFINED = _make(0, 0)


def _fraction(r, where: str) -> Fraction:
    """``Fraction(r)``, raising :class:`DomainError` for what it cannot convert, such as inf and nan.

    A ``Fraction`` is returned unchanged.
    """
    if type(r) is Fraction:
        return r
    try:
        return Fraction(r)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{where} requires a rational number, got {_show_int(r)}") from None


def finite(x) -> ExtendedRational:
    """Wrap an int or Fraction (or anything ``Fraction`` accepts) as a finite extended rational."""
    if type(x) is int:
        return _make(x, 1)
    value = _fraction(x, "finite")
    return _make(value.numerator, value.denominator)


def as_extended(x) -> ExtendedRational:
    """Coerce ints and Fractions; pass ExtendedRational through."""
    if type(x) is int:
        r = _new(ExtendedRational)
        _set_num(r, x)
        _set_den(r, 1)
        return r
    if isinstance(x, ExtendedRational):
        return x
    return finite(x)


def add(x: ExtendedRational, y: ExtendedRational) -> ExtendedRational:
    """Partial addition: finite+finite exactly, finite+inf = inf, inf+inf undefined; 0 + y is y."""
    if type(x) is not ExtendedRational:
        x = as_extended(x)
    if type(y) is not ExtendedRational:
        y = as_extended(y)
    a, b = x._num, x._den
    # 0 + y = y for finite y, inf and undefined alike, and y is already in stored form.
    if b == 1 and not a:
        return y
    c, d = y._num, y._den
    if b and d:
        # a/b + c/d with b == 1 is (a*d + c)/d, already reduced: gcd(a*d + c, d) = gcd(c, d) = 1.
        if b == 1:
            r = _new(ExtendedRational)
            _set_num(r, a * d + c)
            _set_den(r, d)
            return r
        num, den = a * d + c * b, b * d
        g = _gcd(num, den)
        return _make(num // g, den // g)
    if x.is_undefined or y.is_undefined or b == d:  # b == d == 0: inf + inf
        return UNDEFINED
    return INFINITY


def reciprocal(x: ExtendedRational) -> ExtendedRational:
    """Partial reciprocal: 1/0 = inf and 1/inf = 0; undefined is absorbing."""
    if type(x) is not ExtendedRational:
        x = as_extended(x)
    num, den = x._num, x._den
    # Swapping a reduced pair keeps it reduced; inf = (1, 0) swaps to 0 = (0, 1).
    if num > 0:
        r = _new(ExtendedRational)
        _set_num(r, den)
        _set_den(r, num)
        return r
    if num < 0:
        return _make(-den, -num)
    return INFINITY if den else UNDEFINED
