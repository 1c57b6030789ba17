"""Exception types shared across the package."""

from fractions import Fraction


class DomainError(ValueError):
    """An input violates a documented precondition."""


class CapExceeded(DomainError):
    """A requested enumeration is larger than a fixed bound."""


class ParseError(ValueError):
    """A malformed literal, with the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _require_type(value, cls: type, where: str) -> None:
    """Raise :class:`DomainError` naming ``where`` and the type of ``value`` unless it is a ``cls``."""
    if not isinstance(value, cls):
        raise DomainError(f"{where} expects {cls.__name__}, got {type(value).__name__}")


_SHOWN_BOUND = 10**100  # integers below it in magnitude print in decimal


def _show_int(value) -> str:
    """``value`` as ``repr`` shows it, but an integer of over 100 digits by bit length.

    Integers inside a ``Fraction`` (shown as ``p/q``), a tuple or a list are
    shown the same way.  A message must not convert a long integer to decimal: the
    conversion is quadratic in the digit count and, past the interpreter's
    int/str digit limit, raises a bare ``ValueError`` in place of the
    intended error.
    """
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show_int, value)) + ("," if len(value) == 1 else "") + ")"
    if isinstance(value, list):
        return "[" + ", ".join(map(_show_int, value)) + "]"
    if isinstance(value, Fraction):
        shown = _show_int(value.numerator)
        return shown if value.denominator == 1 else f"{shown}/{_show_int(value.denominator)}"
    if not isinstance(value, int) or abs(value) < _SHOWN_BOUND:
        return repr(value)
    return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
