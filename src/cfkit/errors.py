"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class CapExceeded(DomainError):
    """A requested enumeration is larger than the configured cap."""


_SHOWN_BOUND = 10**100  # integers below it in magnitude print in decimal


def _show_int(n: int) -> str:
    """``n`` in decimal up to 100 digits, else by bit length.

    A message must not convert a long integer to decimal: the conversion is
    quadratic in the digit count and, past the interpreter's int/str digit
    limit, raises a bare ``ValueError`` in place of the intended error.
    """
    if abs(n) < _SHOWN_BOUND:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"
