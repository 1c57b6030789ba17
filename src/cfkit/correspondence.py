"""The bijection between rationals in [0,1) and coprime invariant pairs (n, m).

Forward direction: expand a rational to its even simple continued fraction
``[0; a_1, ..., a_N]`` (Euclid takes a quotient of 1 with no division) and
read off the k-sequence.  ``n`` is the top cumulative path count and ``m``
the sum of the earlier ones: the continuants ``(q_N, q_{N-1})`` of that
expansion (see :mod:`cfkit.paths`), the one pair ``path_counts`` keeps.
``n`` always equals the reduced denominator and gcd(m, n) = 1, with (1, 0)
reserved for the value 0.

Reverse direction: continuants read the same backwards, ``q_N/q_{N-1} =
[a_N; a_{N-1}, ..., a_1]``, so the even expansion of ``m/n`` is theta's,
reversed; equivalently ``m = -p^-1 mod q`` for ``theta = p/q``.  The paper's
modified Euclidean division scheme, which recovers the k-sequence from
(n, m) step by step, is kept in the tests as the oracle for this route.

Also here: the two terminal matrix-dimension candidates a rational inherits
from its two simple expansions, and the finite tower of dimension pairs
(q_i, q_{i-1}) with the multiplicity matrices [[a_{i+1}, 1], [1, 0]] linking
consecutive levels.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd

from ._value import _slot_setters, _Value
from .contfrac import (
    ContinuedFraction,
    KSequence,
    _continuants,
    _k_sequence,
    _require_zero_head_simple,
    _simple_terms,
    k_value,
)
from .errors import DomainError, _require_type, _show_int
from .exact import _fraction
from .paths import path_counts


class RationalInvariant(_Value):
    """A rational together with its k-sequence and invariant pair (n, m)."""

    __slots__ = __match_args__ = ("n", "m", "k", "theta")
    n: int
    m: int
    k: KSequence
    theta: Fraction

    def __init__(self, n: int, m: int, k: KSequence, theta: Fraction):
        _set_n(self, n)
        _set_m(self, m)
        _set_k(self, k)
        _set_theta(self, theta)


_set_n, _set_m, _set_k, _set_theta = _slot_setters(RationalInvariant)


class TowerLevel(_Value):
    """One stage of the dimension tower: level i holds (q_i, q_{i-1}).

    ``mult`` is the multiplicity matrix [[a_{i+1}, 1], [1, 0]] of the
    embedding into the next level, satisfying next.dims = mult @ dims; it is
    None at the final level of a fully expanded fraction, where no further
    term exists.
    """

    __slots__ = __match_args__ = ("level", "dims", "mult")
    level: int
    dims: tuple[int, int]
    mult: tuple[tuple[int, int], tuple[int, int]] | None

    def __init__(self, level: int, dims: tuple[int, int], mult: tuple[tuple[int, int], tuple[int, int]] | None):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mult", mult)


def k_to_invariant(k: KSequence) -> tuple[int, int]:
    """(n, m) of a k-sequence: the top cumulative path count and the defect sum.

    ``n = cumulative[h]`` and ``m = sum(cumulative[:h])`` are the continuants
    (q_N, q_{N-1}) of k's even simple expansion, the pair that
    :func:`path_counts` keeps, so neither count tuple is built.  The zero
    sequence (h = 0, no terms) gives (q_0, q_{-1}) = (1, 0).
    """
    _require_type(k, KSequence, "k_to_invariant")
    return path_counts(k)._invariant()


def rational_to_invariant(r) -> RationalInvariant:
    """Full forward pipeline for a rational in [0,1)."""
    theta = _fraction(r, "rational_to_invariant")
    num, den = theta.numerator, theta.denominator
    if not 0 <= num < den:
        raise DomainError(f"rational_to_invariant requires 0 <= r < 1, got {_show_int(theta)}")
    k = _k_sequence(_simple_terms(num, den, "even"))
    n, m = k_to_invariant(k)
    if n != den:
        raise AssertionError(f"forward map gave n={_show_int(n)} for {_show_int(theta)}")
    return RationalInvariant(n, m, k, theta)


def invariant_to_k(n: int, m: int) -> KSequence:
    """Recover the k-sequence of an invariant pair from the expansion of ``m/n``, reversed.

    Valid inputs are (1, 0) and coprime pairs with 0 < m < n.  Raises
    :class:`CapExceeded` when the height h exceeds the dense-entry bound.
    """
    if not (type(n) is int and type(m) is int):
        raise DomainError("n and m must be integers")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {_show_int(n)}")
    if n == 1:
        if m != 0:
            raise DomainError(f"for n = 1 the only defect class is m = 0, got {_show_int(m)}")
        return KSequence()
    if not 0 < m < n:
        raise DomainError(f"m must satisfy 0 < m < n, got m={_show_int(m)}, n={_show_int(n)}")
    if (d := gcd(m, n)) != 1:
        raise DomainError(f"gcd(m, n) must be 1, got gcd{_show_int((m, n))} = {_show_int(d)}")
    # m/n = [0; a_N, ..., a_1] for theta = [0; a_1, ..., a_N], even expansions both.
    return _k_sequence(_simple_terms(m, n, "even")[::-1])


def invariant_to_rational(n: int, m: int) -> Fraction:
    """The rational in [0,1) attached to an invariant pair; denominator is n."""
    return _k_rational(invariant_to_k(n, m), n)


def _k_rational(k: KSequence, n: int) -> Fraction:
    """The value of ``invariant_to_k(n, m)``, which must have denominator n."""
    theta = k_value(k)
    if theta.denominator != n:
        raise AssertionError(f"reverse map gave {_show_int(theta)} for n={_show_int(n)}")
    return theta


def dimension_tower(cf: ContinuedFraction, depth: int) -> list[TowerLevel]:
    """Tower levels 1..depth of a simple CF with a0 = 0.

    Level i has dims (q_i, q_{i-1}) from the convergent denominators and the
    multiplicity matrix toward level i+1 when a term a_{i+1} exists.
    """
    _require_zero_head_simple(cf, "dimension_tower")
    if type(depth) is not int:
        raise DomainError(f"depth must be an integer, got {_show_int(depth)}")
    if depth < 0 or depth > len(cf.terms):
        raise DomainError(f"depth must be within 0..{len(cf.terms)}, got {_show_int(depth)}")
    qs = tuple(_continuants(cf.terms[:depth]))  # q_{-1}, q_0, ..., q_depth
    levels = []
    for i in range(1, depth + 1):
        mult = ((cf.terms[i], 1), (1, 0)) if i < len(cf.terms) else None
        levels.append(TowerLevel(level=i, dims=(qs[i + 1], qs[i]), mult=mult))
    return levels


def rational_candidates(r) -> tuple[tuple[int, int], tuple[int, int]]:
    """Terminal dimension pairs (q_N, q_{N-1}) of the two simple expansions of r.

    The two expansions of a rational in (0,1) give two natural finite
    dimension pairs; they share q_N = denominator(r).  Returned as
    (even-parity pair, odd-parity pair).  These are ``(q, x)`` and
    ``(q, q - x)`` for ``r = p/q``, with ``x`` the continuant q_{N-1} of the
    even expansion, the forward map's ``m`` (``-p^-1 mod q``).
    """
    theta = _fraction(r, "rational_candidates")
    p, q = theta.numerator, theta.denominator
    if not 0 < p < q:
        raise DomainError(f"rational_candidates requires 0 < r < 1, got {_show_int(theta)}")
    x, _ = deque(_continuants(_simple_terms(p, q, "even")), maxlen=2)  # q_{N-1}, q_N = q
    return (q, x), (q, q - x)
