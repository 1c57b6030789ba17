"""The bijection between rationals in [0,1) and coprime invariant pairs (n, m).

Forward direction: expand a rational to its even-parity simple continued
fraction, read off the k-sequence, and run the path-counting recurrences;
``n`` is the top cumulative count and ``m`` the sum of the earlier ones.
``n`` always equals the reduced denominator and gcd(m, n) = 1, with (1, 0)
reserved for the value 0.

Reverse direction: a modified Euclidean division scheme

    n   = q_0 m + r_1
    r_l = q_l (m - r_1 - ... - r_l) + r_{l+1}

run until the first zero remainder r_h recovers the k-sequence as
k_l = q_{h-l} for l >= 2 and k_1 = q_{h-1} - 1, and from it the rational.

Also here: the two terminal matrix-dimension candidates a rational inherits
from its two simple expansions, and the finite tower of dimension pairs
(q_i, q_{i-1}) with the multiplicity matrices [[a_{i+1}, 1], [1, 0]] linking
consecutive levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .contfrac import (
    ContinuedFraction,
    KSequence,
    convergents,
    expand_simple,
    k_value,
    simple_to_k,
)
from .errors import DomainError
from .paths import path_counts


@dataclass(frozen=True)
class RationalInvariant:
    """A rational together with its k-sequence and invariant pair (n, m)."""

    n: int
    m: int
    k: KSequence
    theta: Fraction


@dataclass(frozen=True)
class TowerLevel:
    """One stage of the dimension tower: level i holds (q_i, q_{i-1}).

    ``mult`` is the multiplicity matrix [[a_{i+1}, 1], [1, 0]] of the
    embedding into the next level, satisfying next.dims = mult @ dims; it is
    None at the final level of a fully expanded fraction, where no further
    term exists.
    """

    level: int
    dims: tuple[int, int]
    mult: tuple[tuple[int, int], tuple[int, int]] | None


def k_to_invariant(k: KSequence) -> tuple[int, int]:
    """(n, m) of a k-sequence: the top cumulative path count and the defect sum."""
    counts = path_counts(k)
    n = counts.cumulative[k.h]
    m = sum(counts.cumulative[: k.h])
    return n, m


def rational_to_invariant(r) -> RationalInvariant:
    """Full forward pipeline for a rational in [0,1)."""
    theta = Fraction(r)
    if not 0 <= theta < 1:
        raise DomainError(f"rational_to_invariant requires 0 <= r < 1, got {theta}")
    k = simple_to_k(expand_simple(theta, "even"))
    n, m = k_to_invariant(k)
    if n != theta.denominator:
        raise AssertionError(f"forward map gave n={n} for {theta}")
    return RationalInvariant(n=n, m=m, k=k, theta=theta)


def invariant_to_k(n: int, m: int) -> KSequence:
    """Recover the k-sequence of an invariant pair by modified Euclidean division.

    Valid inputs are (1, 0) and coprime pairs with 0 < m < n.  Each step
    divides the previous remainder by m minus the remainders consumed so far;
    the quotients, reversed, give the k-sequence (the last one less 1 becomes
    k_1).
    """
    if not (type(n) is int and type(m) is int):
        raise DomainError("n and m must be integers")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n == 1:
        if m != 0:
            raise DomainError(f"for n = 1 the only defect class is m = 0, got {m}")
        return KSequence()
    if not 0 < m < n:
        raise DomainError(f"m must satisfy 0 < m < n, got m={m}, n={n}")
    if gcd(m, n) != 1:
        raise DomainError(f"gcd(m, n) must be 1, got gcd({m}, {n}) = {gcd(m, n)}")

    quotients = []
    q0, rem = divmod(n, m)
    quotients.append(q0)
    consumed = rem  # r_1 + ... + r_l so far
    while rem != 0:
        divisor = m - consumed
        if divisor <= 0:
            raise AssertionError(f"Euclid scheme ran out of divisor at ({n}, {m})")
        ql, rem = divmod(rem, divisor)
        quotients.append(ql)
        consumed += rem
    if m - consumed != 1:  # the scheme bottoms out at 1 for coprime input
        raise AssertionError(f"Euclid scheme ended at {m - consumed}, not 1, for ({n}, {m})")
    entries = quotients[::-1]
    entries[0] -= 1
    return KSequence(tuple(entries))


def invariant_to_rational(n: int, m: int) -> Fraction:
    """The rational in [0,1) attached to an invariant pair; denominator is n."""
    theta = k_value(invariant_to_k(n, m))
    if theta.denominator != n:
        raise AssertionError(f"reverse map gave {theta} for n={n}")
    return theta


def dimension_tower(cf: ContinuedFraction, depth: int) -> list[TowerLevel]:
    """Tower levels 1..depth of a simple CF with a0 = 0.

    Level i has dims (q_i, q_{i-1}) from the convergent denominators and the
    multiplicity matrix toward level i+1 when a term a_{i+1} exists.
    """
    if depth < 0 or depth > len(cf.terms):
        raise DomainError(f"depth must be within 0..{len(cf.terms)}, got {depth}")
    qs = [q for _, q in convergents(cf)]
    levels = []
    for i in range(1, depth + 1):
        mult = ((cf.terms[i], 1), (1, 0)) if i < len(cf.terms) else None
        levels.append(TowerLevel(level=i, dims=(qs[i], qs[i - 1]), mult=mult))
    return levels


def rational_candidates(r) -> tuple[tuple[int, int], tuple[int, int]]:
    """Terminal dimension pairs (q_N, q_{N-1}) of the two simple expansions of r.

    The two expansions of a rational in (0,1) give two natural finite
    dimension pairs; they share q_N = denominator(r).  Returned as
    (even-parity pair, odd-parity pair).
    """
    theta = Fraction(r)
    if not 0 < theta < 1:
        raise DomainError(f"rational_candidates requires 0 < r < 1, got {theta}")
    out = []
    for parity in ("even", "odd"):
        qs = [q for _, q in convergents(expand_simple(theta, parity))]
        out.append((qs[-1], qs[-2]))
    return (out[0], out[1])
