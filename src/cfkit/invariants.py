"""Quotients of Z^2 by Za + nZ^2 and the extension isomorphism invariant.

An extension descriptor carries the matrix size ``n``, an index pair
``a = (a_+, a_-)`` in Z^2, and a defect pair ``(k_+, k_-)`` in N^2.  Its
isomorphism class is determined by ``n``, the orbit of ``a`` under negation
and coordinate swap, and the image of the defect pair in the quotient group

    D = Z^2 / (Za + nZ^2)  ~=  Z/d + Z/n,   d = gcd(a_+, a_-, n).

The closed-form isomorphism is computed from c = gcd(a), a' = a/c, and a
Bezout companion b with -a'_+ b_- + a'_- b_+ = 1, via the skew pairing
A = [[0,-1],[1,0]]:

    k  |->  (k^T A b mod d,  k^T A^T a' mod n).

``brute_force_quotient`` enumerates the cosets directly and is the
independent oracle for the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CapExceeded, DomainError

IndexPair = tuple[int, int]
DefectPair = tuple[int, int]

BRUTE_FORCE_CAP = 32


@dataclass(frozen=True)
class QuotientGroup:
    """The data presenting D = Z^2/(Za + nZ^2) and its closed-form projection."""

    n: int
    a: IndexPair
    c: int
    a_prime: IndexPair
    b: IndexPair
    d: int

    @property
    def order(self) -> int:
        return self.d * self.n


@dataclass(frozen=True)
class ExtensionDescriptor:
    """Numerical data of one extension: matrix size, index pair, defect pair."""

    n: int
    index: IndexPair
    defects: DefectPair

    def __post_init__(self):
        index, defects = tuple(self.index), tuple(self.defects)
        if not (len(index) == len(defects) == 2 and all(type(x) is int for x in (self.n, *index, *defects))):
            raise DomainError(f"n and the index and defect pairs must be integers, got {self!r}")
        if self.n < 1:
            raise DomainError(f"matrix size n must be >= 1, got {self.n}")
        if defects[0] < 0 or defects[1] < 0:
            raise DomainError(f"defects must be >= 0, got {defects}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "defects", defects)


@dataclass(frozen=True)
class InvariantClass:
    """Canonical isomorphism invariant: n, canonical index, canonical defect class."""

    n: int
    index_orbit: IndexPair
    mbar: tuple[int, int]


def _bezout_companion(a_prime: IndexPair) -> IndexPair:
    """Deterministic b with -a'_+ b_- + a'_- b_+ = 1.

    Solutions differ by integer multiples of a'; the representative is fixed
    by taking b_+ in [0, |a'_+|) when a'_+ != 0, else b_- = 0.
    """
    ap, am = a_prime
    if ap == 0:
        b_plus, b_minus = am, 0
    else:
        b_plus = pow(am, -1, abs(ap))
        b_minus = (am * b_plus - 1) // ap
    if -ap * b_minus + am * b_plus != 1:
        raise AssertionError(f"companion ({b_plus}, {b_minus}) of {a_prime} breaks the pairing")
    return (b_plus, b_minus)


def _index_pair(a, n) -> IndexPair:
    """``a`` as a tuple, after checking that it and ``n`` hold only integers."""
    a = tuple(a)
    if not (len(a) == 2 and all(type(x) is int for x in (*a, n))):
        raise DomainError(f"index pair and n must be integers, got a={a!r}, n={n!r}")
    return a


def build_quotient(a: IndexPair, n: int) -> QuotientGroup:
    """Construct the presentation of Z^2/(Za + nZ^2) for a != (0,0), n >= 1."""
    a = _index_pair(a, n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if a == (0, 0):
        raise DomainError("degenerate index (0, 0)")
    c = gcd(a[0], a[1])
    a_prime = (a[0] // c, a[1] // c)
    b = _bezout_companion(a_prime)
    d = gcd(c, n)
    return QuotientGroup(n=n, a=a, c=c, a_prime=a_prime, b=b, d=d)


def project(k: tuple[int, int], q: QuotientGroup) -> tuple[int, int]:
    """Image of k in Z/d x Z/n: (k^T A b mod d, k^T A^T a' mod n)."""
    first = (-k[0] * q.b[1] + k[1] * q.b[0]) % q.d
    second = (k[0] * q.a_prime[1] - k[1] * q.a_prime[0]) % q.n
    return (first, second)


def defect_class_mod_n(defects: DefectPair, n: int) -> int:
    """(k_+ + k_-) mod n, the defect class for index (-1, 1) where d = 1."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return (defects[0] + defects[1]) % n


def symmetry_orbit(a: IndexPair) -> IndexPair:
    """Lexicographic minimum of {a, -a, swap(a), -swap(a)}."""
    ap, am = a
    return min((ap, am), (-ap, -am), (am, ap), (-am, -ap))


# The symmetry group acting on descriptors: (negate index?, swap coordinates?).
# Negation leaves the defect pair fixed; the swap exchanges its coordinates.
_SYMMETRIES = ((1, False), (-1, False), (1, True), (-1, True))


def _apply(sym: tuple[int, bool], index: IndexPair, defects: DefectPair):
    sign, swap = sym
    a = (index[1], index[0]) if swap else index
    k = (defects[1], defects[0]) if swap else defects
    return (sign * a[0], sign * a[1]), k


def is_isomorphic(e: ExtensionDescriptor, f: ExtensionDescriptor) -> bool:
    """Decide isomorphism of the extensions described by ``e`` and ``f``.

    False unless the sizes agree and the index orbits agree; otherwise the
    descriptors are isomorphic iff some symmetry aligning f's index onto e's
    carries f's defect class onto e's in the common quotient group.
    """
    if e.n != f.n:
        return False
    if symmetry_orbit(e.index) != symmetry_orbit(f.index):
        return False
    q = build_quotient(e.index, e.n)
    target = project(e.defects, q)
    for sym in _SYMMETRIES:
        a, k = _apply(sym, f.index, f.defects)
        if a == e.index and project(k, q) == target:
            return True
    return False


def invariant_class(e: ExtensionDescriptor) -> InvariantClass:
    """Canonical form: two descriptors are isomorphic iff their classes are equal."""
    canon = symmetry_orbit(e.index)
    q = build_quotient(canon, e.n)
    images = [
        project(k, q)
        for sym in _SYMMETRIES
        for a, k in [_apply(sym, e.index, e.defects)]
        if a == canon
    ]
    return InvariantClass(n=e.n, index_orbit=canon, mbar=min(images))


def tensor_factor(e: ExtensionDescriptor, t: int) -> tuple[int, int]:
    """Factor out a t x t matrix tensor from a descriptor with index (-1, 1).

    Writing m for the defect class in [0, n), the factor exists iff t divides
    both m and n, and then has invariant (p, l) = (n/t, m/t).  Divisibility is
    necessary, so anything else raises.
    """
    if symmetry_orbit(e.index) != (-1, 1):
        raise DomainError(f"tensor factorization needs index (-1,1) up to symmetry, got {e.index}")
    if t < 1:
        raise DomainError(f"tensor size t must be >= 1, got {t}")
    m = defect_class_mod_n(e.defects, e.n)
    if e.n % t != 0 or m % t != 0:
        raise DomainError(f"no factorization: {t} does not divide both m={m} and n={e.n}")
    return (e.n // t, m // t)


@dataclass(frozen=True)
class BruteForceQuotient:
    """Cosets of Za + nZ^2 enumerated directly from the box [0,n)^2.

    ``reps`` holds the lexicographically least point of each coset, sorted,
    and ``table[i][j]`` is the index of the coset of ``reps[i] + reps[j]``.
    """

    a: IndexPair
    n: int
    reps: tuple[tuple[int, int], ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.reps)


def projection_matches_brute_force(q: QuotientGroup, bf: BruteForceQuotient) -> bool:
    """Check the closed-form projection against the enumerated quotient.

    True when the projection restricted to the coset representatives is a
    bijection onto Z/d x Z/n and respects the enumerated addition table.
    """
    images = [project(r, q) for r in bf.reps]
    full = {(i, j) for i in range(q.d) for j in range(q.n)}
    if len(set(images)) != len(images) or set(images) != full:
        return False
    for i in range(bf.order):
        for j in range(bf.order):
            expected = (
                (images[i][0] + images[j][0]) % q.d,
                (images[i][1] + images[j][1]) % q.n,
            )
            if images[bf.table[i][j]] != expected:
                return False
    return True


def brute_force_quotient(a: IndexPair, n: int, cap: int = BRUTE_FORCE_CAP) -> BruteForceQuotient:
    """Enumerate Z^2/(Za + nZ^2): canonical reps and the full addition table.

    Multiples of a and of (n,0), (0,n) tile the box [0,n)^2 into cosets;
    reducing t over 0..n-1 suffices because n*a lies in nZ^2.  Work grows
    like n^3, hence the cap.
    """
    a = _index_pair(a, n)
    if a == (0, 0):
        raise DomainError("degenerate index (0, 0)")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the brute-force cap {cap}")
    rep_of: dict[tuple[int, int], tuple[int, int]] = {}
    for x in range(n):
        for y in range(n):
            if (x, y) in rep_of:
                continue
            orbit = {((x + t * a[0]) % n, (y + t * a[1]) % n) for t in range(n)}
            rep = min(orbit)
            for point in orbit:
                rep_of[point] = rep
    reps = sorted(set(rep_of.values()))
    idx = {r: i for i, r in enumerate(reps)}
    table = tuple(
        tuple(idx[rep_of[((r1[0] + r2[0]) % n, (r1[1] + r2[1]) % n)]] for r2 in reps)
        for r1 in reps
    )
    return BruteForceQuotient(a=a, n=n, reps=tuple(reps), table=table)
