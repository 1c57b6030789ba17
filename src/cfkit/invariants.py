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
    d, n = q.d, q.n
    if bf.order != d * n:
        return False
    # by_code[u*n + v] is the index of the representative projecting to (u, v).
    by_code = [-1] * (d * n)
    keys = []
    for i, r in enumerate(bf.reps):
        u, v = project(r, q)
        if by_code[u * n + v] >= 0:
            return False
        by_code[u * n + v] = i
        keys.append(u * 2 * n + v)
    # Tiled 2d x 2n, the code of (u1 + u2, v1 + v2) is one lookup at keys[i] + keys[j].
    tiled = [by_code[u % d * n + v % n] for u in range(2 * d) for v in range(2 * n)]
    for i, k1 in enumerate(keys):
        if list(bf.table[i]) != [tiled[k1 + k2] for k2 in keys]:
            return False
    return True


def brute_force_quotient(a: IndexPair, n: int, cap: int = BRUTE_FORCE_CAP) -> BruteForceQuotient:
    """Enumerate Z^2/(Za + nZ^2): canonical reps and the full addition table.

    Multiples of a and of (n,0), (0,n) tile the box [0,n)^2 into cosets.  The
    box is scanned in lexicographic order, and the first point not yet in a
    coset is the least point of its coset, so ``reps`` comes out sorted.  The
    scan visits each of the n^2 points once; the table has (d*n)^2 entries,
    up to n^4 when d = gcd(a_+, a_-, n) = n, hence the cap.
    """
    a = _index_pair(a, n)
    if a == (0, 0):
        raise DomainError("degenerate index (0, 0)")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the brute-force cap {cap}")
    ap, am = a[0] % n, a[1] % n
    coset = [-1] * (n * n)  # coset[x*n + y]: index of the coset of (x, y)
    reps = []
    for x in range(n):
        for y in range(n):
            if coset[x * n + y] >= 0:
                continue
            i = len(reps)
            reps.append((x, y))
            px, py = x, y
            while coset[px * n + py] < 0:  # walk (x, y) + t*a until it closes up
                coset[px * n + py] = i
                px, py = (px + ap) % n, (py + am) % n
    # Tiled 2n x 2n, the coset of r1 + r2 is one lookup at flat[r1] + flat[r2].
    tiled = [coset[x % n * n + y % n] for x in range(2 * n) for y in range(2 * n)]
    flat = [x * 2 * n + y for x, y in reps]
    table = tuple(tuple([tiled[f1 + f2] for f2 in flat]) for f1 in flat)
    return BruteForceQuotient(a=a, n=n, reps=tuple(reps), table=table)
