"""Quotients of Z^2 by Za + nZ^2 and the extension isomorphism invariant.

An extension descriptor carries the matrix size ``n``, an index pair
``a = (a_+, a_-) != (0, 0)`` in Z^2, and a defect pair ``(k_+, k_-)`` in
N^2.  Its isomorphism class is determined by ``n``, the orbit of ``a`` under
negation and coordinate swap, and the image of the defect pair in the
quotient group

    D = Z^2 / (Za + nZ^2)  ~=  Z/d + Z/n,   d = gcd(a_+, a_-, n).

The closed-form isomorphism is computed from c = gcd(a), a' = a/c, and a
Bezout companion b with -a'_+ b_- + a'_- b_+ = 1, via the skew pairing
A = [[0,-1],[1,0]]:

    k  |->  (k^T A b mod d,  k^T A^T a' mod n).

Isomorphism is decided by equality of these complete invariant classes
(``invariant_class``); the search for a symmetry that carries one
descriptor onto the other's coset is the tests' oracle, not a second route.

``brute_force_quotient`` enumerates the cosets directly, walking the rows of
the box [0,n)^2 under x -> x + a_+ rather than its n^2 points, and is the
independent oracle for the closed form, for addition tables of up to 2^20
entries; ``projection_matches_brute_force`` checks the table a row at a time.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

from ._value import _Value
from .errors import CapExceeded, DomainError, _require_type, _show_int

IndexPair = tuple[int, int]
DefectPair = tuple[int, int]

# The brute-force addition table has (d*n)^2 entries, at least the n^2 points
# of the box, and is built only up to this size: d = n = 32, and d = 1 with
# n = 1024, fit exactly.
_MAX_CELLS = 1 << 20


class QuotientGroup(_Value):
    """The data presenting D = Z^2/(Za + nZ^2) and its closed-form projection."""

    __slots__ = __match_args__ = ("n", "a", "c", "a_prime", "b", "d")
    n: int
    a: IndexPair
    c: int
    a_prime: IndexPair
    b: IndexPair
    d: int

    def __init__(self, n: int, a: IndexPair, c: int, a_prime: IndexPair, b: IndexPair, d: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_prime", a_prime)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @property
    def order(self) -> int:
        return self.d * self.n


class ExtensionDescriptor(_Value):
    """Numerical data of one extension: matrix size n >= 1, index pair other than (0, 0), defect pair."""

    __slots__ = __match_args__ = ("n", "index", "defects")
    n: int
    index: IndexPair
    defects: DefectPair

    def __init__(self, n: int, index: IndexPair, defects: DefectPair):
        index_pair, defect_pair = _int_pair(index), _int_pair(defects)
        if index_pair is None or defect_pair is None or type(n) is not int:
            raise DomainError(f"n and the index and defect pairs must be integers, got n={_show_int(n)},"
                              f" index={_show_int(index)}, defects={_show_int(defects)}")
        if n < 1:
            raise DomainError(f"matrix size n must be >= 1, got {_show_int(n)}")
        if index_pair == (0, 0):
            raise DomainError("degenerate index (0, 0)")
        if defect_pair[0] < 0 or defect_pair[1] < 0:
            raise DomainError(f"defects must be >= 0, got {_show_int(defect_pair)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", index_pair)
        object.__setattr__(self, "defects", defect_pair)


class InvariantClass(_Value):
    """Canonical isomorphism invariant: n, canonical index, canonical defect class."""

    __slots__ = __match_args__ = ("n", "index_orbit", "mbar")
    n: int
    index_orbit: IndexPair
    mbar: tuple[int, int]

    def __init__(self, n: int, index_orbit: IndexPair, mbar: tuple[int, int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index_orbit", index_orbit)
        object.__setattr__(self, "mbar", mbar)


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
        raise AssertionError(f"companion {_show_int((b_plus, b_minus))} of {_show_int(a_prime)} breaks the pairing")
    return (b_plus, b_minus)


def _int_pair(value) -> tuple[int, int] | None:
    """``value`` as a tuple of two exact ints, or None when it is anything else."""
    try:
        x, y = value
    except (TypeError, ValueError):
        return None
    return (x, y) if type(x) is int and type(y) is int else None


def _index_pair(a, n) -> IndexPair:
    """``a`` as a tuple, after checking that it is a pair of integers other than (0, 0), and n >= 1."""
    pair = _int_pair(a)
    if pair is None or type(n) is not int:
        raise DomainError(f"index pair and n must be integers, got a={_show_int(a)}, n={_show_int(n)}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {_show_int(n)}")
    if pair == (0, 0):
        raise DomainError("degenerate index (0, 0)")
    return pair


def build_quotient(a: IndexPair, n: int) -> QuotientGroup:
    """Construct the presentation of Z^2/(Za + nZ^2) for a != (0,0), n >= 1."""
    a = _index_pair(a, n)
    c = gcd(a[0], a[1])
    a_prime = (a[0] // c, a[1] // c)
    b = _bezout_companion(a_prime)
    d = gcd(c, n)
    return QuotientGroup(n=n, a=a, c=c, a_prime=a_prime, b=b, d=d)


def project(k: tuple[int, int], q: QuotientGroup) -> tuple[int, int]:
    """Image of k in Z/d x Z/n: (k^T A b mod d, k^T A^T a' mod n)."""
    _require_type(q, QuotientGroup, "project")
    pair = _int_pair(k)
    if pair is None:
        raise DomainError(f"k must be a pair of integers, got {_show_int(k)}")
    x, y = pair
    first = (-x * q.b[1] + y * q.b[0]) % q.d
    second = (x * q.a_prime[1] - y * q.a_prime[0]) % q.n
    return (first, second)


def is_isomorphic(e: ExtensionDescriptor, f: ExtensionDescriptor) -> bool:
    """Decide isomorphism of the extensions described by ``e`` and ``f``.

    The invariant class is complete, so the extensions are isomorphic iff
    their classes are equal.  The search for a symmetry carrying f onto e's
    coset is kept in the tests as the independent oracle.
    """
    _require_type(e, ExtensionDescriptor, "is_isomorphic")
    _require_type(f, ExtensionDescriptor, "is_isomorphic")
    return _invariant_class(e) == _invariant_class(f)


def invariant_class(e: ExtensionDescriptor) -> InvariantClass:
    """Canonical form: two descriptors are isomorphic iff their classes are equal."""
    _require_type(e, ExtensionDescriptor, "invariant_class")
    return _invariant_class(e)


def _invariant_class(e: ExtensionDescriptor) -> InvariantClass:
    """The class of a checked descriptor; ``is_isomorphic`` calls it, not the public name that perfbench counts."""
    (ap, am), (kp, km) = e.index, e.defects
    # The symmetries move (index, defects): negation fixes the defects, the swap exchanges them.
    moved = (((ap, am), (kp, km)), ((-ap, -am), (kp, km)), ((am, ap), (km, kp)), ((-am, -ap), (km, kp)))
    canon = min(a for a, _ in moved)
    q = build_quotient(canon, e.n)
    return InvariantClass(n=e.n, index_orbit=canon, mbar=min(project(k, q) for a, k in moved if a == canon))


def tensor_factor(e: ExtensionDescriptor, t: int) -> tuple[int, int]:
    """Factor out a t x t matrix tensor from a descriptor with index (-1, 1).

    Writing m = (k_+ + k_-) mod n for the defect class, the factor exists
    iff t divides both m and n, and then has invariant (p, l) = (n/t, m/t).
    Divisibility is necessary, so anything else raises.
    """
    _require_type(e, ExtensionDescriptor, "tensor_factor")
    if e.index not in ((-1, 1), (1, -1)):  # the orbit of (-1, 1) under negation and swap
        raise DomainError(f"tensor factorization needs index (-1,1) up to symmetry, got {_show_int(e.index)}")
    if type(t) is not int:
        raise DomainError(f"tensor size t must be an integer, got {_show_int(t)}")
    if t < 1:
        raise DomainError(f"tensor size t must be >= 1, got {_show_int(t)}")
    m = sum(e.defects) % e.n
    if e.n % t != 0 or m % t != 0:
        raise DomainError(f"no factorization: {_show_int(t)} does not divide both m={_show_int(m)} and n={_show_int(e.n)}")
    return (e.n // t, m // t)


class BruteForceQuotient(_Value):
    """Cosets of Za + nZ^2 enumerated directly from the box [0,n)^2.

    ``reps`` holds the lexicographically least point of each coset, sorted,
    and ``table[i][j]`` is the index of the coset of ``reps[i] + reps[j]``.
    """

    __slots__ = __match_args__ = ("a", "n", "reps", "table")
    a: IndexPair
    n: int
    reps: tuple[tuple[int, int], ...]
    table: tuple[tuple[int, ...], ...]

    def __init__(self, a: IndexPair, n: int, reps: tuple[tuple[int, int], ...], table: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "table", table)

    @property
    def order(self) -> int:
        return len(self.reps)


def _tile(grid: list[int], rows: int, cols: int) -> list[int]:
    """The row-major ``rows`` x ``cols`` grid tiled 2 x 2, as a row-major list.

    Entry ``(x, y)`` of the result is ``grid[x % rows * cols + y % cols]``.
    """
    tiled: list[int] = []
    for start in range(0, rows * cols, cols):
        row = grid[start:start + cols]
        tiled += row
        tiled += row
    return tiled * 2


def _sum_rows(grid: list[int], keys: list[int]):
    """Row i is ``grid[keys[i] + keys[j]]`` over j: one gather per row, as tuples."""
    span = max(keys) + 1
    get = itemgetter(*keys) if len(keys) > 1 else lambda s: (s[keys[0]],)  # one key gathers a scalar
    return (get(grid[k:k + span]) for k in keys)


def projection_matches_brute_force(q: QuotientGroup, bf: BruteForceQuotient) -> bool:
    """Check the closed-form projection against the enumerated quotient.

    True when ``bf`` was enumerated for the same ``(a, n)`` as ``q``, and the
    projection restricted to its coset representatives is a bijection onto
    Z/d x Z/n that respects the enumerated addition table.
    """
    _require_type(q, QuotientGroup, "projection_matches_brute_force")
    _require_type(bf, BruteForceQuotient, "projection_matches_brute_force")
    d, n = q.d, q.n
    if (bf.a, bf.n) != (q.a, q.n) or bf.order != d * n:
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
    # Tiled 2d x 2n, the code of (u1 + u2, v1 + v2) is at keys[i] + keys[j].
    for i, row in enumerate(_sum_rows(_tile(by_code, d, n), keys)):
        if tuple(bf.table[i]) != row:
            return False
    return True


def brute_force_quotient(a: IndexPair, n: int) -> BruteForceQuotient:
    """Enumerate Z^2/(Za + nZ^2): canonical reps and the full addition table.

    Multiples of a and of (n,0), (0,n) tile the box [0,n)^2 into cosets.  The
    rows are scanned in order, and a row that no earlier walk reached starts
    a walk x -> x + a_+ (mod n) through its orbit of rows.  Every walk has the
    same length and ends shifted by the same s along its starting row, so a
    coset meets each row of its orbit every p = gcd(s, n) columns.  The
    starting row's points at columns 0..p-1 are the least points of p new
    cosets, so ``reps`` comes out sorted, and every other row of the walk
    carries the same labels rotated by the walk's running a_- shift.  The
    scan takes O(n) steps; the table has (d*n)^2 entries, up to n^4 when
    d = gcd(a_+, a_-, n) = n, and each of its rows is one gather.  A table of
    more than 2^20 entries raises :class:`CapExceeded` before anything is
    allocated.
    """
    a = _index_pair(a, n)
    cells = (gcd(a[0], a[1], n) * n) ** 2
    if cells > _MAX_CELLS:
        raise CapExceeded(f"n={_show_int(n)} needs an addition table of {_show_int(cells)} entries,"
                          f" over the bound {_MAX_CELLS}")
    ap, am = a[0] % n, a[1] % n
    walk = [-1] * n  # walk[x]: index of the walk that reached row x
    shift = [0] * n  # shift[x]: that walk's running a_- shift at row x
    fresh = []  # the row each walk started from
    for x in range(n):
        if walk[x] >= 0:
            continue
        px, s = x, 0
        while walk[px] < 0:  # walk x -> x + a_+ until it closes up
            walk[px], shift[px] = len(fresh), s
            px, s = (px + ap) % n, s + am
        fresh.append(x)
    p = gcd(s, n)  # every walk has the same length and ends shifted by the same s
    # Tuples are made from lists: one grown from a generator is resized as it
    # fills, which fragments the heap over many calls.
    reps = tuple([(x, y) for x in fresh for y in range(p)])
    # grid[x*2p + y] is the coset of (x mod n, y) for y < 2p, labels repeating
    # every p columns; rows up to twice the last fresh row hold every sum of reps.
    grid: list[int] = []
    for x in range(2 * fresh[-1] + 1):
        i, r = walk[x % n], -shift[x % n] % p
        labels = range(i * p, i * p + p)
        grid += labels[r:]
        grid += labels
        grid += labels[:r]
    table = tuple(list(_sum_rows(grid, [x * 2 * p + y for x, y in reps])))
    return BruteForceQuotient(a=a, n=n, reps=reps, table=table)
