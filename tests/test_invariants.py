import random
import re
import time
import tracemalloc
from itertools import islice, product
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cfkit.invariants
from cfkit.errors import CapExceeded, DomainError
from cfkit.invariants import (
    BruteForceQuotient,
    ExtensionDescriptor,
    InvariantClass,
    _MAX_CELLS,
    _tile,
    brute_force_quotient,
    build_quotient,
    invariant_class,
    is_isomorphic,
    project,
    projection_matches_brute_force,
    tensor_factor,
)

index_pairs = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda a: a != (0, 0))


def test_build_main_case():
    q = build_quotient((-1, 1), 5)
    assert (q.c, q.d) == (1, 1)
    assert q.order == 5


def test_build_composite_case():
    q = build_quotient((2, 4), 6)
    assert q.c == 2 and q.a_prime == (1, 2) and q.d == 2
    assert q.order == 12


def test_build_axis_case():
    q = build_quotient((1, 0), 3)
    assert q.c == 1 and q.a_prime == (1, 0) and q.d == 1
    assert q.b == (0, -1)


def test_build_rejects_degenerate_index():
    with pytest.raises(DomainError):
        build_quotient((0, 0), 4)
    with pytest.raises(DomainError):
        build_quotient((1, 1), 0)
    with pytest.raises(DomainError):
        build_quotient((1.5, 1), 5)  # not truncated to (1, 1)
    with pytest.raises(DomainError):
        build_quotient((1, 1), True)
    with pytest.raises(DomainError, match=r"^index pair and n must be integers, got a=5, n=3$"):
        build_quotient(5, 3)


@given(index_pairs, st.integers(1, 30))
def test_pairing_identities(a, n):
    q = build_quotient(a, n)
    ap, am = q.a_prime
    bp, bm = q.b
    # the four pairings of a' and b under A = [[0,-1],[1,0]] and its transpose
    assert -ap * bm + am * bp == 1   # (a')^T A b
    assert ap * am - am * ap == 0    # (a')^T A^T a'
    assert -bp * bm + bm * bp == 0   # b^T A b
    assert bp * am - bm * ap == 1    # b^T A^T a'
    assert q.c == gcd(q.a[0], q.a[1]) and q.c > 0
    assert gcd(ap, am) == 1
    assert q.d == gcd(q.c, n)


def test_project_main_case_is_coordinate_sum():
    q = build_quotient((-1, 1), 5)
    assert project((2, 1), q) == (0, 3)


def test_project_kills_the_subgroup():
    q = build_quotient((3, -2), 7)
    assert project(q.a, q) == (0, 0)
    assert project((q.n, 0), q) == (0, 0)
    assert project((0, q.n), q) == (0, 0)


def test_project_rejects_anything_but_a_pair_of_integers():
    q = build_quotient((-1, 1), 5)
    for k in ((1.5, 1), (1, 2, 3), 1, (True, 1)):
        with pytest.raises(DomainError, match="^k must be a pair of integers"):
            project(k, q)


def test_project_is_additive():
    q = build_quotient((2, 4), 6)
    for k1, k2 in product(product(range(-3, 4), repeat=2), repeat=2):
        lhs = project((k1[0] + k2[0], k1[1] + k2[1]), q)
        p1, p2 = project(k1, q), project(k2, q)
        assert lhs == ((p1[0] + p2[0]) % q.d, (p1[1] + p2[1]) % q.n)


# --- the quotient certificate: O(1) big-int checks at any size -------------
#
# project kills a, (n, 0) and (0, n), so it factors through D = Z^2/(Za + nZ^2), and it sends a'
# and b to the generators of Z/d + Z/n, so it is onto.  The Smith form of the relation matrix
# [[a+, n, 0], [a-, 0, n]] (columns a, n e_1, n e_2) has invariant factors (d, n), so |D| = dn and
# the surjection between groups of equal order is an isomorphism (Newman, Integral Matrices, ch. II).


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s*x + t*y == g, a gcd of x != 0 and y != 0; one modular inverse, no Python loop.

    When x divides y it is (x, 1, 0), so the step below only subtracts a multiple of the pivot's
    row or column and leaves the pivot's own unchanged; a step that swapped them instead could
    cycle forever, as on [[2, -2, 1], [3, -1, 1]].
    """
    if y % x == 0:
        return x, 1, 0
    g = gcd(x, y)
    yg = abs(y // g)
    s = pow(x // g, -1, yg) if yg > 1 else 0
    return g, s, (g - s * x) // y


def smith_invariant_factors(rows) -> tuple[int, ...]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix, by unimodular row and column steps."""
    m = [list(row) for row in rows]
    factors = []
    while m and m[0]:
        nonzero = [(abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        while any(row[0] for row in m[1:]) or any(m[0][1:]):
            for i in range(1, len(m)):  # rows: (s, t; -y/g, x/g) clears m[i][0] into a gcd at m[0][0]
                x, y = m[0][0], m[i][0]
                if y:
                    g, s, t = _bezout(x, y)
                    m[0], m[i] = ([s * u + t * v for u, v in zip(m[0], m[i])],
                                  [(-y // g) * u + (x // g) * v for u, v in zip(m[0], m[i])])
            for j in range(1, len(m[0])):  # the same on columns
                x, y = m[0][0], m[0][j]
                if y:
                    g, s, t = _bezout(x, y)
                    for row in m:
                        row[0], row[j] = s * row[0] + t * row[j], (-y // g) * row[0] + (x // g) * row[j]
        pivot = m[0][0]
        spoiler = next((i for i in range(1, len(m)) if any(v % pivot for v in m[i][1:])), None)
        if spoiler is not None:  # the pivot must divide the rest: fold that row in and clear again
            m[0] = [u + v for u, v in zip(m[0], m[spoiler])]
            continue
        factors.append(abs(pivot))
        m = [row[1:] for row in m[1:]]
    return tuple(factors)


@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3), min_size=2, max_size=2))
@example([[2, -2, 1], [3, -1, 1]])
def test_smith_factors_are_the_determinantal_divisors(rows):
    # d_1 is the gcd of the entries, d_1 d_2 the gcd of the 2x2 minors
    (a, b, c), (d, e, f) = rows
    minors = gcd(a * e - b * d, a * f - c * d, b * f - c * e)
    entries = gcd(a, b, c, d, e, f)
    expected = tuple(x for x in (entries, minors // entries if entries else 0) if x)
    factors = smith_invariant_factors(rows)
    assert factors == expected
    assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


def _wide_quotient_inputs(count: int):
    """Seeded (a, n) of up to 4096 bits; a has a zero coordinate or shares a factor with n in some."""
    rng = random.Random(15)
    for _ in range(count):
        bits = rng.randint(1, 4096)
        n = rng.getrandbits(bits) or 1
        a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(2)]
        if rng.random() < 0.2:
            a[rng.randrange(2)] = 0
        if rng.random() < 0.4:  # a common factor, so that d > 1
            f = rng.getrandbits(rng.randint(1, 64)) or 2
            a, n = [f * x for x in a], f * n
        if a == [0, 0]:
            a = [0, 1]
        yield tuple(a), n


def test_quotient_certificate_at_any_size():
    cases = list(_wide_quotient_inputs(500))
    assert max(n.bit_length() for _, n in cases) > 4000
    assert sum(build_quotient(a, n).d > 1 for a, n in cases) > 100
    for a, n in cases:
        q = build_quotient(a, n)
        d = q.d
        assert d == gcd(a[0], a[1], n)
        assert project(a, q) == project((n, 0), q) == project((0, n), q) == (0, 0)
        assert project(q.a_prime, q) == (1 % d, 0)
        assert project(q.b, q) == (0, 1 % n)
        assert smith_invariant_factors([[a[0], n, 0], [a[1], 0, n]]) == (d, n)
        assert q.order == d * n


@given(index_pairs)
def test_symmetry_orbit_is_canonical(a):
    orbit = {a, (-a[0], -a[1]), (a[1], a[0]), (-a[1], -a[0])}
    rep = invariant_class(ExtensionDescriptor(1, a, (0, 0))).index_orbit
    assert rep in orbit
    assert all(invariant_class(ExtensionDescriptor(1, x, (0, 0))).index_orbit == rep for x in orbit)


def test_brute_force_orders():
    assert brute_force_quotient((-1, 1), 5).order == 5
    assert brute_force_quotient((2, 4), 6).order == 12
    assert brute_force_quotient((1, 0), 1).order == 1


def test_brute_force_cap():
    with pytest.raises(CapExceeded, match=f"n=1025 needs an addition table of 1050625 entries, over the bound {_MAX_CELLS}"):
        brute_force_quotient((1, 2), 1025)
    with pytest.raises(DomainError):
        brute_force_quotient((0, 0), 3)
    with pytest.raises(DomainError):
        brute_force_quotient((1, 0), 0)
    with pytest.raises(DomainError):
        brute_force_quotient((1.5, 1), 5)
    with pytest.raises(DomainError):
        brute_force_quotient((1, 1), 5.0)
    with pytest.raises(DomainError, match=r"^index pair and n must be integers, got a=5, n=3$"):
        brute_force_quotient(5, 3)


def test_brute_force_bounds_the_table_whatever_the_cap():
    # (d*n)^2 table entries: refused before the box or the table is allocated
    for a, n in [((1, 1), 10**50), ((1, 1), 10**5), ((1, 2), 1025), ((0, 33), 33)]:
        with pytest.raises(CapExceeded, match=f"over the bound {_MAX_CELLS}"):
            brute_force_quotient(a, n)
    assert brute_force_quotient((32, 32), 32).order == 32 * 32  # exactly at the bound


def test_tile_equals_modular_lookup():
    for rows, cols in product(range(1, 9), repeat=2):
        grid = list(range(100, 100 + rows * cols))
        assert _tile(grid, rows, cols) == [
            grid[x % rows * cols + y % cols] for x in range(2 * rows) for y in range(2 * cols)
        ], (rows, cols)


def test_brute_force_table_is_a_group():
    bf = brute_force_quotient((2, 4), 6)
    zero = bf.reps.index((0, 0))
    order = bf.order
    # identity, closure (by construction), and inverses
    assert all(bf.table[zero][j] == j for j in range(order))
    for i in range(order):
        assert any(bf.table[i][j] == zero for j in range(order))
    # associativity on a sample
    for i, j, k in product(range(0, order, 2), repeat=3):
        assert bf.table[bf.table[i][j]][k] == bf.table[i][bf.table[j][k]]


def reference_quotient(a, n):
    """Cosets by orbit minimum, kept in dicts: the construction the flat scan replaced."""
    rep_of = {}
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
    return tuple(reps), table


grid = [(a, n) for a in product(range(-5, 6), repeat=2) if a != (0, 0) for n in range(1, 13)]


def test_brute_force_matches_reference_construction():
    assert any(build_quotient(a, n).d > 1 for a, n in grid)
    for a, n in grid:
        bf = brute_force_quotient(a, n)
        assert (bf.reps, bf.table) == reference_quotient(a, n), (a, n)


def row_walk_cases():
    """Cases the row walk treats apart, beyond the small grid."""
    rng = random.Random(20241)
    yield ((5, 3), 1)
    yield ((-7, 0), 1)
    for n in (12, 16, 18, 30):
        yield ((0, n), n)  # a_+ = a_- = 0 mod n: every row its own walk, p = n
        yield ((n, -n), n)
        yield ((0, 1), n)  # a_+ = 0: every walk one row long
        yield ((0, -2 * n - 3), n)
        for g in (2, 3, 4, 6):
            if n % g == 0:  # gcd(a_+ mod n, n) = g: g walks of n/g rows each
                yield ((g, 1), n)
                yield ((g - 5 * n, 7 * n - 2), n)
                yield ((-g, 2), n)
    while True:
        n = rng.randint(25, 48)
        a = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if gcd(*a, n) <= 4:
            yield (a, n)


def test_row_walk_matches_reference_construction():
    cases = list(islice(row_walk_cases(), 90))
    assert any(gcd(a[0] % n, n) > 1 and build_quotient(a, n).d == 1 for a, n in cases)
    assert any(n > 40 for a, n in cases) and any(n == 1 for a, n in cases)
    for a, n in cases:
        bf = brute_force_quotient(a, n)
        assert (bf.reps, bf.table) == reference_quotient(a, n), (a, n)
        assert projection_matches_brute_force(build_quotient(a, n), bf), (a, n)


def test_projection_matches_brute_force_small_grid():
    for a, n in grid:
        q = build_quotient(a, n)
        bf = brute_force_quotient(a, n)
        assert bf.order == q.d * n
        assert projection_matches_brute_force(q, bf)


def test_projection_rejects_a_wrong_companion():
    # b + a' is another companion; b = (0, 0) makes the first coordinate constant,
    # which is wrong wherever d > 1
    cases = [(a, n) for a, n in grid if build_quotient(a, n).d > 1]
    assert cases
    for a, n in cases:
        q = build_quotient(a, n)
        bf = brute_force_quotient(a, n)
        shifted = (q.b[0] + q.a_prime[0], q.b[1] + q.a_prime[1])
        assert projection_matches_brute_force(q._replace(b=shifted), bf)
        assert not projection_matches_brute_force(q._replace(b=(0, 0)), bf), (a, n)


def test_projection_rejects_swapped_table_entries():
    for a, n in grid:
        bf = brute_force_quotient(a, n)
        if bf.order < 2:
            continue
        table = [list(row) for row in bf.table]
        i = bf.order - 1
        table[i][0], table[i][1] = table[i][1], table[i][0]  # distinct: rows are permutations
        corrupted = bf._replace(table=tuple(map(tuple, table)))
        assert not projection_matches_brute_force(build_quotient(a, n), corrupted), (a, n)


def test_projection_at_order_one():
    # a single representative: the gather is of one key
    for a in ((1, 0), (5, -3), (0, 7)):
        bf = brute_force_quotient(a, 1)
        assert (bf.reps, bf.table) == (((0, 0),), ((0,),))
        assert projection_matches_brute_force(build_quotient(a, 1), bf)
    q, bf = build_quotient((1, 0), 1), brute_force_quotient((1, 0), 1)
    assert not projection_matches_brute_force(q, bf._replace(table=((1,),)))
    assert not projection_matches_brute_force(q, bf._replace(table=((0, 0),)))


def test_projection_rejects_one_corrupted_entry():
    for a, n in [((-1, 1), 5), ((2, 4), 6), ((0, 3), 9), ((3, 6), 9), ((4, 1), 8)]:
        q = build_quotient(a, n)
        bf = brute_force_quotient(a, n)
        last = bf.order - 1
        for i, j in [(0, 0), (0, last), (last, 0), (last // 2, last), (last, last)]:
            table = [list(row) for row in bf.table]
            table[i][j] = (table[i][j] + 1) % bf.order
            corrupted = bf._replace(table=tuple(map(tuple, table)))
            assert not projection_matches_brute_force(q, corrupted), (a, n, i, j)


def test_quotient_at_the_bound_is_fast_and_small():
    # order 1024 in one walk of 1024 rows: about 0.5 s and a 56 MiB peak built entry by entry
    start = time.perf_counter()
    q = build_quotient((1, 2), 1024)
    assert projection_matches_brute_force(q, brute_force_quotient(q.a, q.n))
    assert time.perf_counter() - start < 0.25
    tracemalloc.start()
    try:
        bf = brute_force_quotient(q.a, q.n)
        matched = projection_matches_brute_force(q, bf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matched and bf.order == 1024 and peak < 40 << 20


def test_projection_rejects_repeated_images_with_any_table():
    q = build_quotient((1, 1), 2)
    assert project((0, 0), q) == project((1, 1), q)
    for table in product(product(range(2), repeat=2), repeat=2):
        bf = BruteForceQuotient(a=(1, 1), n=2, reps=((0, 0), (1, 1)), table=table)
        assert not projection_matches_brute_force(q, bf), table


def test_projection_rejects_a_quotient_of_another_index():
    # Relabelled with q's (a, n), 720 of these pairs pass every other check
    # although bf's cosets are not q's.
    index = [a for a in product(range(-3, 4), repeat=2) if a != (0, 0)]
    passed_otherwise = 0
    for n in range(2, 7):
        for a in index:
            q = build_quotient(a, n)
            own = brute_force_quotient(a, n)
            assert projection_matches_brute_force(q, own)
            for b in index:
                bf = brute_force_quotient(b, n)
                if b == a or (bf.reps, bf.table) == (own.reps, own.table):
                    continue
                assert not projection_matches_brute_force(q, bf), (a, b, n)
                passed_otherwise += projection_matches_brute_force(q, bf._replace(a=q.a))
    assert passed_otherwise == 720
    q, bf = build_quotient((2, 2), 2), brute_force_quotient((1, 1), 4)
    assert q.order == bf.order and not projection_matches_brute_force(q, bf)


def test_projection_rejects_a_wrong_d():
    for a, n in grid:
        q = build_quotient(a, n)
        bf = brute_force_quotient(a, n)
        for d in {1, q.d - 1, q.d + 1} - {0, q.d}:
            assert not projection_matches_brute_force(q._replace(d=d), bf), (a, n, d)


# The symmetry search, the tests' independent oracle for is_isomorphic: (negate index?, swap
# coordinates?).  Negation leaves the defect pair fixed; the swap exchanges its coordinates.
_SYMMETRIES = ((1, False), (-1, False), (1, True), (-1, True))


def _apply_symmetry(sym, index, defects):
    sign, swap = sym
    a = (index[1], index[0]) if swap else index
    k = (defects[1], defects[0]) if swap else defects
    return (sign * a[0], sign * a[1]), k


def _isomorphic_by_symmetry(e, f):
    """Equal n, and some symmetry carries f's index onto e's and f's defects into e's defect coset."""
    if e.n != f.n:
        return False
    q = build_quotient(e.index, e.n)
    target = project(e.defects, q)
    for sym in _SYMMETRIES:
        a, k = _apply_symmetry(sym, f.index, f.defects)
        if a == e.index and project(k, q) == target:
            return True
    return False


def test_is_isomorphic_known_cases():
    e = ExtensionDescriptor(5, (-1, 1), (0, 2))
    assert is_isomorphic(e, ExtensionDescriptor(5, (-1, 1), (1, 1)))
    assert not is_isomorphic(e, ExtensionDescriptor(7, (-1, 1), (0, 2)))
    assert is_isomorphic(e, ExtensionDescriptor(5, (1, -1), (2, 0)))


def test_is_isomorphic_distinguishes_defect_classes():
    e = ExtensionDescriptor(5, (-1, 1), (0, 2))
    f = ExtensionDescriptor(5, (-1, 1), (0, 3))
    assert not is_isomorphic(e, f)


def test_is_isomorphic_rejects_mismatched_orbits():
    e = ExtensionDescriptor(5, (-1, 1), (0, 2))
    f = ExtensionDescriptor(5, (2, 1), (0, 2))
    assert not is_isomorphic(e, f)


def descriptor_grid():
    for a in ((-1, 1), (1, -1), (1, 2), (2, 1), (2, 2), (1, 0)):
        for defects in product(range(3), repeat=2):
            for n in (1, 4, 6):
                yield ExtensionDescriptor(n, a, defects)


def test_is_isomorphic_is_an_equivalence_relation():
    grid = list(descriptor_grid())
    for e in grid:
        assert is_isomorphic(e, e)
    for e, f in product(grid, repeat=2):
        assert is_isomorphic(e, f) == is_isomorphic(f, e)
    # transitivity via the canonical class: equality is transitive, so it
    # suffices that the relation agrees with class equality everywhere
    for e, f in product(grid, repeat=2):
        expected = _isomorphic_by_symmetry(e, f)
        assert is_isomorphic(e, f) == expected, (e, f)
        assert (invariant_class(e) == invariant_class(f)) == expected, (e, f)


def test_invariant_class_canonicalizes():
    cls = invariant_class(ExtensionDescriptor(5, (1, -1), (2, 0)))
    assert cls.index_orbit == (-1, 1)
    assert cls == invariant_class(ExtensionDescriptor(5, (-1, 1), (0, 2)))


def test_invariant_class_takes_the_least_index_and_image():
    # (1, 1) is fixed by the swap: both (0, 1) and (1, 0) move onto the index (-1, -1), and
    # project to (0, 1) and (0, 4) in Z/1 + Z/5
    e = ExtensionDescriptor(5, (1, 1), (0, 1))
    assert invariant_class(e) == InvariantClass(5, (-1, -1), (0, 1))
    for e in descriptor_grid():
        moved = [_apply_symmetry(sym, e.index, e.defects) for sym in _SYMMETRIES]
        canon = min(a for a, _ in moved)
        q = build_quotient(canon, e.n)
        images = [project(k, q) for a, k in moved if a == canon]
        assert invariant_class(e) == InvariantClass(e.n, canon, min(images)), e


def test_standard_index_reduces_to_defect_sum():
    # with index (-1,1), isomorphism is exactly: same n and same (k+ + k-) mod n
    for n in range(1, 7):
        for e_def in product(range(4), repeat=2):
            for f_def in product(range(4), repeat=2):
                e = ExtensionDescriptor(n, (-1, 1), e_def)
                f = ExtensionDescriptor(n, (-1, 1), f_def)
                expected = sum(e_def) % n == sum(f_def) % n
                assert is_isomorphic(e, f) == _isomorphic_by_symmetry(e, f) == expected
                assert (invariant_class(e) == invariant_class(f)) == expected


@st.composite
def descriptor_pairs(draw):
    """Two descriptors with n <= 12, |a_+|, |a_-| <= 3 and defects in 0..2n.

    f shares e's n, and an index from e's orbit, often enough that isomorphic pairs are common.
    """
    def descriptor(n, index):
        k = st.integers(0, 2 * n)
        return ExtensionDescriptor(n, index, (draw(k), draw(k)))

    small = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda a: a != (0, 0))
    e = descriptor(draw(st.integers(1, 12)), draw(small))
    n = e.n if draw(st.booleans()) else draw(st.integers(1, 12))
    moved = [_apply_symmetry(sym, e.index, e.defects)[0] for sym in _SYMMETRIES]
    index = draw(st.sampled_from(moved)) if draw(st.booleans()) else draw(small)
    return e, descriptor(n, index)


@given(descriptor_pairs())
def test_is_isomorphic_matches_the_symmetry_search(pair):
    e, f = pair
    expected = _isomorphic_by_symmetry(e, f)
    assert is_isomorphic(e, f) == is_isomorphic(f, e) == expected
    assert (invariant_class(e) == invariant_class(f)) == expected


def test_isomorphism_at_any_size(monkeypatch):
    # is_isomorphic must not call the public invariant_class, whose calls are counted per operation
    public_calls = []
    monkeypatch.setattr(cfkit.invariants, "invariant_class", lambda e: public_calls.append(e))
    rng = random.Random(29)
    cases = list(_wide_quotient_inputs(200))
    assert max(n.bit_length() for _, n in cases) > 4000
    raised_still_isomorphic = 0
    for a, n in cases:
        e = ExtensionDescriptor(n, a, (rng.randrange(2 * n + 1), rng.randrange(2 * n + 1)))
        # The twin: a random symmetry, then a shift of the defects by u times the twin's own
        # index plus n*(v, w), with v and w chosen so that the defects stay >= 0.
        index, defects = _apply_symmetry(rng.choice(_SYMMETRIES), e.index, e.defects)
        u = rng.randrange(-(1 << 64), 1 << 64)
        shifted = [k + u * x for k, x in zip(defects, index)]
        f = ExtensionDescriptor(n, index, [k + n * (rng.randrange(3) - k // n) for k in shifted])
        assert _isomorphic_by_symmetry(e, f)
        assert is_isomorphic(e, f) and is_isomorphic(f, e)
        assert invariant_class(e) == invariant_class(f)
        other = f._replace(defects=(f.defects[0] + 1, f.defects[1]))
        expected = _isomorphic_by_symmetry(e, other)
        raised_still_isomorphic += expected
        assert is_isomorphic(e, other) == expected
        assert (invariant_class(e) == invariant_class(other)) == expected
    assert public_calls == []
    assert raised_still_isomorphic < len(cases)


def test_tensor_factor_examples():
    assert tensor_factor(ExtensionDescriptor(6, (-1, 1), (2, 0)), 2) == (3, 1)
    assert tensor_factor(ExtensionDescriptor(5, (-1, 1), (2, 0)), 1) == (5, 2)
    with pytest.raises(DomainError):
        tensor_factor(ExtensionDescriptor(5, (-1, 1), (2, 0)), 2)
    for t in (2.0, True):  # not read as 2 or 1, which factor (6, 2)
        with pytest.raises(DomainError):
            tensor_factor(ExtensionDescriptor(6, (-1, 1), (2, 0)), t)
    with pytest.raises(DomainError):
        tensor_factor(ExtensionDescriptor(6, (1, 2), (2, 0)), 2)


def test_tensor_factor_accepts_the_orbit_of_the_standard_index():
    for index in ((-1, 1), (1, -1)):
        assert tensor_factor(ExtensionDescriptor(6, index, (2, 2)), 2) == (3, 2)


def test_tensor_factor_refuses_other_indices():
    for index in ((1, 1), (-1, -1), (2, -2)):
        message = f"tensor factorization needs index (-1,1) up to symmetry, got {index}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            tensor_factor(ExtensionDescriptor(6, index, (2, 0)), 1)


def test_tensor_factor_takes_the_defect_sum_mod_n():
    for n in range(1, 7):
        for defects in product(range(2 * n + 1), repeat=2):
            assert tensor_factor(ExtensionDescriptor(n, (-1, 1), defects), 1) == (n, (defects[0] + defects[1]) % n)


def test_tensor_factor_round_trip():
    for n in range(1, 13):
        for m in range(n):
            for t in range(1, n + 1):
                e = ExtensionDescriptor(n, (-1, 1), (m, 0))
                if n % t == 0 and m % t == 0:
                    p, l = tensor_factor(e, t)
                    assert (t * p, t * l) == (n, m)
                else:
                    with pytest.raises(DomainError):
                        tensor_factor(e, t)


def test_descriptor_validation():
    with pytest.raises(DomainError):
        ExtensionDescriptor(0, (-1, 1), (0, 0))
    with pytest.raises(DomainError):
        ExtensionDescriptor(3, (-1, 1), (-1, 0))
    with pytest.raises(DomainError, match=r"^degenerate index \(0, 0\)$"):
        ExtensionDescriptor(5, (0, 0), (0, 0))
    with pytest.raises(DomainError):
        ExtensionDescriptor(n=5, index=(-1.9, 1), defects=(0.5, 2))  # not truncated
    with pytest.raises(DomainError):
        ExtensionDescriptor(n=5.0, index=(-1, 1), defects=(0, 2))
    with pytest.raises(DomainError):
        ExtensionDescriptor(n=5, index=(-1, 1), defects=(True, 2))
    for index, defects in [(1, (0, 0)), ((-1, 1), 0), ((-1, 1, 0), (0, 0)), ((-1, 1), (0,))]:
        with pytest.raises(DomainError, match="^n and the index and defect pairs must be integers"):
            ExtensionDescriptor(5, index, defects)
    assert ExtensionDescriptor(n=5, index=[-1, 1], defects=[0, 2]).index == (-1, 1)
