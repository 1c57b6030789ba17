from dataclasses import replace
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfkit.errors import CapExceeded, DomainError
from cfkit.invariants import (
    BruteForceQuotient,
    ExtensionDescriptor,
    brute_force_quotient,
    build_quotient,
    defect_class_mod_n,
    invariant_class,
    is_isomorphic,
    project,
    projection_matches_brute_force,
    symmetry_orbit,
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


def test_project_is_additive():
    q = build_quotient((2, 4), 6)
    for k1, k2 in product(product(range(-3, 4), repeat=2), repeat=2):
        lhs = project((k1[0] + k2[0], k1[1] + k2[1]), q)
        p1, p2 = project(k1, q), project(k2, q)
        assert lhs == ((p1[0] + p2[0]) % q.d, (p1[1] + p2[1]) % q.n)


def test_defect_class_examples():
    assert defect_class_mod_n((0, 3), 5) == 3
    assert defect_class_mod_n((0, 0), 1) == 0
    assert defect_class_mod_n((2, 3), 5) == 0


def test_symmetry_orbit_examples():
    assert symmetry_orbit((-1, 1)) == (-1, 1)
    assert symmetry_orbit((0, 0)) == (0, 0)
    assert symmetry_orbit((3, -2)) == (-3, 2)


@given(index_pairs)
def test_symmetry_orbit_is_canonical(a):
    orbit = {a, (-a[0], -a[1]), (a[1], a[0]), (-a[1], -a[0])}
    rep = symmetry_orbit(a)
    assert rep in orbit
    assert all(symmetry_orbit(x) == rep for x in orbit)


def test_brute_force_orders():
    assert brute_force_quotient((-1, 1), 5).order == 5
    assert brute_force_quotient((2, 4), 6).order == 12
    assert brute_force_quotient((1, 0), 1).order == 1


def test_brute_force_cap():
    with pytest.raises(CapExceeded):
        brute_force_quotient((1, 2), 100, cap=50)
    with pytest.raises(DomainError):
        brute_force_quotient((0, 0), 3)
    with pytest.raises(DomainError):
        brute_force_quotient((1.5, 1), 5)
    with pytest.raises(DomainError):
        brute_force_quotient((1, 1), 5.0)


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
        assert projection_matches_brute_force(replace(q, b=shifted), bf)
        assert not projection_matches_brute_force(replace(q, b=(0, 0)), bf), (a, n)


def test_projection_rejects_swapped_table_entries():
    for a, n in grid:
        bf = brute_force_quotient(a, n)
        if bf.order < 2:
            continue
        table = [list(row) for row in bf.table]
        i = bf.order - 1
        table[i][0], table[i][1] = table[i][1], table[i][0]  # distinct: rows are permutations
        corrupted = replace(bf, table=tuple(map(tuple, table)))
        assert not projection_matches_brute_force(build_quotient(a, n), corrupted), (a, n)


def test_projection_rejects_repeated_images_with_any_table():
    q = build_quotient((1, 1), 2)
    assert project((0, 0), q) == project((1, 1), q)
    for table in product(product(range(2), repeat=2), repeat=2):
        bf = BruteForceQuotient(a=(1, 1), n=2, reps=((0, 0), (1, 1)), table=table)
        assert not projection_matches_brute_force(q, bf), table


def test_projection_rejects_a_wrong_d():
    for a, n in grid:
        q = build_quotient(a, n)
        bf = brute_force_quotient(a, n)
        for d in {1, q.d - 1, q.d + 1} - {0, q.d}:
            assert not projection_matches_brute_force(replace(q, d=d), bf), (a, n, d)


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
        assert is_isomorphic(e, f) == (invariant_class(e) == invariant_class(f))


def test_invariant_class_canonicalizes():
    cls = invariant_class(ExtensionDescriptor(5, (1, -1), (2, 0)))
    assert cls.index_orbit == (-1, 1)
    assert cls == invariant_class(ExtensionDescriptor(5, (-1, 1), (0, 2)))


def test_standard_index_reduces_to_defect_sum():
    # with index (-1,1), isomorphism is exactly: same n and same (k+ + k-) mod n
    for n in range(1, 7):
        for e_def in product(range(4), repeat=2):
            for f_def in product(range(4), repeat=2):
                e = ExtensionDescriptor(n, (-1, 1), e_def)
                f = ExtensionDescriptor(n, (-1, 1), f_def)
                expected = defect_class_mod_n(e_def, n) == defect_class_mod_n(f_def, n)
                assert is_isomorphic(e, f) == expected


def test_tensor_factor_examples():
    assert tensor_factor(ExtensionDescriptor(6, (-1, 1), (2, 0)), 2) == (3, 1)
    assert tensor_factor(ExtensionDescriptor(5, (-1, 1), (2, 0)), 1) == (5, 2)
    with pytest.raises(DomainError):
        tensor_factor(ExtensionDescriptor(5, (-1, 1), (2, 0)), 2)
    with pytest.raises(DomainError):
        tensor_factor(ExtensionDescriptor(6, (1, 2), (2, 0)), 2)


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
    with pytest.raises(DomainError):
        ExtensionDescriptor(n=5, index=(-1.9, 1), defects=(0.5, 2))  # not truncated
    with pytest.raises(DomainError):
        ExtensionDescriptor(n=5.0, index=(-1, 1), defects=(0, 2))
    with pytest.raises(DomainError):
        ExtensionDescriptor(n=5, index=(-1, 1), defects=(True, 2))
    assert ExtensionDescriptor(n=5, index=[-1, 1], defects=[0, 2]).index == (-1, 1)
