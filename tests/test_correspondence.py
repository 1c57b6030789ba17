import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit
import cfkit.correspondence
from cfkit.contfrac import (
    ContinuedFraction,
    KSequence,
    convergents,
    expand_simple,
    k_to_simple,
    k_value,
    simple_to_k,
)
from cfkit.correspondence import (
    RationalInvariant,
    dimension_tower,
    invariant_to_k,
    invariant_to_rational,
    k_to_invariant,
    rational_candidates,
    rational_to_invariant,
)
from cfkit.errors import CapExceeded, DomainError
from cfkit.paths import PathCounts, defect_by_enumeration, path_counts

PINNED = [
    (Fraction(2, 3), 3, 1, (2,)),
    (Fraction(2, 5), 5, 2, (0, 2)),
    (Fraction(3, 5), 5, 3, (1, 1)),
    (Fraction(0), 1, 0, ()),
]


@pytest.mark.parametrize("theta,n,m,k", PINNED)
def test_pinned_values_both_directions(theta, n, m, k):
    inv = rational_to_invariant(theta)
    assert (inv.n, inv.m) == (n, m)
    assert inv.k == KSequence(k)
    assert inv.theta == theta
    assert invariant_to_k(n, m) == KSequence(k)
    assert invariant_to_rational(n, m) == theta
    if k:
        assert defect_by_enumeration(KSequence(k)) == m


def test_forward_examples():
    assert (rational_to_invariant(Fraction(2, 5)).n, rational_to_invariant(Fraction(2, 5)).m) == (5, 2)
    inv = rational_to_invariant(Fraction(2, 3))
    assert (inv.n, inv.m, inv.k) == (3, 1, KSequence((2,)))


def test_forward_domain_check():
    with pytest.raises(DomainError):
        rational_to_invariant(Fraction(5, 4))
    with pytest.raises(DomainError):
        rational_to_invariant(Fraction(-1, 4))
    for r in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match=f"^rational_to_invariant requires a rational number, got {r}$"):
            rational_to_invariant(r)


def test_k_to_invariant_examples():
    assert k_to_invariant(KSequence((1, 1))) == (5, 3)
    assert k_to_invariant(KSequence(())) == (1, 0)
    assert k_to_invariant(KSequence((2,))) == (3, 1)


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(0, 5), st.integers(0, 2**64)), max_size=40))
def test_defect_read_off_one_count_equals_the_sum(entries):
    # m = per_length[h] // k_h stands for sum(cumulative[:h]); k_h is the last, nonzero entry
    k = KSequence(entries)
    cumulative = path_counts(k).cumulative
    assert k_to_invariant(k) == (cumulative[k.h], sum(cumulative[:k.h]))


def test_k_to_invariant_calls_path_counts_once(monkeypatch):
    # the deep and farey span checks count one path_counts call per forward operation
    calls = []

    def counted(k):
        calls.append(k)
        return path_counts(k)

    monkeypatch.setattr(cfkit.correspondence, "path_counts", counted)
    for entries in ((), (1,), (0, 0, 3), (1, 2**64, 0, 5)):
        calls.clear()
        k_to_invariant(KSequence(entries))
        assert calls == [KSequence(entries)]
    calls.clear()
    assert rational_to_invariant(Fraction(0)).n == 1 and len(calls) == 1


def test_inverse_euclid_examples():
    assert invariant_to_k(5, 2) == KSequence((0, 2))
    assert invariant_to_k(3, 1) == KSequence((2,))
    assert invariant_to_k(1, 0) == KSequence(())


def test_inverse_euclid_validation():
    with pytest.raises(DomainError):
        invariant_to_k(4, 2)  # gcd != 1
    with pytest.raises(DomainError):
        invariant_to_k(5, 5)
    with pytest.raises(DomainError):
        invariant_to_k(5, 0)
    with pytest.raises(DomainError):
        invariant_to_k(1, 1)
    with pytest.raises(DomainError):
        invariant_to_k(0, 0)
    with pytest.raises(DomainError):
        invariant_to_k(True, False)  # bool is not an integer here
    with pytest.raises(DomainError):
        invariant_to_k(5.0, 2)


# --- the modified Euclidean division scheme, as the reverse-route oracle -----

def euclid_scheme_k(n: int, m: int) -> KSequence:
    """The paper's scheme for a valid pair (n, m):

        n   = q_0 m + r_1
        r_l = q_l (m - r_1 - ... - r_l) + r_{l+1}

    run until the first zero remainder r_h gives k_l = q_{h-l} for l >= 2 and
    k_1 = q_{h-1} - 1.
    """
    if n == 1:
        return KSequence()
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


def test_euclid_scheme_oracle_every_small_pair():
    for n in range(1, 300):
        for m in range(n):
            if gcd(m, n) == 1 and (m > 0 or n == 1):
                assert invariant_to_k(n, m) == euclid_scheme_k(n, m), (n, m)


def _random_rationals(count: int, max_h: int):
    """Seeded reduced p/q with 64..512-bit q whose even expansion has height <= max_h."""
    rng = random.Random(20240527)
    while count:
        bits = rng.randint(64, 512)
        q = rng.getrandbits(bits) | 1 << (bits - 1)
        p = rng.randrange(1, q)
        if gcd(p, q) == 1 and sum(expand_simple(Fraction(p, q), "even").terms[::2]) <= max_h:
            count -= 1
            yield Fraction(p, q)


def test_euclid_scheme_oracle_large_pairs():
    for theta in _random_rationals(200, 2000):
        inv = rational_to_invariant(theta)
        assert invariant_to_k(inv.n, inv.m) == euclid_scheme_k(inv.n, inv.m) == inv.k
        assert invariant_to_rational(inv.n, inv.m) == theta


# --- the bijection certificate: O(1) big-int checks at any size -------------
#
# The even expansion [0; a_1, ..., a_N] of p/q has convergents with p_N q_{N-1} - p_{N-1} q_N = -1
# (N even), so q_{N-1} = -p^-1 mod q: the forward map's (n, m) is (q_N, q_{N-1}), a witness that
# costs one modular inverse where the path-count oracle cannot go.

_CERTIFICATE_MAX_H = 2 * 10**4


def _fibonacci_ratios(count: int):
    """Seeded F_{i-1}/F_i and F_{i-2}/F_i with F_i of up to 4096 bits; [0; 1, ..., 1, 2] of both parities."""
    rng = random.Random(20261019)
    fib = [0, 1]
    while fib[-1].bit_length() <= 4096:
        fib.append(fib[-1] + fib[-2])
    for i in rng.sample(range(4, len(fib) - 1), count):
        yield Fraction(fib[i - 1], fib[i])
        yield Fraction(fib[i - 2], fib[i])


def _wide_rationals(count: int):
    """Seeded reduced p/q with 256..4096-bit q whose even expansion has height <= _CERTIFICATE_MAX_H."""
    rng = random.Random(4096)
    while count:
        bits = rng.randint(256, 4096)
        q = rng.getrandbits(bits) | 1 << (bits - 1)
        p = rng.randrange(1, q)
        if gcd(p, q) == 1 and sum(expand_simple(Fraction(p, q), "even").terms[::2]) <= _CERTIFICATE_MAX_H:
            count -= 1
            yield Fraction(p, q)


def _check_bijection_certificate(theta: Fraction) -> None:
    p, q = theta.numerator, theta.denominator
    inv = rational_to_invariant(theta)
    *_, (_, q_before), (p_last, q_last) = convergents(expand_simple(theta, "even"))
    assert (p_last, q_last) == (p, q)
    assert (inv.n, inv.m) == (q_last, q_before)
    assert inv.m == -pow(p, -1, q) % q
    assert invariant_to_rational(inv.n, inv.m) == theta


def test_bijection_certificate_on_fibonacci_ratios():
    ratios = list(_fibonacci_ratios(12))
    # Both Euclid parities: the even expansion is Euclid's own, or its last term was split into [a - 1, 1].
    assert {expand_simple(r, "even").terms[-1] == 1 for r in ratios} == {False, True}
    assert max(r.denominator.bit_length() for r in ratios) > 2048
    for theta in ratios:
        _check_bijection_certificate(theta)


def test_bijection_certificate_on_wide_rationals():
    rationals = list(_wide_rationals(24))
    assert max(r.denominator.bit_length() for r in rationals) > 2048
    for theta in rationals:
        _check_bijection_certificate(theta)


def test_height_bound_raises_cap_exceeded():
    with pytest.raises(CapExceeded, match=r"h = 1000001 exceeds the bound 1000000"):
        invariant_to_k(10**6 + 2, 10**6 + 1)
    assert invariant_to_k(10**6 + 1, 10**6).h == 10**6  # 1/(10**6 + 1), at the bound
    with pytest.raises(CapExceeded):
        rational_to_invariant(Fraction(1, 2**200))
    with pytest.raises(CapExceeded):
        invariant_to_k(2**200, 2**200 - 1)
    with pytest.raises(CapExceeded):
        invariant_to_rational(2**200, 2**200 - 1)


def test_reverse_map_on_a_long_fibonacci_pair_within_budget():
    # F_95697/F_95696 (h = 47 848): one Euclid on (m, n), reversed, in 0.14-0.20 s; the route
    # through pow(m, -1, n) and a Euclid on (-m^-1 mod n, n) took 0.79-1.06 s (2-vCPU Xeon,
    # CPython 3.11).
    m, n = 0, 1
    for _ in range(95696):
        m, n = n, m + n
    times = []
    for _ in range(3):
        start = time.perf_counter()
        k = invariant_to_k(n, m)
        times.append(time.perf_counter() - start)
    assert k.h == 47848 and k_to_invariant(k) == (n, m)
    assert min(times) < 0.4


def test_forward_map_at_the_height_bound_within_budget():
    # 10**6 - 1 zeros and a final 1; each zero cost one interpreted step until zero runs became
    # one step (0.18-0.30 s before, 0.08-0.10 s after, shared 2-vCPU Xeon, CPython 3.11)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        inv = rational_to_invariant(Fraction(1, 10**6 + 1))
        times.append(time.perf_counter() - start)
    assert (inv.n, inv.m, inv.k.h, inv.k.support) == (10**6 + 1, 10**6, 10**6, (10**6,))
    assert min(times) < 0.2


_OFF_BY_ONE = """
from fractions import Fraction
import cfkit.correspondence as c

assert not __debug__, "expected python -O"
real = c.path_counts

def off_by_one(k):
    counts = real(k)
    cumulative = list(counts.cumulative)
    cumulative[k.h] += 1
    return counts._replace(cumulative=tuple(cumulative))

c.path_counts = off_by_one
try:
    c.rational_to_invariant(Fraction(2, 5))
except AssertionError as exc:
    print("raised:", exc)
else:
    raise SystemExit("no error for a wrong n")

import cfkit.contfrac as cf
from cfkit.exact import add

real_eval = cf.eval_terms
cf.eval_terms = lambda values: add(real_eval(values), 1)  # the k_value fold, one too high
try:
    c.invariant_to_rational(2, 1)
except AssertionError as exc:
    print("raised:", exc)
else:
    raise SystemExit("no error for a k_value outside [0, 1)")
"""


def test_result_guards_survive_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(Path(cfkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OFF_BY_ONE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    forward, fold = proc.stdout.splitlines()
    assert forward.startswith("raised: forward map gave n=6")
    assert fold == "raised: k_value of (1) gave 3/2, outside [0, 1)"


def test_round_trip_rationals_small():
    for q in range(1, 61):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            theta = Fraction(p, q)
            inv = rational_to_invariant(theta)
            assert inv.n == q
            assert invariant_to_rational(inv.n, inv.m) == theta


def farey_invariants(q_max):
    """Each c/d in [0, 1) of the Farey sequence F_{q_max}, in order, with its invariant (d, -b mod d).

    Neighbours a/b < c/d of F_Q have bc - ad = 1 (Hardy-Wright, ch. III), so b is c's inverse
    mod d, and m = -c^-1 mod d is -b mod d, not d - b: 1/499 has left neighbour 1/500 in F_500.
    The next term follows from the last two by the next-term recurrence, so this route takes no
    pow, no Euclid and no path counts.
    """
    a, b, c, d = 0, 1, 1, q_max
    yield Fraction(0), (1, 0)
    while c < d:
        yield Fraction(c, d), (d, -b % d)
        k = (q_max + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def test_farey_walk_lists_each_fraction_with_its_inverse():
    walked = list(farey_invariants(60))
    assert [theta for theta, _ in walked] == sorted(
        Fraction(p, q) for q in range(1, 61) for p in range(q) if gcd(p, q) == 1)
    assert all(m == -pow(theta.numerator, -1, n) % n for theta, (n, m) in walked[1:])


def test_forward_map_matches_the_farey_neighbours():
    # F_400 holds 48 678 fractions in [0, 1); they take about 0.3 s.
    for theta, (n, m) in farey_invariants(400):
        inv = rational_to_invariant(theta)
        assert (inv.n, inv.m) == (n, m), theta


def test_reverse_map_matches_the_farey_neighbours():
    # F_150 holds 6 858 fractions in [0, 1); at about 50 us a call they take about 0.3 s.
    for theta, (n, m) in farey_invariants(150):
        assert invariant_to_rational(n, m) == theta, (n, m)


def test_values_set_through_slot_descriptors_behave_like_checked_ones():
    # The forward map's RationalInvariant, its unchecked KSequence and the PathCounts of that k
    # set their slots through member descriptors; the public constructors build the same values.
    for q in range(1, 60):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            inv = rational_to_invariant(Fraction(p, q))
            counts = path_counts(inv.k)
            k = KSequence(list(inv.k.entries))
            built = [
                (inv, RationalInvariant(n=inv.n, m=inv.m, k=k, theta=Fraction(p, q))),
                (inv.k, k),
                (counts, PathCounts(per_length=tuple(counts.per_length), cumulative=tuple(counts.cumulative))),
            ]
            for fast, checked in built:
                assert fast == checked and hash(fast) == hash(checked)
                assert repr(fast) == repr(checked)
                copy = pickle.loads(pickle.dumps(fast))
                assert type(copy) is type(fast) and copy == fast and repr(copy) == repr(fast)
                for name in fast.__match_args__:
                    with pytest.raises(AttributeError):
                        setattr(fast, name, None)
                    with pytest.raises(AttributeError):
                        delattr(fast, name)
                assert fast == checked  # unchanged by the refused assignments


def test_round_trip_k_sequences_small():
    from itertools import product

    for h in range(0, 6):
        for entries in product(range(3), repeat=h):
            if h and entries[-1] == 0:
                continue
            k = KSequence(entries)
            n, m = k_to_invariant(k)
            assert invariant_to_k(n, m) == k
            assert k_value(k) == invariant_to_rational(n, m)


def test_emitted_pairs_are_coprime():
    for q in range(2, 40):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            inv = rational_to_invariant(Fraction(p, q))
            assert 0 < inv.m < inv.n and gcd(inv.m, inv.n) == 1


# --- dimension towers -----------------------------------------------------

def test_tower_example():
    levels = dimension_tower(ContinuedFraction(0, (2, 2)), 2)
    assert [lv.dims for lv in levels] == [(2, 1), (5, 2)]
    assert levels[0].mult == ((2, 1), (1, 0))
    assert levels[1].mult is None


def test_tower_first_level_dims():
    for terms in ((3,), (2, 1), (4, 2, 5)):
        levels = dimension_tower(ContinuedFraction(0, terms), 1)
        assert levels[0].dims == (terms[0], 1)


def test_tower_final_dims_fibonacci():
    levels = dimension_tower(ContinuedFraction(0, (1, 1, 1, 1)), 4)
    assert levels[-1].dims == (5, 3)


def test_tower_depth_validation():
    with pytest.raises(DomainError):
        dimension_tower(ContinuedFraction(0, (2, 2)), 3)
    for depth in (-1, 1.0, True):
        with pytest.raises(DomainError):
            dimension_tower(ContinuedFraction(0, (2, 2)), depth)


def test_tower_telescopes():
    cf = expand_simple(Fraction(17, 43), "even")
    levels = dimension_tower(cf, len(cf.terms))
    for left, right in zip(levels, levels[1:]):
        m = left.mult
        assert m is not None
        q1, q0 = left.dims
        assert right.dims == (m[0][0] * q1 + m[0][1] * q0, m[1][0] * q1 + m[1][1] * q0)


def test_tower_partial_depth_keeps_mult():
    cf = ContinuedFraction(0, (2, 1, 3))
    levels = dimension_tower(cf, 2)
    assert levels[-1].mult == ((3, 1), (1, 0))


# --- Bratteli paths (Effros-Shen) -----------------------------------------

def bratteli_end_counts(terms):
    """Numbers of paths from the root that end at each vertex, level by level.

    The Bratteli diagram has two vertices per level.  At level 0 every path
    is the empty path at the root, vertex 0 of ``(1, 0)``.  From level i to
    level i + 1 the multiplicity matrix ``[[a_{i+1}, 1], [1, 0]]`` gives
    ``mult[t][s]`` edges from vertex s to vertex t.  Paths are listed edge by
    edge as tuples of ``(source, target, copy)``, and only then counted.
    """
    ends = [[()], []]
    counts = [(1, 0)]
    for a in terms:
        mult = ((a, 1), (1, 0))
        ends = [
            [path + ((s, t, c),) for s in (0, 1) for path in ends[s] for c in range(mult[t][s])]
            for t in (0, 1)
        ]
        assert all(len(set(paths)) == len(paths) for paths in ends)
        counts.append((len(ends[0]), len(ends[1])))
    return counts


def test_bratteli_paths_count_towers_invariants_and_path_words():
    # Two path models count the same thing: the Bratteli diagram of the
    # even simple expansion, and the normal-form words of the k-sequence.
    checked = 0
    for q in range(1, 40):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            theta = Fraction(p, q)
            cf = expand_simple(theta, "even")
            counts = bratteli_end_counts(cf.terms)
            inv = rational_to_invariant(theta)
            assert counts[-1] == (inv.n, inv.m), theta
            assert [lv.dims for lv in dimension_tower(cf, len(cf.terms))] == counts[1:], theta
            cumulative = path_counts(inv.k).cumulative
            assert counts[-1] == (cumulative[inv.k.h], sum(cumulative[:inv.k.h])), theta
            checked += 1
    assert checked == 474  # 0/1 and the 473 reduced p/q in (0, 1)


# --- terminal dimension candidates ----------------------------------------

def test_candidates_examples():
    # returned as (even-parity pair, odd-parity pair); compared as sets here
    assert rational_candidates(Fraction(2, 5)) == ((5, 2), (5, 3))
    assert rational_candidates(Fraction(1, 2)) == ((2, 1), (2, 1))
    assert set(rational_candidates(Fraction(1, 3))) == {(3, 1), (3, 2)}
    assert rational_candidates(Fraction(1, 3))[1] == (3, 1)  # odd expansion [0;3]


def candidates_by_convergents(theta: Fraction):
    """(q_N, q_{N-1}) read off the convergents of each simple expansion."""
    out = []
    for parity in ("even", "odd"):
        qs = [q for _, q in convergents(expand_simple(theta, parity))]
        out.append((qs[-1], qs[-2]))
    return (out[0], out[1])


def test_candidates_match_convergents_and_forward_map():
    for q in range(2, 300):
        for p in range(1, q):
            if gcd(p, q) == 1:
                theta = Fraction(p, q)
                candidates = rational_candidates(theta)
                assert candidates == candidates_by_convergents(theta), theta
                inv = rational_to_invariant(theta)
                assert candidates[0] == (inv.n, inv.m)


def test_candidates_match_the_modular_inverse():
    # x = q_{N-1} of the even expansion is -p^-1 mod q, the closed form it replaced
    for q in range(2, 400):
        for p in range(1, q):
            if gcd(p, q) == 1:
                x = -pow(p, -1, q) % q
                assert rational_candidates(Fraction(p, q)) == ((q, x), (q, q - x)), (p, q)


def test_candidates_domain():
    with pytest.raises(DomainError):
        rational_candidates(Fraction(0))
    with pytest.raises(DomainError):
        rational_candidates(Fraction(1))
    for r in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match=f"^rational_candidates requires a rational number, got {r}$"):
            rational_candidates(r)


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(1, 300), st.one_of(st.integers(1, 3), st.integers(1, 2**100))), max_size=12))
def test_mapped_sequences_keep_their_euclid_terms(pairs):
    # Each map builds its k-sequence from the even simple terms Euclid gives and keeps them as they
    # are; invariant_to_k builds the zero sequence (n = 1) from its entries.
    terms = tuple(t for pair in pairs for t in pair)
    num, den = convergents(ContinuedFraction(0, terms))[-1]
    inv = rational_to_invariant(Fraction(num, den))
    mapped = [simple_to_k(ContinuedFraction(0, terms)), inv.k, invariant_to_k(inv.n, inv.m)]
    built = KSequence(mapped[0].entries)
    for k in mapped:
        assert k._terms == terms == built._terms
        assert k == built and k.support == built.support
        assert (k_to_simple(k).terms if k.h else ()) == terms

