import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import contfrac
from cfkit.contfrac import (
    ContinuedFraction,
    KSequence,
    _k_entries,
    _k_sequence,
    _simple_terms,
    convergents,
    eval_cf,
    eval_terms,
    expand_simple,
    k_to_simple,
    k_value,
    k_value_bounds,
    simple_to_k,
)
from cfkit.errors import DomainError
from cfkit.exact import INFINITY, UNDEFINED, finite

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=500).filter(
    lambda r: r < 1
)
simple_cfs = st.lists(st.integers(1, 6), min_size=1, max_size=8).map(
    lambda ts: ContinuedFraction(0, tuple(ts))
)
k_sequences = st.lists(st.integers(0, 3), max_size=6).map(lambda es: KSequence(tuple(es)))


# --- evaluation -----------------------------------------------------------

def test_eval_one_zero_is_infinity():
    assert eval_cf(ContinuedFraction(1, (0,))) is INFINITY


def test_eval_alternating_zero_one_counts_up():
    # [1,(0,1)^(n-1)] evaluates to n
    for n in range(1, 8):
        cf = ContinuedFraction(1, (0, 1) * (n - 1))
        assert eval_cf(cf) == finite(n)


def test_eval_exact_value():
    assert eval_cf(ContinuedFraction(0, (2, 2))).value == Fraction(1) / (2 + Fraction(1, 2))


def test_eval_rejects_empty():
    with pytest.raises(DomainError):
        eval_terms([])


def test_tail_absorption_identities():
    x = Fraction(7, 3)
    for n in range(1, 26):
        assert eval_terms([x, *(1, 0) * n]) == finite(x)
        assert eval_terms([x, 1, *(0, 1) * (n - 1)]) == finite(x + Fraction(1, n))


def test_term_validation():
    with pytest.raises(DomainError):
        ContinuedFraction(0, (2, -1))
    with pytest.raises(DomainError):
        ContinuedFraction(Fraction(1, 2), (2,))  # a0 must be an integer
    with pytest.raises(DomainError):
        ContinuedFraction(True)  # bool is not accepted as an integer
    with pytest.raises(DomainError):
        ContinuedFraction(0, (True, 2))
    with pytest.raises(DomainError, match="^terms after a0 must be integers >= 0, got 5$"):
        ContinuedFraction(0, 5)  # not iterable


@given(st.integers(-9, 9), st.lists(st.integers(0, 4), max_size=10))
def test_integer_term_evaluation_is_never_undefined(a0, terms):
    value = eval_cf(ContinuedFraction(a0, tuple(terms)))
    assert not value.is_undefined


# --- simple expansions ----------------------------------------------------

def test_expand_half():
    assert expand_simple(Fraction(1, 2), "even") == ContinuedFraction(0, (1, 1))
    assert expand_simple(Fraction(1, 2), "odd") == ContinuedFraction(0, (2,))


def test_expand_zero():
    assert expand_simple(0, "even") == ContinuedFraction(0)
    with pytest.raises(DomainError):
        expand_simple(0, "odd")


def test_expand_domain_checks():
    with pytest.raises(DomainError):
        expand_simple(Fraction(3, 2), "even")
    with pytest.raises(DomainError):
        expand_simple(Fraction(-1, 2), "even")
    with pytest.raises(DomainError):
        expand_simple(Fraction(1, 2), "both")
    for r in (float("inf"), float("-inf"), float("nan")):  # Fraction(r) raises OverflowError or ValueError
        with pytest.raises(DomainError, match="^expand_simple requires a rational number, got"):
            expand_simple(r, "even")


@given(unit_fractions)
def test_expand_round_trips_both_parities(r):
    for parity in ("even", "odd"):
        if r == 0 and parity == "odd":
            continue
        cf = expand_simple(r, parity)
        assert cf.a0 == 0 and cf.is_simple
        assert (len(cf.terms) % 2 == 0) == (parity == "even")
        assert len(cf) == len(cf.terms)
        assert eval_cf(cf) == finite(r)


@given(simple_cfs)
def test_two_representations_agree(cf):
    # [..., a] and [..., a-1, 1] have the same value when a >= 2
    if cf.terms[-1] >= 2:
        other = ContinuedFraction(0, cf.terms[:-1] + (cf.terms[-1] - 1, 1))
        assert eval_cf(other) == eval_cf(cf)


# --- convergents ----------------------------------------------------------

def test_convergents_examples():
    assert convergents(ContinuedFraction(0, (2, 2))) == [(0, 1), (1, 2), (2, 5)]
    assert convergents(ContinuedFraction(0, (7,)))[1] == (1, 7)  # q_1 = a_1
    assert convergents(ContinuedFraction(0, (1, 1, 1, 1)))[-1] == (3, 5)


def test_convergents_match_truncations():
    cf = ContinuedFraction(0, (2, 1, 3, 1, 4))
    for n, (p, q) in enumerate(convergents(cf)):
        assert eval_cf(ContinuedFraction(0, cf.terms[:n])) == finite(Fraction(p, q))


def test_convergents_require_simple_zero_head():
    with pytest.raises(DomainError):
        convergents(ContinuedFraction(1, (2,)))
    with pytest.raises(DomainError):
        convergents(ContinuedFraction(0, (2, 0, 1)))


@given(simple_cfs)
def test_convergent_monotonicity(cf):
    values = [Fraction(p, q) for p, q in convergents(cf)]
    evens = values[0::2]
    odds = values[1::2]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a > b for a, b in zip(odds, odds[1:]))
    assert all(e < o for e in evens for o in odds)


# --- k-sequences ----------------------------------------------------------

def test_ksequence_normalization():
    assert KSequence((1, 0, 2, 0, 0)).entries == (1, 0, 2)
    assert KSequence(()).h == 0
    assert KSequence((0, 0)).h == 0
    assert KSequence((1,) + (0,) * 200_000).h == 1
    assert list(KSequence((0, 2))) == [0, 2] and str(KSequence((0, 2))) == "(0,2)"
    assert str(KSequence((1, 10**100))) == "(1,<333-bit integer>)"
    with pytest.raises(DomainError):
        KSequence((1, -1))
    with pytest.raises(DomainError):
        KSequence((True,))
    for entries in (5, None):  # not iterable
        with pytest.raises(DomainError, match="^k-sequence entries must be integers >= 0, got "):
            KSequence(entries)
    with pytest.raises(DomainError):
        KSequence((1,)).at(0)
    for index in (True, 1.5, 2.0, "1"):
        with pytest.raises(DomainError, match="^k-sequence index must be an integer >= 1, got "):
            KSequence((1, 2)).at(index)


def test_k_to_simple_examples():
    assert k_to_simple(KSequence((1,))) == ContinuedFraction(0, (1, 1))
    assert k_to_simple(KSequence((0, 2))) == ContinuedFraction(0, (2, 2))
    assert k_to_simple(KSequence((1, 1))) == ContinuedFraction(0, (1, 1, 1, 1))
    with pytest.raises(DomainError):
        k_to_simple(KSequence(()))


def test_simple_to_k_examples():
    assert simple_to_k(ContinuedFraction(0, (1, 1, 1, 1))) == KSequence((1, 1))
    assert simple_to_k(ContinuedFraction(0, (2, 2))) == KSequence((0, 2))
    assert simple_to_k(ContinuedFraction(0)) == KSequence(())
    with pytest.raises(DomainError):
        simple_to_k(ContinuedFraction(0, (2, 2, 1)))


@given(k_sequences)
def test_simple_to_k_inverts_k_to_simple(k):
    if k.h == 0:
        return
    assert simple_to_k(k_to_simple(k)) == k


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
def test_k_to_simple_inverts_simple_to_k(pairs):
    terms = tuple(t for pair in pairs for t in pair)
    cf = ContinuedFraction(0, terms)
    assert k_to_simple(simple_to_k(cf)) == cf


def terms_by_support(entries):
    """The oracle even simple terms: a (gap, value) pair per nonzero entry, found one entry at a time."""
    terms, prev = [], 0
    for i, entry in enumerate(entries, start=1):
        if entry:
            terms += (i - prev, entry)
            prev = i
    return tuple(terms)


# Entries small and large, zero runs, trailing zeros; the empty list is the zero sequence.
padded_entries = st.tuples(
    st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(1, 2**100)), max_size=60),
    st.integers(0, 5),
).map(lambda drawn: drawn[0] + [0] * drawn[1])


@given(padded_entries)
def test_a_built_sequence_derives_its_simple_terms_once(entries):
    k = KSequence(entries)
    expected = terms_by_support(entries)
    assert k._terms == expected
    assert k.support == tuple(i for i, entry in enumerate(entries, start=1) if entry)
    if k.h:
        assert k_to_simple(k).terms == expected
    else:
        assert expected == ()
    assert k == KSequence(k.entries) and hash(k) == hash(KSequence(k.entries))  # the terms are no field


# --- the integer expansion behind both bijection directions ----------------


def simple_terms_two_divisions(num, den, parity):
    """The oracle Euclid: a floor division and a remainder per step, then the parity fix."""
    terms = []
    while num:
        terms.append(den // num)
        den, num = num, den % num
    if (len(terms) % 2 == 0) != (parity == "even"):
        terms[-1] -= 1
        terms.append(1)
    return terms


def k_entries_appended(terms):
    """The oracle dense entries: gap - 1 zeros, then the value, appended pair by pair."""
    entries = []
    for gap, value in zip(terms[::2], terms[1::2]):
        entries += [0] * (gap - 1)
        entries.append(value)
    return tuple(entries)


def check_expansions(num, den):
    for parity in ("even", "odd") if num else ("even",):
        terms = _simple_terms(num, den, parity)
        assert terms == simple_terms_two_divisions(num, den, parity)
        if parity == "even" and sum(terms[::2]) <= 10**5:  # h, the length of the dense entries
            assert _k_entries(terms) == k_entries_appended(terms)
            assert _k_sequence(terms) == KSequence(k_entries_appended(terms))


@settings(deadline=None)
@given(st.integers(1, 4096).flatmap(lambda bits: st.integers(2, 2**bits + 1)).flatmap(
    lambda den: st.tuples(st.integers(0, den - 1), st.just(den))))
def test_euclid_matches_two_divisions_on_random_fractions(pair):
    # up to 4096-bit denominators; not reduced, since Euclid needs no coprimality
    check_expansions(*pair)


def test_euclid_matches_two_divisions_on_seeded_full_size_fractions():
    rng = random.Random(4096)
    for bits in (64, 128, 256, 512, 1024, 2048, 4096) * 3:
        den = rng.getrandbits(bits) | 1 << (bits - 1)
        check_expansions(rng.randrange(den), den)


@settings(deadline=None)
@given(st.integers(2, 3000))
def test_euclid_matches_two_divisions_on_fibonacci_ratios(n):
    # F_n / F_{n+1} = [0; 1, ..., 1, 2]: the longest expansion for its size
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    check_expansions(a, b)


@settings(deadline=None)
@given(st.integers(2, 10**4), st.integers(1, 3))
def test_euclid_matches_two_divisions_on_long_zero_runs(q, p):
    # 1/q and its neighbours: one or two huge terms, so long runs of zero entries
    check_expansions(p % q, q)


@settings(deadline=None)
@given(st.lists(st.integers(1, 2**100), max_size=40), st.integers(2, 2**100))
def test_euclid_matches_two_divisions_on_big_terms(terms, last):
    # [0; *terms, last] is p/q in (0, 1) whose expansion has these huge quotients
    check_expansions(*convergents(ContinuedFraction(0, (*terms, last)))[-1])


# _simple_terms takes a quotient of 1 (den - num < num) with no division, any other by one division.


def test_euclid_branches_on_every_small_reduced_fraction():
    # a last quotient of 2 has den - num == num, which the quotient-1 test must not take
    for q in range(2, 300):
        for p in range(1, q):
            if gcd(p, q) == 1:
                check_expansions(p, q)


def test_euclid_branches_on_every_fibonacci_ratio_up_to_2000():
    # F_n / F_{n+1} = [0; 1, ..., 1, 2]: every step but the last takes the quotient-1 branch
    a, b = 1, 2  # F_2, F_3
    for _ in range(2, 2001):
        check_expansions(a, b)
        a, b = b, a + b


@pytest.mark.parametrize("big", [2, 3, 10**30])
@pytest.mark.parametrize("lead", [1, 0])
@pytest.mark.parametrize("length", [1, 2, 7, 40])
def test_euclid_branches_interleaved(big, lead, length):
    # quotient lists that alternate 1 with a larger term, so the two branches take turns
    terms = [1 if (i + lead) % 2 else big for i in range(length)] + [max(big, 3)]
    num, den = convergents(ContinuedFraction(0, tuple(terms)))[-1]
    check_expansions(num, den)
    assert _simple_terms(num, den, "even" if len(terms) % 2 == 0 else "odd") == terms


@given(st.lists(st.tuples(st.integers(1, 500), st.integers(1, 2**80)), max_size=12))
def test_k_entries_match_the_appended_construction(pairs):
    terms = [t for pair in pairs for t in pair]
    assert _k_entries(terms) == k_entries_appended(terms)
    assert _k_entries(tuple(terms)) == k_entries_appended(terms)
    assert _k_sequence(terms) == KSequence(k_entries_appended(terms))


def test_k_value_examples():
    assert k_value(KSequence((1,))) == Fraction(1, 2)
    assert k_value(KSequence(())) == 0
    assert k_value(KSequence((2,))) == Fraction(1) / (1 + Fraction(1, 2))


@pytest.mark.parametrize("folded,shown", [
    (INFINITY, "inf"),
    (UNDEFINED, "undefined"),
    (finite(1), "1"),
    (finite(-1), "-1"),
    (finite(Fraction(3, 2)), "3/2"),
    (finite(Fraction(-1, 2)), "-1/2"),
    (finite(Fraction(2**400, 3)), "<401-bit integer>/3"),
])
def test_k_value_guard_rejects_a_fold_outside_the_unit_interval(monkeypatch, folded, shown):
    # The guard compares the fold's integer pair; den == 0 (inf, undefined) fails 0 <= num < den.
    monkeypatch.setattr(contfrac, "eval_terms", lambda values: folded)
    with pytest.raises(AssertionError) as info:
        k_value(KSequence((1,)))
    assert str(info.value) == f"k_value of (1) gave {shown}, outside [0, 1)"


@pytest.mark.parametrize("folded", [finite(0), finite(Fraction(1, 2)), finite(Fraction(2**400 - 1, 2**400))])
def test_k_value_guard_passes_the_fold_inside_the_unit_interval(monkeypatch, folded):
    monkeypatch.setattr(contfrac, "eval_terms", lambda values: folded)
    value = k_value(KSequence((1,)))
    assert type(value) is Fraction and value == folded.value


@given(k_sequences)
def test_k_value_agrees_with_simple_form(k):
    if k.h == 0:
        return
    assert eval_cf(k_to_simple(k)) == finite(k_value(k))


def test_padded_form_equals_simple_form_exhaustively():
    # all canonical nonzero sequences with h <= 6 and entries <= 3
    from itertools import product

    count = 0
    for h in range(1, 7):
        for entries in product(range(4), repeat=h):
            if entries[-1] == 0:
                continue
            k = KSequence(entries)
            padded = [0]
            for e in entries:
                padded.extend((1, e))
            assert eval_terms(padded) == eval_cf(k_to_simple(k))
            count += 1
    assert count == sum(3 * 4 ** (h - 1) for h in range(1, 7))  # 4095


# --- the fold's call structure --------------------------------------------


@contextmanager
def _counted_fold():
    """Count the fold's add and reciprocal calls, replaced where eval_terms looks them up."""
    counts = {"add": 0, "reciprocal": 0}

    def counting(name):
        fn = getattr(contfrac, name)

        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            mp.setattr(contfrac, name, counting(name))
        yield counts


@pytest.mark.parametrize("entries", [
    (3, 1, 4, 1, 5, 9, 2, 6),  # dense
    (0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 7),  # runs of zeros
    (0,) * 299 + (1,),
    (),  # h = 0
])
def test_k_value_folds_with_two_calls_of_each_per_entry(entries):
    k = KSequence(entries)
    with _counted_fold() as counts:
        value = k_value(k)
    assert counts == {"add": 2 * k.h, "reciprocal": 2 * k.h}
    assert value == (eval_cf(k_to_simple(k)).value if k.h else 0)


@given(st.one_of(st.integers(), st.fractions()), st.lists(st.integers(0, 5), max_size=20))
def test_eval_terms_folds_with_one_call_of_each_per_later_term(head, tail):
    with _counted_fold() as counts:
        eval_terms([head, *tail])
    assert counts == {"add": len(tail), "reciprocal": len(tail)}


# --- interval bounds ------------------------------------------------------

def test_bounds_zero_prefix():
    lo, hi = k_value_bounds([0, 0, 0], 3)
    assert lo == 0 and 0 <= lo < hi


def test_bounds_contain_value_of_truncation():
    lo, hi = k_value_bounds([1, 1], 2)
    assert lo <= Fraction(3, 5) <= hi


def test_bounds_collapse_onto_finite_value():
    prefix = [2] + [0] * 20
    widths = []
    for depth in range(1, len(prefix) + 1):
        lo, hi = k_value_bounds(prefix, depth)
        assert lo <= Fraction(2, 3) <= hi
        assert lo == Fraction(2, 3)
        widths.append(hi - lo)
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


def test_bounds_depth_validation():
    with pytest.raises(DomainError):
        k_value_bounds([1], 2)
    with pytest.raises(DomainError):
        k_value_bounds([-1], 1)
    with pytest.raises(DomainError):
        k_value_bounds([2.7], 1)  # not truncated to 2
    with pytest.raises(DomainError):
        k_value_bounds([True, 1], 2)  # bool is not an integer here
    with pytest.raises(DomainError):
        k_value_bounds([1, 1.0], 1)  # untrusted entries are checked too
    with pytest.raises(DomainError, match="^k-sequence entries must be integers >= 0, got -1$"):
        k_value_bounds([1, -1], 2)  # the message names the bad entry, as KSequence's does
    with pytest.raises(DomainError):
        k_value_bounds(5, 1)  # not iterable
    for depth in (1.0, True):
        with pytest.raises(DomainError):
            k_value_bounds([1], depth)


@pytest.mark.parametrize("prefix, depth", [((), 0), ((1, 0, 2), 3), ((0, 0, 3, 1), 2), ((0,) * 99 + (1,), 100)])
def test_bounds_check_each_entry_once(monkeypatch, prefix, depth):
    # The prefix is checked by one _naturals pass; the truncation reuses it, with no KSequence built.
    expected = bounds_by_folds(prefix, depth)
    calls = []
    real = contfrac._naturals
    monkeypatch.setattr(contfrac, "_naturals", lambda values, what: calls.append(what) or real(values, what))
    assert k_value_bounds(prefix, depth) == expected
    assert calls == ["k-sequence entries"]


def bounds_by_folds(prefix, depth):
    """lo = [0; simple terms], hi = [0; simple terms, gap_min], each by one eval_terms fold."""
    truncated = KSequence(tuple(prefix[:depth]))
    terms = k_to_simple(truncated).terms if truncated.h else ()
    last_support = truncated.support[-1] if truncated.h else 0
    lo = eval_terms([0, *terms])
    hi = eval_terms([0, *terms, depth - last_support + 1])
    return lo.value, hi.value


def test_bounds_match_the_two_fold_definition():
    from itertools import product

    for size in range(6):
        for prefix in product(range(4), repeat=size):
            for depth in range(size + 1):
                assert k_value_bounds(prefix, depth) == bounds_by_folds(prefix, depth), (prefix, depth)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_bounds_nest_as_depth_grows(prefix):
    intervals = [k_value_bounds(prefix, d) for d in range(len(prefix) + 1)]
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert lo1 <= lo2 <= hi2 <= hi1
    # every full completion of the trusted prefix lies inside every interval
    value = k_value(KSequence(tuple(prefix)))
    for lo, hi in intervals:
        assert lo <= value <= hi


def test_bounds_contain_every_continuation_exhaustively():
    from itertools import product

    prefixes = [p for size in range(4) for p in product(range(3), repeat=size)]
    extensions = [e for size in range(4) for e in product(range(3), repeat=size)]
    for prefix in prefixes:
        lo, hi = k_value_bounds(prefix, len(prefix))
        for ext in extensions:
            value = k_value(KSequence(prefix + ext))
            assert lo <= value <= hi
