import copy
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import paths
from cfkit.contfrac import ContinuedFraction, KSequence, _k_entries, _simple_terms, k_to_simple, simple_to_k
from cfkit.correspondence import k_to_invariant
from cfkit.errors import CapExceeded, DomainError
from cfkit.paths import (
    Edge,
    PathCounts,
    PathWord,
    defect_by_enumeration,
    enumerate_paths,
    path_counts,
)


def small_sequences(max_h, max_entry):
    """All canonical nonzero k-sequences with support height <= max_h."""
    for h in range(1, max_h + 1):
        for entries in product(range(max_entry + 1), repeat=h):
            if entries[-1] > 0:
                yield KSequence(entries)


def is_normal_form(word: PathWord, k: KSequence) -> bool:
    """Validity predicate: chain levels, wall bounds, alphas before betas per run."""
    seen_beta = False
    for pos, edge in enumerate(word, start=1):
        if edge.level != pos:
            return False
        if edge.kind == "gamma":
            if not 1 <= (edge.wall or 0) <= k.at(pos):
                return False
            seen_beta = False
        elif edge.kind == "beta":
            seen_beta = True
        elif seen_beta:  # alpha after beta inside a wall-free run
            return False
    return True


def test_edge_validation():
    with pytest.raises(DomainError):
        Edge("delta", 1)
    with pytest.raises(DomainError):
        Edge("alpha", 0)
    with pytest.raises(DomainError):
        Edge("alpha", 1, wall=1)
    with pytest.raises(DomainError):
        Edge("gamma", 1)
    with pytest.raises(DomainError):
        Edge("gamma", 1, wall=0)
    # a level or wall whose type is not exactly int, bool included
    for args in [("alpha", 1.5), ("alpha", True), ("alpha", "1"), ("gamma", 1, True), ("gamma", 1, 2.5),
                 ("gamma", 1, "2")]:
        with pytest.raises(DomainError, match="must be an integer, got "):
            Edge(*args)
    with pytest.raises(DomainError, match="^edge level must be an integer, got '1'$"):
        Edge("alpha", "1")
    with pytest.raises(DomainError, match="^edge level must be >= 1$"):
        Edge("alpha", -(10**5000))


def test_enumerate_single_level_walls():
    words = enumerate_paths(KSequence((2,)), 1)
    assert words == [(Edge("gamma", 1, 1),), (Edge("gamma", 1, 2),)]


def test_enumerate_two_levels():
    words = enumerate_paths(KSequence((1, 1)), 2)
    assert words == [
        (Edge("alpha", 1), Edge("gamma", 2, 1)),
        (Edge("beta", 1), Edge("gamma", 2, 1)),
        (Edge("gamma", 1, 1), Edge("gamma", 2, 1)),
    ]


def test_enumerate_length_zero_is_empty_word():
    assert enumerate_paths(KSequence((3, 1)), 0) == [()]
    assert enumerate_paths(KSequence(()), 0) == [()]


def test_enumerate_empty_when_no_wall_at_length():
    assert enumerate_paths(KSequence((0, 2)), 1) == []


def test_counts_examples():
    assert path_counts(KSequence((1, 1))).cumulative == (1, 2, 5)
    assert path_counts(KSequence((2,))).cumulative == (1, 3)
    assert path_counts(KSequence((0, 2))).cumulative == (1, 1, 5)


def seeded_sequences(count=20, max_h=300, max_entry=3, seed=2024):
    """Random canonical nonzero k-sequences with support height <= max_h."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rng.randint(1, max_h)
        entries = [rng.randint(0, max_entry) for _ in range(h - 1)]
        yield KSequence((*entries, rng.randint(1, max_entry)))


def test_counts_match_quadratic_definitions():
    for k in [*small_sequences(4, 2), *seeded_sequences()]:
        counts = path_counts(k)
        per, cum = counts.per_length, counts.cumulative
        assert len(per) == len(cum) == k.h + 1
        assert per[0] == cum[0] == 1
        for f in range(1, k.h + 1):
            weighted = sum((f - l) * per[l] for l in range(f))
            assert weighted == sum(cum[f - p - 1] for p in range(f))
            assert per[f] == k.at(f) * weighted
            assert cum[f] == sum(per[: f + 1])


def path_counts_per_entry(k: KSequence) -> PathCounts:
    """The oracle pass for path_counts: one step per entry, zeros included."""
    per = [1]
    cum = [1]
    total = 1  # sum(cum)
    for entry in k.entries:
        per.append(entry * total)
        cum.append(cum[-1] + per[-1])
        total += cum[-1]
    return PathCounts(tuple(per), tuple(cum))


def from_runs(runs) -> KSequence:
    """The k-sequence with ``g`` zeros before each ``value`` of the (g, value) pairs."""
    return KSequence([e for g, value in runs for e in (*(0,) * g, value)])


def forward_k(p: int, q: int) -> KSequence:
    return KSequence(_k_entries(_simple_terms(p, q, "even")))


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3000), st.integers(1, 3)), max_size=8))
def test_counts_match_the_per_entry_pass_on_long_zero_runs(runs):
    # leading zeros when the first run is nonempty; the empty list is the zero sequence
    k = from_runs(runs)
    assert path_counts(k) == path_counts_per_entry(k)


@settings(deadline=None)
@given(st.integers(2, 10**4))
def test_counts_match_the_per_entry_pass_on_unit_fractions(q):
    # 1/q has q - 2 zeros and a final 1, so n = q and m = q - 1
    k = forward_k(1, q)
    assert k.entries == (0,) * (q - 2) + (1,)
    counts = path_counts(k)
    assert counts == path_counts_per_entry(k)
    assert (counts.cumulative[-1], sum(counts.cumulative[:-1])) == (q, q - 1)


@settings(deadline=None)
@given(st.one_of(
    st.integers(1, 2000).map(lambda h: KSequence((1,) * h)),
    st.lists(st.integers(1, 2**200), min_size=1, max_size=60).map(KSequence),
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 2**64)), max_size=40).map(from_runs),
))
def test_counts_match_the_per_entry_pass_on_dense_and_big_entries(k):
    assert path_counts(k) == path_counts_per_entry(k)


def test_counts_match_the_per_entry_pass_on_forward_k_sequences():
    fib = [0, 1]
    while len(fib) < 1502:
        fib.append(fib[-1] + fib[-2])
    rng = random.Random(25)
    cases = [(fib[n], fib[n + 1]) for n in (3, 4, 99, 100, 1499, 1500)]
    cases += [(rng.getrandbits(bits), 1 << bits) for bits in (64, 511, 512, 4096)]
    for p, q in cases:
        k = forward_k(p, q)
        assert path_counts(k) == path_counts_per_entry(k)


def quadratic_counts(entries) -> PathCounts:
    """The oracle counts by the defining quadratic sums, built through the public constructor."""
    per = [1]
    for f in range(1, len(entries) + 1):
        per.append(entries[f - 1] * sum((f - l) * per[l] for l in range(f)))
    return PathCounts(tuple(per), tuple(accumulate(per)))


def matched(counts):
    match counts:
        case PathCounts(per, cum):
            return PathCounts(per, cum)


# Each check reads a PathCounts only through the _Value machinery and compares it with the oracle.
VALUE_CHECKS = {
    "eq": lambda counts, ref: counts == ref and ref == counts and not counts != ref,
    "hash": lambda counts, ref: hash(counts) == hash(ref),
    "repr": lambda counts, ref: repr(counts) == repr(ref),
    "pickle": lambda counts, ref: pickle.loads(pickle.dumps(counts)) == ref,
    "copy": lambda counts, ref: copy.copy(counts) == ref == copy.deepcopy(counts),
    "replace": lambda counts, ref: counts._replace() == ref == counts._replace(cumulative=ref.cumulative),
    "match": lambda counts, ref: matched(counts) == ref,
}


@settings(deadline=None)
@given(st.tuples(
    st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(1, 2**100)), max_size=40),
    st.integers(0, 5),
).map(lambda drawn: KSequence(drawn[0] + [0] * drawn[1])))  # trailing zeros; [] is the zero sequence
def test_counts_built_on_first_read_behave_like_the_quadratic_sums(k):
    ref = quadratic_counts(k.entries)
    invariant = (ref.cumulative[-1], sum(ref.cumulative[:-1])) if k.h else (1, 0)
    # terms derived from the entries, and terms kept from the simple CF
    for seq in (k, simple_to_k(k_to_simple(k) if k.h else ContinuedFraction(0))):
        for name, check in VALUE_CHECKS.items():
            before, after = path_counts(seq), path_counts(seq)
            assert check(before, ref), name
            assert k_to_invariant(seq) == invariant
            assert check(after, ref) and check(before, ref), name
            assert (before.per_length, before.cumulative) == (ref.per_length, ref.cumulative)


def test_concurrent_first_reads_build_equal_tuples():
    # Long enough that a thread switch can fall inside a build; every reader gets the oracle's tuple.
    rng = random.Random(30)
    entries = [rng.choice((0, 0, 1, 2)) for _ in range(1500)] + [1]
    ref = path_counts_per_entry(KSequence(entries))
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            k = KSequence(entries)  # its simple terms are derived on first use, here by the threads
            counts = path_counts(KSequence(entries))
            barrier = threading.Barrier(4)
            reads = []

            def read():
                barrier.wait()
                reads.append((k.support, counts.per_length, counts.cumulative))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads) and len(reads) == 4
            for support, per, cum in reads:
                assert support == KSequence(entries).support
                assert (per, cum) == (ref.per_length, ref.cumulative)
            # one of the equal tuples stays set
            assert any(per is counts.per_length for _, per, _ in reads)
            assert any(cum is counts.cumulative for _, _, cum in reads)
    finally:
        sys.setswitchinterval(saved)


def test_counts_per_length_examples():
    assert path_counts(KSequence((2,))).per_length == (1, 2)
    assert path_counts(KSequence((1, 1))).per_length == (1, 1, 3)


def test_defect_examples():
    assert defect_by_enumeration(KSequence((1, 1))) == 3
    assert defect_by_enumeration(KSequence((2,))) == 1
    assert defect_by_enumeration(KSequence((0, 2))) == 2
    with pytest.raises(DomainError):
        defect_by_enumeration(KSequence(()))


def test_enumeration_matches_recurrence_small():
    for k in small_sequences(4, 2):
        counts = path_counts(k)
        for f in range(k.h + 1):
            assert len(enumerate_paths(k, f)) == counts.per_length[f]


def word_key(word):
    return tuple((("alpha", "beta", "gamma").index(e.kind), e.wall or 0) for e in word)


def test_enumerated_words_are_valid_and_distinct():
    for k in small_sequences(3, 2):
        words = [w for f in range(k.h + 1) for w in enumerate_paths(k, f)]
        assert len(set(words)) == len(words)
        for w in words:
            assert is_normal_form(w, k)
    for k in small_sequences(4, 2):
        per = path_counts(k).per_length
        for f in range(k.h + 2):
            words = enumerate_paths(k, f)
            keys = [word_key(w) for w in words]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(is_normal_form(w, k) for w in words)
            assert len(words) == (per[f] if f <= k.h else 0)


def reference_enumeration(k, length):
    """The level-at-a-time loop on checked ``Edge`` objects, kept as the oracle.

    Every new word appends a fresh ``(e,)`` tuple, and a prefix ends in beta
    when its last edge's kind says so.
    """
    words = [()]
    for t in range(1, length + 1):
        walls = tuple(Edge("gamma", t, w) for w in range(1, k.at(t) + 1))
        if t == length:
            words = [w + (e,) for w in words for e in walls]
        else:
            after_beta = (Edge("beta", t), *walls)
            anywhere = (Edge("alpha", t), *after_beta)
            words = [
                w + (e,)
                for w in words
                for e in (after_beta if w and w[-1].kind == "beta" else anywhere)
            ]
    return words


def fields(words):
    return [[(type(e), e.kind, e.level, e.wall) for e in w] for w in words]


def test_enumeration_equals_reference_loop():
    # seeded sequences with at most 10^4 words of length <= h keep this fast
    seeded = [k for k in seeded_sequences(count=100, max_h=9, max_entry=3, seed=12)
              if path_counts(k).cumulative[-1] <= 10_000][:50]
    assert len(seeded) == 50 and max(k.h for k in seeded) == 9
    for k in [*small_sequences(4, 2), *seeded]:
        for f in range(k.h + 2):
            words, expected = enumerate_paths(k, f), reference_enumeration(k, f)
            assert words == expected, (k, f)
            assert fields(words) == fields(expected), (k, f)


def sparse_sequences(count, max_h, seed):
    """Zero chains with a few walls scattered before the last level: long wall-free runs."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rng.randint(1, max_h)
        entries = [0] * h
        for t in rng.sample(range(h - 1), min(h - 1, rng.randint(0, 3))):
            entries[t] = rng.randint(1, 2)
        entries[-1] = rng.randint(1, 3)
        yield KSequence(tuple(entries))


def test_enumeration_equals_reference_on_long_sparse_chains():
    # every length 0..h+1 of h up to 60, so both odd and even splits, length 1 and
    # lengths past h are all joined
    chains = [KSequence((0,) * (h - 1) + (w,)) for h in (1, 2, 3, 7, 8, 33, 60) for w in (1, 2)]
    sparse = [k for k in sparse_sequences(count=60, max_h=60, seed=5)
              if path_counts(k).cumulative[-1] <= 2_000][:25]
    assert len(sparse) == 25 and max(k.h for k in sparse) >= 50
    for k in [*chains, *sparse]:
        for f in range(k.h + 2):
            words, expected = enumerate_paths(k, f), reference_enumeration(k, f)
            assert words == expected, (k, f)
            assert fields(words) == fields(expected), (k, f)


def test_no_block_holds_more_sequences_than_words(monkeypatch):
    real = paths._joined
    sizes = []

    def recorded(levels, bits, lo, hi):
        block = real(levels, bits, lo, hi)
        sizes.append(len(block))
        return block

    monkeypatch.setattr(paths, "_joined", recorded)
    for k in [KSequence((2, 0, 1, 2)), KSequence((0,) * 9 + (3,)), KSequence((0, 0, 0, 0, 0, 500)),
              KSequence((3, 0, 2, 0, 0, 1))]:
        sizes.clear()
        words = enumerate_paths(k, k.h)
        assert len(sizes) == 2 * k.h - 1 and max(sizes) == len(words)


def test_zero_chain_is_quadratic():
    # level by level, every prefix was copied at every level: 2.5-5.3 s at L = 1000
    k = KSequence((0,) * 999 + (1,))
    start = time.perf_counter()
    words = enumerate_paths(k, 1000)
    assert time.perf_counter() - start < 1
    assert len(words) == 1000 and words[0][0] == Edge("alpha", 1) and words[-1][0] == Edge("beta", 1)
    assert all(is_normal_form(w, k) for w in words[::97])
    assert len(enumerate_paths(KSequence((0,) * 1499 + (1,)), 1500)) == 1500


def test_edge_bound_is_checked_before_building(monkeypatch):
    # 3163 words of 3163 edges pass the bound of 10^7 edges
    k = KSequence((0,) * 3162 + (1,))
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="^more than 10000000 edges in the 3163 words of length 3163 to enumerate$"):
        enumerate_paths(k, k.h)
    assert time.perf_counter() - start < 0.1
    # the word bound is checked first; the edge bound counts only the words of the requested length
    monkeypatch.setattr(paths, "_MAX_EDGES", 29)
    assert len(enumerate_paths(KSequence((1, 1, 1, 0, 2)), 3)) == 8  # 8 words of 3 edges
    with pytest.raises(CapExceeded, match="more than 29 edges in the 30 words of length 3"):
        enumerate_paths(KSequence((2, 2, 2)), 3)
    monkeypatch.setattr(paths, "_MAX_WORDS", 40)
    with pytest.raises(CapExceeded, match="more than 40 words"):
        enumerate_paths(KSequence((2, 2, 2)), 3)


def test_enumerated_edges_behave_like_checked_edges():
    for w in enumerate_paths(KSequence((2, 0, 1, 2)), 4):
        for e in w:
            checked = Edge(e.kind, e.level, e.wall)
            assert type(e) is Edge
            assert (e, hash(e), str(e), repr(e)) == (checked, hash(checked), str(checked), repr(checked))


def test_edge_is_an_immutable_checked_tuple():
    edge = Edge("gamma", 3, 2)
    for field in ("kind", "level", "wall"):
        with pytest.raises(AttributeError):
            setattr(edge, field, 1)
        with pytest.raises(AttributeError):
            delattr(edge, field)
    with pytest.raises(AttributeError):
        edge.extra = 1
    assert hash(edge) == hash(Edge("gamma", 3, 2)) and edge != Edge("gamma", 3, 1)
    assert edge == ("gamma", 3, 2) and repr(edge) == "Edge(kind='gamma', level=3, wall=2)"
    copied = pickle.loads(pickle.dumps(edge))
    assert copied == edge and type(copied) is Edge
    # the namedtuple copy routes run the checks too
    assert edge._replace(wall=1) == Edge("gamma", 3, 1)
    with pytest.raises(DomainError):
        edge._replace(level=0)
    with pytest.raises(DomainError):
        Edge._make(("delta", 1, None))


def test_normal_form_rejects_beta_before_alpha():
    k = KSequence((0, 0, 1))
    bad = (Edge("beta", 1), Edge("alpha", 2), Edge("gamma", 3, 1))
    good = (Edge("alpha", 1), Edge("beta", 2), Edge("gamma", 3, 1))
    assert not is_normal_form(bad, k)
    assert is_normal_form(good, k)
    assert good in enumerate_paths(k, 3)
    assert bad not in enumerate_paths(k, 3)


def test_normal_form_checks_levels_and_walls():
    k = KSequence((1,))
    assert not is_normal_form((Edge("gamma", 2, 1),), k)
    assert not is_normal_form((Edge("gamma", 1, 2),), k)


def test_coprimality_and_strict_bound():
    from math import gcd

    for k in small_sequences(4, 2):
        counts = path_counts(k)
        top = counts.cumulative[k.h]
        rest = sum(counts.cumulative[: k.h])
        assert gcd(top, rest) == 1
        assert rest < top


def test_defect_equals_recurrence_sum():
    for k in small_sequences(4, 2):
        counts = path_counts(k)
        assert defect_by_enumeration(k) == sum(counts.cumulative[: k.h])


def test_cap_is_enforced(monkeypatch):
    # at the real bound, building nothing: cumulative[1] of (999_999,) is 10^6, and length 2 is past h
    assert enumerate_paths(KSequence((999_999,)), 2) == []
    with pytest.raises(CapExceeded, match="more than 1000000 words of length <= 2 to enumerate"):
        enumerate_paths(KSequence((1_000_000,)), 2)
    # cumulative counts (1, 3, 11, 41, 153)
    monkeypatch.setattr(paths, "_MAX_WORDS", 41)
    assert len(enumerate_paths(KSequence((2, 2, 2)), 3)) == 30
    with pytest.raises(CapExceeded):
        defect_by_enumeration(KSequence((2, 2, 2, 2)))
    monkeypatch.setattr(paths, "_MAX_WORDS", 40)
    with pytest.raises(CapExceeded):
        enumerate_paths(KSequence((2, 2, 2)), 3)


def test_word_bound_is_checked_before_counting_in_full(monkeypatch):
    # counted in full, 50 000 ones give counts of about 70 000 bits; the check stops near 2^20
    built = counted_edges(monkeypatch)
    k = KSequence((1,) * 50_000)
    start = time.perf_counter()
    assert len(enumerate_paths(k, 1)) == 1
    assert built == [("alpha", 1), ("beta", 1), ("gamma", 1, 1)]  # level 1 only
    with pytest.raises(CapExceeded):
        enumerate_paths(k, k.h)
    assert len(built) == 3  # the refusal builds no edge
    assert time.perf_counter() - start < 0.25


def test_lengths_off_the_support_take_one_step_per_support_point():
    # one support point at h = 100 000: every shorter length holds no word and walks no zero entry
    k = KSequence((0,) * 99_999 + (1,))
    lengths = range(1, 100_000, 1_000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        results = [enumerate_paths(k, length) for length in lengths]
        best = min(best, time.perf_counter() - start)
    assert len(results) == 100 and results == [[]] * 100
    assert best < 0.05


def test_over_cap_defect_stops_at_length_h(monkeypatch):
    # cumulative counts (1, 3, 11, 41, 153): every length below h = 4 fits a bound of 100
    monkeypatch.setattr(paths, "_MAX_WORDS", 100)
    k = KSequence((2, 2, 2, 2))
    real = paths.enumerate_paths
    lengths = []

    def counting(k, length):
        lengths.append(length)
        return real(k, length)

    monkeypatch.setattr(paths, "enumerate_paths", counting)
    with pytest.raises(CapExceeded) as via_defect:
        paths.defect_by_enumeration(k)
    assert lengths == [k.h]
    with pytest.raises(CapExceeded) as direct:
        real(k, k.h)
    assert str(via_defect.value) == str(direct.value)


def test_counts_beyond_support_stay_flat(monkeypatch):
    # past h the bounded count is cumulative[h] and no word ends in a wall
    assert path_counts(KSequence(())).cumulative == (1,)
    monkeypatch.setattr(paths, "_MAX_WORDS", 1)
    assert enumerate_paths(KSequence(()), 3) == []
    for k in small_sequences(3, 2):
        top = path_counts(k).cumulative[k.h]
        for length in (k.h + 1, k.h + 3):
            monkeypatch.setattr(paths, "_MAX_WORDS", top)
            assert enumerate_paths(k, length) == []
            monkeypatch.setattr(paths, "_MAX_WORDS", top - 1)
            with pytest.raises(CapExceeded, match=f"more than {top - 1} words of length <= {length} to enumerate"):
                enumerate_paths(k, length)


def test_enumerate_rejects_negative_length():
    for length in (-1, 2.0, True):
        with pytest.raises(DomainError):
            enumerate_paths(KSequence((1,)), length)


@pytest.mark.parametrize("edge, text", [
    (Edge("alpha", 1), "a1"),
    (Edge("beta", 2), "b2"),
    (Edge("gamma", 3, 2), "g3(2)"),
])
def test_edge_text(edge, text):
    assert str(edge) == text


def test_reused_levels_give_the_reference_words():
    # lengths up then down on A, then B, then A again, and an equal A in a new entries tuple
    a, b = KSequence((1, 2, 0, 1, 3)), KSequence((2, 0, 1, 2))
    a_again = KSequence(tuple(list(a.entries)))
    assert a_again == a and a_again.entries is not a.entries
    for k in (a, b, a, a_again, b, a_again):
        for f in [*range(k.h + 2), *range(k.h + 1, -1, -1)]:
            words, expected = enumerate_paths(k, f), reference_enumeration(k, f)
            assert words == expected, (k, f)
            assert fields(words) == fields(expected), (k, f)


def counted_edges(monkeypatch) -> list:
    """The arguments of every ``Edge`` the enumeration builds, from an empty snapshot on."""
    built = []

    def counting(*args):
        built.append(args)
        return Edge(*args)

    monkeypatch.setattr(paths, "Edge", counting)
    monkeypatch.setattr(paths, "_snapshot", (None, (None,)))
    return built


def test_each_level_is_built_once_per_k_sequence(monkeypatch):
    built = counted_edges(monkeypatch)
    k = KSequence((1, 2, 0, 1, 3))
    assert defect_by_enumeration(k) == sum(path_counts(k).cumulative[:k.h])
    # sum(k_t + 2) edges; one level set per call would build 31
    assert len(built) <= sum(e + 2 for e in k.entries) == 17
    assert len(set(built)) == len(built)


def test_levels_are_built_only_up_to_the_requested_length(monkeypatch):
    built = counted_edges(monkeypatch)
    k = KSequence((1, 2, 0, 1, 3))
    assert len(enumerate_paths(k, 2)) == 6
    assert sorted({level for _, level, *_ in built}) == [1, 2] and len(built) == 7
    assert enumerate_paths(k, 3) == [] and len(built) == 7  # k_3 = 0: nothing to build
    assert len(enumerate_paths(k, 4)) == path_counts(k).per_length[4] and len(built) == 7 + 2 + 3
    enumerate_paths(k, 1)
    assert len(built) == 12


def test_a_large_level_set_is_not_kept(monkeypatch):
    import gc
    import tracemalloc

    monkeypatch.setattr(paths, "_snapshot", (None, (None,)))
    k = KSequence((0,) * 5 + (50_000,))  # 50 012 edges, past the bound of 4 096
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        words = enumerate_paths(k, 6)
        assert len(words) == 300_000
        del words
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert paths._snapshot[0] is not k.entries
    # 4 096 kept edges take about 0.5 MiB; these levels alone take about 6 MiB
    assert retained < 512 * 1024, retained


def test_no_levels_are_built_at_import():
    env = dict(os.environ, PYTHONPATH=str(Path(paths.__file__).parents[1]))
    code = "from cfkit import paths; print(paths._snapshot)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(None, (None,))\n"


def test_concurrent_callers_get_the_single_threaded_words():
    sequences = [KSequence((1, 2, 0, 1, 3)), KSequence((2, 0, 1, 2)), KSequence((0, 0, 4, 1)),
                 KSequence((3, 1, 1))]
    expected = {k: [enumerate_paths(k, f) for f in range(k.h + 2)] for k in sequences}
    mismatches = []

    def run(k):
        for _ in range(40):
            for f in range(k.h + 2):
                if enumerate_paths(k, f) != expected[k][f]:
                    mismatches.append((k, f))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in sequences]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
