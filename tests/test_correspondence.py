import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import cfkit
from cfkit.contfrac import ContinuedFraction, KSequence, expand_simple, k_value
from cfkit.correspondence import (
    dimension_tower,
    invariant_to_k,
    invariant_to_rational,
    k_to_invariant,
    rational_candidates,
    rational_to_invariant,
)
from cfkit.errors import DomainError
from cfkit.paths import defect_by_enumeration

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


def test_k_to_invariant_examples():
    assert k_to_invariant(KSequence((1, 1))) == (5, 3)
    assert k_to_invariant(KSequence(())) == (1, 0)
    assert k_to_invariant(KSequence((2,))) == (3, 1)


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


_OFF_BY_ONE = """
import dataclasses
from fractions import Fraction
import cfkit.correspondence as c

assert not __debug__, "expected python -O"
real = c.path_counts

def off_by_one(k, upto=None):
    counts = real(k, upto)
    cumulative = list(counts.cumulative)
    cumulative[k.h] += 1
    return dataclasses.replace(counts, cumulative=tuple(cumulative))

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
    with pytest.raises(DomainError):
        dimension_tower(ContinuedFraction(0, (2, 2)), -1)


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


# --- terminal dimension candidates ----------------------------------------

def test_candidates_examples():
    # returned as (even-parity pair, odd-parity pair); compared as sets here
    assert rational_candidates(Fraction(2, 5)) == ((5, 2), (5, 3))
    assert rational_candidates(Fraction(1, 2)) == ((2, 1), (2, 1))
    assert set(rational_candidates(Fraction(1, 3))) == {(3, 1), (3, 2)}
    assert rational_candidates(Fraction(1, 3))[1] == (3, 1)  # odd expansion [0;3]


def test_candidates_domain():
    with pytest.raises(DomainError):
        rational_candidates(Fraction(0))
    with pytest.raises(DomainError):
        rational_candidates(Fraction(1))
