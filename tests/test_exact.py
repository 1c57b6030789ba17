from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cfkit.contfrac import KSequence, eval_cf, eval_terms, k_to_simple, k_value
from cfkit.errors import DomainError
from cfkit.exact import (
    INFINITY,
    UNDEFINED,
    ExtendedRational,
    add,
    as_extended,
    finite,
    reciprocal,
)

rationals = st.fractions(max_denominator=10**6)
non_integers = rationals.filter(lambda f: f.denominator != 1)
extendeds = st.one_of(
    rationals.map(finite),
    st.just(INFINITY),
    st.just(UNDEFINED),
)


def test_add_finite_plus_infinity_is_infinity():
    assert add(finite(1), INFINITY) is INFINITY
    assert add(INFINITY, finite(1)) is INFINITY


def test_add_zero_identity():
    assert add(finite(0), finite(0)) == finite(0)


@pytest.mark.parametrize("y", [
    finite(Fraction(2, 7)),
    finite(Fraction(-5, 3)),
    finite(-4),
    add(finite(Fraction(1, 6)), finite(Fraction(1, 3))),  # built on the gcd branch
    INFINITY,
    UNDEFINED,
], ids=["2/7", "-5/3", "-4", "gcd-branch", "inf", "undefined"])
def test_adding_to_zero_returns_the_right_operand_itself(y):
    assert add(finite(0), y) is y
    assert add(0, y) is y


def test_adding_a_fraction_to_the_integer_zero_stores_it_as_finite_does():
    s, f = add(0, Fraction(3, 4)), finite(Fraction(3, 4))
    assert s == f and type(s) is ExtendedRational
    assert (s._num, s._den) == (f._num, f._den) == (3, 4)


def test_add_infinity_plus_infinity_is_undefined():
    assert add(INFINITY, INFINITY) is UNDEFINED


def test_reciprocal_of_zero_is_infinity():
    assert reciprocal(finite(0)) is INFINITY


def test_reciprocal_of_infinity_is_zero():
    assert reciprocal(INFINITY) == finite(0)


def test_reciprocal_reduces_with_positive_denominator():
    r = reciprocal(finite(Fraction(-2, 3)))
    assert r == finite(Fraction(-3, 2))
    assert r.value.denominator == 2 and r.value.numerator == -3


def test_undefined_is_absorbing():
    assert add(UNDEFINED, finite(5)) is UNDEFINED
    assert add(INFINITY, UNDEFINED) is UNDEFINED
    assert reciprocal(UNDEFINED) is UNDEFINED


def test_rational_order_is_real_order():
    assert Fraction(1, 2) < Fraction(2, 3)
    assert Fraction(2, 5) == Fraction(2, 5)
    assert Fraction(3, 5) > Fraction(1, 2)


def test_fraction_always_stored_reduced():
    x = Fraction(2, -4)
    assert (x.numerator, x.denominator) == (-1, 2)


def test_value_raises_off_the_finite_part():
    with pytest.raises(ValueError):
        INFINITY.value
    with pytest.raises(ValueError):
        UNDEFINED.value


def test_immutability():
    x = finite(1)
    with pytest.raises(AttributeError):
        x._kind = 2
    with pytest.raises(AttributeError):
        x._num = 5
    with pytest.raises(AttributeError):
        del x._den
    assert x == 1


# --- stored form at every construction site ------------------------------

coercibles = st.one_of(st.integers(), st.booleans(), rationals,
                       st.floats(allow_nan=False, allow_infinity=False))
operands = st.one_of(st.integers(), rationals, extendeds)


def _assert_stored_form(x):
    """Exactly an ExtendedRational holding a reduced pair with den > 0, (1, 0) or (0, 0), immutably."""
    assert type(x) is ExtendedRational
    num, den = x._num, x._den
    assert type(num) is int and type(den) is int
    assert (den > 0 and gcd(num, den) == 1) or (num, den) in ((1, 0), (0, 0))
    with pytest.raises(AttributeError):
        x._num = num + 1
    with pytest.raises(AttributeError):
        del x._den
    assert (x._num, x._den) == (num, den)


@given(coercibles)
def test_finite_and_as_extended_store_the_canonical_form(raw):
    _assert_stored_form(finite(raw))
    _assert_stored_form(as_extended(raw))


@given(operands, operands)
@example(3, finite(Fraction(2, 7)))  # integer left operand: the unreduced branch
@example(finite(Fraction(1, 6)), finite(Fraction(1, 3)))  # the gcd branch
@example(-4, 4)
@example(2, INFINITY)
@example(INFINITY, INFINITY)
@example(UNDEFINED, 1)
def test_add_stores_the_canonical_form(x, y):
    _assert_stored_form(add(x, y))


@given(operands)
@example(finite(Fraction(5, 3)))
@example(-7)
@example(finite(Fraction(-2, 9)))
@example(0)
@example(INFINITY)
@example(UNDEFINED)
def test_reciprocal_stores_the_canonical_form(x):
    _assert_stored_form(reciprocal(x))


@given(st.lists(operands, min_size=1, max_size=8))
def test_eval_terms_stores_the_canonical_form(values):
    _assert_stored_form(eval_terms(values))


@given(extendeds, extendeds)
def test_add_commutative(x, y):
    assert add(x, y) == add(y, x)


@given(rationals)
def test_reciprocal_is_an_involution(x):
    v = finite(x)
    assert reciprocal(reciprocal(v)) == v


def test_zero_and_infinity_swap_under_reciprocal():
    assert reciprocal(finite(0)) is INFINITY
    assert reciprocal(INFINITY) == finite(0)
    assert reciprocal(reciprocal(INFINITY)) is INFINITY


@given(rationals)
def test_adding_reciprocal_of_infinity_is_identity(x):
    assert add(finite(x), reciprocal(INFINITY)) == finite(x)


@given(st.integers(), st.integers())
def test_as_extended_coerces_ints_exactly(a, b):
    assert add(as_extended(a), as_extended(b)) == finite(a + b)


# --- integer-pair arithmetic against Fraction --------------------------------


@given(rationals, rationals)
def test_add_agrees_with_fraction(x, y):
    s = add(finite(x), finite(y))
    assert s == x + y and str(s) == str(x + y)


@given(non_integers, non_integers)
def test_add_without_a_unit_denominator_reduces(x, y):
    s = add(finite(x), finite(y))
    assert s == x + y and str(s) == str(x + y)


@given(st.integers(), rationals)
def test_add_integer_term_agrees_with_fraction(n, y):
    # the continued-fraction fold adds a bare int term to an extended rational
    assert add(n, finite(y)) == n + y
    assert add(finite(y), n) == y + n


@given(rationals.filter(bool))
def test_reciprocal_agrees_with_fraction(x):
    r = reciprocal(finite(x))
    assert r == 1 / x and str(r) == str(1 / x)
    assert reciprocal(finite(-x)) == -1 / x


_HALF = finite(Fraction(-3, 2))


@pytest.mark.parametrize("x,y,expected", [
    (_HALF, INFINITY, INFINITY),
    (INFINITY, _HALF, INFINITY),
    (0, INFINITY, INFINITY),
    (INFINITY, INFINITY, UNDEFINED),
    (_HALF, UNDEFINED, UNDEFINED),
    (UNDEFINED, _HALF, UNDEFINED),
    (0, UNDEFINED, UNDEFINED),
    (INFINITY, UNDEFINED, UNDEFINED),
    (UNDEFINED, INFINITY, UNDEFINED),
    (UNDEFINED, UNDEFINED, UNDEFINED),
])
def test_add_table_off_the_finite_part(x, y, expected):
    assert add(x, y) is expected


@pytest.mark.parametrize("x,expected", [
    (finite(0), INFINITY),
    (0, INFINITY),
    (INFINITY, finite(0)),
    (UNDEFINED, UNDEFINED),
])
def test_reciprocal_table_off_the_finite_part(x, expected):
    assert reciprocal(x) == expected
    assert reciprocal(x).is_finite == expected.is_finite


@pytest.mark.parametrize("x,kinds,text", [
    (finite(Fraction(-3, 2)), (True, False, False), "-3/2"),
    (finite(0), (True, False, False), "0"),
    (INFINITY, (False, True, False), "inf"),
    (UNDEFINED, (False, False, True), "undefined"),
])
def test_kind_predicates_and_text(x, kinds, text):
    assert (x.is_finite, x.is_infinite, x.is_undefined) == kinds
    assert str(x) == text and repr(x) == f"ExtendedRational({text})"


@pytest.mark.parametrize("raw,expected", [
    (3, Fraction(3)),
    (-7, Fraction(-7)),
    (True, Fraction(1)),
    (False, Fraction(0)),
    (Fraction(6, -4), Fraction(-3, 2)),
    (0.75, Fraction(3, 4)),
    (-0.1, Fraction(-0.1)),
])
def test_finite_and_as_extended_coerce_exactly(raw, expected):
    for wrap in (finite, as_extended):
        v = wrap(raw)
        assert v.is_finite and v == expected and str(v) == str(expected)
        assert type(v.value) is Fraction and v.value == expected
        assert as_extended(v) is v


@pytest.mark.parametrize("raw", [float("inf"), float("-inf"), float("nan"), None, "x"],
                         ids=["inf", "-inf", "nan", "None", "str"])
def test_values_fraction_refuses_raise_domain_error(raw):
    calls = [finite, as_extended, reciprocal, lambda x: add(1, x), lambda x: add(x, 1),
             lambda x: eval_terms([x, 1]), lambda x: eval_terms([1, x])]
    for call in calls:
        with pytest.raises(DomainError, match="^finite requires a rational number, got "):
            call(raw)


@given(rationals)
def test_equal_values_hash_equal(x):
    same = [
        finite(x),
        as_extended(x),
        add(finite(x), finite(0)),
        add(0, finite(x)),
        reciprocal(reciprocal(finite(x))) if x else finite(0),
    ]
    for v in same:
        assert v == same[0] and v == x
        assert hash(v) == hash(same[0]) == hash(x)


def test_direct_construction():
    # finite(), INFINITY and UNDEFINED are the only ways in
    for args in ((), (0, 5), (Fraction(1, 2),)):
        with pytest.raises(TypeError, match="finite"):
            ExtendedRational(*args)
    assert INFINITY != UNDEFINED and INFINITY != finite(1) and UNDEFINED != finite(0)


def test_k_value_of_a_long_zero_chain_matches_the_simple_form():
    # h = 2000: the fold runs 4000 add/reciprocal steps through runs of zero terms
    for k in (KSequence((0,) * 1999 + (1,)), KSequence((0, 3) * 999 + (0, 2))):
        assert finite(k_value(k)) == eval_cf(k_to_simple(k))
    assert k_value(KSequence((0,) * 1999 + (1,))) == Fraction(1, 2001)
