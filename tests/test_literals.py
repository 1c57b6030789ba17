import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit.contfrac import ContinuedFraction
from cfkit.errors import CapExceeded
from cfkit.literals import ParseError, parse_cf, parse_rational, render_cf

cfs = st.tuples(
    st.integers(-50, 50), st.lists(st.integers(0, 50), max_size=8)
).map(lambda t: ContinuedFraction(t[0], tuple(t[1])))


def test_parse_plain():
    assert parse_cf("[0;2,2]") == ContinuedFraction(0, (2, 2))
    assert parse_cf("[0,2,2]") == ContinuedFraction(0, (2, 2))
    assert parse_cf("[1,0]") == ContinuedFraction(1, (0,))
    assert parse_cf("[7]") == ContinuedFraction(7)
    assert parse_cf("[-3; 1, 2]") == ContinuedFraction(-3, (1, 2))


def test_parse_repetition_groups():
    assert parse_cf("[1,(0,1)^3]") == ContinuedFraction(1, (0, 1, 0, 1, 0, 1))
    assert parse_cf("[0;(1,2)^2,5]") == ContinuedFraction(0, (1, 2, 1, 2, 5))
    assert parse_cf("[2,(3,4,5)^1]") == ContinuedFraction(2, (3, 4, 5))


def test_parse_whitespace_insignificant():
    assert parse_cf(" [ 0 ; 2 , 2 ] ") == ContinuedFraction(0, (2, 2))
    assert parse_cf("[1, ( 0 , 1 ) ^ 2]") == ContinuedFraction(1, (0, 1, 0, 1))


def test_render_is_canonical():
    assert render_cf(ContinuedFraction(0, (2, 2))) == "[0; 2, 2]"
    assert render_cf(ContinuedFraction(4)) == "[4]"


@given(cfs)
def test_render_parse_round_trip(cf):
    assert parse_cf(render_cf(cf)) == cf


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[",
        "]",
        "[1,0",
        "[1,0,]",
        "[1,,2]",
        "[a]",
        "[1,0] extra",
        "[1,(0)^2]",      # group needs at least two integers
        "[1,(0,1)^0]",    # exponent must be positive
        "[1,(0,1)]",      # group without exponent
        "[0,-1]",         # negative term after a0
        "[0,(1,-2)^2]",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_cf(text)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_cf("[1,0,]")
    assert exc.value.position == 5
    assert "position 5" in str(exc.value)


def test_term_bound():
    bound = 1_000_000  # documented in the module docstring
    assert len(parse_cf(f"[0;(0,1)^{bound // 2}]").terms) == bound
    for text in (f"[0;(0,1)^{bound // 2},1]", f"[0;1,(0,1)^{bound // 2}]", "[1,(0,1)^1000000000000000]"):
        with pytest.raises(CapExceeded) as exc:
            parse_cf(text)
        assert f"at most {bound} are accepted" in str(exc.value)


def test_parse_rational():
    from fractions import Fraction

    assert parse_rational("2/5") == Fraction(2, 5)
    assert parse_rational("0") == 0
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 7 / 21 ") == Fraction(1, 3)


@pytest.mark.parametrize("text", ["", "abc", "1/2/3", "2.5", "1e3", "2/0", "/3"])
def test_parse_rational_errors(text):
    with pytest.raises(ParseError):
        parse_rational(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
@pytest.mark.parametrize("parse, text, position", [
    (parse_cf, "[{}]", 1),
    (parse_cf, "[0; 1, {}]", 7),
    (parse_rational, "{}", 0),
    (parse_rational, " -1 / {}", 6),
])
def test_digits_past_the_int_limit_raise_parse_error(parse, text, position):
    limit = sys.int_info.default_max_str_digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(ParseError) as exc:
            parse(text.format("1" * (limit + 1)))
    finally:
        sys.set_int_max_str_digits(saved)
    assert exc.value.position == position
    assert f"an integer of {limit + 1} digits exceeds" in str(exc.value)
    assert f"limit of {limit} digits" in str(exc.value)


@given(st.one_of(st.text(), st.text("0123456789[](),;^-/ ")))
@example("[1,(0,1)^1000000000000000]")
@settings(deadline=None)
def test_parsers_raise_only_parse_error_or_cap(text):
    for parse in (parse_cf, parse_rational):
        try:
            parse(text)
        except (ParseError, CapExceeded):
            pass
