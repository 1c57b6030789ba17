import sys
from fractions import Fraction

import pytest

from cfkit.contfrac import (
    ContinuedFraction,
    KSequence,
    convergents,
    eval_cf,
    expand_simple,
    k_to_simple,
    k_value,
    k_value_bounds,
    simple_to_k,
)
from cfkit.correspondence import (
    dimension_tower,
    invariant_to_k,
    k_to_invariant,
    rational_candidates,
    rational_to_invariant,
)
from cfkit.errors import CapExceeded, DomainError, _show_int
from cfkit.exact import _fraction
from cfkit.invariants import (
    ExtensionDescriptor,
    brute_force_quotient,
    build_quotient,
    invariant_class,
    is_isomorphic,
    project,
    projection_matches_brute_force,
    tensor_factor,
)
from cfkit.literals import parse_cf, render_cf
from cfkit.paths import Edge, defect_by_enumeration, enumerate_paths, path_counts


def test_show_int_prints_up_to_100_digits():
    for n in (0, 7, -7, 10**100 - 1, -(10**100 - 1)):
        assert _show_int(n) == str(n)
    assert _show_int(10**100) == "<333-bit integer>"
    assert _show_int(-(2**400)) == "-<401-bit integer>"
    assert _show_int(Fraction(-2, 5)) == "-2/5" and _show_int(Fraction(3)) == "3"
    assert _show_int(Fraction(1, 10**100)) == "1/<333-bit integer>"
    assert _show_int((1, -(2**400))) == "(1, -<401-bit integer>)" and _show_int((7,)) == "(7,)"
    assert _show_int([1, -(2**400)]) == "[1, -<401-bit integer>]" and _show_int([]) == "[]"
    assert _show_int(1.5) == "1.5" and _show_int("x") == "'x'"


past_the_int_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                        reason="this interpreter has no int/str digit limit")


def _message_at_the_int_limit(call, error) -> str:
    """The message of the ``error`` that ``call(limit)`` raises at the default int/str digit limit."""
    limit = sys.int_info.default_max_str_digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(error) as exc:
            call(limit)
    finally:
        sys.set_int_max_str_digits(saved)
    return str(exc.value)


@past_the_int_limit
@pytest.mark.parametrize("call, quoted", [
    (lambda limit: rational_to_invariant(Fraction(1, 10**(limit + 1))), "h = <"),
    (lambda limit: invariant_to_k(10**(limit + 1) + 1, 10**(limit + 1)), "h = <"),
    (lambda limit: brute_force_quotient((1, 1), 10**(limit + 1)), "n=<"),
    (lambda limit: enumerate_paths(KSequence((1,) * 20), 10**(limit + 1)), "length <= <"),
    (lambda limit: parse_cf("[1,(0,1)^" + "9" * limit + "]"), "at least <"),
], ids=["rational_to_invariant", "invariant_to_k", "brute_force_quotient", "enumerate_paths", "parse_cf"])
def test_cap_messages_past_the_int_limit(call, quoted):
    # each bound is passed by an integer of more digits than str() may convert
    message = _message_at_the_int_limit(call, CapExceeded)
    assert quoted in message and "-bit integer>" in message and len(message) < 200


_TOWER_CF = ContinuedFraction(0, (2, 2))
_INDEX_ONE = ExtensionDescriptor(n=6, index=(-1, 1), defects=(2, 0))


@past_the_int_limit
@pytest.mark.parametrize("call", [
    lambda big: invariant_to_k(1, big),
    lambda big: invariant_to_k(5, big),
    lambda big: invariant_to_k(-big, 1),
    lambda big: invariant_to_k(2 * big, 2 * (big // 10)),
    lambda big: rational_to_invariant(Fraction(big)),
    lambda big: rational_candidates(Fraction(-1, big)),
    lambda big: expand_simple(big, "even"),
    lambda big: dimension_tower(_TOWER_CF, big),
    lambda big: KSequence((1,)).at(-big),
    lambda big: KSequence((-big,)),
    lambda big: ContinuedFraction(0, (-big,)),
    lambda big: k_value_bounds((-big,), 1),
    lambda big: simple_to_k(ContinuedFraction(big, (1, 1))),
    lambda big: build_quotient((1, 1), -big),
    lambda big: build_quotient((big, 0.5), 5),
    lambda big: brute_force_quotient((1, 1), -big),
    lambda big: ExtensionDescriptor(n=-big, index=(1, 1), defects=(0, 0)),
    lambda big: ExtensionDescriptor(n=5, index=(1, 1), defects=(-big, 0)),
    lambda big: ExtensionDescriptor(n=big, index=(1, 1.5), defects=(0, 0)),
    lambda big: ExtensionDescriptor(n=5, index=[big, 1.5], defects=(0, 0)),
    lambda big: tensor_factor(ExtensionDescriptor(n=5, index=(big, 1), defects=(0, 0)), 1),
    lambda big: tensor_factor(_INDEX_ONE, -big),
    lambda big: tensor_factor(_INDEX_ONE, big),
    lambda big: Edge(big, 1),
], ids=[
    "invariant_to_k-n-one", "invariant_to_k-m", "invariant_to_k-n", "invariant_to_k-gcd",
    "rational_to_invariant", "rational_candidates", "expand_simple", "dimension_tower",
    "KSequence.at", "KSequence", "ContinuedFraction", "k_value_bounds", "simple_to_k",
    "build_quotient", "build_quotient-types", "brute_force_quotient",
    "ExtensionDescriptor-n", "ExtensionDescriptor-defects", "ExtensionDescriptor-types",
    "ExtensionDescriptor-list",
    "tensor_factor-index", "tensor_factor-t", "tensor_factor-divides", "Edge-kind",
])
def test_domain_messages_past_the_int_limit(call):
    # each message quotes an integer of more digits than str() may convert
    message = _message_at_the_int_limit(lambda limit: call(10**(limit + 1)), DomainError)
    assert "-bit integer>" in message and len(message) < 200


_PLAIN_TUPLE = (5, (1, 1), (0, 0))
_QUOTIENT = (build_quotient((-1, 1), 5), brute_force_quotient((-1, 1), 5))


@pytest.mark.parametrize("call, expected", [
    (lambda: invariant_class(_PLAIN_TUPLE), "invariant_class expects ExtensionDescriptor"),
    (lambda: is_isomorphic(_PLAIN_TUPLE, _INDEX_ONE), "is_isomorphic expects ExtensionDescriptor"),
    (lambda: is_isomorphic(_INDEX_ONE, _PLAIN_TUPLE), "is_isomorphic expects ExtensionDescriptor"),
    (lambda: tensor_factor(_PLAIN_TUPLE, 1), "tensor_factor expects ExtensionDescriptor"),
    (lambda: path_counts((1, 1)), "path_counts expects KSequence"),
    (lambda: enumerate_paths((1, 1), 2), "enumerate_paths expects KSequence"),
    (lambda: defect_by_enumeration((1, 1)), "defect_by_enumeration expects KSequence"),
    (lambda: k_to_invariant((1, 1)), "k_to_invariant expects KSequence"),
    (lambda: k_value((1, 1)), "k_value expects KSequence"),
    (lambda: k_to_simple((1, 1)), "k_to_simple expects KSequence"),
    (lambda: convergents((0, 1)), "convergents expects ContinuedFraction"),
    (lambda: dimension_tower((0, 1), 0), "dimension_tower expects ContinuedFraction"),
    (lambda: eval_cf((0, 1)), "eval_cf expects ContinuedFraction"),
    (lambda: simple_to_k((0, 1)), "simple_to_k expects ContinuedFraction"),
    (lambda: render_cf((0, 1)), "render_cf expects ContinuedFraction"),
    (lambda: project((1, 0), _PLAIN_TUPLE), "project expects QuotientGroup"),
    (lambda: projection_matches_brute_force(_PLAIN_TUPLE, _QUOTIENT[1]),
     "projection_matches_brute_force expects QuotientGroup"),
    (lambda: projection_matches_brute_force(_QUOTIENT[0], _PLAIN_TUPLE),
     "projection_matches_brute_force expects BruteForceQuotient"),
], ids=["invariant_class", "is_isomorphic-e", "is_isomorphic-f", "tensor_factor", "path_counts",
        "enumerate_paths", "defect_by_enumeration", "k_to_invariant", "k_value", "k_to_simple",
        "convergents", "dimension_tower", "eval_cf", "simple_to_k", "render_cf", "project",
        "projection_matches_brute_force-q", "projection_matches_brute_force-bf"])
def test_plain_tuples_are_refused_by_type(call, expected):
    # the message names the function and the type, and holds no object address
    with pytest.raises(DomainError, match=f"^{expected}, got tuple$"):
        call()


@pytest.mark.parametrize("r", [Fraction(-1, 2), Fraction(1), Fraction(7, 5), -1, 1, 2])
def test_forward_range_messages(r):
    # the bounds are compared on numerator and denominator; the message quotes the rational
    shown = _show_int(Fraction(r))
    for call, refusal in [(rational_to_invariant, "rational_to_invariant requires 0 <= r < 1"),
                          (lambda r: expand_simple(r, "even"), "expand_simple requires 0 <= r < 1"),
                          (rational_candidates, "rational_candidates requires 0 < r < 1")]:
        with pytest.raises(DomainError, match=f"^{refusal}, got {shown}$"):
            call(r)
    with pytest.raises(DomainError, match="^rational_candidates requires 0 < r < 1, got 0$"):
        rational_candidates(Fraction(0))
    assert rational_to_invariant(Fraction(0)).n == 1 and expand_simple(0, "even").terms == ()


def test_an_exact_fraction_is_not_converted():
    x = Fraction(3, 7)
    assert _fraction(x, "test") is x and rational_to_invariant(x).theta is x
    assert _fraction(3, "test") == Fraction(3) and type(_fraction(True, "test")) is Fraction
