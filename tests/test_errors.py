import sys
from fractions import Fraction

import pytest

from cfkit.contfrac import KSequence
from cfkit.correspondence import invariant_to_k, rational_to_invariant
from cfkit.errors import CapExceeded, _show_int
from cfkit.invariants import brute_force_quotient
from cfkit.literals import parse_cf
from cfkit.paths import enumerate_paths


def test_show_int_prints_up_to_100_digits():
    for n in (0, 7, -7, 10**100 - 1, -(10**100 - 1)):
        assert _show_int(n) == str(n)
    assert _show_int(10**100) == "<333-bit integer>"
    assert _show_int(-(2**400)) == "-<401-bit integer>"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
@pytest.mark.parametrize("call, quoted", [
    (lambda limit: rational_to_invariant(Fraction(1, 10**(limit + 1))), "h = <"),
    (lambda limit: invariant_to_k(10**(limit + 1) + 1, 10**(limit + 1)), "h = <"),
    (lambda limit: brute_force_quotient((1, 1), 10**(limit + 1)), "n=<"),
    (lambda limit: enumerate_paths(KSequence((1,) * 7 * limit), 7 * limit), "word count <"),
    (lambda limit: parse_cf("[1,(0,1)^" + "9" * limit + "]"), "at least <"),
], ids=["rational_to_invariant", "invariant_to_k", "brute_force_quotient", "enumerate_paths", "parse_cf"])
def test_cap_messages_past_the_int_limit(call, quoted):
    # each bound is passed by an integer of more digits than str() may convert
    limit = sys.int_info.default_max_str_digits
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(CapExceeded) as exc:
            call(limit)
    finally:
        sys.set_int_max_str_digits(saved)
    message = str(exc.value)
    assert quoted in message and "-bit integer>" in message and len(message) < 200
