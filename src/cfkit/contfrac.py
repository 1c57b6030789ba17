"""Finite continued fractions over the extended rationals, and k-sequences.

A continued fraction ``[a0; a1, ..., aN]`` is evaluated by the right-to-left
fold ``v <- a_i + 1/v`` using the partial arithmetic of :mod:`cfkit.exact`,
so zero partial quotients are legal (``[1,0]`` evaluates to ``inf``).  A
continued fraction is *simple* when every term after the first is >= 1; each
rational has exactly two finite simple expansions, distinguished here by the
parity of the index of the last term.

A *k-sequence* is a finitely supported sequence (k_1, k_2, ...) of natural
numbers; it encodes the number ``[0, 1, k_1, 1, k_2, ..., 1, k_h]``.  This
coordinate on [0,1) is the input to the path-counting machinery in
:mod:`cfkit.paths` and the invariant pipeline in :mod:`cfkit.correspondence`.
"""

from __future__ import annotations

# Annotations stay unevaluated strings, so ``Literal`` below needs no ``typing`` import.
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._value import _Value
from .errors import CapExceeded, DomainError, _require_type, _show_int
from .exact import ExtendedRational, _fraction, add, as_extended, reciprocal

# Dense k-sequences are built only up to this height h; the entries of 1/q
# alone number q - 1.
_MAX_HEIGHT = 1_000_000


def _naturals(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, after checking that it holds only exact ints >= 0."""
    try:
        naturals = tuple(values)
    except TypeError:  # not iterable
        raise DomainError(f"{what} must be integers >= 0, got {_show_int(values)}") from None
    for v in naturals:
        if type(v) is not int or v < 0:  # rejects bool, an int subclass
            raise DomainError(f"{what} must be integers >= 0, got {_show_int(v)}")
    return naturals


class ContinuedFraction(_Value):
    """``[a0; a1, ..., aN]`` with integer terms, a_i >= 0 for i >= 1."""

    __slots__ = __match_args__ = ("a0", "terms")
    a0: int
    terms: tuple[int, ...]

    def __init__(self, a0: int, terms: Iterable[int] = ()):
        if type(a0) is not int:  # rejects bool, an int subclass
            raise DomainError(f"a0 must be an integer, got {_show_int(a0)}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "terms", _naturals(terms, "terms after a0"))

    @property
    def is_simple(self) -> bool:
        """True when every term after a0 is >= 1."""
        return all(t >= 1 for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return f"[{self.a0}]"
        return f"[{self.a0}; " + ", ".join(str(t) for t in self.terms) + "]"


class KSequence(_Value):
    """Finitely supported sequence (k_1, ..., k_h), trailing zeros trimmed."""

    __slots__ = __match_args__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()):
        entries = _naturals(entries, "k-sequence entries")
        end = len(entries)
        while end and entries[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "entries", entries[:end])

    @property
    def h(self) -> int:
        """Largest index with a nonzero entry; 0 for the zero sequence."""
        return len(self.entries)

    def at(self, i: int) -> int:
        """1-based entry access; 0 beyond the support."""
        if type(i) is not int or i < 1:
            raise DomainError(f"k-sequence index must be an integer >= 1, got {_show_int(i)}")
        return self.entries[i - 1] if i <= len(self.entries) else 0

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted 1-based indices of the nonzero entries."""
        return tuple(i for i, e in enumerate(self.entries, start=1) if e > 0)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(map(_show_int, self.entries)) + ")"


def eval_terms(values: Iterable) -> ExtendedRational:
    """Evaluate ``[v0, v1, ..., vN]`` by the fold ``v <- v_i + 1/v``.

    The head value may be any extended rational; later terms are usually
    integers.  Integer-term fractions never evaluate to ``undefined``: a zero
    intermediate value just turns into ``inf`` one step up.
    """
    vals = [as_extended(v) for v in values]
    if not vals:
        raise DomainError("cannot evaluate an empty continued fraction")
    acc = vals.pop()
    for v in reversed(vals):
        acc = add(v, reciprocal(acc))
    return acc


def eval_cf(cf: ContinuedFraction) -> ExtendedRational:
    """Exact value of a continued fraction in the extended rationals."""
    return eval_terms([cf.a0, *cf.terms])


def expand_simple(r, parity: Literal["even", "odd"]) -> ContinuedFraction:
    """The simple continued fraction of ``r`` in [0,1) with the given parity.

    Each rational in (0,1) has exactly two simple expansions with a0 = 0,
    related by ``[..., a] = [..., a-1, 1]``; their last-term indices have
    opposite parity.  ``r = 0`` expands to ``[0]`` (zero terms, counted as
    even); it has no odd expansion.
    """
    _check_parity(parity)
    r = _fraction(r, "expand_simple")
    num, den = r.numerator, r.denominator
    if not 0 <= num < den:
        raise DomainError(f"expand_simple requires 0 <= r < 1, got {_show_int(r)}")
    if num == 0 and parity == "odd":
        raise DomainError("0 has no odd-parity simple expansion")
    return ContinuedFraction(0, tuple(_simple_terms(num, den, parity)))


def _simple_terms(num: int, den: int, parity: Literal["even", "odd"]) -> list[int]:
    """Terms of ``num/den`` in [0,1) by Euclid, then the parity fix; none (even) for 0."""
    terms = []
    while num:
        terms.append(den // num)
        den, num = num, den % num
    # Euclid always ends with a term >= 2 for num/den in (0,1).
    if terms and terms[-1] < 2:
        raise AssertionError(f"Euclid expansion ended in {terms[-1]}")
    if (len(terms) % 2 == 0) != (parity == "even"):
        terms[-1] -= 1
        terms.append(1)
    return terms


def convergents(cf: ContinuedFraction) -> list[tuple[int, int]]:
    """Convergents (p_0,q_0), ..., (p_N,q_N) of a simple CF with a0 = 0.

    p_0=0, p_1=1, q_0=1, q_1=a_1, then p_n = a_n p_{n-1} + p_{n-2} and
    q_n = a_n q_{n-1} + q_{n-2}; p_n/q_n equals the n-term truncation.
    """
    _require_zero_head_simple(cf, "convergents")
    out = [(0, 1)]
    p_prev, q_prev = 1, 0  # (p_{-1}, q_{-1}) so the recurrence covers n = 1
    p, q = 0, 1
    for a in cf.terms:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def k_to_simple(k: KSequence) -> ContinuedFraction:
    """Rewrite the value of a nonzero k-sequence as a simple CF.

    With support p_1 < ... < p_m, the value [0,1,k_1,1,k_2,...] equals
    [0; p_1, k_{p_1}, p_2-p_1, k_{p_2}, ..., p_m-p_{m-1}, k_{p_m}], a simple
    CF with an even number of terms ending in k_{p_m}.
    """
    _require_type(k, KSequence, "k_to_simple")
    if k.h == 0:
        raise DomainError("the zero k-sequence has no simple CF form (its value is 0)")
    terms = []
    prev = 0
    for p in k.support:
        terms.append(p - prev)
        terms.append(k.at(p))
        prev = p
    return ContinuedFraction(0, tuple(terms))


def simple_to_k(cf: ContinuedFraction) -> KSequence:
    """Inverse of :func:`k_to_simple` on even-length simple CFs with a0 = 0.

    Reads off p_j = a_1 + a_3 + ... + a_{2j-1} and k_{p_j} = a_{2j}; all
    other entries are zero.  ``[0]`` maps to the zero sequence.
    """
    _require_zero_head_simple(cf, "simple_to_k")
    if len(cf.terms) % 2 != 0:
        raise DomainError(f"simple_to_k requires an even number of terms, got {len(cf.terms)}")
    return KSequence(_k_entries(cf.terms))


def _k_entries(terms: Sequence[int]) -> tuple[int, ...]:
    """Dense entries of an even-length simple term list; checks h = a_1 + a_3 + ... first."""
    h = sum(terms[::2])
    if h > _MAX_HEIGHT:
        raise CapExceeded(f"k-sequence height h = {_show_int(h)} exceeds the bound {_MAX_HEIGHT} on dense entries")
    entries: list[int] = []
    for gap, value in zip(terms[::2], terms[1::2]):
        entries += [0] * (gap - 1)
        entries.append(value)
    return tuple(entries)


def k_value(k: KSequence) -> Fraction:
    """Exact value of ``[0, 1, k_1, 1, k_2, ..., 1, k_h]``; 0 for the zero sequence.

    Evaluated directly on the zero-padded form with the partial arithmetic,
    independently of :func:`k_to_simple`, so the two routes cross-check.
    """
    _require_type(k, KSequence, "k_value")
    if k.h == 0:
        return Fraction(0)
    terms = [1] * (2 * k.h + 1)
    terms[0] = 0
    terms[2::2] = k.entries
    v = eval_terms(terms)
    if not (v.is_finite and 0 <= (value := v.value) < 1):
        shown = _show_int(value) if v.is_finite else v
        raise AssertionError(f"k_value of {k} gave {shown}, outside [0, 1)")
    return value


def k_value_bounds(k_prefix: Sequence[int], depth: int) -> tuple[Fraction, Fraction]:
    """Exact interval bracketing every number whose k-sequence starts this way.

    Only the first ``depth`` entries of the prefix are trusted.  The lower
    endpoint is the value of the truncated sequence (attained when all later
    entries are zero); the upper endpoint appends the smallest simple-CF term
    any continuation could produce next, which by the even/odd convergent
    squeeze over-estimates every continuation.  Width shrinks as ``depth``
    grows, and the intervals for successive depths are nested.
    """
    entries = _naturals(k_prefix, "k-sequence entries")  # every entry, the untrusted ones too
    if type(depth) is not int or not 0 <= depth <= len(entries):
        raise DomainError(f"depth must be an integer within 0..{len(entries)}, got {_show_int(depth)}")
    truncated = KSequence(entries[:depth])
    simple_terms = k_to_simple(truncated).terms if truncated.h else ()
    gap_min = depth - truncated.h + 1  # least gap to the next support point
    *_, lo, hi = convergents(ContinuedFraction(0, (*simple_terms, gap_min)))
    return Fraction(*lo), Fraction(*hi)


def _check_parity(parity) -> None:
    if parity not in ("even", "odd"):
        raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def _require_zero_head_simple(cf: ContinuedFraction, where: str) -> None:
    if cf.a0 != 0:
        raise DomainError(f"{where} requires a0 = 0, got {_show_int(cf.a0)}")
    if not cf.is_simple:
        raise DomainError(f"{where} requires a simple CF (all terms >= 1)")
