"""Brute-force enumeration and counting of normal-form path words.

The chain graph attached to a k-sequence has vertices v_1, v_2, ... and, at
each level i, two commuting edges (``alpha``, ``beta``) plus k_i "wall"
edges (``gamma``) that block the commutation.  Because alpha and beta
commute, every morphism has a unique normal form in which, within each
maximal wall-free run, all alpha edges precede all beta edges; the
enumeration here produces exactly those representatives, so no rewriting
relation is ever applied.

The counting sequences are defined by the number of normal-form words with
range v_1 whose final edge is a wall: ``per_length[f]`` counts words of
length exactly f and ``cumulative[f]`` those of length at most f.  Both are
1 at f = 0 (the empty word) and are defined by the quadratic sums

    per_length[f] = k_f * sum((f - l) * per_length[l] for l < f)
    cumulative[f] = sum(per_length[:f + 1])

The weighted sum equals sum(cumulative[:f]), so :func:`path_counts` makes one
linear pass over that running total T, which is 1 before f = 1:

    per_length[f] = k_f * T
    cumulative[f] = cumulative[f - 1] + per_length[f]
    T += cumulative[f]

``test_counts_match_quadratic_definitions`` in ``tests/test_paths.py`` checks
the pass against the quadratic sums.  The enumeration is the independent
oracle for these counts and for the defect count used by
:mod:`cfkit.correspondence`.  It builds at most ``_MAX_WORDS`` words of at
most the requested length, checked by the same pass stopped once it passes
that bound, so a long sequence is never counted at full precision.  The
words of one length may hold at most ``_MAX_EDGES`` edges in all, checked
from that pass's last count, so a long chain whose word count is small is
still refused before anything is built.

A word is a tuple of :class:`Edge` values, each an immutable tuple
``(kind, level, wall)`` with one checked constructor.  The enumeration builds
each level's edges once per k-sequence through that constructor: the levels
of the last k-sequence enumerated are kept for the next call, as long as they
hold at most ``_MAX_KEPT_EDGES`` = 4096 edges.  It splits the levels in two,
recursively, and joins the sorted edge sequences of the two parts in one list
comprehension.  Each word is thus one tuple concatenation of its two parts,
and each part is a block of no more sequences than there are words.  The
split falls where the bit lengths of the level sizes balance, so a wide
level becomes its own block instead of being copied into a larger one.  On a
long wall-free chain a block of s levels holds s + 1 sequences, so the cost
is quadratic in the length: ``(0,)*999 + (1,)`` takes about 50 ms (2-vCPU
Xeon, CPython 3.11).
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from collections import namedtuple
from itertools import accumulate

from ._value import _Value
from .contfrac import KSequence
from .errors import CapExceeded, DomainError, _require_type, _show_int

_MAX_WORDS = 1_000_000
_MAX_EDGES = 10_000_000
# Level edges are kept across calls only up to this many (about 0.5 MiB).
_MAX_KEPT_EDGES = 4096
# (entries, levels) of the last k-sequence enumerated; see _levels.
_snapshot: tuple = (None, (None,))

_KINDS = ("alpha", "beta", "gamma")


_EdgeFields = namedtuple("_EdgeFields", ("kind", "level", "wall"), defaults=(None,))


class Edge(_EdgeFields):
    """One edge of a path word: alpha/beta, or gamma with a wall index.

    An immutable tuple ``(kind, level, wall)``.  ``__new__`` checks every
    field, and ``_make`` and ``_replace`` go through it.
    """

    __slots__ = ()

    def __new__(cls, kind: str, level: int, wall: int | None = None) -> Edge:
        if kind not in _KINDS:
            raise DomainError(f"unknown edge kind {_show_int(kind)}")
        if type(level) is not int:  # rejects bool, an int subclass
            raise DomainError(f"edge level must be an integer, got {_show_int(level)}")
        if level < 1:
            raise DomainError("edge level must be >= 1")
        if (kind == "gamma") != (wall is not None):
            raise DomainError("wall index is required exactly for gamma edges")
        if wall is not None:
            if type(wall) is not int:
                raise DomainError(f"wall index must be an integer, got {_show_int(wall)}")
            if wall < 1:
                raise DomainError("wall index must be >= 1")
        return tuple.__new__(cls, (kind, level, wall))

    @classmethod
    def _make(cls, iterable) -> Edge:
        return cls(*iterable)

    def __str__(self) -> str:
        if self.kind == "gamma":
            return f"g{self.level}({self.wall})"
        return f"{self.kind[0]}{self.level}"


PathWord = tuple[Edge, ...]


class PathCounts(_Value):
    """Counts of wall-terminated normal-form words, by exact and cumulative length."""

    __slots__ = __match_args__ = ("per_length", "cumulative")
    per_length: tuple[int, ...]
    cumulative: tuple[int, ...]

    def __init__(self, per_length: tuple[int, ...], cumulative: tuple[int, ...]):
        object.__setattr__(self, "per_length", per_length)
        object.__setattr__(self, "cumulative", cumulative)


def path_counts(k: KSequence) -> PathCounts:
    """Counting sequences through the support height h; both stay flat past it."""
    _require_type(k, KSequence, "path_counts")
    per = [1]
    cum = [1]
    total = 1  # sum(cum)
    for entry in k.entries:
        per.append(entry * total)
        cum.append(cum[-1] + per[-1])
        total += cum[-1]
    return PathCounts(tuple(per), tuple(cum))


def enumerate_paths(k: KSequence, length: int) -> list[PathWord]:
    """All normal-form words of exactly ``length`` edges ending in a wall edge.

    Level t < ``length`` offers its edges in the order alpha, beta, gamma(1),
    ..., gamma(k_t), and level ``length`` offers only its walls.  The levels
    are split in two, recursively, and the sorted edge sequences of the two
    parts are joined: a left part ending in beta takes no right part that
    starts with alpha (alphas precede betas in each wall-free run), and
    those right parts are a suffix of the sorted list.  Since both parts are
    sorted, the output is sorted lexicographically on the edge list, edges
    compared by kind (alpha < beta < gamma) and then by wall index.  Each
    word is one tuple concatenation of its two parts.  Each level's edges are
    built once per k-sequence, through the checked constructor of
    :class:`Edge`, and reused by later calls on the same ``k`` while its
    levels built so far hold at most ``_MAX_KEPT_EDGES`` = 4096 edges; no
    level past ``length`` is built.  Length 0 yields the empty word; the
    result is empty when k_length = 0.

    Raises :class:`CapExceeded` when more than ``_MAX_WORDS`` words have
    length <= ``length``, that is, when cumulative[min(length, h)] does, or
    when the words of length ``length`` would hold more than ``_MAX_EDGES``
    edges in all.  Every sequence of a block injects into the words (alphas
    before it, betas and a first wall after it), so no block holds more
    sequences than the result holds words.
    """
    _require_type(k, KSequence, "enumerate_paths")
    if type(length) is not int or length < 0:
        raise DomainError(f"length must be an integer >= 0, got {_show_int(length)}")
    # The pass of path_counts through min(length, h), stopped once the count passes the bound.
    per = cum = total = 1
    for entry in k.entries[:length]:
        per = entry * total
        cum += per
        if cum > _MAX_WORDS:
            raise CapExceeded(f"more than {_MAX_WORDS} words of length <= {_show_int(length)} to enumerate")
        total += cum
    if length == 0:
        return [()]
    if k.at(length) == 0:
        return []
    # Here 1 <= length <= h, so per is per_length[length].
    if per * length > _MAX_EDGES:
        raise CapExceeded(f"more than {_MAX_EDGES} edges in the {per} words of length {length} to enumerate")
    full = _levels(k, length)
    levels = [*full[:length], list(full[length][2:])]  # the last level offers only its walls
    bits = list(accumulate((len(level).bit_length() for level in levels[1:]), initial=0))
    words = _joined(levels, bits, 1, length)
    if len(words) != per:
        raise AssertionError(f"enumerated {len(words)} words of length {length}, counted {per}")
    return words


def _levels(k: KSequence, length: int) -> tuple:
    """The checked edge 1-tuples of levels 1..``length`` of ``k``, at least.

    Level t is ``((alpha,), (beta,), (gamma(1),), ..., (gamma(k_t),))`` and
    index 0 holds None.  The levels of the last k-sequence enumerated are
    kept in ``_snapshot``, keyed on the identity of its entries tuple, which
    the snapshot holds, so that id is never reused.  A longer length extends
    them into a new tuple that replaces the snapshot whole, and only while
    the levels hold at most ``_MAX_KEPT_EDGES`` edges.
    """
    global _snapshot
    entries, levels = _snapshot
    if entries is not k.entries:
        entries, levels = k.entries, (None,)
    if len(levels) <= length:
        levels += tuple(
            ((Edge("alpha", t),), (Edge("beta", t),), *[(Edge("gamma", t, w),) for w in range(1, entries[t - 1] + 1)])
            for t in range(len(levels), length + 1)
        )
        if 2 * length + sum(entries[:length]) <= _MAX_KEPT_EDGES:
            _snapshot = entries, levels
    return levels


def _joined(levels: list, bits: list[int], lo: int, hi: int) -> list[PathWord]:
    """The sorted edge sequences of levels lo..hi, from the 1-tuples in ``levels``.

    ``bits[t]`` sums the bit lengths of the sizes of levels 1..t; the split
    puts about half of the block's bits on each side.
    """
    if lo == hi:
        return levels[lo]
    mid = min(bisect_left(bits, (bits[lo - 1] + bits[hi]) / 2, lo, hi), hi - 1)
    left, right = _joined(levels, bits, lo, mid), _joined(levels, bits, mid + 1, hi)
    (beta,) = levels[mid][1]
    # The right parts that start with alpha come first, so the rest is a suffix.
    after_beta = right[bisect(right, False, key=lambda v: v[0].kind != "alpha"):]
    return [w + v for w in left for v in (after_beta if w[-1] is beta else right)]


def defect_by_enumeration(k: KSequence) -> int:
    """Sum of h - |word| over all wall-terminated words of length <= h.

    This is the rank of the complement of the enumerated projections, the
    quantity the recurrence route computes as ``sum(cumulative[:h])``.
    Rejects the zero sequence (its defect is fixed to 0 by convention at the
    correspondence level).  Lengths are enumerated longest first, so a
    request over the word bound raises at length h before any shorter length
    is built, and only one length's words are held at a time.
    """
    _require_type(k, KSequence, "defect_by_enumeration")
    if k.h == 0:
        raise DomainError("defect enumeration needs a nonzero k-sequence")
    return sum((k.h - f) * len(enumerate_paths(k, f)) for f in range(k.h, -1, -1))
