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

The weighted sum equals sum(cumulative[:f]).  A zero entry adds no words,
so both counts stay flat (per_length at 0) between the support points
p_1 < p_2 < ... of k, and there they are continuants: with q_i the
convergent denominators of k's even simple expansion ``[0; p_1, k_{p_1},
p_2 - p_1, ...]`` (see :mod:`cfkit.contfrac`), the Bratteli dimensions of
its Effros-Shen algebra,

    cumulative[p_j] = q_{2j},    per_length[p_j] = k_{p_j} * q_{2j-1},

and sum(cumulative[:p_j]) = q_{2j-1}.  So at h the pair (cumulative[h],
sum(cumulative[:h])) is (q_N, q_{N-1}), the invariant (n, m) of
:mod:`cfkit.correspondence`.  :func:`path_counts` folds the recurrence over
k's simple terms and keeps those two, so its work grows with the support,
not with h (1/q has q - 1 entries, one nonzero); it builds each h + 1 tuple
from the continuants on first read.  ``tests/test_paths.py`` checks the
counts against the quadratic sums and a one-step-per-entry pass.

The enumeration is the independent oracle for these counts and for the
defect count used by :mod:`cfkit.correspondence`.  It builds at most
``_MAX_WORDS`` words of at most the requested length, checked by the
continuant step above, run one support point at a time up to that length
and stopped once the count passes that bound, so a long sequence is never
counted at full precision and a zero run costs one step.  The words of one
length may hold at most ``_MAX_EDGES`` edges in all, checked from that
run's last count, so a long chain whose word count is small is still
refused before anything is built.

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
from itertools import accumulate, islice

from ._value import _Value
from .contfrac import KSequence, _continuants
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
    """Counts of wall-terminated normal-form words, by exact and cumulative length.

    The constructor stores both tuples.  :func:`path_counts` stores only the
    continuants (q_N, q_{N-1}) of k's even simple expansion and k's simple
    terms, and each field's tuple is built from the terms on its first read
    and kept in its own slot.  An empty slot marks an unbuilt tuple, so
    concurrent first reads each get an equal tuple, and one of them stays set.
    """

    __slots__ = ("_per_length", "_cumulative", "_terms", "_pair")
    __match_args__ = ("per_length", "cumulative")

    def __init__(self, per_length: tuple[int, ...], cumulative: tuple[int, ...]):
        _set_per_length(self, per_length)
        _set_cumulative(self, cumulative)

    @property
    def per_length(self) -> tuple[int, ...]:
        try:
            return self._per_length
        except AttributeError:
            _set_per_length(self, counts := _column(self._terms, cumulative=False))
            return counts

    @property
    def cumulative(self) -> tuple[int, ...]:
        try:
            return self._cumulative
        except AttributeError:
            _set_cumulative(self, counts := _column(self._terms, cumulative=True))
            return counts

    def _invariant(self) -> tuple[int, int]:
        """(cumulative[h], sum(cumulative[:h])): the pair :func:`path_counts` kept, else the definition."""
        try:
            return self._pair
        except AttributeError:  # built by the constructor
            return self.cumulative[-1], sum(self.cumulative[:-1])


_new = object.__new__
_set_per_length = PathCounts._per_length.__set__
_set_cumulative = PathCounts._cumulative.__set__
_set_terms = PathCounts._terms.__set__
_set_pair = PathCounts._pair.__set__


def path_counts(k: KSequence) -> PathCounts:
    """Counting sequences through the support height h; both stay flat past it."""
    _require_type(k, KSequence, "path_counts")
    terms = k._terms
    prev, cur = 0, 1  # q_{-1}, q_0; contfrac._continuants' fold, inline: a generator step costs more per term
    for a in terms:
        prev, cur = cur, (cur + prev if a == 1 else a * cur + prev)
    counts = _new(PathCounts)
    _set_terms(counts, terms)
    _set_pair(counts, (cur, prev))
    return counts


def _column(terms: tuple[int, ...], cumulative: bool) -> tuple[int, ...]:
    """per_length, or cumulative, through h, read off the continuants q_1, ..., q_N as they come."""
    qs = islice(_continuants(terms), 2, None)  # q_1, q_2, ..., q_N, taken below in (odd, even) pairs
    out = [1]
    for gap, value, odd, even in zip(terms[::2], terms[1::2], qs, qs):
        out += [out[-1] if cumulative else 0] * (gap - 1)  # flat up to the support point
        out.append(even if cumulative else value * odd)
    return tuple(out)


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
    # The counts move only at support points f <= length, stopped past the bound: there
    # (total, cum) = (sum(cumulative[:f]), cumulative[f]) are continuants, as in path_counts.
    f = total = per = 0
    cum = 1
    pairs = iter(k._terms)
    for gap, value in zip(pairs, pairs):
        if f + gap > length:
            break
        f += gap
        total += gap * cum
        per = value * total  # per_length[f]
        cum += per
        if cum > _MAX_WORDS:
            raise CapExceeded(f"more than {_MAX_WORDS} words of length <= {_show_int(length)} to enumerate")
    if length == 0:
        return [()]
    if f != length:  # k_length = 0
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
