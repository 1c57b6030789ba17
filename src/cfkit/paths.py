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
that bound, so a long sequence is never counted at full precision.

The enumeration builds words one level at a time.  Its per-word work is one
tuple concatenation inside a list comprehension, so its cost is the total
length of the prefixes it builds: about linear in the words returned when
the walls branch early, but cubic in the length on a long wall-free chain,
where every prefix is copied at every level (``(0,)*999 + (1,)`` takes
seconds).
"""

from __future__ import annotations

from dataclasses import dataclass

from .contfrac import KSequence
from .errors import CapExceeded, DomainError, _show_int

_MAX_WORDS = 1_000_000

_KINDS = ("alpha", "beta", "gamma")


@dataclass(frozen=True)
class Edge:
    """One edge of a path word: alpha/beta, or gamma with a wall index."""

    kind: str
    level: int
    wall: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown edge kind {self.kind!r}")
        if self.level < 1:
            raise DomainError("edge level must be >= 1")
        if (self.kind == "gamma") != (self.wall is not None):
            raise DomainError("wall index is required exactly for gamma edges")
        if self.wall is not None and self.wall < 1:
            raise DomainError("wall index must be >= 1")

    def __str__(self) -> str:
        if self.kind == "gamma":
            return f"g{self.level}({self.wall})"
        return f"{self.kind[0]}{self.level}"


_new = object.__new__


def _edge(kind: str, level: int, wall: int | None = None) -> Edge:
    """An :class:`Edge` built without its checks; the fields must already be valid."""
    edge = _new(Edge)
    vars(edge).update(kind=kind, level=level, wall=wall)  # bypasses the frozen __setattr__
    return edge


PathWord = tuple[Edge, ...]


@dataclass(frozen=True)
class PathCounts:
    """Counts of wall-terminated normal-form words, by exact and cumulative length."""

    per_length: tuple[int, ...]
    cumulative: tuple[int, ...]


def path_counts(k: KSequence) -> PathCounts:
    """Counting sequences through the support height h; both stay flat past it."""
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

    Words are built one level at a time: every valid prefix of length t - 1
    is extended by each admissible level-t edge, tried in the order alpha,
    beta, gamma(1), ..., gamma(k_t).  A prefix ending in beta takes no alpha
    next (alphas precede betas in each wall-free run), and at t = ``length``
    only the walls are appended.  Each distinct edge is built once per call,
    without re-running the checks of :class:`Edge`, and held as a 1-tuple,
    so extending a prefix is one tuple concatenation; a prefix ends in beta
    exactly when its last edge is the previous level's beta edge.  Since
    prefixes and edges are both tried in order, the output is sorted
    lexicographically on the edge list, edges compared by kind (alpha < beta
    < gamma) and then by wall index.  Length 0 yields the empty word; the
    result is empty when k_length = 0.  Raises :class:`CapExceeded` when more
    than ``_MAX_WORDS`` words have length <= ``length``, that is, when
    cumulative[min(length, h)] does; no level holds more prefixes than that.
    """
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
    words: list[PathWord] = [()]
    last_beta = None
    for t in range(1, length + 1):
        walls = [(_edge("gamma", t, w),) for w in range(1, k.at(t) + 1)]
        if t == length:
            words = [w + e for w in words for e in walls]
        else:
            beta = _edge("beta", t)
            after_beta = ((beta,), *walls)
            anywhere = ((_edge("alpha", t),), *after_beta)
            words = [w + e for w in words for e in (after_beta if w and w[-1] is last_beta else anywhere)]
            last_beta = beta
    if len(words) != per:
        raise AssertionError(f"enumerated {len(words)} words of length {length}, counted {per}")
    return words


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


def defect_by_enumeration(k: KSequence) -> int:
    """Sum of h - |word| over all wall-terminated words of length <= h.

    This is the rank of the complement of the enumerated projections, the
    quantity the recurrence route computes as ``sum(cumulative[:h])``.
    Rejects the zero sequence (its defect is fixed to 0 by convention at the
    correspondence level).  Lengths are enumerated longest first, so a
    request over the word bound raises at length h before any shorter length
    is built, and only one length's words are held at a time.
    """
    if k.h == 0:
        raise DomainError("defect enumeration needs a nonzero k-sequence")
    return sum((k.h - f) * len(enumerate_paths(k, f)) for f in range(k.h, -1, -1))
