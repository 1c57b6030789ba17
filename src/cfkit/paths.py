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
:mod:`cfkit.correspondence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .contfrac import KSequence
from .errors import CapExceeded, DomainError

DEFAULT_CAP = 1_000_000

_KIND_RANK = {"alpha": 0, "beta": 1, "gamma": 2}


@dataclass(frozen=True)
class Edge:
    """One edge of a path word: alpha/beta, or gamma with a wall index."""

    kind: str
    level: int
    wall: int | None = None

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise DomainError(f"unknown edge kind {self.kind!r}")
        if self.level < 1:
            raise DomainError("edge level must be >= 1")
        if (self.kind == "gamma") != (self.wall is not None):
            raise DomainError("wall index is required exactly for gamma edges")
        if self.wall is not None and self.wall < 1:
            raise DomainError("wall index must be >= 1")

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.wall or 0)

    def __str__(self) -> str:
        if self.kind == "gamma":
            return f"g{self.level}({self.wall})"
        return f"{self.kind[0]}{self.level}"


PathWord = tuple[Edge, ...]


@dataclass(frozen=True)
class PathCounts:
    """Counts of wall-terminated normal-form words, by exact and cumulative length."""

    per_length: tuple[int, ...]
    cumulative: tuple[int, ...]


def path_counts(k: KSequence, upto: int | None = None) -> PathCounts:
    """Counting sequences through index ``upto`` (default: the support height)."""
    if upto is None:
        upto = k.h
    if upto < 0:
        raise DomainError("upto must be >= 0")
    per = [1]
    cum = [1]
    total = 1  # sum(cum)
    for f in range(1, upto + 1):
        per.append(k.at(f) * total)
        cum.append(cum[-1] + per[-1])
        total += cum[-1]
    return PathCounts(tuple(per), tuple(cum))


def enumerate_paths(k: KSequence, length: int, cap: int = DEFAULT_CAP) -> list[PathWord]:
    """All normal-form words of exactly ``length`` edges ending in a wall edge.

    Words are generated by choosing the wall positions t_1 < ... < t_s (the
    last equal to ``length``), a wall index 1..k_t at each, and the number of
    alpha edges in each wall-free gap.  Output is sorted lexicographically on
    the edge list.  Length 0 yields the empty word; the result is empty when
    k_length = 0.  Raises :class:`CapExceeded` when the predicted cumulative
    count at ``length`` exceeds ``cap``.
    """
    if length < 0:
        raise DomainError("length must be >= 0")
    counts = path_counts(k, upto=length)
    if counts.cumulative[length] > cap:
        raise CapExceeded(
            f"predicted word count {counts.cumulative[length]} exceeds cap {cap}"
        )
    if length == 0:
        return [()]
    if k.at(length) == 0:
        return []
    candidates = [t for t in range(1, length) if k.at(t) > 0]
    words = []
    for s in range(len(candidates) + 1):
        for inner in combinations(candidates, s):
            walls = (*inner, length)
            gaps = [hi - lo - 1 for lo, hi in zip((0, *walls), walls)]
            for alpha_counts in product(*(range(g + 1) for g in gaps)):
                for wall_indices in product(*(range(1, k.at(t) + 1) for t in walls)):
                    words.append(_assemble(walls, wall_indices, alpha_counts))
    assert len(words) == counts.per_length[length]
    words.sort(key=lambda w: tuple(e.sort_key() for e in w))
    return words


def _assemble(walls, wall_indices, alpha_counts) -> PathWord:
    edges = []
    prev = 0
    for t, wall, n_alpha in zip(walls, wall_indices, alpha_counts):
        for offset in range(t - prev - 1):
            kind = "alpha" if offset < n_alpha else "beta"
            edges.append(Edge(kind, prev + 1 + offset))
        edges.append(Edge("gamma", t, wall))
        prev = t
    return tuple(edges)


def enumerate_paths_upto(k: KSequence, length: int, cap: int = DEFAULT_CAP) -> list[PathWord]:
    """All wall-terminated normal-form words of length at most ``length``."""
    counts = path_counts(k, upto=length)
    if counts.cumulative[length] > cap:
        raise CapExceeded(
            f"predicted word count {counts.cumulative[length]} exceeds cap {cap}"
        )
    words = []
    for f in range(length + 1):
        words.extend(enumerate_paths(k, f, cap=cap))
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


def defect_by_enumeration(k: KSequence, cap: int = DEFAULT_CAP) -> int:
    """Sum of h - |word| over all wall-terminated words of length <= h.

    This is the rank of the complement of the enumerated projections, the
    quantity the recurrence route computes as ``sum(cumulative[:h])``.
    Rejects the zero sequence (its defect is fixed to 0 by convention at the
    correspondence level).
    """
    if k.h == 0:
        raise DomainError("defect enumeration needs a nonzero k-sequence")
    words = enumerate_paths_upto(k, k.h, cap=cap)
    return sum(k.h - len(w) for w in words)
