"""Independent reference answers the benchmark checks the library against.

Nothing here imports cfkit.  Each function computes, by a route the library
does not take, the value one operation must return:

* the forward map p/q -> (n, m, k) runs the cumulative path-count recurrence
  over the sparse k-sequence read off the even simple continued fraction, in
  O(CF length) integer steps instead of the library's O(h^2) recurrence;
* per-length path counts use the defining sum over word lengths;
* isomorphism of extension descriptors is decided by testing coset
  membership of the defect difference in Za + nZ^2 directly.
"""

from __future__ import annotations

from math import gcd


def simple_cf(p: int, q: int) -> list[int]:
    """Terms a_1..a_N of the simple CF of p/q in (0,1), with N even.

    Euclid ends with a last term >= 2; an odd-length expansion is rewritten
    as [..., a - 1, 1] so the result has even length, as the k-sequence
    coordinate needs.
    """
    terms = []
    num, den = p, q
    while num:
        terms.append(den // num)
        den, num = num, den % num
    if len(terms) % 2:
        terms[-1] -= 1
        terms.append(1)
    return terms


def sparse_k(p: int, q: int) -> list[tuple[int, int]]:
    """Support of the k-sequence of p/q as (index, entry) pairs, 1-based."""
    terms = simple_cf(p, q)
    out = []
    pos = 0
    for j in range(0, len(terms), 2):
        pos += terms[j]
        out.append((pos, terms[j + 1]))
    return out


def k_entries(support: list[tuple[int, int]]) -> tuple[int, ...]:
    """Dense k-sequence (k_1..k_h) from its support pairs."""
    if not support:
        return ()
    out = [0] * support[-1][0]
    for i, e in support:
        out[i - 1] = e
    return tuple(out)


def invariant_of_support(support: list[tuple[int, int]]) -> tuple[int, int]:
    """(n, m) from the cumulative recurrence cum[f] = k_f * sum(cum[:f]) + cum[f-1].

    The state is (c, t) = (cum[f], sum(cum[:f+1])); a run of g zero entries
    leaves c fixed and adds g * c to t, so only the support is visited.
    """
    c, t = 1, 1
    prev = 0
    for pos, entry in support:
        t += (pos - prev - 1) * c
        c = entry * t + c
        t += c
        prev = pos
    return c, t - c


def forward(p: int, q: int) -> tuple[int, int, tuple[int, ...]]:
    """(n, m, k entries) for p/q in [0,1) in lowest terms."""
    if p == 0:
        return 1, 0, ()
    support = sparse_k(p, q)
    n, m = invariant_of_support(support)
    return n, m, k_entries(support)


def size_axes(p: int, q: int) -> dict:
    """The sweep axes of one rational: denominator bits, CF length, h, support size."""
    if p == 0:
        return {"bits": q.bit_length(), "cf_len": 0, "h": 0, "support": 0}
    terms = simple_cf(p, q)
    return {
        "bits": q.bit_length(),
        "cf_len": len(terms),
        "h": sum(terms[0::2]),
        "support": len(terms) // 2,
    }


def per_length_counts(entries: tuple[int, ...]) -> list[int]:
    """psi_f = k_f * sum_{l<f} (f - l) psi_l, psi_0 = 1: words of length exactly f."""
    per = [1]
    for f in range(1, len(entries) + 1):
        per.append(entries[f - 1] * sum((f - l) * per[l] for l in range(f)))
    return per


def same_coset(k1: tuple[int, int], k2: tuple[int, int], a: tuple[int, int], n: int) -> bool:
    """True when k1 - k2 lies in Za + nZ^2."""
    dx, dy = k1[0] - k2[0], k1[1] - k2[1]
    return any((dx - t * a[0]) % n == 0 and (dy - t * a[1]) % n == 0 for t in range(n))


SYMMETRIES = ((1, False), (-1, False), (1, True), (-1, True))


def apply_symmetry(sym, index, defects):
    """Negate the index and/or swap both coordinates (the swap also swaps defects)."""
    sign, swap = sym
    a = (index[1], index[0]) if swap else index
    k = (defects[1], defects[0]) if swap else defects
    return (sign * a[0], sign * a[1]), k


def isomorphic(e: tuple, f: tuple) -> bool:
    """Descriptors (n, index, defects): equal n, and a symmetry carries f onto e's coset."""
    if e[0] != f[0]:
        return False
    n, a = e[0], e[1]
    for sym in SYMMETRIES:
        fa, fk = apply_symmetry(sym, f[1], f[2])
        if fa == a and same_coset(e[2], fk, a, n):
            return True
    return False


def quotient_order(a: tuple[int, int], n: int) -> int:
    """|Z^2 / (Za + nZ^2)| = gcd(a_+, a_-, n) * n."""
    return gcd(gcd(a[0], a[1]), n) * n
