"""The full bijection [0,1) rationals <-> coprime pairs (n, m), and towers.

Forward: rational -> even-parity expansion -> k-sequence -> path counts.
Reverse: even-parity expansion of (-m^-1 mod n)/n -> k-sequence -> rational.
The denominator always reappears as n, and m runs over the residues
coprime to n, each exactly once.

A rational also inherits two finite towers of matrix dimensions from its
two simple expansions; both end at the denominator, with different
companion dimensions.
"""

from fractions import Fraction
from math import gcd

from cfkit import (
    dimension_tower,
    expand_simple,
    invariant_to_rational,
    rational_candidates,
    rational_to_invariant,
)

print("Bijection table for all reduced fractions with denominator <= 8:")
print()
print("  theta      n   m   k")
for q in range(1, 9):
    for p in range(q):
        if gcd(p, q) != 1:
            continue
        inv = rational_to_invariant(Fraction(p, q))
        assert invariant_to_rational(inv.n, inv.m) == Fraction(p, q)
        print(f"  {str(inv.theta):<9}  {inv.n:<3} {inv.m:<3} {inv.k}")

print()
print("Each n collects every m coprime to it exactly once, so the reverse")
print("direction is total on coprime pairs.")
print()

print("Dimension towers of 2/5 (both parities):")
for parity in ("even", "odd"):
    cf = expand_simple(Fraction(2, 5), parity)
    print(f"  {parity} expansion {cf}:")
    for level in dimension_tower(cf, len(cf.terms)):
        arrow = f" --{level.mult[0][0]}--> next" if level.mult else " (top)"
        print(f"    level {level.level}: dims {level.dims}{arrow}")

print()
print("Terminal dimension pairs for a few rationals (even, odd):")
for r in (Fraction(2, 5), Fraction(1, 2), Fraction(1, 3), Fraction(5, 13)):
    print(f"  {r}: {rational_candidates(r)}")
