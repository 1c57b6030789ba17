"""Exact continued-fraction arithmetic and extension invariants.

The package computes, in exact integer arithmetic, the bijection between
rational numbers in [0,1) and coprime invariant pairs (n, m) of essential
unital extensions of a matrix algebra over the circle by two copies of the
compacts, together with the continued-fraction and path-counting machinery
underneath it: partial arithmetic on the rationals plus a point at infinity,
simple and zero-term continued fractions, k-sequences, normal-form path
enumeration, and quotient groups of Z^2 with their brute-force oracles.
"""

from .contfrac import (
    ContinuedFraction,
    KSequence,
    convergents,
    eval_cf,
    eval_terms,
    expand_simple,
    k_to_simple,
    k_value,
    k_value_bounds,
    simple_to_k,
)
from .correspondence import (
    RationalInvariant,
    TowerLevel,
    dimension_tower,
    invariant_to_k,
    invariant_to_rational,
    k_to_invariant,
    rational_candidates,
    rational_to_invariant,
)
from .errors import CapExceeded, DomainError
from .exact import INFINITY, UNDEFINED, ExtendedRational, add, as_extended, finite, reciprocal
from .invariants import (
    BruteForceQuotient,
    ExtensionDescriptor,
    InvariantClass,
    QuotientGroup,
    brute_force_quotient,
    build_quotient,
    defect_class_mod_n,
    invariant_class,
    is_isomorphic,
    project,
    projection_matches_brute_force,
    symmetry_orbit,
    tensor_factor,
)
from .literals import ParseError, parse_cf, parse_rational, render_cf
from .paths import (
    Edge,
    PathCounts,
    defect_by_enumeration,
    enumerate_paths,
    path_counts,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ContinuedFraction",
    "DomainError",
    "Edge",
    "ExtendedRational",
    "ExtensionDescriptor",
    "INFINITY",
    "InvariantClass",
    "KSequence",
    "ParseError",
    "PathCounts",
    "QuotientGroup",
    "BruteForceQuotient",
    "RationalInvariant",
    "TowerLevel",
    "UNDEFINED",
    "add",
    "as_extended",
    "brute_force_quotient",
    "build_quotient",
    "convergents",
    "defect_by_enumeration",
    "defect_class_mod_n",
    "dimension_tower",
    "enumerate_paths",
    "eval_cf",
    "eval_terms",
    "expand_simple",
    "finite",
    "invariant_class",
    "invariant_to_k",
    "invariant_to_rational",
    "is_isomorphic",
    "k_to_invariant",
    "k_to_simple",
    "k_value",
    "k_value_bounds",
    "parse_cf",
    "parse_rational",
    "path_counts",
    "project",
    "projection_matches_brute_force",
    "rational_candidates",
    "rational_to_invariant",
    "reciprocal",
    "render_cf",
    "simple_to_k",
    "symmetry_orbit",
    "tensor_factor",
]
