"""Exact continued-fraction arithmetic and extension invariants.

The package computes, in exact integer arithmetic, the bijection between
rational numbers in [0,1) and coprime invariant pairs (n, m) of essential
unital extensions of a matrix algebra over the circle by two copies of the
compacts, together with the continued-fraction and path-counting machinery
underneath it: partial arithmetic on the rationals plus a point at infinity,
simple and zero-term continued fractions, k-sequences, normal-form path
enumeration, and quotient groups of Z^2 with their brute-force oracles.

``import cfkit`` loads none of the submodules.  The first use of an exported
name, such as ``cfkit.rational_to_invariant``, imports the module that
defines it (here ``cfkit.correspondence`` and what that imports) and binds
all of that module's exported names in the package, so every name listed in
``__all__`` is the defining module's object.  The ``cfkit`` command loads in
the same way only the modules of the subcommand it runs.
"""

# The exported names of each submodule; ``__getattr__`` imports on demand.
_EXPORTS = {
    "contfrac": ("ContinuedFraction", "KSequence", "convergents", "eval_cf", "eval_terms", "expand_simple",
                 "k_to_simple", "k_value", "k_value_bounds", "simple_to_k"),
    "correspondence": ("RationalInvariant", "TowerLevel", "dimension_tower", "invariant_to_k",
                       "invariant_to_rational", "k_to_invariant", "rational_candidates", "rational_to_invariant"),
    "errors": ("CapExceeded", "DomainError", "ParseError"),
    "exact": ("INFINITY", "UNDEFINED", "ExtendedRational", "add", "as_extended", "finite", "reciprocal"),
    "invariants": ("BruteForceQuotient", "ExtensionDescriptor", "InvariantClass", "QuotientGroup",
                   "brute_force_quotient", "build_quotient", "defect_class_mod_n", "invariant_class",
                   "is_isomorphic", "project", "projection_matches_brute_force", "symmetry_orbit",
                   "tensor_factor"),
    "literals": ("parse_cf", "parse_rational", "render_cf"),
    "paths": ("Edge", "PathCounts", "defect_by_enumeration", "enumerate_paths", "path_counts"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

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


def __getattr__(name: str):
    """Import the module behind an exported name or a submodule on first access.

    All of the module's exported names are then bound here, so later lookups
    of them never reach this function.
    """
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    source = import_module(f"{__name__}.{module}")
    namespace = globals()
    for exported in _EXPORTS[module]:
        namespace[exported] = getattr(source, exported)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
