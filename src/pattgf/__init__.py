"""Exact generating functions for 132-avoiding permutations that avoid,
or contain exactly once, one extra pattern, with two independent numeric
oracles: a polynomial-time counting DP (``count``/``series``) and
brute-force enumeration of S_n(132) (``enumerate_avoiders``).

The package is lazy (PEP 562): ``import pattgf`` runs no submodule, and
each name in ``__all__`` imports its submodule on first access, so
``from pattgf import avoid_gf`` loads ``engine`` and what it imports,
but not ``oracle`` or ``relations``.  Submodules import as usual:
``from pattgf import engine`` and ``import pattgf.engine`` both work.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BivariateSeries": "algebra",
    "Polynomial": "algebra",
    "PowerSeries": "algebra",
    "RationalFunction": "algebra",
    "series_of": "algebra",
    "chebyshev_u": "chebyshev",
    "check_identity": "chebyshev",
    "r_func": "chebyshev",
    "sweep_identities": "chebyshev",
    "v_poly": "chebyshev",
    "avoid_gf": "engine",
    "once_gf": "engine",
    "phi_closed_series": "engine",
    "psi_closed_series": "engine",
    "EnumerationCapExceeded": "errors",
    "NotIn132Class": "errors",
    "PatternError": "errors",
    "UnsupportedPattern": "errors",
    "ConstraintSpec": "oracle",
    "CountTable": "oracle",
    "count": "oracle",
    "enumerate_avoiders": "oracle",
    "series": "oracle",
    "CanonicalDecomposition": "patterns",
    "FamilySpec": "patterns",
    "canonical_decompose": "patterns",
    "classify": "patterns",
    "flatten": "patterns",
    "format_pattern": "patterns",
    "occurrence_count": "patterns",
    "parse_pattern": "patterns",
    "RelationReport": "relations",
    "verify_relation": "relations",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        # ``from pattgf import engine`` falls back to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
