"""Exact generating functions for 132-avoiding permutations that avoid,
or contain exactly once, one extra pattern, with two independent numeric
oracles: a polynomial-time counting DP (``count``/``series``) and
brute-force enumeration of S_n(132) (``enumerate_avoiders``)."""

from .algebra import (
    BivariateSeries,
    Polynomial,
    PowerSeries,
    RationalFunction,
    series_of,
)
from .chebyshev import chebyshev_u, check_identity, r_func, sweep_identities, v_poly
from .engine import (
    avoid_gf,
    avoid_gf_closed,
    once_gf,
    phi_closed_series,
    psi_closed_series,
)
from .errors import (
    EnumerationCapExceeded,
    NotIn132Class,
    PatternError,
    UnsupportedPattern,
)
from .oracle import ConstraintSpec, CountTable, catalan, count, enumerate_avoiders, series
from .patterns import (
    CanonicalDecomposition,
    FamilySpec,
    canonical_decompose,
    classify,
    flatten,
    format_pattern,
    is_wedge,
    iter_wedges,
    occurrence_count,
    parse_pattern,
    prefix_pattern,
    suffix_pattern,
)
from .relations import RelationReport, verify_relation

__version__ = "0.1.0"

__all__ = [
    "BivariateSeries",
    "CanonicalDecomposition",
    "ConstraintSpec",
    "CountTable",
    "EnumerationCapExceeded",
    "FamilySpec",
    "NotIn132Class",
    "PatternError",
    "Polynomial",
    "PowerSeries",
    "RationalFunction",
    "RelationReport",
    "UnsupportedPattern",
    "avoid_gf",
    "avoid_gf_closed",
    "canonical_decompose",
    "catalan",
    "chebyshev_u",
    "check_identity",
    "classify",
    "count",
    "enumerate_avoiders",
    "flatten",
    "format_pattern",
    "is_wedge",
    "iter_wedges",
    "occurrence_count",
    "once_gf",
    "parse_pattern",
    "phi_closed_series",
    "prefix_pattern",
    "psi_closed_series",
    "r_func",
    "series",
    "series_of",
    "suffix_pattern",
    "sweep_identities",
    "v_poly",
    "verify_relation",
]
