"""Numeric and symbolic verification of the structural recursions.

Each relation identifier names one recursion satisfied by the
generating functions:

- ``thm21``     the avoidance recursion, checked symbolically for any
                132-avoiding pattern.
- ``thm23``     its layered specialization with R-function boundary
                terms, checked symbolically from layer tops.
- ``thm31``     the exactly-once recursion (at least two right-to-left
                maxima), checked coefficient-wise against two-pattern
                tables from the counting oracle.
- ``thm33``     the layered form of the same recursion.
- ``remark31``  the auxiliary recursion satisfied by the two-pattern
                quantities "avoid the j-th prefix, contain the (j-1)-st
                exactly once" for j >= 2, checked coefficient-wise.
- ``thm22feq``  / ``thm32feq``: the bivariate aggregates satisfy their
                functional equations to truncation order.

Boundary bookkeeping for the numeric checks, derived by re-running the
place-the-maximum argument and verified against the oracle:

- the left factor of the first summand (built, for ``thm31`` and
  ``remark31`` alike, by ``_left_factor``) constrains the part left of the
  placed maximum by the *prefix closure* (first segment plus its
  maximum), not by the full next prefix.  For layered patterns with a
  nonempty first segment the two readings agree (containing the closure
  forces a second occurrence of the contained pattern); when the
  contained pattern is empty the closure reduces the factor to the
  constant series 1, which is exactly the convention the aggregate
  derivations rely on.
- the right factors avoid two patterns at once: the suffix of the
  contained prefix and the corresponding suffix of the avoided one.
  Writing only the first of the two (as the displayed recursion does)
  fails the oracle already for the layered pattern [4,2,1] at j = 2,
  n = 4 (1 instead of 2 permutations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import PowerSeries, RationalFunction, series_of
from .chebyshev import r_func_or_zero
from .engine import (
    avoid_gf,
    phi_functional_equation_residual,
    psi_functional_equation_residual,
)
from .errors import NotIn132Class, PatternError
from .oracle import ConstraintSpec, series as oracle_series
from .patterns import (
    CanonicalDecomposition,
    as_pattern,
    canonical_decompose,
    contains_132,
    expand_layered,
    increasing,
    prefix_closure_pattern,
    prefix_pattern,
    suffix_pattern,
)

_SERIES_CACHE: dict[tuple, PowerSeries] = {}


def _oracle_series(
    n_max: int,
    avoid: tuple[tuple[int, ...], ...] = (),
    contain: tuple[int, ...] | None = None,
) -> PowerSeries:
    """Cached oracle table (counting DP) as an exact power series.

    ``contain`` means "exactly once".  Note the oracle handles the
    empty contained pattern combinatorially (every permutation contains
    it exactly once), so boundary factors like avoid-(1)/contain-empty
    come out as the constant series 1 with no special casing.
    """
    key = (tuple(sorted(avoid)), contain, n_max)
    hit = _SERIES_CACHE.get(key)
    if hit is None:
        hit = PowerSeries(oracle_series(ConstraintSpec(avoid, contain), n_max).counts)
        _SERIES_CACHE[key] = hit
    return hit


def _xshift(s: PowerSeries, n: int) -> PowerSeries:
    return s.mul_x_power(1).truncate(n)


def _left_factor(d: CanonicalDecomposition, i: int, n: int) -> PowerSeries:
    """Left factor of summand i >= 1: avoid prefix i (the prefix closure
    when i = 1, see the module docstring), contain prefix i-1 once."""
    avoided = prefix_closure_pattern(d, 0) if i == 1 else prefix_pattern(d, i)
    return _oracle_series(n, avoid=(avoided,), contain=prefix_pattern(d, i - 1))


@dataclass
class RelationCheck:
    label: str
    passed: bool


@dataclass
class RelationReport:
    relation: str
    instance: str
    checks: list[RelationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool) -> None:
        self.checks.append(RelationCheck(label, passed))

    def lines(self) -> list[str]:
        out = [f"{self.relation} {self.instance}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            if not c.passed:
                out.append(f"  FAIL {c.label}")
        return out


def _check_thm21(pat: tuple[int, ...]) -> RelationReport:
    report = RelationReport("thm21", f"pattern {pat}")
    d = canonical_decompose(pat)
    x = RationalFunction.x()
    rhs = RationalFunction.one()
    for j in range(d.r + 1):
        diff = avoid_gf(prefix_pattern(d, j)) - avoid_gf(prefix_pattern(d, j - 1))
        rhs = rhs + x * diff * avoid_gf(suffix_pattern(d, j))
    report.add("symbolic identity", avoid_gf(pat) == rhs)
    return report


def _check_thm23(tops: tuple[int, ...]) -> RelationReport:
    report = RelationReport("thm23", f"layered {list(tops)}")
    if len(tops) < 2:
        raise PatternError("the layered recursion needs at least two layers")
    m = list(tops)
    r = len(m) - 1
    x = RationalFunction.x()
    f = {t: avoid_gf(expand_layered(t)) for t in _layered_subspecs(tops)}
    lhs = (
        RationalFunction.one()
        - x * r_func_or_zero(m[0] - m[1] - 1)
        - x * r_func_or_zero(m[r])
    ) * f[tops]
    rhs = RationalFunction.one() - x * r_func_or_zero(m[0] - m[1] - 1) * f[tuple(m[1:])]
    for j in range(2, r + 1):
        shifted = tuple(mi - m[j] for mi in m[:j])
        rhs = rhs + x * f[shifted] * (f[tuple(m[j - 1:])] - f[tuple(m[j:])])
    report.add("symbolic identity", lhs == rhs)
    return report


def _layered_subspecs(tops: tuple[int, ...]) -> set[tuple[int, ...]]:
    m = list(tops)
    specs = {tops}
    for j in range(1, len(m)):
        specs.add(tuple(m[j:]))
        specs.add(tuple(mi - m[j] for mi in m[:j]))
    return specs


def _resolve_pattern(params) -> tuple[int, ...]:
    """Accept a pattern in one-line notation or layered layer tops."""
    seq = tuple(int(v) for v in params)
    if sorted(seq) != list(range(1, len(seq) + 1)):
        return expand_layered(seq)
    pat = as_pattern(seq)
    if contains_132(pat):
        raise NotIn132Class(
            f"pattern {pat} contains (1,3,2); the relations hold only for "
            "patterns that avoid it"
        )
    return pat


def _check_thm31(pat: tuple[int, ...], n: int) -> RelationReport:
    report = RelationReport("thm31", f"pattern {pat}, n <= {n}")
    d = canonical_decompose(pat)
    r = d.r
    if r < 1:
        raise PatternError("the exactly-once recursion needs at least two maxima")
    once_counts = _oracle_series(n, contain=pat)
    lhs_mult = series_of(
        RationalFunction.one()
        - RationalFunction.x() * avoid_gf(prefix_pattern(d, 0))
        - RationalFunction.x() * avoid_gf(suffix_pattern(d, r)),
        n,
    )
    lhs = lhs_mult * once_counts
    rhs = PowerSeries.zero(n)
    for j in range(1, r + 1):
        left = _left_factor(d, j, n)
        right = _oracle_series(n, avoid=(suffix_pattern(d, j - 1),), contain=suffix_pattern(d, j))
        rhs = rhs + _xshift(left * right, n)
    report.add("coefficients 0..%d" % n, lhs == rhs)
    return report


def _check_thm33(tops: tuple[int, ...], n: int) -> RelationReport:
    report = RelationReport("thm33", f"layered {list(tops)}, n <= {n}")
    if len(tops) < 2:
        raise PatternError("the layered exactly-once recursion needs at least two layers")
    m = list(tops) + [0]
    r = len(tops) - 1
    x = RationalFunction.x()
    tau = expand_layered(tops)
    d01 = m[0] - m[1]
    lhs_mult = series_of(
        RationalFunction.one() - x * r_func_or_zero(d01 - 1) - x * r_func_or_zero(m[r]),
        n,
    )
    lhs = lhs_mult * _oracle_series(n, contain=tau)
    first_left = _oracle_series(n, avoid=(increasing(d01),), contain=increasing(d01 - 1))
    first_right = _oracle_series(n, avoid=(tau,), contain=expand_layered(tuple(m[1:-1])))
    rhs = _xshift(first_left * first_right, n)
    for j in range(2, r + 1):
        left = _oracle_series(
            n,
            avoid=(expand_layered(tuple(mi - m[j + 1] for mi in m[: j + 1])),),
            contain=expand_layered(tuple(mi - m[j] for mi in m[:j])),
        )
        right = _oracle_series(
            n,
            avoid=(expand_layered(tuple(m[j - 1 : -1])),),
            contain=expand_layered(tuple(m[j:-1])),
        )
        rhs = rhs + _xshift(left * right, n)
    report.add("coefficients 0..%d" % n, lhs == rhs)
    return report


def _check_remark31(pat: tuple[int, ...], n: int) -> RelationReport:
    report = RelationReport("remark31", f"pattern {pat}, n <= {n}")
    d = canonical_decompose(pat)
    r = d.r
    x = RationalFunction.x()
    for j in range(2, r + 1):
        mu = prefix_pattern(d, j - 1)
        nu = prefix_pattern(d, j)
        d_mu = canonical_decompose(mu)
        d_nu = canonical_decompose(nu)
        gamma = _oracle_series(n, avoid=(nu,), contain=mu)
        self_avoid = (suffix_pattern(d_mu, j - 1), suffix_pattern(d_nu, j))
        lhs_mult = (
            PowerSeries.one(n)
            - _xshift(series_of(avoid_gf(prefix_pattern(d, 0)), n), n)
            - _xshift(_oracle_series(n, avoid=self_avoid), n)
        )
        lhs = lhs_mult * gamma
        rhs = PowerSeries.zero(n)
        for i in range(1, j):
            left = _left_factor(d, i, n)
            right = _oracle_series(
                n,
                avoid=(suffix_pattern(d_mu, i - 1), suffix_pattern(d_nu, i)),
                contain=suffix_pattern(d_mu, i),
            )
            rhs = rhs + _xshift(left * right, n)
        report.add(f"j={j} coefficients 0..{n}", lhs == rhs)
    if r < 2:
        report.add("no instances (needs at least three maxima)", True)
    return report


def verify_relation(relation: str, params=None, terms: int = 9, orders: tuple[int, int] = (10, 8)) -> RelationReport:
    """Verify one relation instance; see the module docstring for ids.

    ``params`` is a pattern in one-line notation (``thm21``, ``thm31``,
    ``remark31``), layered layer tops (``thm23``, ``thm33``, also
    accepted by the pattern-based checks), or ignored for the
    functional-equation checks, which use ``orders`` instead.
    ``terms`` bounds the coefficient-wise checks.
    """
    if params is None and relation in ("thm21", "thm23", "thm31", "thm33", "remark31"):
        raise PatternError(f"relation {relation!r} needs a pattern or layer tops")
    if relation == "thm21":
        return _check_thm21(_resolve_pattern(params))
    if relation == "thm23":
        return _check_thm23(tuple(int(v) for v in params))
    if relation == "thm31":
        return _check_thm31(_resolve_pattern(params), terms)
    if relation == "thm33":
        return _check_thm33(tuple(int(v) for v in params), terms)
    if relation == "remark31":
        return _check_remark31(_resolve_pattern(params), terms)
    if relation == "thm22feq":
        nx, ny = orders
        report = RelationReport("thm22feq", f"orders ({nx}, {ny})")
        report.add("zero residual", phi_functional_equation_residual(nx, ny).is_zero)
        return report
    if relation == "thm32feq":
        nx, ny = orders
        report = RelationReport("thm32feq", f"orders ({nx}, {ny})")
        report.add("zero residual", psi_functional_equation_residual(nx, ny).is_zero)
        return report
    raise PatternError(f"unknown relation {relation!r}")
