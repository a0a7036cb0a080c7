"""Numeric and symbolic verification of the structural recursions.

Each relation identifier names one recursion satisfied by the
generating functions:

- ``thm21``     the avoidance recursion, checked symbolically for any
                132-avoiding pattern.
- ``thm23``     its layered specialization with R-function boundary
                terms, checked symbolically on the block slices of the
                expanded layered pattern: the layer tops are its
                maxima, and the layered patterns the recursion names
                are its prefixes and suffixes.
- ``thm31``, ``thm33``, ``remark31``: one exactly-once recursion,
  checked coefficient-wise to order n by ``_once_recursion_holds``.
  With G the oracle table "avoid every ν in ``nus``, contain μ exactly
  once" and avoid(i) = (suffix i-1 of μ, suffix i of each ν), it checks
  the fixed point G = x·((F(prefix 0) + A(r+1))·G + Σ_{i=1..r} L_i·B_i):
  A(i) avoids avoid(i), B_i also contains suffix i of μ once, L_i is
  ``_left_factor``.  To order n that reads G_0 = 0, which holds as μ is
  nonempty, and G_k = [x^(k-1)] of the bracket for 1 <= k <= n.  The x^k
  coefficient of the paper's form
  (1 - x·F(prefix 0) - x·A(r+1))·G = Σ x·L_i·B_i is the same equation,
  so the two checks agree coefficient for coefficient to order n.
  F(prefix 0) comes from ``avoid_gf``, every other factor from the
  counting oracle.  ``thm31`` has nus = (); ``remark31``
  takes μ = prefix j-1 and nus = (prefix j,) for j >= 2; ``thm33`` is
  ``thm31`` on the expanded layered pattern plus a symbolic check that
  R_{m_0-m_1-1} and R_{m_r} are avoid_gf of prefix 0 and of suffix r.
  Its other summands are exactly those prefixes and suffixes, and
  A(r+1) is the series of avoid_gf(suffix r), so the two checks imply
  the layered recursion written with R-functions.
- ``thm22feq``  / ``thm32feq``: the bivariate aggregates satisfy their
                functional equations exactly: every y^m level of the
                residual, a rational function of x, is zero.

Boundary bookkeeping for the numeric checks, derived by re-running the
place-the-maximum argument and verified against the oracle:

- the left factor of the first summand (``_left_factor`` with i = 1)
  constrains the part left of the placed maximum by the *prefix
  closure* (the flattened first segment followed by a new largest entry
  for m_0), not by the full next prefix.
  For layered patterns with a nonempty first segment the two readings
  agree (containing the closure forces a second occurrence of the
  contained pattern); when the contained pattern is empty the closure
  reduces the factor to the constant series 1, which is exactly the
  convention the aggregate derivations rely on.
- for ``remark31`` the right factors avoid both suffixes in avoid(i).
  Writing only the suffix of μ (as the displayed recursion does) fails
  the oracle already for the layered pattern [4,2,1] at j = 2, n = 4
  (1 instead of 2 permutations).

The oracle tables are built once per inverse pair.  By the bijection
argument of the ``engine`` docstring, π -> π^-1 maps S_n(132) onto
itself and keeps every occurrence count, so the table of "avoid every
α in A, contain γ once" equals that of (A^-1, γ^-1).  A sweep over
S_k(132) meets both orientations, and ``_oracle_series`` serves the
second from the table of the first.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import PowerSeries, RationalFunction, series_of
from .chebyshev import r_func_or_zero
from .engine import (
    avoid_gf,
    phi_functional_equation_residual,
    psi_functional_equation_residual,
)
from .errors import PatternError
from .oracle import ConstraintSpec, series as oracle_series
from .patterns import blocks, expand_layered, inverse, require_132_avoiding

# ``verify_relation``'s defaults, shared with ``pattgf verify``: the series
# order of the coefficient-wise checks, the y order of the feq checks
DEFAULT_TERMS = 9
DEFAULT_Y_ORDER = 8
# the largest y order of the feq checks: thm22feq to y order N takes 0.1 s
# at N = 24, 0.3 s at N = 32 and 1.3 s at N = 48 (CPython 3.11, 2 vCPUs x86_64)
FEQ_TERMS_CAP = 32

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

    One table serves each inverse pair (the module docstring, after
    ``engine``'s bijection argument): the table of (A, γ) equals that of
    (A^-1, γ^-1).  A miss returns the mirror's series when it is cached,
    and otherwise builds the table and stores it under the key asked for
    only, so the cache holds one entry per table built.
    """
    key = (tuple(sorted(avoid)), contain, n_max)
    hit = _SERIES_CACHE.get(key)
    if hit is None:
        mirror = (tuple(sorted(map(inverse, avoid))), None if contain is None else inverse(contain), n_max)
        hit = _SERIES_CACHE.get(mirror)
    if hit is None:
        hit = PowerSeries(oracle_series(ConstraintSpec(avoid, contain), n_max).counts)
        _SERIES_CACHE[key] = hit
    return hit


def _slices(pat: tuple[int, ...]) -> tuple[int, list, list]:
    """(r, pre, suf) of a nonempty 132-avoider: ``blocks`` padded with the
    ends, so pre[i] is prefix i for i = -1..r (prefix -1, which is empty,
    sits last) and suf[i] is suffix i for i = 0..r+1."""
    r, pre, suf = blocks(pat)
    if r:
        pre.append(pat)  # blocks stops at prefix r-1
    return r, pre + [()], [pat, *suf, ()]


def _left_factor(pre: list, i: int, n: int) -> PowerSeries:
    """Left factor of summand i >= 1: avoid prefix i (the prefix closure
    when i = 1, see the module docstring), contain prefix i-1 once."""
    if i == 1:
        # m_0 exceeds every entry of segment 0, so the closure appends a new maximum
        avoided = pre[0] + (len(pre[0]) + 1,)
    else:
        avoided = pre[i]
    return _oracle_series(n, avoid=(avoided,), contain=pre[i - 1])


class RelationCheck(namedtuple("RelationCheck", "label passed")):
    __slots__ = ()


class RelationReport:
    __slots__ = ("relation", "instance", "checks")

    def __init__(self, relation: str, instance: str):
        self.relation, self.instance = relation, instance
        self.checks: list[RelationCheck] = []

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
    r, pre, suf = _slices(pat)
    x = RationalFunction.x()
    rhs = RationalFunction.one()
    for j in range(r + 1):
        diff = avoid_gf(pre[j]) - avoid_gf(pre[j - 1])
        rhs = rhs + x * diff * avoid_gf(suf[j])
    report.add("symbolic identity", avoid_gf(pat) == rhs)
    return report


def _check_thm23(tops: tuple[int, ...]) -> RelationReport:
    report = RelationReport("thm23", f"layered {list(tops)}")
    if len(tops) < 2:
        raise PatternError("the layered recursion needs at least two layers")
    r, pre, suf = _slices(expand_layered(tops))
    x = RationalFunction.x()
    head = r_func_or_zero(tops[0] - tops[1] - 1)
    lhs = (RationalFunction.one() - x * head - x * r_func_or_zero(tops[-1])) * avoid_gf(suf[0])
    rhs = RationalFunction.one() - x * head * avoid_gf(suf[1])
    for j in range(2, r + 1):
        tail = avoid_gf(suf[j - 1]) - avoid_gf(suf[j])
        rhs = rhs + x * avoid_gf(pre[j - 1]) * tail
    report.add("symbolic identity", lhs == rhs)
    return report


def _resolve_pattern(params) -> tuple[int, ...]:
    """Accept a pattern in one-line notation or layered layer tops."""
    seq = tuple(int(v) for v in params)
    if not seq:
        raise PatternError("empty pattern has no canonical decomposition")
    if sorted(seq) != list(range(1, len(seq) + 1)):
        return expand_layered(seq)
    require_132_avoiding(seq)
    return seq


def _once_recursion_holds(r: int, pre: list, suf: list, nus: tuple[tuple[int, ...], ...], n: int) -> bool:
    """The exactly-once recursion of the module docstring for μ = suf[0], to order n."""
    nu_sufs = [_slices(nu)[2] for nu in nus]

    def avoid(i: int) -> tuple[tuple[int, ...], ...]:
        return (suf[i - 1], *(s[i] for s in nu_sufs))

    first = series_of(avoid_gf(pre[0]), n)
    last = _oracle_series(n, avoid=avoid(r + 1))
    g = _oracle_series(n, avoid=nus, contain=suf[0])
    total = (first + last) * g
    for i in range(1, r + 1):
        right = _oracle_series(n, avoid=avoid(i), contain=suf[i])
        total = total + _left_factor(pre, i, n) * right
    # G = x·total: the shift drops total's x^n coefficient
    return g.coeffs == (0,) + total.coeffs[:n]


def _check_thm31(pat: tuple[int, ...], n: int) -> RelationReport:
    report = RelationReport("thm31", f"pattern {pat}, n <= {n}")
    r, pre, suf = _slices(pat)
    if r < 1:
        raise PatternError("the exactly-once recursion needs at least two maxima")
    report.add("coefficients 0..%d" % n, _once_recursion_holds(r, pre, suf, (), n))
    return report


def _check_thm33(tops: tuple[int, ...], n: int) -> RelationReport:
    report = RelationReport("thm33", f"layered {list(tops)}, n <= {n}")
    if len(tops) < 2:
        raise PatternError("the layered exactly-once recursion needs at least two layers")
    r, pre, suf = _slices(expand_layered(tops))
    report.add(
        "boundary terms",
        r_func_or_zero(tops[0] - tops[1] - 1) == avoid_gf(pre[0])
        and r_func_or_zero(tops[-1]) == avoid_gf(suf[r]),
    )
    report.add("coefficients 0..%d" % n, _once_recursion_holds(r, pre, suf, (), n))
    return report


def _check_remark31(pat: tuple[int, ...], n: int) -> RelationReport:
    report = RelationReport("remark31", f"pattern {pat}, n <= {n}")
    r, pre, _ = _slices(pat)
    for j in range(2, r + 1):
        holds = _once_recursion_holds(*_slices(pre[j - 1]), (pre[j],), n)
        report.add(f"j={j} coefficients 0..{n}", holds)
    if r < 2:
        report.add("no instances (needs at least three maxima)", True)
    return report


def verify_relation(relation: str, params=None, terms: int = DEFAULT_TERMS,
                    orders: tuple[int, int] = (10, DEFAULT_Y_ORDER)) -> RelationReport:
    """Verify one relation instance; see the module docstring for ids.

    ``params`` is a pattern in one-line notation (``thm21``, ``thm31``,
    ``remark31``), layered layer tops (``thm23``, ``thm33``, also
    accepted by the pattern-based checks), or ignored for the
    functional-equation checks.  ``terms`` bounds the coefficient-wise
    checks and must be at least 1, since to order 0 they read only G_0 = 0.
    The functional-equation checks read only ``orders[1]``, the y order,
    which must lie in 1..``FEQ_TERMS_CAP``; their levels are exact in x,
    so ``orders[0]`` is unused.
    """
    if params is None and relation in ("thm21", "thm23", "thm31", "thm33", "remark31"):
        raise PatternError(f"relation {relation!r} needs a pattern or layer tops")
    if terms < 1 and relation in ("thm31", "thm33", "remark31"):
        raise ValueError(f"{relation}: terms must be at least 1, got {terms}")
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
    residuals = {"thm22feq": phi_functional_equation_residual, "thm32feq": psi_functional_equation_residual}
    if relation in residuals:
        if orders[1] > FEQ_TERMS_CAP:
            raise ValueError(f"{relation}: the y order must be at most {FEQ_TERMS_CAP}, got {orders[1]}")
        report = RelationReport(relation, f"y order {orders[1]}")
        report.add("zero residual", residuals[relation](orders[1]).is_zero)
        return report
    raise PatternError(f"unknown relation {relation!r}")
