"""Numeric and symbolic verification of the structural recursions.

Each relation identifier names one recursion satisfied by the
generating functions:

- ``thm21``     the avoidance recursion, for any 132-avoiding pattern.
- ``thm23``     its layered specialization with R-function boundary
                terms, on the block slices of the expanded layered
                pattern: the layer tops are its maxima, and the layered
                patterns the recursion names are its prefixes and
                suffixes.
- Both are exact identities in Q(x), decided by ``algebra.vanishes``:
  the difference of the two sides, written once over the ``avoid_gf``
  and ``r_func_or_zero`` values, is evaluated at one power of two
  X = 2**w with every denominator cleared, after a coefficient bound has
  fixed w; its docstring proves that the difference is 0 iff that
  integer is.  The check itself does no ``RationalFunction`` arithmetic
  and takes no gcd, so it shares none of that code with the engine
  whose values it reads.
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
- ``thm22feq``  / ``thm32feq``: the functional equations of the
                bivariate aggregates Φ and Ψ, as exact identities (below).

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

By Theorems 2.2 and 3.2, Φ = Σ_k y^k avoid_gf(k...1) solves
Φ = y/(1-y) + xΦ(Φ/y - 1 - Φ) + xyΦ and Ψ = Σ_k y^k once_gf(k...1)
solves (1-x)(Ψ - xy) = xΨ^2 + x(1-x)yΨ.  With E = y(1-y)·(LHS - RHS),
resp. LHS - RHS, in Z[x, y, F], each closed form is F = (b - sqrt(D))/(2xc):
c = 1 - y, b = ya, D = y^2(a^2 - 4x), a = 1 + x - xy for Φ; c = 1,
b = (1-x)(1-xy), D = b^2 - 4x^2(1-x)y for Ψ.  ``_check_feq`` checks
(2xcF - b)^2 - D = -4x·E, so E(F) = 0 exactly for the closed form with
either root, at y = x^8, F = x^64: one to one on the monomials
x^i y^j F^l with i, j < 8, which are all that either side has.  The
lowest level picks the root: E_Φ's y^0 level is -xΦ_0^2 and its y^2
level -(xΦ_1 - 1)(Φ_1 - 1); E_Ψ's y^0 level is Ψ_0(1 - x - xΨ_0).  The
series root, y(1 - x) + O(y^2), resp. 1 - x + O(y), gives
Φ_1 = 1 = avoid_gf(1) and Ψ_0 = 0, not 1/x and (1-x)/x.  Past it, the
newest level Φ_m (at y^(m+1)) or Ψ_m (at y^m) enters linearly with the
coefficient 1 - 2xΦ_1 + x = 1 - x - 2xΨ_0 = 1 - x ≠ 0, so each level is
fixed by those below it: the series root is unique, and the check holds
at every y order.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import Polynomial, PowerSeries, RationalFunction, series_of, vanishes
from .chebyshev import r_func_or_zero
from .engine import avoid_gf
from .errors import PatternError
from .oracle import ConstraintSpec, series as oracle_series
from .patterns import blocks, expand_layered, inverse, require_132_avoiding

# ``verify_relation``'s series order for the coefficient-wise checks,
# shared with ``pattgf verify``
DEFAULT_TERMS = 9

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

    def identity(one, x, *v):
        # f[j] = F(prefix j) for j = -1..r, as in ``pre``; g[j] = F(suffix j) for j = 0..r
        f, g = v[: r + 2], v[r + 2 :]
        rhs = one
        for j in range(r + 1):
            rhs = rhs + x * (f[j] - f[j - 1]) * g[j]
        return g[0] - rhs

    report.add("symbolic identity", vanishes(identity, *map(avoid_gf, pre + suf[: r + 1])))
    return report


def _check_thm23(tops: tuple[int, ...]) -> RelationReport:
    report = RelationReport("thm23", f"layered {list(tops)}")
    if len(tops) < 2:
        raise PatternError("the layered recursion needs at least two layers")
    r, pre, suf = _slices(expand_layered(tops))
    boundary = r_func_or_zero(tops[0] - tops[1] - 1), r_func_or_zero(tops[-1])

    def identity(one, x, head, last, *v):
        # g[j] = F(suffix j) for j = 0..r, f[j] = F(prefix j) for j = 0..r-1
        g, f = v[: r + 1], v[r + 1 :]
        rhs = one - x * head * g[1]
        for j in range(2, r + 1):
            rhs = rhs + x * f[j - 1] * (g[j - 1] - g[j])
        return (one - x * head - x * last) * g[0] - rhs

    gfs = map(avoid_gf, suf[: r + 1] + pre[:r])
    report.add("symbolic identity", vanishes(identity, *boundary, *gfs))
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


def _check_feq(relation: str) -> RelationReport:
    """``thm22feq`` (Φ) or ``thm32feq`` (Ψ), as the module docstring says."""
    report = RelationReport(relation, "closed form")
    one, x, y, f = Polynomial.one(), Polynomial.x(), Polynomial.x(8), Polynomial.x(64)
    two_x, four_x, rx = Polynomial((0, 2)), Polynomial((0, 4)), RationalFunction.x()
    if relation == "thm22feq":
        a = one + x - x * y
        e = y * (one - y) * f - y * y - x * (one - y) * f * (f - y - y * f) - x * y * y * (one - y) * f
        c, b, d = one - y, y * a, y * y * (a * a - four_x)
        b0, lowest = 1 + rx, avoid_gf((1,))  # b/y at y = 0, and Φ_1
    else:
        e = (one - x) * (f - x * y) - x * f * f - x * (one - x) * y * f
        c, b = one, (one - x) * (one - x * y)
        d = b * b - four_x * x * (one - x) * y
        b0, lowest = 1 - rx, RationalFunction.zero()  # b at y = 0, and Ψ_0
    root = two_x * c * f - b
    report.add("exact identity", root * root - d == -(four_x * e))
    report.add("series root", (b0 - (1 - rx)) / (2 * rx) == lowest)
    return report


def verify_relation(relation: str, params=None, terms: int = DEFAULT_TERMS, orders=None) -> RelationReport:
    """Verify one relation instance; see the module docstring for ids.

    ``params`` is a pattern in one-line notation (``thm21``, ``thm31``,
    ``remark31``), layered layer tops (``thm23``, ``thm33``, also
    accepted by the pattern-based checks), or ignored for the
    functional-equation checks.  ``terms`` bounds the coefficient-wise
    checks and must be at least 1 for every relation, since to order 0
    they read only G_0 = 0.  The symbolic checks (``thm21``, ``thm23``
    and both functional equations) read no order, so any ``terms`` of
    at least 1 leaves them as they are; ``perfbench/workloads.py``
    passes one to ``thm21`` and ``thm23``.  ``orders`` is accepted and
    not read: the functional-equation checks are exact at every y
    order.  It is kept only for ``perfbench/workloads.py``, which passes
    it.
    """
    if params is None and relation in ("thm21", "thm23", "thm31", "thm33", "remark31"):
        raise PatternError(f"relation {relation!r} needs a pattern or layer tops")
    if terms < 1:
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
    if relation in ("thm22feq", "thm32feq"):
        return _check_feq(relation)
    raise PatternError(f"unknown relation {relation!r}")
