"""Numeric and symbolic verification of the structural recursions.

Each relation identifier names one recursion satisfied by the
generating functions:

- ``thm21``     the avoidance recursion, for any 132-avoiding pattern.
- ``thm23``     its layered specialization with R-function boundary
                terms, on the block slices of the expanded layered
                pattern: the layer tops are its maxima, and the layered
                patterns the recursion names are its prefixes and
                suffixes.
- Both are exact identities in Q(x), decided by ``vanishes``: the
  difference of the two sides, written once over the ``avoid_gf`` and
  ``r_func_or_zero`` values, is evaluated with every denominator
  cleared at X = 2**w, the inputs' slot, beside a coefficient bound; a
  bound too large for that X sends it to one more evaluation at a
  larger X.  Each value carries only its own denominators, as an
  index -> exponent map, and the input l1 norms come from a memo for
  the life of the process keyed by packed value and slot width.  Its
  docstring proves that the difference is 0 iff the integer at the
  certified X is.  The check itself does no ``RationalFunction``
  arithmetic and takes no gcd, so it shares none of that code with the
  engine whose values it reads.
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

from .algebra import Polynomial, PowerSeries, RationalFunction, _slot, series_of
from .chebyshev import r_func_or_zero
from .engine import avoid_gf
from .errors import PatternError
from .oracle import ConstraintSpec, series as oracle_series
from .patterns import _integers, blocks, expand_layered, inverse, require_132_avoiding


class _Cleared:
    """n / prod_a d_a**e_a over the input denominators d_a of ``vanishes``
    that this value carries, with n = N(2**w), b >= |N|_1 and e the map
    a -> e_a > 0; ``dens[a]`` is the pair (d_a(2**w), |d_a|_1).  A
    product merges the two maps, adding exponents, and multiplies bounds;
    a sum or difference lifts each side to the larger exponent of each
    d_a that either side carries and adds the bounds."""

    __slots__ = ("n", "b", "e", "dens")

    def __init__(self, n: int, b: int, e: dict[int, int], dens: list[tuple[int, int]]):
        self.n, self.b, self.e, self.dens = n, b, e, dens

    def _lift(self, other: "_Cleared") -> tuple[int, int, int, int, dict[int, int]]:
        """Both numerators and bounds over the common denominator, and its exponents."""
        n1, b1, n2, b2, e1, e2 = self.n, self.b, other.n, other.b, self.e, other.e
        if e1 == e2:
            return n1, b1, n2, b2, e1
        e = e1 | e2
        for a in e:
            k, c = e1.get(a, 0), e2.get(a, 0)
            if k < c:
                d, l1 = self.dens[a]
                n1 *= d ** (c - k)
                b1 *= l1 ** (c - k)
            elif c < k:
                d, l1 = self.dens[a]
                n2 *= d ** (k - c)
                b2 *= l1 ** (k - c)
                e[a] = k
        return n1, b1, n2, b2, e

    def __add__(self, other: "_Cleared") -> "_Cleared":
        n1, b1, n2, b2, e = self._lift(other)
        return _Cleared(n1 + n2, b1 + b2, e, self.dens)

    def __sub__(self, other: "_Cleared") -> "_Cleared":
        n1, b1, n2, b2, e = self._lift(other)
        return _Cleared(n1 - n2, b1 + b2, e, self.dens)

    def __mul__(self, other: "_Cleared") -> "_Cleared":
        e, e2 = self.e, other.e
        if e2:
            e = dict(e)
            for a, c in e2.items():
                e[a] = e.get(a, 0) + c
        return _Cleared(self.n * other.n, self.b * other.b, e, self.dens)


# (v, slot width) -> l1 norm of the polynomial packed so; see ``vanishes``
_NORMS: dict[tuple[int, int], int] = {}


def _l1(p: Polynomial) -> int:
    key = (p.v, p.bits | 63)
    l1 = _NORMS.get(key)
    if l1 is None:
        l1 = _NORMS[key] = sum(map(abs, p.coeffs))
    return l1


def vanishes(expr, *inputs: RationalFunction) -> bool:
    """Whether ``expr(one, x, *inputs)`` is the zero function, for an
    ``expr`` built with binary ``+``, ``-`` and ``*`` alone.

    Let d_1, ..., d_m be the distinct denominators of the inputs other
    than 1.  Every value of the expression is N / prod_a d_a**e_a with
    N in Z[x] and e_a = 0 for every d_a the value does not carry: an
    input num/d_a has N = num and e_a = 1, ``one`` and ``x`` have N = 1
    and x and carry none; a product multiplies the numerators and adds
    the exponents, and a sum or difference first multiplies each side's
    N by d_a**(e - e_a) to reach the larger exponent e of each d_a that
    either side carries, so that an equal denominator is shared as in an
    lcm.  The denominator is a nonzero polynomial, so the expression is
    0 iff N = 0.

    ``expr`` runs over ``_Cleared`` numbers at X = 2**w0, w0 the
    smallest slot with every input's l1 norm below 2**(w0-1), so packed
    values serve as they are; evaluation is a ring map, so the run ends
    with N(X).  Beside each value goes a bound that a sum or difference
    adds and a product multiplies, so by the triangle inequality and
    |pq|_1 <= |p|_1 |q|_1 the final bound B is at least |N|_1, whatever
    X is.  If B < X/2, N's coefficients are the balanced base-X digits
    of N(X), which are unique, so N(X) = 0 iff N = 0.  Otherwise
    ``expr`` runs again, with the same bounds, at X = 2**w for w the
    smallest multiple of 8 (whole bytes, for ``_pack``) above B's bit
    length.  f = x and g = 2**62 give w0 = 64, where f - 4g is nonzero
    but vanishes; B = 2**64 + 1 sends it to the second run.

    The l1 norms come from ``_NORMS``, which lives as long as the
    process and is keyed by packed value and slot width, as both
    together fix the polynomial (v alone does not: x and the constant
    2**64 share v = 2**64 at slots 64 and 128).  So an input that
    recurs, as memoized ``avoid_gf`` values do, is decoded once.
    """
    index: dict[Polynomial, int] = {}
    for f in inputs:
        if f.den.v != 1:
            index.setdefault(f.den, len(index))
    exps = [{index[f.den]: 1} if f.den.v != 1 else {} for f in inputs]
    norms = list(map(_l1, index))
    bounds = [_l1(f.num) for f in inputs]

    def run(w: int) -> _Cleared:
        """``expr`` at X = 2**w."""
        vals = [(d._packed(w), l1) for d, l1 in zip(index, norms)]
        values = [_Cleared(f.num._packed(w), b, e, vals) for f, b, e in zip(inputs, bounds, exps)]
        # |1|_1 = |x|_1 = 1
        return expr(_Cleared(1, 1, {}, vals), _Cleared(1 << w, 1, {}, vals), *values)

    w0 = _slot(max((0, *norms, *bounds)).bit_length())
    n = run(w0)
    bits = n.b.bit_length()
    if bits >= w0:
        n = run(bits // 8 * 8 + 8)
    return not n.n


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


RelationCheck = namedtuple("RelationCheck", "label passed")


class RelationReport(namedtuple("RelationReport", "relation instance checks")):
    """One checked instance and its ``RelationCheck`` (label, passed) pairs."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        head = f"{self.relation} {self.instance}: {'PASS' if self.passed else 'FAIL'}"
        return [head] + [f"  FAIL {c.label}" for c in self.checks if not c.passed]


def _check_thm21(r: int, pre: list, suf: list, n: int):
    def identity(one, x, *v):
        # f[j] = F(prefix j) for j = -1..r, as in ``pre``; g[j] = F(suffix j) for j = 0..r
        f, g = v[: r + 2], v[r + 2 :]
        rhs = one
        for j in range(r + 1):
            rhs = rhs + x * (f[j] - f[j - 1]) * g[j]
        return g[0] - rhs

    yield "symbolic identity", vanishes(identity, *map(avoid_gf, pre + suf[: r + 1]))


def _check_thm23(r: int, pre: list, suf: list, n: int):
    def identity(one, x, head, last, *v):
        # g[j] = F(suffix j) for j = 0..r, f[j] = F(prefix j) for j = 0..r-1
        g, f = v[: r + 1], v[r + 1 :]
        rhs = one - x * head * g[1]
        for j in range(2, r + 1):
            rhs = rhs + x * f[j - 1] * (g[j - 1] - g[j])
        return (one - x * head - x * last) * g[0] - rhs

    # R_{m_0-m_1-1} and R_{m_r}: prefix 0 and suffix r are increasing runs of those lengths
    boundary = r_func_or_zero(len(pre[0])), r_func_or_zero(len(suf[r]))
    gfs = map(avoid_gf, suf[: r + 1] + pre[:r])
    yield "symbolic identity", vanishes(identity, *boundary, *gfs)


def _resolve_pattern(seq: tuple) -> tuple[int, ...]:
    """Accept a pattern in one-line notation or layered layer tops."""
    if not seq:
        raise PatternError("empty pattern has no canonical decomposition")
    seq = _integers(seq)
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


def _check_thm31(r: int, pre: list, suf: list, n: int):
    yield "coefficients 0..%d" % n, _once_recursion_holds(r, pre, suf, (), n)


def _check_thm33(r: int, pre: list, suf: list, n: int):
    yield "boundary terms", (
        r_func_or_zero(len(pre[0])) == avoid_gf(pre[0]) and r_func_or_zero(len(suf[r])) == avoid_gf(suf[r])
    )
    yield from _check_thm31(r, pre, suf, n)


def _check_remark31(r: int, pre: list, suf: list, n: int):
    for j in range(2, r + 1):
        yield f"j={j} coefficients 0..{n}", _once_recursion_holds(*_slices(pre[j - 1]), (pre[j],), n)


def _check_feq(relation: str):
    """``thm22feq`` (Φ) or ``thm32feq`` (Ψ), as the module docstring says."""
    one, x, y, f = Polynomial.one(), Polynomial.x(), Polynomial.x(8), Polynomial.x(64)
    two_x, four_x = Polynomial((0, 2)), Polynomial((0, 4))
    if relation == "thm22feq":
        a = one + x - x * y
        e = y * (one - y) * f - y * y - x * (one - y) * f * (f - y - y * f) - x * y * y * (one - y) * f
        c, b, d = one - y, y * a, y * y * (a * a - four_x)
        b0, lowest = one + x, avoid_gf((1,))  # b/y at y = 0, and Φ_1
    else:
        e = (one - x) * (f - x * y) - x * f * f - x * (one - x) * y * f
        c, b = one, (one - x) * (one - x * y)
        d = b * b - four_x * x * (one - x) * y
        b0, lowest = one - x, RationalFunction.zero()  # b at y = 0, and Ψ_0
    root = two_x * c * f - b
    yield "exact identity", root * root - d == -(four_x * e)
    # (b0 - (1 - x)) / (2x) = lowest, cross-multiplied
    yield "series root", (b0 - (one - x)) * lowest.den == two_x * lowest.num


# One row per pattern relation, read by ``verify_relation`` and ``pattgf verify``:
# - check(r, pre, suf, terms) on the instance as ``_slices`` cuts it, yielding (label, passed);
# - min_r, the right-to-left maxima beyond the first that an instance needs, and the refusal of fewer;
# - layered: ``params`` are layer tops (else a pattern, or tops, as ``_resolve_pattern`` reads them);
# - reads_terms: the check reads ``terms`` (else it is symbolic);
# - sweep: the pattern sizes ``pattgf verify`` sweeps by default.
_Row = namedtuple("_Row", "check min_r refusal layered reads_terms sweep")

PATTERN_RELATIONS = {
    "thm21": _Row(_check_thm21, 0, None, False, False, (1, 4)),
    "thm23": _Row(_check_thm23, 1, "the layered recursion needs at least two layers", True, False, (2, 5)),
    "thm31": _Row(_check_thm31, 1, "the exactly-once recursion needs at least two maxima", False, True, (2, 5)),
    "thm33": _Row(_check_thm33, 1, "the layered exactly-once recursion needs at least two layers", True, True, (2, 5)),
    "remark31": _Row(_check_remark31, 2, "the Remark 3.1 recursion needs at least three maxima", False, True, (2, 5)),
}


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

    An instance with fewer right-to-left maxima than its relation's
    ``PATTERN_RELATIONS`` row needs is refused: there is nothing to check.
    """
    row = PATTERN_RELATIONS.get(relation)
    if row is not None and params is None:
        raise PatternError(f"relation {relation!r} needs a pattern or layer tops")
    if terms < 1:
        raise ValueError(f"{relation}: terms must be at least 1, got {terms}")
    if row is None:
        if relation not in ("thm22feq", "thm32feq"):
            raise PatternError(f"unknown relation {relation!r}")
        instance, checks = "closed form", _check_feq(relation)
    else:
        seq = tuple(params)
        # the tops are a layered instance's maxima: too few are refused before ``expand_layered`` reads them
        r = len(seq) - 1 if row.layered else row.min_r
        if r >= row.min_r:
            r, pre, suf = _slices(expand_layered(seq) if row.layered else _resolve_pattern(seq))
        if r < row.min_r:
            raise PatternError(row.refusal)
        # suffix i has m_i entries, so a layered instance is labelled by its tops
        instance = f"layered {[len(s) for s in suf[: r + 1]]}" if row.layered else f"pattern {suf[0]}"
        instance += f", n <= {terms}" if row.reads_terms else ""
        checks = row.check(r, pre, suf, terms)
    return RelationReport(relation, instance, tuple(map(RelationCheck._make, checks)))
