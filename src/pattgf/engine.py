"""Exact generating functions for restricted 132-avoiding permutations.

``avoid_gf`` computes, for any pattern tau avoiding (1,3,2), the
rational series whose n-th coefficient counts the permutations in
S_n(132) that also avoid tau.  The recursion places the maximum of a
permutation and matches prefix/suffix patterns of tau around it; the
resulting equation mentions the unknown on both sides, so each level is
solved linearly (the divisor has constant term 1 and is never zero)
and recursion only ever descends to strictly shorter prefixes and
suffixes, which guarantees termination.  Every avoidance
answer, the CLI's included, comes from this recursion; the paper's
closed forms (R_k for every wedge of size k, the three-layer formula)
live in the tests, which compare the recursion against them.

Two memos serve the recursion, and both are exact.  The pattern memo
stores each result under the flattened pattern and its inverse alike:
the recursion runs on the pattern asked for, so the memo's keys are
closed under inversion, a lookup of tau alone finds a value stored for
tau^-1, and each inverse pair is solved once.  Transposing the plane
maps the graph of a permutation pi to that of pi^-1, and each
occurrence of tau in pi to an occurrence of tau^-1 in pi^-1.  Since
(1,3,2) is its own inverse, pi -> pi^-1 is a bijection of S_n(132)
that keeps occurrence counts and sends the tau-avoiders onto the
tau^-1-avoiders.  So the two series agree term by term, and a rational
series has exactly one canonical form.

The prefixes and suffixes are slices of tau that ``patterns.blocks``
reads off its block structure; its docstring proves the slicing exact.
Every slice of a 132-avoider is again one, so the recursion stays on
132-avoiders: ``avoid_gf`` (on a memo miss) and ``once_gf`` check
their input (``require_132_avoiding``).

The level memo stores each solved level under its inputs: r and the
series of prefixes 0..r-1 and suffixes 1..r (for r = 0, prefix 0
alone; prefix -1 is empty and enters no term).  The level's equation
reads nothing else, so equal inputs give an equal solution.  Inputs
are compared by canonical form, which is unique, so a level met again
through a different pattern (Wilf-equivalent prefixes or suffixes
share their series) is solved once, and the value stored is the one a
fresh solve would return, canonical form included.

A level with r = 0 is F = 1/(1 - x P_0).  P_0 = n/d lies in Z[[x]], so
d(0) = 1 (see ``series_of``), and F is built as d/(d - x n), canonical
as built: gcd(d, d - x n) = gcd(d, x n) = 1, as gcd(n, d) = 1 and x
does not divide d, and d - x n has constant term 1, so the content is
1 and the sign is right.

A level with r >= 1 is solved on exact (numerator, denominator) pairs
that nothing cancels; the input denominators have constant term 1.
Products multiply pairs, and sums go through ``algebra._plus``:
n1/d1 + n2/d2, with d_i = g c_i and g = gcd(d1, d2), is
(n1 c2 + n2 c1)/(d1 c2), over the lcm, a multiple of d1 and of d2 in
Z[x] (the product d1 d2 would repeat V_p factors).  As
g(0) c2(0) = d2(0) = +-1, every denominator built so has constant term
+-1.  With rhs - 1 = n/d
summed so and P_0 + S_r = m/d, the solution is (n + d)/(d - x m), and
d - x m != 0 as d(0) = +-1.  No gcd finds m: d is a multiple of both
denominators of that sum.  It starts as the product of those of
P_(r-1) and S_r, each sum keeps a multiple of its two denominators,
and for r >= 2 the j = 1 term brings in the lcm of those of P_1 and
P_0.  So for P_0 = a/b and S_r = c/e, m = a (d/b) + c (d/e), two exact
divisions (``algebra.exact_quotient``).  For r = 1, d = be, so
F = (be - x ac)/(be - x (ae + cb)) in closed form.  The constructor's
gcd gives the canonical form, which is unique.

``once_gf`` produces the analogous series for "contains tau exactly
once" from the closed families below, tried in this order (V_p denotes
the companion polynomials from ``pattgf.chebyshev``).  It reads no
avoidance series and never recurses:

- the increasing run [k] = 12...k:   x^k / V_k^2 (x for [1]).  Write
  F_j and G_j for the avoidance and exactly-once series of 12...j.
  Appending a new maximum gives the step
  G_j = x*F_j*G_(j-1) / (1 - x*F_(j-1)), which is exact because
  12...(j-1) occurs at least twice in 12...j.  The pattern 12...j ends
  in its maximum, so its avoidance recursion has r = 0 with prefix 0 =
  12...(j-1), and that level with identity (iii) gives
  F_j = 1/(1 - x*F_(j-1)) = R_j = V_(j-1)/V_j.  So G_j = x*F_j^2*G_(j-1),
  and from G_1 = x the product telescopes to x^k*(V_1/V_k)^2 =
  x^k/V_k^2, since V_1 = 1.  That form is canonical as built: V_k(0) = 1,
  so V_k^2 is prime to x^k, has content 1 and a positive constant term.
- two layers [k,m]:                 x^k / (V_k * V_m' * V_{k-m'-1}),
  where m' = min(m, k-m).  Inverting a permutation preserves both
  132-avoidance and occurrence counts while swapping [k,m] with
  [k,k-m], so both orientations share one series; brute-force
  verification fixes the smaller-m representative as the one matching
  the displayed product (the larger-m reading fails already at [3,2],
  n = 4: it predicts 3 where the true count is 2).  Canonical as built,
  as for [k].
- wedge-top {k,m,p}:                x^k * V_m^2 /
  (V_k^2 * V_{q-1} * V_q * V_{m-q}^2) with q = max(p, m-p).  Derived by
  stripping trailing maxima down to [m,p] and solving the two-pattern
  boundary step exactly; the superficially simpler product
  x^k * V_m / (V_k^2 * V_{m-p-1} * V_p) fails brute force (already at
  {3,2,1}, n = 4: 3 instead of 2) because stripping the last maximum
  from {m+1,m,p} leaves a pattern with a unique occurrence inside it,
  so the step that appends a maximum (see [k]) is not exact there.
- the decreasing pattern k...1 (k >= 3):  the y^k level of Psi below,
  x^(k-1) N_{k-1}(x) / (1-x)^(k-1), where the m-th Narayana polynomial
  N_m(x) = sum_{j=1..m} (1/m) C(m,j) C(m,j-1) x^j starts at x^1.
  Canonical as built: the denominator's constant term is 1, and
  N_m(1) = Catalan(m) != 0, so 1 - x does not divide the numerator.

Everything else raises UnsupportedPattern (use the oracle for numeric
tables: ``pattgf oracle <pattern> --mode once``).

``phi_closed_series`` / ``psi_closed_series`` expand the bivariate
closed forms that aggregate the decreasing patterns, with y marking the
pattern size, as power series in y: their y^k levels are the exact
avoidance and exactly-once series of k...1, rational functions of x,
and the tests' reference for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .algebra import BivariateSeries, Polynomial, RationalFunction, _plus, exact_quotient
from .chebyshev import v_poly
from .errors import UnsupportedPattern
from .patterns import as_pattern, blocks, classify, inverse, require_132_avoiding

_ZERO = RationalFunction.zero()

# memo tables keyed by one-line notation; avoid and once modes
# are cached separately.  An avoid entry is written under tau and its
# inverse together (see the module docstring).  Entries are immutable
# once written, so concurrent duplicate computation is harmless.
_AVOID_MEMO: dict[tuple[int, ...], RationalFunction] = {(): RationalFunction.zero()}
# one solved level of the avoid recursion per distinct equation, keyed by
# (r, F(prefix 0), ..., F(prefix max(r-1, 0)), F(suffix 1), ..., F(suffix r))
_LEVEL_MEMO: dict[tuple, RationalFunction] = {}
_ONCE_MEMO: dict[tuple[int, ...], RationalFunction] = {(): RationalFunction.one()}


def avoid_gf(pat: Sequence[int]) -> RationalFunction:
    """Rational series counting S_n(132) permutations that avoid ``pat``.

    >>> from pattgf.algebra import polynomial_str
    >>> f = avoid_gf((3, 2, 1))
    >>> polynomial_str(f.num), polynomial_str(f.den)
    ('1 - 2x + 2x^2', '1 - 3x + 3x^2 - x^3')

    The memo is read first and a hit is not re-checked: every key is a
    checked pattern, a slice of one or the inverse of one, and all of
    these avoid (1,3,2).
    """
    pat = tuple(pat)
    hit = _AVOID_MEMO.get(pat)
    if hit is not None:
        return hit
    pat = as_pattern(pat)
    require_132_avoiding(pat)
    return _avoid(pat)


def _avoid(pat: tuple[int, ...]) -> RationalFunction:
    """The avoidance series of ``pat``, which must avoid (1,3,2).

    The recursion runs on an explicit stack of (pattern, ``blocks``
    result) frames, so a deep pattern needs no Python recursion.  A frame
    is solved once its prefixes and suffixes are in the memo; until then
    the missing ones go on the stack, the first one on top.  So each
    pattern is solved, and ``blocks`` run on it, once, in the order the
    recursion would solve it."""
    stack: list = [(pat, None)]
    while stack:
        q, parts = stack[-1]
        if parts is None:
            if q in _AVOID_MEMO:  # solved below an earlier sibling
                stack.pop()
                continue
            parts = blocks(q)
            stack[-1] = (q, parts)
        r, prefixes, suffixes = parts
        # pre[i] = F(prefix i) for i = 0 .. max(r-1, 0), suf[i-1] = F(suffix i)
        # for i = 1 .. r; F(prefix -1) = 0 enters no term
        try:
            pre = [_AVOID_MEMO[p] for p in prefixes]
            suf = [_AVOID_MEMO[p] for p in suffixes]
        except KeyError:
            stack.extend((p, None) for p in reversed(prefixes + suffixes) if p not in _AVOID_MEMO)
            continue
        stack.pop()
        key = (r, *pre, *suf)
        value = _LEVEL_MEMO.get(key)
        if value is None:
            value = _LEVEL_MEMO[key] = _level(r, pre, suf)
        _AVOID_MEMO[q] = _AVOID_MEMO[inverse(q)] = value
    return _AVOID_MEMO[pat]


def _level(r: int, pre: list, suf: list) -> RationalFunction:
    """One level's solution rhs / divisor: no gcd for r = 0, the
    constructor's alone for r = 1, and for r >= 2 2(r - 1) lcm gcds
    before it."""
    if r == 0:
        p = pre[0]
        return RationalFunction._canonical(p.den, p.den - p.num.shift(1))
    # (n, d) = rhs - 1 as an exact pair
    p, s = pre[r - 1], suf[r - 1]
    n, d = -(p.num * s.num).shift(1), p.den * s.den
    for j, t in enumerate(suf[: r - 1], 1):
        dn, dd = _plus(pre[j].num, pre[j].den, -pre[j - 1].num, pre[j - 1].den)
        n, d = _plus(n, d, (dn * t.num).shift(1), dd * t.den)
    # m/d = P_0 + S_r, as pre[0].den and s.den divide d
    if r == 1:
        m = p.num * s.den + s.num * p.den
    else:
        m = pre[0].num * exact_quotient(d, pre[0].den) + s.num * exact_quotient(d, s.den)
    return RationalFunction(n + d, d - m.shift(1))


def once_gf(pat: Sequence[int]) -> RationalFunction:
    """Rational series counting S_n(132) permutations containing ``pat``
    exactly once; see the module docstring for the supported families.
    """
    pat = as_pattern(pat)
    if not pat:
        raise UnsupportedPattern(
            "every permutation contains the empty pattern exactly once; "
            "that series is the Catalan generating function, not rational"
        )
    require_132_avoiding(pat)
    hit = _ONCE_MEMO.get(pat)
    if hit is not None:
        return hit
    k = len(pat)
    fam = classify(pat)
    if fam.kind == "layered" and len(fam.params) == 1:
        # the increasing run 12...k: x^k / V_k^2, canonical as is since V_k(0) = 1
        value = RationalFunction._canonical(Polynomial.x(k), v_poly(k) * v_poly(k))
    elif fam.kind == "layered" and len(fam.params) == 2:
        # x^k / (V_k V_m V_(k-m-1)), canonical as is since the V_q(0) = 1
        m = min(fam.params[1], k - fam.params[1])
        den = v_poly(k) * v_poly(m) * v_poly(k - m - 1)
        value = RationalFunction._canonical(Polynomial.x(k), den)
    elif fam.kind == "layered" and len(fam.params) == k:
        # the decreasing pattern k...1: x^(k-1) N_(k-1)(x) / (1-x)^(k-1), canonical
        # as is: den(0) = 1, and N_(k-1)(1) = Catalan(k-1) != 0, so 1-x divides no numerator
        m = k - 1
        num = Polynomial([0] * k + [comb(m, j) * comb(m, j - 1) // m for j in range(1, k)])
        den = Polynomial([(-1) ** j * comb(m, j) for j in range(k)])
        value = RationalFunction._canonical(num, den)
    elif fam.kind == "wedge-top":
        _, m, p = fam.params
        q = max(p, m - p)
        num = (v_poly(m) * v_poly(m)).shift(k)
        den = v_poly(k) * v_poly(k) * v_poly(q - 1) * v_poly(q) * v_poly(m - q) * v_poly(m - q)
        value = RationalFunction(num, den)
    else:
        raise UnsupportedPattern(
            f"no exact once-series for pattern {pat}; the oracle can tabulate it "
            "(CLI: pattgf oracle <pattern> --mode once)"
        )
    _ONCE_MEMO[pat] = value
    return value


# -- bivariate closed forms ---------------------------------------------------


def _y_poly(order_y: int, *coeffs: RationalFunction) -> BivariateSeries:
    """sum_j coeffs[j] y^j as a series truncated at y^order_y."""
    return BivariateSeries((coeffs + (_ZERO,) * order_y)[: order_y + 1])


def phi_closed_series(order_y: int = 10) -> BivariateSeries:
    """Phi(x, y) = y (a - sqrt(a^2 - 4x)) / (2x (1 - y)), a = 1 + x - xy,
    expanded in y to y^order_y.

    The y^k level is the avoidance series of the decreasing pattern of
    size k, exact in x: at y = 0 the radicand is (1 - x)^2, so the root
    has the rational y^0 level 1 - x and every level lies in Q(x).
    """
    if order_y < 1:
        raise ValueError("order_y must be at least 1")
    n = order_y - 1  # the factor y raises the order by one
    a = _y_poly(n, RationalFunction((1, 1)), RationalFunction((0, -1)))
    root = (a * a - _y_poly(n, RationalFunction((0, 4)))).sqrt(RationalFunction((1, -1)))
    quotient = (a - root) / _y_poly(n, RationalFunction((0, 2)), RationalFunction((0, -2)))
    return BivariateSeries((_ZERO,) + quotient.levels)


def psi_closed_series(order_y: int = 10) -> BivariateSeries:
    """Psi(x, y) = (u - sqrt(u^2 - 4x^2 (1-x) y)) / (2x), u = (1-x)(1-xy),
    expanded in y to y^order_y.

    The y^k level counts permutations containing the decreasing pattern
    of size k exactly once, exact in x; the root's y^0 level is 1 - x.
    """
    if order_y < 1:
        raise ValueError("order_y must be at least 1")
    c = RationalFunction((1, -1))
    u = _y_poly(order_y, c, RationalFunction((0, -1, 1)))
    root = (u * u - _y_poly(order_y, _ZERO, RationalFunction((0, 0, 4, -4)))).sqrt(c)
    return (u - root) / _y_poly(order_y, RationalFunction((0, 2)))


__all__ = [
    "avoid_gf",
    "once_gf",
    "phi_closed_series",
    "psi_closed_series",
]
