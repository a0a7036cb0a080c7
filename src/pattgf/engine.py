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
132-avoiders: ``avoid_gf`` and ``once_gf`` check their input
(``require_132_avoiding``), and ``once_gf``'s chain step passes only
checked 132-avoiders and their heads.

The level memo stores each solved level under its inputs: r and the
series of prefixes 0..r-1 and suffixes 1..r (for r = 0, prefix 0
alone; prefix -1 is empty and enters no term).  The level's equation
reads nothing else, so equal inputs give an equal solution.  Inputs
are compared by canonical form, which is unique, so a level met again
through a different pattern (Wilf-equivalent prefixes or suffixes
share their series) is solved once, and the value stored is the one a
fresh solve would return, canonical form included.

``once_gf`` produces the analogous series for "contains tau exactly
once".  It tries, in this order, the base case [1] = x, the closed
families below (V_p denotes the companion polynomials from
``pattgf.chebyshev``), then the chain step:

- two layers [k,m]:                 x^k / (V_k * V_m' * V_{k-m'-1}),
  where m' = min(m, k-m).  Inverting a permutation preserves both
  132-avoidance and occurrence counts while swapping [k,m] with
  [k,k-m], so both orientations share one series; brute-force
  verification fixes the smaller-m representative as the one matching
  the displayed product (the larger-m reading fails already at [3,2],
  n = 4: it predicts 3 where the true count is 2).
- wedge-top {k,m,p}:                x^k * V_m^2 /
  (V_k^2 * V_{q-1} * V_q * V_{m-q}^2) with q = max(p, m-p).  Derived by
  stripping trailing maxima down to [m,p] and solving the two-pattern
  boundary step exactly; the superficially simpler product
  x^k * V_m / (V_k^2 * V_{m-p-1} * V_p) fails brute force (already at
  {3,2,1}, n = 4: 3 instead of 2) because stripping the last maximum
  from {m+1,m,p} leaves a pattern with a unique occurrence inside it,
  which invalidates the unrestricted-chain shortcut at that step.
- the decreasing pattern k...1 (k >= 3):  the y^k level of Psi below,
  x^(k-1) N_{k-1}(x) / (1-x)^(k-1), where the m-th Narayana polynomial
  N_m(x) = sum_{j=1..m} (1/m) C(m,j) C(m,j-1) x^j starts at x^1.
- the chain step, for tau of size k ending in k-1, k:
  G = x*F*G'/(1 - x*F'), where F, F' are the avoidance series of tau
  and its head tau' = tau[:-1] and G' is the once series of tau'.  It
  is exact when tau' occurs at least twice in tau, which is exactly
  this shape: an occurrence other than tau' itself uses k, tau's last
  and largest entry, for the last entry of tau', which must then be
  k-1.  The increasing run [k] is reached this way from [1] and gets
  x^k / V_k^2.

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

from .algebra import BivariateSeries, Polynomial, RationalFunction
from .chebyshev import v_poly
from .errors import UnsupportedPattern
from .patterns import as_pattern, blocks, classify, inverse, require_132_avoiding

_X = RationalFunction.x()
_ONE = RationalFunction.one()
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
    """
    pat = as_pattern(pat)
    require_132_avoiding(pat)
    return _avoid(pat)


def _avoid(pat: tuple[int, ...]) -> RationalFunction:
    """The avoidance series of ``pat``, which must avoid (1,3,2)."""
    hit = _AVOID_MEMO.get(pat)
    if hit is not None:
        return hit
    if len(pat) == 1:
        value = _ONE
    else:
        r, prefixes, suffixes = blocks(pat)
        # pre[i] = F(prefix i) for i = 0 .. max(r-1, 0), suf[i-1] = F(suffix i)
        # for i = 1 .. r; F(prefix -1) = 0 enters no term
        pre = [_avoid(q) for q in prefixes]
        suf = [_avoid(q) for q in suffixes]
        key = (r, *pre, *suf)
        value = _LEVEL_MEMO.get(key)
        if value is None:
            if r == 0:
                value = _ONE / (_ONE - _X * pre[0])
            else:
                rhs = _ONE
                for j in range(1, r):
                    rhs = rhs + _X * (pre[j] - pre[j - 1]) * suf[j - 1]
                rhs = rhs - _X * pre[r - 1] * suf[r - 1]
                divisor = _ONE - _X * pre[0] - _X * suf[r - 1]
                value = rhs / divisor
            _LEVEL_MEMO[key] = value
    _AVOID_MEMO[pat] = _AVOID_MEMO[inverse(pat)] = value
    return value


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
    return _once(pat)


def _once(pat: tuple[int, ...]) -> RationalFunction:
    hit = _ONCE_MEMO.get(pat)
    if hit is not None:
        return hit
    k = len(pat)
    if k == 1:
        value = _X
    else:
        fam = classify(pat)
        if fam.kind == "layered" and len(fam.params) == 2:
            m = min(fam.params[1], k - fam.params[1])
            den = v_poly(k) * v_poly(m) * v_poly(k - m - 1)
            value = RationalFunction(Polynomial.one().shift(k), den)
        elif fam.kind == "layered" and len(fam.params) == k:
            # the decreasing pattern k...1: x^(k-1) N_(k-1)(x) / (1-x)^(k-1)
            m = k - 1
            num = Polynomial([0] * k + [comb(m, j) * comb(m, j - 1) // m for j in range(1, k)])
            den = Polynomial([(-1) ** j * comb(m, j) for j in range(k)])
            value = RationalFunction(num, den)
        elif fam.kind == "wedge-top":
            _, m, p = fam.params
            q = max(p, m - p)
            num = (v_poly(m) * v_poly(m)).shift(k)
            den = v_poly(k) * v_poly(k) * v_poly(q - 1) * v_poly(q) * v_poly(m - q) * v_poly(m - q)
            value = RationalFunction(num, den)
        elif pat[-2:] == (k - 1, k):
            # chain step: the head pat[:-1] occurs at least twice in pat
            head = pat[:-1]
            value = _X * _avoid(pat) * _once(head) / (_ONE - _X * _avoid(head))
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
    a = _y_poly(n, _ONE + _X, -_X)
    root = (a * a - _y_poly(n, 4 * _X)).sqrt(_ONE - _X)
    quotient = (a - root) / _y_poly(n, 2 * _X, -2 * _X)
    return BivariateSeries((_ZERO,) + quotient.levels)


def psi_closed_series(order_y: int = 10) -> BivariateSeries:
    """Psi(x, y) = (u - sqrt(u^2 - 4x^2 (1-x) y)) / (2x), u = (1-x)(1-xy),
    expanded in y to y^order_y.

    The y^k level counts permutations containing the decreasing pattern
    of size k exactly once, exact in x; the root's y^0 level is 1 - x.
    """
    if order_y < 1:
        raise ValueError("order_y must be at least 1")
    c = _ONE - _X
    u = _y_poly(order_y, c, -_X * c)
    root = (u * u - _y_poly(order_y, _ZERO, 4 * _X * _X * c)).sqrt(c)
    return (u - root) / _y_poly(order_y, 2 * _X)


__all__ = [
    "avoid_gf",
    "once_gf",
    "phi_closed_series",
    "psi_closed_series",
]
