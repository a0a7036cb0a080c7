"""Exact generating functions for restricted 132-avoiding permutations.

``avoid_gf`` computes, for any pattern tau avoiding (1,3,2), the
rational series whose n-th coefficient counts the permutations in
S_n(132) that also avoid tau.  The recursion places the maximum of a
permutation and matches prefix/suffix patterns of tau around it; the
resulting equation mentions the unknown on both sides, so each level is
solved linearly (the divisor has constant term 1 and is never zero)
and recursion only ever descends to strictly shorter flattened
prefixes and suffixes, which guarantees termination.  Results are
memoized per flattened pattern.

``once_gf`` produces the analogous series for "contains tau exactly
once".  Exact closed forms exist for the families below (V_p denotes
the companion polynomials from ``pattgf.chebyshev``):

- single increasing run [k]:        x^k / V_k^2
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
- any other pattern ending in its maximum whose prefix occurs at least
  twice in it: the chain step G = x*F*G'/(1 - x*F') is then exact and
  recursion continues on the stripped pattern.

Everything else raises UnsupportedPattern (use the oracle for numeric
tables: ``pattgf oracle <pattern> --mode once``).

``phi_closed_series`` / ``psi_closed_series`` expand the bivariate
closed forms that aggregate the decreasing-pattern families, with y
marking the pattern size.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import BivariateSeries, Polynomial, RationalFunction, series_of
from .chebyshev import r_func, v_poly
from .errors import NotIn132Class, UnsupportedPattern
from .patterns import (
    FamilySpec,
    as_pattern,
    canonical_decompose,
    classify,
    contains_132,
    flatten,
    is_wedge,
    occurrence_count,
    prefix_pattern,
    suffix_pattern,
)

_X = RationalFunction.x()
_ONE = RationalFunction.one()

# memo tables keyed by flattened one-line notation; avoid and once modes
# are cached separately.  Entries are immutable once written, so
# concurrent duplicate computation is harmless.
_AVOID_MEMO: dict[tuple[int, ...], RationalFunction] = {(): RationalFunction.zero()}
_ONCE_MEMO: dict[tuple[int, ...], RationalFunction] = {(): RationalFunction.one()}


def _require_132_avoiding(pat: tuple[int, ...]) -> None:
    if contains_132(pat):
        raise NotIn132Class(
            f"pattern {pat} contains (1,3,2); its avoidance series is the "
            "Catalan generating function, which is not rational"
        )


def avoid_gf(pat: Sequence[int]) -> RationalFunction:
    """Rational series counting S_n(132) permutations that avoid ``pat``.

    >>> from pattgf.algebra import polynomial_str
    >>> f = avoid_gf((3, 2, 1))
    >>> polynomial_str(f.num), polynomial_str(f.den)
    ('1 - 2x + 2x^2', '1 - 3x + 3x^2 - x^3')
    """
    pat = as_pattern(pat)
    _require_132_avoiding(pat)
    return _avoid(flatten(pat))


def _avoid(pat: tuple[int, ...]) -> RationalFunction:
    hit = _AVOID_MEMO.get(pat)
    if hit is not None:
        return hit
    if len(pat) == 1:
        value = _ONE
    else:
        d = canonical_decompose(pat)
        r = d.r
        # prefixes -1 .. max(r-1, 0); index i lives at slot i+1
        f_pre = [_avoid(prefix_pattern(d, i)) for i in range(-1, max(r, 1))]
        if r == 0:
            value = _ONE / (_ONE - _X * f_pre[0 + 1])
        else:
            f_suf = [None] + [_avoid(suffix_pattern(d, i)) for i in range(1, r + 1)]
            rhs = _ONE
            for j in range(1, r):
                rhs = rhs + _X * (f_pre[j + 1] - f_pre[j]) * f_suf[j]
            rhs = rhs - _X * f_pre[r] * f_suf[r]
            divisor = _ONE - _X * f_pre[1] - _X * f_suf[r]
            value = rhs / divisor
    _AVOID_MEMO[pat] = value
    return value


def _three_layer_closed(k: int, m1: int, m2: int) -> RationalFunction:
    """Closed form for the three-layer pattern [k, m1, m2], radical free.

    With a = k-m1, b = m1-m2, c = m2 the value is

        (V_{a+b} V_{a+c-1} V_{b+c} + x^(a+c) V_{b-1} V_b)
        / (V_{a+b} V_{a+c} V_{b+c}).

    Exponent bookkeeping: the numerator's first product carries
    x^(-(a+b+c)+1/2) in U form and the denominator x^(1/2-(a+b+c)), so
    clearing x^((a+b+c)-1/2) leaves exactly the power x^(a+c) on the
    second numerator term and nothing else.
    """
    a, b, c = k - m1, m1 - m2, m2
    num = v_poly(a + b) * v_poly(a + c - 1) * v_poly(b + c) + (v_poly(b - 1) * v_poly(b)).shift(a + c)
    den = v_poly(a + b) * v_poly(a + c) * v_poly(b + c)
    return RationalFunction.from_polys(num, den)


def avoid_gf_closed(spec) -> RationalFunction:
    """Closed-form avoidance series for layered (up to three layers),
    wedge-top and general wedge patterns.

    Accepts a FamilySpec or a pattern in one-line notation; wedge
    patterns of size k all share the series R_k.
    """
    if not isinstance(spec, FamilySpec):
        pat = as_pattern(spec)
        if is_wedge(pat):
            return r_func(len(pat))
        spec = classify(pat)
    if spec.kind == "wedge-top":
        return r_func(spec.params[0])
    if spec.kind == "decreasing":
        spec = classify(spec.expand())
    if spec.kind == "layered":
        tops = spec.params
        if len(tops) <= 2:
            return r_func(tops[0])
        if len(tops) == 3:
            return _three_layer_closed(*tops)
        raise UnsupportedPattern(
            f"no closed avoidance form for layered patterns with {len(tops)} layers"
        )
    raise UnsupportedPattern(f"no closed avoidance form for {spec}")


def compute_gf(pat: Sequence[int], mode: str = "avoid", method: str = "auto") -> RationalFunction:
    """Unified entry point: ``mode`` avoid/once, ``method`` recursion,
    closed-form, or auto (closed form when one applies, else recursion).

    Exactly-once series exist only as closed forms, so ``mode="once"``
    with ``method="recursion"`` raises UnsupportedPattern.
    """
    if mode not in ("avoid", "once"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("auto", "recursion", "closed-form"):
        raise ValueError(f"unknown method {method!r}")
    if mode == "once":
        # every supported once-family is a closed form; none has a recursion
        if method == "recursion":
            raise UnsupportedPattern(
                "no exactly-once recursion is implemented; use method "
                "'closed-form' or 'auto', or the oracle for numeric tables"
            )
        return once_gf(pat)
    if method == "recursion":
        return avoid_gf(pat)
    if method == "closed-form":
        return avoid_gf_closed(pat)
    try:
        return avoid_gf_closed(pat)
    except UnsupportedPattern:
        return avoid_gf(pat)


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
    _require_132_avoiding(pat)
    return _once(flatten(pat))


def _once(pat: tuple[int, ...]) -> RationalFunction:
    hit = _ONCE_MEMO.get(pat)
    if hit is not None:
        return hit
    value = _once_dispatch(pat)
    _ONCE_MEMO[pat] = value
    return value


def _once_dispatch(pat: tuple[int, ...]) -> RationalFunction:
    k = len(pat)
    if k == 1:
        return _X
    fam = classify(pat)
    if fam.kind == "layered" and len(fam.params) == 1:
        return RationalFunction.from_polys(Polynomial.one().shift(k), v_poly(k) * v_poly(k))
    if fam.kind == "layered" and len(fam.params) == 2:
        m = min(fam.params[1], k - fam.params[1])
        den = v_poly(k) * v_poly(m) * v_poly(k - m - 1)
        return RationalFunction.from_polys(Polynomial.one().shift(k), den)
    if fam.kind == "wedge-top":
        _, m, p = fam.params
        q = max(p, m - p)
        num = (v_poly(m) * v_poly(m)).shift(k)
        den = v_poly(k) * v_poly(k) * v_poly(q - 1) * v_poly(q) * v_poly(m - q) * v_poly(m - q)
        return RationalFunction.from_polys(num, den)
    d = canonical_decompose(pat)
    if d.r == 0:
        head = prefix_pattern(d, 0)
        # The chain step is exact only when stripping the maximum leaves
        # a pattern occurring at least twice in pat; otherwise the head
        # factor would need a two-pattern series we cannot close.
        if occurrence_count(pat, head, cap=2) >= 2:
            f_head = _avoid(head)
            return _X * _avoid(pat) * _once(head) / (_ONE - _X * f_head)
    raise UnsupportedPattern(
        f"no exact once-series for pattern {pat}; the oracle can tabulate it "
        "(CLI: pattgf oracle <pattern> --mode once)"
    )


# -- bivariate closed forms ---------------------------------------------------


def phi_closed_series(order_x: int = 12, order_y: int = 10) -> BivariateSeries:
    """Expansion of the avoidance aggregate over decreasing patterns.

    Phi(x, y) = [y(1+x-xy) - y*sqrt((1+x-xy)^2 - 4x)] / [2x(1-y)];
    the y^k slice is the avoidance series of the decreasing pattern of
    size k.
    """
    if order_x < 1 or order_y < 1:
        raise ValueError("orders must be at least 1")
    nx, ny = order_x + 1, order_y  # margin for the division by x
    a = BivariateSeries.from_terms({(0, 0): 1, (1, 0): 1, (1, 1): -1}, nx, ny)
    radicand = a * a - BivariateSeries.from_terms({(1, 0): 4}, nx, ny)
    root = radicand.sqrt()
    numerator = (a - root).mul_y_power(1)
    one_minus_y = BivariateSeries.from_terms({(0, 0): 1, (0, 1): -1}, nx, numerator.order_y)
    value = (numerator / one_minus_y).div_x_exact(1).scale("1/2")
    return value.truncate(order_x, order_y)


def psi_closed_series(order_x: int = 12, order_y: int = 10) -> BivariateSeries:
    """Expansion of the exactly-once aggregate over decreasing patterns.

    Psi(x, y) = [(1-x)(1-xy) - sqrt((1-x)^2 (1-xy)^2 - 4x^2 (1-x) y)] / (2x);
    the y^k slice counts permutations containing the decreasing pattern
    of size k exactly once.
    """
    if order_x < 1 or order_y < 1:
        raise ValueError("orders must be at least 1")
    nx, ny = order_x + 1, order_y
    u = BivariateSeries.from_terms({(0, 0): 1, (1, 0): -1, (1, 1): -1, (2, 1): 1}, nx, ny)
    shift = BivariateSeries.from_terms({(2, 1): 4, (3, 1): -4}, nx, ny)
    root = (u * u - shift).sqrt()
    value = (u - root).div_x_exact(1).scale("1/2")
    return value.truncate(order_x, order_y)


def phi_functional_equation_residual(order_x: int, order_y: int) -> BivariateSeries:
    """Residual of Phi = y/(1-y) + x Phi (Phi/y - 1 - Phi) + x y Phi.

    This is the aggregate of the avoidance recursion over decreasing
    patterns: summing F_k = 1 + x F_2 F_{k-1} + x * sum_{j>=2}
    (F_{j+1} - F_j) F_{k-j} against y^k.  (The j = 1 telescoping term
    contributes F_2 alone because the 0-th prefix of a decreasing
    pattern is empty and the empty-pattern series is 0.)  The closed
    form solves exactly this equation: its quadratic in Phi has
    discriminant y^2 [(1+x-xy)^2 - 4x], the radicand of the closed
    form.  Computed with an internal y margin so Phi/y loses nothing;
    a correct expansion leaves the zero series on the whole requested
    rectangle.
    """
    phi = phi_closed_series(order_x, order_y + 1)
    nx, ny = order_x, order_y + 1
    one = BivariateSeries.from_terms({(0, 0): 1}, nx, ny)
    y_over = BivariateSeries.from_terms({(0, 1): 1}, nx, ny) / BivariateSeries.from_terms(
        {(0, 0): 1, (0, 1): -1}, nx, ny
    )
    inner = phi.div_y_exact(1) - one - phi
    rhs = y_over + (phi * inner).mul_x_power(1) + (phi.mul_x_power(1)).mul_y_power(1)
    return (phi - rhs).truncate(order_x, order_y)


def psi_functional_equation_residual(order_x: int, order_y: int) -> BivariateSeries:
    """Residual of (1-x)(Psi - xy) = x Psi^2 + x(1-x) y Psi."""
    psi = psi_closed_series(order_x, order_y)
    nx, ny = order_x, order_y
    one_minus_x = BivariateSeries.from_terms({(0, 0): 1, (1, 0): -1}, nx, ny)
    xy = BivariateSeries.from_terms({(1, 1): 1}, nx, ny)
    lhs = one_minus_x * (psi - xy)
    rhs = (psi * psi).mul_x_power(1) + (one_minus_x * psi).mul_x_power(1).mul_y_power(1)
    return (lhs - rhs).truncate(order_x, order_y)


__all__ = [
    "avoid_gf",
    "avoid_gf_closed",
    "compute_gf",
    "once_gf",
    "phi_closed_series",
    "psi_closed_series",
    "phi_functional_equation_residual",
    "psi_functional_equation_residual",
    "series_of",
]
