"""Acceptance suite: every exit criterion, exact equality, one line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; all comparisons are exact (integer/rational), never approximate.
"""

import time

from pattgf.algebra import Polynomial, RationalFunction, series_of
from pattgf.chebyshev import r_func, sweep_identities, v_poly
from pattgf.engine import avoid_gf, once_gf, phi_closed_series, psi_closed_series
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series
from pattgf.patterns import (
    decreasing,
    expand_layered,
    expand_wedge_top,
    increasing,
    iter_layered_specs,
)
from pattgf.relations import verify_relation


def report(number: int, description: str, started: float) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS  {description}  ({time.time() - started:.2f}s)")


def oracle_counts(n_max, avoid=(), contain=None):
    spec = ConstraintSpec(avoid=avoid, contain=contain) if contain else ConstraintSpec(avoid=avoid)
    return list(series(spec, n_max).counts)


def gf_coeffs(f, n_max):
    return [int(c) for c in series_of(f, n_max).coeffs]


def three_layer_closed(k, m1, m2):
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
    return RationalFunction(num, den)


def test_criterion_01_avoid_321_closed_form():
    t0 = time.time()
    assert avoid_gf((3, 2, 1)) == RationalFunction((1, -2, 2), (1, -3, 3, -1))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "avoid series of 321 equals (1-2x+2x^2)/(1-x)^3", t0)


def test_criterion_02_avoid_3214_closed_form():
    t0 = time.time()
    assert avoid_gf((3, 2, 1, 4)) == RationalFunction((1, -3, 3, -1), (1, -4, 5, -3))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, "avoid series of 3214 equals (1-x)^3/(1-4x+5x^2-3x^3)", t0)


def test_criterion_03_exhaustive_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for k in range(1, 6):
        for tau in enumerate_avoiders(k):
            assert gf_coeffs(avoid_gf(tau), 9) == oracle_counts(9, avoid=(tau,)), tau
            checked += 1
    assert checked == 64
    assert time.time() - t0 < 120.0
    report(3, f"engine matches brute force for all {checked} patterns, n <= 9", t0)


def test_criterion_04_two_layer_collapse():
    t0 = time.time()
    for k in range(2, 11):
        for m in range(1, k):
            assert avoid_gf(expand_layered((k, m))) == r_func(k), (k, m)
    assert avoid_gf(expand_layered((4, 2))) == RationalFunction((1, -2), (1, -3, 1))
    assert time.time() - t0 < 10.0
    report(4, "avoid series of [k,m] equals R_k for all 2 <= k <= 10", t0)


def test_criterion_05_three_layer_closed_form():
    t0 = time.time()
    for k in range(3, 9):
        for tops in iter_layered_specs(k, min_layers=3):
            if len(tops) > 3:
                continue
            assert avoid_gf(expand_layered(tops)) == three_layer_closed(*tops), tops
    report(5, "three-layer closed form exact for all k <= 8", t0)


def test_criterion_06_wedge_collapse(is_wedge):
    t0 = time.time()
    total = 0
    for k in range(1, 9):
        for w in filter(is_wedge, enumerate_avoiders(k)):
            assert avoid_gf(w) == r_func(k), w
            total += 1
    assert total == sum(2 ** (k - 1) for k in range(1, 9))
    w9 = (6, 4, 5, 7, 8, 3, 9, 1, 2)
    assert is_wedge(w9) and avoid_gf(w9) == r_func(9)
    report(6, f"all {total} wedge patterns of size <= 8, and one of size 9, collapse to R_k", t0)


def test_criterion_07_phi_slices_and_equation(phi_functional_equation_residual):
    t0 = time.time()
    phi = phi_closed_series(10)
    for k in range(1, 11):
        assert phi.levels[k] == avoid_gf(decreasing(k)), k
    assert phi_functional_equation_residual(10).is_zero
    report(7, "bivariate avoidance aggregate: slices exact in x, zero residual", t0)


def test_criterion_08_catalan_prefix(catalan):
    t0 = time.time()
    for k in range(1, 11):
        coeffs = gf_coeffs(avoid_gf(decreasing(k)), 9)
        for n in range(min(k, 10)):
            assert coeffs[n] == catalan(n), (k, n)
    report(8, "coefficients below the pattern size are Catalan numbers", t0)


def test_criterion_09_once_closed_forms():
    t0 = time.time()
    one = Polynomial.one()
    # single increasing run, k <= 10: x^k / V_k^2
    for k in range(1, 11):
        target = RationalFunction(one.shift(k), v_poly(k) * v_poly(k))
        assert once_gf(increasing(k)) == target, k
    # two layers, k <= 8, both orientations against the small-layer target
    for k in range(2, 9):
        for m in range(1, k):
            mm = min(m, k - m)
            target = RationalFunction(
                one.shift(k), v_poly(k) * v_poly(mm) * v_poly(k - mm - 1)
            )
            assert once_gf(expand_layered((k, m))) == target, (k, m)
    # wedge-top, k <= 8 (boundary-corrected product, see decisions notes)
    for k in range(3, 9):
        for m in range(2, k):
            for p in range(1, m):
                q = max(p, m - p)
                target = RationalFunction(
                    (v_poly(m) * v_poly(m)).shift(k),
                    v_poly(k) * v_poly(k) * v_poly(q - 1) * v_poly(q) * v_poly(m - q) * v_poly(m - q),
                )
                assert once_gf(expand_wedge_top(k, m, p)) == target, (k, m, p)
    # oracle agreement for every instance with k <= 5
    for k in range(1, 6):
        pats = [increasing(k)]
        pats += [expand_layered((k, m)) for m in range(1, k)]
        pats += [expand_wedge_top(k, m, p) for m in range(2, k) for p in range(1, m)]
        for pat in pats:
            assert gf_coeffs(once_gf(pat), 9) == oracle_counts(9, contain=pat), pat
    report(9, "exactly-once closed forms exact and oracle-verified", t0)


def test_criterion_10_psi_slices_and_equation(psi_functional_equation_residual):
    t0 = time.time()
    psi = psi_closed_series(10)
    for k in range(1, 11):
        assert gf_coeffs(psi.levels[k], 30) == oracle_counts(30, contain=decreasing(k)), k
    assert psi_functional_equation_residual(10).is_zero
    report(10, "bivariate exactly-once aggregate: slices exact in x, zero residual", t0)


def test_criterion_11_identity_sweep():
    t0 = time.time()
    results = sweep_identities(12)
    for part, (passes, total) in results.items():
        assert passes == total, part
        assert total > 0
    assert time.time() - t0 < 10.0
    report(11, "all six product identities exact for indices <= 12", t0)


def test_criterion_12_layered_recursions_numeric():
    t0 = time.time()
    checked = 0
    for k in range(2, 6):
        for tops in iter_layered_specs(k, min_layers=2):
            if len(tops) > 4:
                continue
            assert verify_relation("thm31", tops, terms=9).passed, ("thm31", tops)
            assert verify_relation("thm33", tops, terms=9).passed, ("thm33", tops)
            checked += 2
            if len(tops) >= 3:
                assert verify_relation("remark31", tops, terms=9).passed, ("remark31", tops)
                checked += 1
    report(12, f"layered exactly-once recursions hold ({checked} reports, n <= 9)", t0)
