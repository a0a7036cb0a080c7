"""Property-based checks.

Symbolic series against the counting DP: patterns are drawn from
S_k(132), k <= 8, and every generating function the engine returns must
expand to the DP oracle's table up to n = 20.

Exact algebra: integer and rational polynomials are drawn at random;
canonical forms must be integral, reduced and sign-normalized, obey the
field laws, survive JSON, and never produce a float.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pattgf.algebra import Polynomial, PowerSeries, RationalFunction, polynomial_gcd, series_of
from pattgf.chebyshev import r_func
from pattgf.engine import avoid_gf, once_gf
from pattgf.errors import UnsupportedPattern
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series

N = 20
S132 = [list(enumerate_avoiders(k)) for k in range(9)]
patterns_132 = st.integers(0, 8).flatmap(lambda k: st.sampled_from(S132[k]))


def coeffs(f) -> tuple[int, ...]:
    return tuple(int(c) for c in series_of(f, N).coeffs)


@settings(max_examples=30, deadline=None)
@given(patterns_132)
def test_gf_series_match_dp(tau):
    assert coeffs(avoid_gf(tau)) == series(ConstraintSpec(avoid=(tau,)), N).counts
    try:
        once = once_gf(tau)
    except UnsupportedPattern:
        return
    assert coeffs(once) == series(ConstraintSpec(contain=tau, t=1), N).counts


def integral(f) -> bool:
    return all(type(c) is int for c in f.num.coeffs + f.den.coeffs + series_of(f, N).coeffs)


@settings(max_examples=30, deadline=None)
@given(patterns_132, st.integers(1, 24))
def test_engine_results_are_integral(tau, p):
    assert integral(avoid_gf(tau))
    assert integral(r_func(p))
    try:
        once = once_gf(tau)
    except UnsupportedPattern:
        return
    assert integral(once)


int_polys = st.lists(st.integers(-6, 6), max_size=5).map(Polynomial)
rat_polys = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=4
).map(Polynomial)
polys = int_polys | rat_polys
nonzero_polys = polys.filter(lambda p: not p.is_zero)
functions = st.builds(RationalFunction, polys, nonzero_polys)
ALGEBRA = settings(max_examples=60, deadline=None)


@ALGEBRA
@given(polys, nonzero_polys, nonzero_polys)
def test_canonical_form(a, b, c):
    f = RationalFunction(a * c, b * c)
    assert f == RationalFunction(a, b)
    assert all(type(x) is int for x in f.num.coeffs + f.den.coeffs)
    assert polynomial_gcd(f.num, f.den).degree == 0
    assert gcd(*f.num.coeffs, *f.den.coeffs) == 1
    assert next(x for x in f.den.coeffs if x) > 0


@ALGEBRA
@given(functions, functions)
def test_field_laws(a, b):
    assert (a + b) - b == a
    if not b.is_zero:
        assert a * b / b == a


@ALGEBRA
@given(functions)
def test_json_round_trip(f):
    assert RationalFunction.from_json_dict(json.loads(json.dumps(f.as_json_dict()))) == f


@ALGEBRA
@given(int_polys, st.lists(st.integers(-6, 6), max_size=4))
def test_no_floats_when_den0_is_3(num, den_tail):
    f = RationalFunction(num, [3] + den_tail)
    value = f.value_at_zero()
    assert type(value) in (int, Fraction)
    assert value == Fraction(num.constant_term(), 3)
    s = series_of(f, 8)
    assert all(type(x) in (int, Fraction) for x in s.coeffs)
    assert PowerSeries.from_polynomial(f.den, 8) * s == PowerSeries.from_polynomial(f.num, 8)


def test_series_with_den0_3_is_exact():
    s = series_of(RationalFunction((1,), (3, -1)), 5)
    assert all(type(x) is Fraction for x in s.coeffs)
    assert s.coeffs == tuple(Fraction(1, 3 ** (n + 1)) for n in range(6))


@settings(max_examples=25, deadline=None)
@given(polys, nonzero_polys)
def test_normalize_agrees_with_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))

    f = RationalFunction(a, b)
    num, den = sympy.fraction(sympy.cancel(expr(a) / expr(b)))
    assert sympy.expand(num * expr(f.den) - den * expr(f.num)) == 0
    assert sympy.Poly(den, x).degree() == f.den.degree
