"""Property-based checks.

Symbolic series against the counting DP: patterns are drawn from
S_k(132), k <= 9, and every generating function the engine returns must
expand to the DP oracle's table up to n = 25.  Instances of the six
V/U product identities are drawn with indices up to 24.

Inverse symmetry: constraint sets of two patterns from S_k(132),
k <= 5, must have the table of their inverses, and brute force's up to
n = 7; the relation checks' cache must serve both from one table.

Exact algebra: integer polynomials are drawn at random;
canonical forms must be integral, reduced and sign-normalized, obey the
field laws, survive JSON, and never produce a float; ``_plus``, the
package's one sum, must give sympy's cancelled sum over the lcm of the
denominators; the per-operation reference arithmetic (conftest's
``plain``) must give sympy's cancelled fraction and equal the raw pair
sent through the constructor, and the literals that skip the gcd must
return what the constructor returns; equal functions must hash equal.
The packed reader must agree with the full decode.  The engine's level
solve must equal the per-operation solve on drawn levels.
``vanishes`` must accept three identities, reject them once one
occurrence of an input is perturbed, and agree with the per-operation
arithmetic on both.
"""

import json
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from pattgf import algebra, engine, relations
from pattgf.algebra import Polynomial, RationalFunction, _plus, polynomial_gcd, series_of
from pattgf.chebyshev import check_identity, identity_instances, r_func, v_poly
from pattgf.engine import avoid_gf, once_gf
from pattgf.errors import UnsupportedPattern
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series
from pattgf.patterns import inverse, occurrence_count
from pattgf.relations import vanishes

N = 25
S132 = [list(enumerate_avoiders(k)) for k in range(10)]
patterns_132 = st.integers(0, 9).flatmap(lambda k: st.sampled_from(S132[k]))
patterns_up_to_5 = st.integers(0, 5).flatmap(lambda k: st.sampled_from(S132[k]))
identities = st.sampled_from(["i", "ii", "iii", "iv", "v", "vi"]).flatmap(
    lambda which: st.tuples(st.just(which), st.sampled_from(identity_instances(which, 24)))
)


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
    assert coeffs(once) == series(ConstraintSpec(contain=tau), N).counts


def brute_force_table(spec, n_max):
    """The table of ``spec`` counted over enumerated S_n(132)."""
    return tuple(
        sum(
            all(occurrence_count(pi, a) == 0 for a in spec.avoid)
            and (spec.contain is None or occurrence_count(pi, spec.contain) == 1)
            for pi in enumerate_avoiders(n)
        )
        for n in range(n_max + 1)
    )


@settings(max_examples=25, deadline=None)
@given(patterns_up_to_5, patterns_up_to_5, patterns_up_to_5, st.integers(0, 9))
def test_constraint_tables_are_inverse_symmetric(alpha, beta, gamma, n):
    """pi -> pi^-1 keeps S_n(132) and every occurrence count, so the table
    of (A, gamma) is that of (A^-1, gamma^-1), and the relation checks'
    cache serves both from the one table it builds."""
    for spec in (ConstraintSpec((alpha,), gamma), ConstraintSpec((alpha, beta))):
        contain = None if spec.contain is None else inverse(spec.contain)
        mirror = ConstraintSpec(tuple(map(inverse, spec.avoid)), contain)
        table = series(spec, n).counts
        assert series(mirror, n).counts == table
        if n <= 7:
            assert brute_force_table(spec, n) == table
        relations._SERIES_CACHE.clear()
        assert relations._oracle_series(n, spec.avoid, spec.contain).coeffs == table
        assert relations._oracle_series(n, mirror.avoid, mirror.contain).coeffs == table
        assert len(relations._SERIES_CACHE) == 1


@settings(max_examples=60, deadline=None)
@given(identities)
def test_identity_instances_hold(instance):
    which, params = instance
    assert check_identity(which, **params)


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


polys = st.lists(st.integers(-40, 40), max_size=6).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
functions = st.builds(RationalFunction, polys, nonzero_polys)
ALGEBRA = settings(max_examples=60, deadline=None)


# coefficients across several 64-bit slots: up to 2**130 in size, the
# values at the edge of a slot and zero digits drawn often
SLOT_EDGES = [0, 2**62, -(2**62), 2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**64, -(2**64)]
wide_ints = (
    st.sampled_from(SLOT_EDGES)
    | st.integers(-(2**130), 2**130)
    | st.integers(-(2**33), 2**33)
    | st.integers(-3, 3)
)
wide_lists = st.lists(wide_ints, max_size=7)
wide_polys = wide_lists.map(Polynomial)

# the engine's scale (degree <= 20, coefficients up to about 2**40) and
# coefficients across several slots
engine_factors = st.lists(st.integers(-(2**19), 2**19), max_size=8).map(Polynomial) | st.lists(
    wide_ints, max_size=4
).map(Polynomial)
engine_cofactors = (
    st.lists(st.integers(-(2**19), 2**19), max_size=13).map(Polynomial)
    | st.lists(wide_ints, max_size=5).map(Polynomial)
    | st.sampled_from([Polynomial(), Polynomial((1,)), Polynomial((-3,))])
)


@ALGEBRA
@given(wide_lists, wide_lists, st.integers(0, 3))
@example([2**63 - 1], [2**63 - 1], 0)  # the product leaves the 64-bit slot
@example([-(2**63)], [2**63], 1)  # -2**63 needs the 128-bit slot
@example([2**64, 0, 1], [-(2**64), 0, -1], 0)  # a sum drops back to the 64-bit slot
@example([1, 0, 0, 2**62], [2**62, 0, 1], 2)  # zero digits inside
@example([2**32 - 1] * 2, [2**31 - 1] * 2, 0)  # the bound's length term decides the slot
def test_wide_arithmetic_matches_schoolbook(schoolbook, a, b, k):
    """Packed +, -, *, shift, == and hash equal plain-list arithmetic,
    including on results whose bounds are loose."""
    p, q = Polynomial(a), Polynomial(b)
    ab = schoolbook.mul(a, b)
    for got, want in [
        (p, schoolbook.trim(a)),
        (p + q, schoolbook.add(a, b)),
        (p - q, schoolbook.add(a, b, -1)),
        (-p, schoolbook.add((), a, -1)),
        (p * q, ab),
        (p.shift(k), schoolbook.shift(a, k)),
        ((p * q + p) * q - q, schoolbook.add(schoolbook.mul(schoolbook.add(ab, a), b), b, -1)),
    ]:
        assert got.coeffs == want
        assert all(type(c) is int for c in got.coeffs)
        assert got == Polynomial(want) and hash(got) == hash(Polynomial(want))
        assert eval(repr(got)) == got
        assert got.degree == len(want) - 1
    assert (p == q) == (schoolbook.trim(a) == schoolbook.trim(b))


# digits of one 64-bit slot, at and beside each width of the packed reader's ladder
LADDER_EDGES = [s * 2 ** (b - 1) + e for b in (8, 16, 24, 32, 48, 64) for s in (1, -1) for e in (-1, 0, 1)]
slot_digits = st.lists(
    st.sampled_from([d for d in LADDER_EDGES if -(2**63) <= d < 2**63])
    | st.integers(-(2**63), 2**63 - 1)
    | st.integers(-(2**20), 2**20)
    | st.just(0),
    max_size=7,
)


@ALGEBRA
@given(slot_digits)
@example([2**63 - 1])  # the bit length counts a zero top slot
@example([5, 2**62])  # the same above a lower slot
@example([-(2**63)])
@example([3, -5])  # a negative leading coefficient
def test_packed_reader_agrees_with_the_decode(digits):
    """``algebra._read`` gives the length and value of ``_at_slot`` on any
    value packed at the 64-bit slot, and a bound at or above the exact bit
    length in the same 64-bit block; it declines exactly when a digit lies
    outside [-2**47, 2**47), past its widest width."""
    v = algebra._pack(digits, 64)
    exact, got = Polynomial._at_slot(v, 64), algebra._read(v)
    assert (got is None) == any(not -(2**47) <= d < 2**47 for d in digits)
    if got is None:
        return
    assert got.v == exact.v == v and got.n == exact.n
    assert exact.bits <= got.bits < 64
    assert got == exact and hash(got) == hash(exact) and got.coeffs == exact.coeffs


@ALGEBRA
@given(engine_factors, engine_cofactors, engine_cofactors)
@example(Polynomial(), Polynomial(), Polynomial())  # gcd(0, 0) = 0
@example(Polynomial((1, 1)), Polynomial(), Polynomial((2, 1)))  # gcd(0, b)
@example(Polynomial((1, 1)), Polynomial((-2, 1)), Polynomial())  # gcd(a, 0)
@example(Polynomial((2**64 + 1, 0, -(2**70))), Polynomial((3,)), Polynomial())  # a wide a, b = 0
@example(Polynomial((-(2**64), 5)), Polynomial(), Polynomial((-1,)))  # a = 0, a wide b
@example(Polynomial((6,)), Polynomial((1, 2)), Polynomial((4,)))  # a constant input
@example(Polynomial((1, -1, 1)), Polynomial((1,)), Polynomial((0, 2, 3)))  # a divides b
@example(Polynomial((0, 1)), Polynomial((1, -1)), Polynomial((2, 1)))  # the first xi fails
def test_gcd_matches_sympy(c, p, q):
    """A planted common factor c: polynomial_gcd(c p, c q) is sympy's gcd
    up to sign and content, and its cofactors multiply back exactly."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a, b = c * p, c * q
    g, qa, qb = polynomial_gcd(a, b)
    assert g * qa == a and g * qb == b
    ref = sympy.Poly(list(reversed(a.coeffs)) or [0], x, domain="ZZ").gcd(
        sympy.Poly(list(reversed(b.coeffs)) or [0], x, domain="ZZ")
    )
    if ref.is_zero:
        assert g.is_zero
        return
    want = tuple(int(v) for v in reversed(ref.primitive()[1].all_coeffs()))
    assert g.coeffs in (want, tuple(-v for v in want))
    assert gcd(*g.coeffs) == 1 and g.coeffs[-1] > 0


def assert_canonical(f):
    assert all(type(x) is int for x in f.num.coeffs + f.den.coeffs)
    assert polynomial_gcd(f.num, f.den)[0].degree == 0
    assert gcd(*f.num.coeffs, *f.den.coeffs) == 1
    assert next(x for x in f.den.coeffs if x) > 0


@ALGEBRA
@given(polys, nonzero_polys, nonzero_polys)
def test_canonical_form(a, b, c):
    f = RationalFunction(a * c, b * c)
    assert f == RationalFunction(a, b)
    assert_canonical(f)


small_polys = st.lists(st.integers(-9, 9), max_size=4).map(Polynomial)
factors = small_polys.filter(lambda p: p.degree > 0)
numerators = small_polys.filter(lambda p: not p.is_zero)


@st.composite
def planted_pairs(draw):
    """Two functions f, h; f's denominator holds the planted factor g, and
    h's is coprime to it, equal to it, a multiple of it or shares g.  The
    last two shapes make f + h cancel to zero or to a constant."""
    g, c1, c2 = draw(factors), draw(factors), draw(factors)
    n1, n2 = draw(numerators), draw(numerators)
    f = RationalFunction(n1, g * c1)
    shape = draw(st.sampled_from(["coprime", "equal", "divides", "shared", "zero", "constant"]))
    if shape == "coprime":
        return f, RationalFunction(n2, c2)
    if shape == "equal":
        return f, RationalFunction(n2, f.den)
    if shape == "divides":
        return f, RationalFunction(n2, f.den * c2)
    if shape == "shared":
        return f, RationalFunction(n2, g * c2)
    if shape == "zero":
        return f, RationalFunction(-f.num, f.den)
    return f, RationalFunction(Polynomial((draw(st.integers(-3, 3)),)) * f.den - f.num, f.den)


# besides the general functions: polynomials (f - f is zero) and
# denominators divisible by x (x * f cancels x)
operands = (
    functions
    | polys.map(RationalFunction)
    | st.builds(lambda a, b, j: RationalFunction(a, b.shift(j)), polys, nonzero_polys, st.integers(1, 2))
)


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def plus(f, h):
    """f + h by the package's one sum path: ``_plus``, then the constructor."""
    return RationalFunction(*_plus(f.num, f.den, h.num, h.den))


def sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"), domain="ZZ")


@ALGEBRA
@given(operands, operands)
@example(rf((1,), (1, -1)), rf((1,), (1, 1)))  # coprime denominators
@example(rf((1,), (1, -1)), rf((2, 1), (1, -1)))  # equal denominators
@example(rf((1,), (1, -1)), rf((1,), (1, -2, 1)))  # one divides the other
@example(rf((2,), (1, 0, -1)), rf((-3,), (2, -1, -1)))  # gcd = 1 - x
@example(rf((1, 2), (1, -3, 1)), rf((-1, -2), (1, -3, 1)))  # f + h = 0
@example(rf((1,), (2,)), rf((1,), (6,)))  # constant denominators with content
def test_plus_is_the_cancelled_sum_over_the_lcm(f, h):
    """``_plus`` returns a pair over d1 d2 / gcd(d1, d2), gcd primitive,
    or over d1 itself when d1 = d2; the constructor then gives sympy's
    cancellation of the plain sum, in canonical form."""
    fn, fd, hn, hd = map(sympy_poly, (f.num, f.den, h.num, h.den))
    n, d = _plus(f.num, f.den, h.num, h.den)
    if f.den == h.den:
        assert d == f.den
    else:
        g = fd.gcd(hd).primitive()[1]
        assert sympy_poly(d) * g in (fd * hd, -fd * hd)
    got = RationalFunction(n, d)
    num, den = (fn * hd + hn * fd).cancel(fd * hd, include=True)
    assert num * sympy_poly(got.den) == den * sympy_poly(got.num)
    assert den.degree() == got.den.degree
    assert_canonical(got)


@ALGEBRA
@given(planted_pairs() | st.tuples(operands, operands), st.integers(-6, 6))
@example((rf((0, 1)), rf((1,), (0, 1))), 2)  # x * (1/x): x divides den
@example((rf((1,)), rf((-2, 1), (1, 1))), 3)  # 1/f flips both signs
@example((rf((2, 1)), rf((2, 1))), 0)  # f - f = 0
@example((rf((1,), (1, -1)), rf((1,), (1, 1))), 1)  # coprime denominators
@example((rf((1,), (1, -1)), rf((2, 1), (1, -1))), 1)  # equal denominators
@example((rf((1,), (1, -1)), rf((1,), (1, -2, 1))), 1)  # one divides the other
@example((rf((2,), (1, 0, -1)), rf((-3,), (2, -1, -1))), 1)  # gcd(t, g) = 1 - x
@example((rf((1, 2), (1, -3, 1)), rf((-1, -2), (1, -3, 1))), 1)  # f + h = 0
@example((rf((0, 1), (1, -1)), rf((-1,), (1, -1))), 1)  # f + h = -1
@example((rf((1, 1), (1, -1)), rf((1, -1), (1, 2))), 1)  # 1 - x cancels across
def test_arithmetic_agrees_with_sympy(plain, pair, c):
    """The per-operation +, -, * and /, between two functions and with
    the constant c on the left, give sympy's cancellation of the plain
    fraction, in canonical form."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy_poly
    f, h = pair
    fn, fd, hn, hd, k = poly(f.num), poly(f.den), poly(h.num), poly(h.den), sympy.Poly(c, x, domain="ZZ")
    kf = rf((c,))
    cases = [
        (plain.add(f, h), fn * hd + hn * fd, fd * hd),
        (plain.sub(f, h), fn * hd - hn * fd, fd * hd),
        (plain.mul(f, h), fn * hn, fd * hd),
        (plain.add(kf, f), k * fd + fn, fd),
        (plain.sub(kf, f), k * fd - fn, fd),
        (plain.mul(kf, f), k * fn, fd),
    ]
    if not h.is_zero:
        cases.append((plain.div(f, h), fn * hd, fd * hn))
    if not f.is_zero:
        cases.append((plain.div(kf, f), k * fd, fn))
    for got, raw_num, raw_den in cases:
        num, den = raw_num.cancel(raw_den, include=True)
        assert num * poly(got.den) == den * poly(got.num)
        assert den.degree() == got.den.degree
        assert_canonical(got)


@ALGEBRA
@given(operands, st.integers(-6, 6) | polys, st.integers(0, 3))
@example(RationalFunction((1,), (0, 1)), 2, 1)  # x * (1/x): x divides den
@example(RationalFunction((-2, 1), (1, 1)), Polynomial((0, 3)), 0)  # 1/f flips both signs
@example(RationalFunction((2, 1)), Polynomial((2, 1)), 2)  # f - p = 0 = f - f
def test_fast_paths_match_normalize(plain, f, c, k):
    """Negation, sums and differences with a polynomial or a constant,
    products with x**k and reciprocals, per operation and, for sums and
    differences, by ``_plus``, equal the raw pair sent through the
    constructor."""
    p = c if isinstance(c, Polynomial) else Polynomial((c,))
    q, xk, zero = RationalFunction(p), RationalFunction.x(k), RationalFunction.zero()
    num, den = f.num, f.den
    cases = [
        (plain.sub(zero, f), -num, den),
        (plain.add(f, q), num + p * den, den),
        (plain.add(q, f), p * den + num, den),
        (plain.sub(f, q), num - p * den, den),
        (plain.sub(q, f), p * den - num, den),
        (plain.sub(f, f), Polynomial(), den),
        (plain.mul(xk, f), num.shift(k), den),
        (plain.mul(f, xk), num.shift(k), den),
        (plus(f, q), num + p * den, den),
        (plus(q, f), p * den + num, den),
        (plus(f, RationalFunction(-p)), num - p * den, den),
        (plus(f, RationalFunction(-num, den)), Polynomial(), den),
    ]
    if not f.is_zero:
        cases.append((plain.div(RationalFunction.one(), f), den, num))
    for got, raw_num, raw_den in cases:
        assert got == RationalFunction(raw_num, raw_den)
        assert_canonical(got)


@ALGEBRA
@given(planted_pairs())
@example((rf((1,), (1, -1)), rf((1,), (1, 1))))  # coprime denominators
@example((rf((1,), (1, -1)), rf((2, 1), (1, -1))))  # equal denominators
@example((rf((1,), (1, -1)), rf((1,), (1, -2, 1))))  # one divides the other
@example((rf((2,), (1, 0, -1)), rf((-3,), (2, -1, -1))))  # gcd(t, g) = 1 - x
@example((rf((1, 2), (1, -3, 1)), rf((-1, -2), (1, -3, 1))))  # f + h = 0
@example((rf((0, 1), (1, -1)), rf((-1,), (1, -1))))  # f + h = -1
@example((rf((1, 1), (1, -1)), rf((1, -1), (1, 2))))  # 1 - x cancels across
def test_operand_cancelling_matches_normalize(plain, pair):
    """Sums, products and quotients whose operands share factors, per
    operation and, for sums and differences, by ``_plus``, equal the
    uncancelled pair sent through the constructor."""
    f, h = pair
    a, b, c, d = f.num, f.den, h.num, h.den
    cases = [
        (plain.add(f, h), a * d + c * b, b * d),
        (plain.sub(f, h), a * d - c * b, b * d),
        (plain.mul(f, h), a * c, b * d),
        (plus(f, h), a * d + c * b, b * d),
        (plus(f, RationalFunction(-c, d)), a * d - c * b, b * d),
    ]
    if not h.is_zero:
        cases.append((plain.div(f, h), a * d, b * c))
    for got, raw_num, raw_den in cases:
        assert got == RationalFunction(raw_num, raw_den)
        assert_canonical(got)


@pytest.mark.parametrize("p", range(1, 61))
def test_literals_match_normalize(p):
    """R_p, x**p, zero and one skip _normalize too."""
    one = Polynomial.one()
    cases = [
        (r_func(p), v_poly(p - 1), v_poly(p)),
        (RationalFunction.x(p), Polynomial.x(p), one),
    ]
    if p == 1:
        cases += [
            (RationalFunction.zero(), Polynomial(), one),
            (RationalFunction.one(), one, one),
        ]
    for got, raw_num, raw_den in cases:
        assert got == RationalFunction(raw_num, raw_den)
        assert_canonical(got)


@ALGEBRA
@given(functions, functions)
def test_field_laws(plain, a, b):
    assert plain.sub(plain.add(a, b), b) == a
    if not b.is_zero:
        assert plain.div(plain.mul(a, b), b) == a


@st.composite
def level_inputs(draw):
    """r = 1..4 and the 2r canonical inputs of one avoid level, P_0..P_(r-1)
    then S_1..S_r.  Each denominator has constant term 1, as every avoid
    series' has, and is drawn from a pool of two, so that equal
    denominators meet; numerators and denominators reach past one slot."""
    r = draw(st.integers(1, 4))
    tails = st.lists(st.integers(-40, 40) | st.sampled_from(SLOT_EDGES), max_size=4)
    dens = [Polynomial((1, *draw(tails))) for _ in range(2)]
    inputs = [RationalFunction(draw(polys | wide_polys), draw(st.sampled_from(dens))) for _ in range(2 * r)]
    return r, inputs[:r], inputs[r:]


_GEOMETRIC = RationalFunction((1,), (1, -1))
# P_0's denominator 1 + 2**32 x divides the running denominator
# (1 + 2**29 x)(1 + 2**32 x), whose coefficients fit the 64-bit slot,
# but the certificate's 33 + 30 + 1 bits do not
_WIDE_QUOTIENT = (
    2,
    [RationalFunction((1,), (1, 2**32)), RationalFunction((1,), (1, 2**29))],
    [RationalFunction.one(), RationalFunction.one()],
)


@ALGEBRA
@given(level_inputs())
@example((2, [_GEOMETRIC, _GEOMETRIC], [_GEOMETRIC, _GEOMETRIC]))  # P_1 - P_0 = 0, one denominator
@example(_WIDE_QUOTIENT)
@example((1, [RationalFunction.zero()], [RationalFunction.one()]))  # a zero input: F = 1 / (1 - x)
def test_level_solve_equals_the_per_operation_solve(level_by_operations, level):
    """``engine._level`` sums over lcms, finds P_0 + S_r over the running
    denominator by exact division and takes one gcd at the end; its
    result equals the per-operation solve exactly and is canonical."""
    r, pre, suf = level
    got = engine._level(r, pre, suf)
    assert got == level_by_operations(r, pre, suf)
    assert_canonical(got)
    assert RationalFunction(got.num, got.den) == got


def test_level_division_moves_to_a_wider_slot(monkeypatch, level_by_operations):
    """The exact division of the running denominator by P_0's is certified
    as the gcd's cofactors are, and retried at a wider slot when the
    certificate fails."""
    cofactor, widths = algebra._cofactor, []

    def watched(v, vh, h, w):
        q = cofactor(v, vh, h, w)
        if h is _WIDE_QUOTIENT[1][0].den:
            widths.append((w, q is not None))
        return q

    monkeypatch.setattr(algebra, "_cofactor", watched)
    assert engine._level(*_WIDE_QUOTIENT) == level_by_operations(*_WIDE_QUOTIENT)
    assert widths == [(64, False), (128, True)]


@st.composite
def identity_inputs(draw):
    """f, g, h nonzero and canonical, with wide coefficients and with
    denominators drawn from two, so that equal ones are shared; and a
    nonzero perturbation d."""
    nonzero = (polys | wide_polys).filter(lambda p: not p.is_zero)
    dens = [draw(nonzero), draw(nonzero)]
    f, g, h = (RationalFunction(draw(nonzero), draw(st.sampled_from(dens))) for _ in range(3))
    return f, g, h, RationalFunction(draw(nonzero), draw(nonzero))


class Exact:
    """A ``RationalFunction`` whose +, - and * are the per-operation
    helpers', so that an identity written for ``vanishes`` also runs on
    the functions themselves."""

    __slots__ = ("f", "ops")

    def __init__(self, f, ops):
        self.f, self.ops = f, ops

    def __add__(self, other):
        return Exact(self.ops.add(self.f, other.f), self.ops)

    def __sub__(self, other):
        return Exact(self.ops.sub(self.f, other.f), self.ops)

    def __mul__(self, other):
        return Exact(self.ops.mul(self.f, other.f), self.ops)


# p is f in one place: (f + g)h - fh - gh, (f - g)(f + g) - ff + gg and
# (f - g)(f + g)h - ffh + ggh read -dh, -df and -dfh when p = f + d
IDENTITIES = [
    lambda one, x, f, g, h, p: (f + g) * h - p * h - g * h,
    lambda one, x, f, g, h, p: (f - g) * (f + g) - p * f + g * g,
    lambda one, x, f, g, h, p: (f - g) * (f + g) * h - p * f * h + g * g * h,
]


@ALGEBRA
@given(identity_inputs())
@example((RationalFunction.x(), RationalFunction((2**62,)), RationalFunction.one(), RationalFunction.one()))
@example((  # w0 = 128, and each identity's bound needs a second run
    RationalFunction((2**100, 1), (1, -3)), RationalFunction((-(2**90),), (1, -3)),
    RationalFunction((1, 2**80), (1, 1, 1)), RationalFunction.x(),
))
@example((  # f, g and h share 1 - x - x^2, whose exponent reaches 3
    RationalFunction((3, 1), (1, -1, -1)), RationalFunction((-2,), (1, -1, -1)),
    RationalFunction((0, 5), (1, -1, -1)), RationalFunction((1,), (1, -1, -1)),
))
def test_vanishes_agrees_with_rational_arithmetic(plain, inputs):
    f, g, h, d = inputs
    one, x = RationalFunction.one(), RationalFunction.x()
    for expr in IDENTITIES:
        for p, holds in ((f, True), (plain.add(f, d), False)):
            assert vanishes(expr, f, g, h, p) is holds
            values = (Exact(v, plain) for v in (one, x, f, g, h, p))
            assert expr(*values).f.is_zero is holds


@ALGEBRA
@given(functions)
def test_json_round_trip(f):
    assert RationalFunction.from_json_dict(json.loads(json.dumps(f.as_json_dict()))) == f


@ALGEBRA
@given(functions, functions, nonzero_polys)
def test_equal_functions_hash_equal(plain, f, g, c):
    """A function built again by the constructor from a scaled pair, by
    + and -, by * and /, or from JSON compares equal to it, hashes equal
    and finds it as a dict key: the engine's level memo and the series
    memo are keyed by value."""
    twins = [
        RationalFunction(f.num * c, f.den * c),
        plain.sub(plain.add(f, g), g),
        RationalFunction.from_json_dict(json.loads(json.dumps(f.as_json_dict()))),
    ]
    if not g.is_zero:
        twins.append(plain.div(plain.mul(f, g), g))
    memo = {f: f}
    for twin in twins:
        assert twin == f and hash(twin) == hash(f)
        assert memo[twin] is f
    assert len({f, *twins}) == 1


@ALGEBRA
@given(polys, st.sampled_from([2, 3, 5]), st.lists(st.integers(-6, 6), max_size=4), st.integers(0, 30))
def test_series_of_refuses_a_series_outside_z(num, den0, den_tail, order):
    """A canonical denominator with constant term other than 1 has a
    series outside Z[[x]] (Fatou's lemma), and ``series_of`` refuses it."""
    f = RationalFunction(num, [den0] + den_tail)
    if f.den.constant_term() == 1:  # a common factor cancelled den0
        assert all(type(x) is int for x in series_of(f, order).coeffs)
    else:
        with pytest.raises(ValueError, match=r"not in Z\[\[x\]\]"):
            series_of(f, order)


@ALGEBRA
@given(
    polys,
    st.just(1),
    st.lists(st.integers(-40, 40) | st.integers(-(2**64), 2**64), max_size=7),
    st.integers(0, 30),
)
@example(Polynomial((1,)), 1, [-(2**100)], 30)  # 2**(100 n)
@example(Polynomial((1,)), 1, [-1, 2**100, -(2**100)], 30)  # root moduli 1 and 2**50
def test_series_of_matches_the_recurrence(recurrence, schoolbook, num, den0, den_tail, order):
    """``series_of`` equals the ``Fraction`` term recurrence, and its
    residual vanishes: series * den = num through x**order."""
    f = RationalFunction(num, [den0] + den_tail)
    got = series_of(f, order).coeffs
    assert got == recurrence(f, order)
    low = schoolbook.mul(f.den.coeffs, got)[: order + 1]
    assert schoolbook.trim(low) == schoolbook.trim(f.num.coeffs[: order + 1])


def test_series_of_refuses_den0_3():
    # 1/(3 - x) = sum x**n / 3**(n+1)
    with pytest.raises(ValueError, match="constant term is 3, not 1"):
        series_of(RationalFunction((1,), (3, -1)), 5)


@settings(max_examples=25, deadline=None)
@given(polys | wide_polys, nonzero_polys | wide_polys.filter(lambda p: not p.is_zero))
def test_normalize_agrees_with_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def expr(p):
        return sum(c * x**i for i, c in enumerate(p.coeffs))

    f = RationalFunction(a, b)
    num, den = sympy.fraction(sympy.cancel(expr(a) / expr(b)))
    assert sympy.expand(num * expr(f.den) - den * expr(f.num)) == 0
    assert sympy.Poly(den, x).degree() == f.den.degree
