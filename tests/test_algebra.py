import json
import random
from fractions import Fraction

import pytest

from pattgf import algebra
from pattgf.algebra import (
    BivariateSeries,
    Polynomial,
    PowerSeries,
    RationalFunction,
    polynomial_gcd,
    polynomial_str,
    series_of,
)
from pattgf.relations import vanishes


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def plus(f, g):
    """f + g by the package's one sum path: ``_plus``, then the constructor."""
    return RationalFunction(*algebra._plus(f.num, f.den, g.num, g.den))


def rand_poly(rng, degree, zero_ok=True):
    while True:
        p = Polynomial([rng.randint(-6, 6) for _ in range(degree + 1)])
        if zero_ok or not p.is_zero:
            return p


def rand_unit_den(rng, degree):
    """A random denominator with constant term 1 or -1; canonical form
    turns -1 into 1, so its series lies in Z[[x]]."""
    return Polynomial([rng.choice((1, -1))] + [rng.randint(-6, 6) for _ in range(degree)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial.x(-1),
        lambda: RationalFunction.x(-2),
        lambda: Polynomial((1, 2)).shift(-1),
        lambda: Polynomial().shift(-1),
    ],
    ids=[
        "Polynomial.x",
        "RationalFunction.x",
        "Polynomial.shift",
        "Polynomial.shift-zero",
    ],
)
def test_negative_power_raises(call):
    with pytest.raises(ValueError, match="power must be at least 0"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial((1,)) * 2,
        lambda: 2 * Polynomial((1,)),
        lambda: Polynomial((1,)) + 1,
        lambda: Polynomial((1,)) - 1,
        lambda: 1 - Polynomial((1,)),
        lambda: PowerSeries((1,)) + 1,
        lambda: PowerSeries((1,)) - 1,
        lambda: PowerSeries((1,)) * 2,
        lambda: BivariateSeries([RationalFunction.one()]) + 1,
        lambda: BivariateSeries([RationalFunction.one()]) - 1,
        lambda: BivariateSeries([RationalFunction.one()]) * 2,
        lambda: BivariateSeries([RationalFunction.one()]) / 2,
    ],
    ids=[
        "Polynomial*int",
        "int*Polynomial",
        "Polynomial+int",
        "Polynomial-int",
        "int-Polynomial",
        "PowerSeries+int",
        "PowerSeries-int",
        "PowerSeries*int",
        "BivariateSeries+int",
        "BivariateSeries-int",
        "BivariateSeries*int",
        "BivariateSeries/int",
    ],
)
def test_foreign_operands_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


class TestPolynomial:
    @pytest.mark.parametrize("c", [Fraction(1, 2), "1/2", 0.5], ids=["Fraction", "str", "float"])
    def test_non_integer_coefficient_raises(self, c):
        with pytest.raises(TypeError):
            Polynomial((1, c))
        with pytest.raises(TypeError):
            rf((c,))

    @pytest.mark.parametrize(
        "c", [Fraction(1, 2), Fraction(4, 2), "1/2", 0.5], ids=["Fraction", "integral-Fraction", "str", "float"]
    )
    def test_series_coefficient_must_be_int(self, c):
        # a series lies in Z[[x]], so even an integral Fraction is refused
        with pytest.raises(TypeError):
            PowerSeries((1, c))

    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).is_zero

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        q = Polynomial((1, -1))
        assert p * q == Polynomial((1, 0, -1))
        assert p + q == Polynomial((2,))
        assert p - p == Polynomial.zero()
        assert p.shift(2) == Polynomial((0, 0, 1, 1))

    def test_gcd(self):
        a = Polynomial((1, -1)) * Polynomial((1, 1)) * Polynomial((2, 3))
        b = Polynomial((1, -1)) * Polynomial((5, 7))
        g, qa, qb = polynomial_gcd(a, b)
        assert g == Polynomial((-1, 1))
        assert g * qa == a and g * qb == b
        assert polynomial_gcd(Polynomial((2,)), Polynomial((4,))) == (
            Polynomial((1,)),
            Polynomial((2,)),
            Polynomial((4,)),
        )

    def test_gcd_retries_past_a_spurious_candidate(self, monkeypatch):
        # a = x - 3*2**61 and b = x + 2**62 give a(xi) = 5*2**61 and
        # b(xi) = 5*2**62 at xi = 2**64, whose gcd 5*2**61 has the balanced
        # digits -3*2**61, 1: the candidate is a itself, and a(xi) divides
        # b(xi) with quotient 2, but 2a = 2x - 3*2**62 leaves the 64-bit
        # slot.  Times the common factor 1 + x the candidate is a(1 + x);
        # xi = 2**128 then gives the gcd 1 + x
        certify = algebra._cofactor
        candidates = []

        def watched(v, vh, h, w):
            q = certify(v, vh, h, w)
            candidates.append((w, h.coeffs, q))
            return q

        monkeypatch.setattr(algebra, "_cofactor", watched)
        a, b, g = Polynomial((-3 * 2**61, 1)), Polynomial((2**62, 1)), Polynomial((1, 1))
        assert polynomial_gcd(a, b) == (Polynomial.one(), a, b)
        assert candidates == [(64, a.coeffs, None)]
        candidates.clear()
        assert polynomial_gcd(a * g, b * g) == (g, a, b)
        assert [(w, h) for w, h, _ in candidates] == [(64, (a * g).coeffs), (128, g.coeffs), (128, g.coeffs)]
        assert candidates[0][2] is None

    def test_packed_reader_boundaries(self):
        read = algebra._read
        assert read(0) == Polynomial.zero()
        p = read(algebra._pack([3, -5], 64))  # a negative leading coefficient
        assert (p.coeffs, p.n, p.bits) == ((3, -5), 2, 8)
        # -2**47 is the widest digit the ladder holds, with the bound 48;
        # 2**47 is just past it
        p = read(algebra._pack([1, -(2**47)], 64))
        assert (p.coeffs, p.n, p.bits) == ((1, -(2**47)), 2, 48)
        assert read(algebra._pack([1, 2**47], 64)) is None
        # 2**63 - 1 fills its slot, and its bit length counts a zero top slot
        assert read(2**63 - 1) is None
        assert read(algebra._pack([5, 2**62], 64)) is None

    @pytest.mark.parametrize(
        "common, p, q, decodes",
        [
            # gamma's constant digit is -1: h is read off gamma, and nothing is decoded
            ((1, -1), (2, 1), (3, -1), 0),
            # the content 2 sends gamma to the digit path
            ((2, 2), (3, 1), (-5, 1), 1),
            # h = 1 + 2**33 x is read with the bound 48, too loose beside the
            # cofactor 2**24 + x read with 32: that cofactor is decoded, and
            # the exact bounds 34 + 25 + 1 certify it at xi = 2**64
            ((1, 2**33), (2**24, 1), (3, 1), 1),
        ],
        ids=["unit-constant-digit", "content-2", "loose-bound"],
    )
    def test_gcd_reads_bounds_off_packed_values(self, monkeypatch, common, p, q, decodes):
        g = Polynomial(common)
        a, b = g * Polynomial(p), g * Polynomial(q)
        all_digits, widths = algebra._all_digits, []
        monkeypatch.setattr(algebra, "_all_digits", lambda v, w: widths.append(w) or all_digits(v, w))
        got = polynomial_gcd(a, b)
        assert widths == [64] * decodes
        assert got[0] * got[1] == a and got[0] * got[2] == b
        # the decoded path gives the same triple
        monkeypatch.setattr(algebra, "_read", lambda v: None)
        assert polynomial_gcd(a, b) == got

    def test_repr_round_trips(self):
        assert repr(Polynomial((1, -2, 2))) == "Polynomial([1, -2, 2])"
        for p in [(), (7,), (1, -2, 2), (0, -3, 0, 5), (2**40 + 1, -(2**36), 1)]:
            assert eval(repr(Polynomial(p))) == Polynomial(p)


class TestRationalFunction:
    def test_common_denominator(self):
        assert plus(rf((1,), (1, -1)), rf((0, 1), (1, -1))) == rf((1, 1), (1, -1))
        # equal denominators that then cancel: 1/(1-x^2) + x/(1-x^2) = 1/(1-x)
        assert plus(rf((1,), (1, 0, -1)), rf((0, 1), (1, 0, -1))) == rf((1,), (1, -1))

    def test_cancellation_to_canonical(self, plain):
        assert plain.mul(rf((1,), (1, -1)), rf((1, -1))) == RationalFunction.one()

    def test_solve_step_matches_known_display(self, plain):
        # 1 / (1 - x*(1-2x+2x^2)/(1-x)^3) == (1-x)^3 / (1-4x+5x^2-3x^3)
        inner = rf((1, -2, 2), (1, -3, 3, -1))
        one = RationalFunction.one()
        value = plain.div(one, plain.sub(one, plain.mul(RationalFunction.x(), inner)))
        assert value == rf((1, -3, 3, -1), (1, -4, 5, -3))

    def test_normalization_clears_to_integers(self, plain):
        # (1/2 + x/3) / (1/6) = 3 + 2x
        half, third, sixth = rf((1,), (2,)), rf((1,), (3,)), rf((1,), (6,))
        f = plain.div(plain.add(half, plain.mul(third, RationalFunction.x())), sixth)
        assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)
        assert f == rf((3, 2), (1,))

    def test_denominator_sign_normalized(self):
        f = rf((1,), (-1, 1))
        assert f.den.coeffs[0] > 0
        assert f == rf((-1,), (1, -1))

    def test_normalization_idempotent_and_cancel(self, plain):
        rng = random.Random(11)
        for _ in range(60):
            a = RationalFunction(rand_poly(rng, 3), rand_poly(rng, 3, zero_ok=False))
            b = RationalFunction(rand_poly(rng, 2, zero_ok=False), rand_poly(rng, 2, zero_ok=False))
            again = RationalFunction(a.num, a.den)
            assert again == a
            assert plain.div(plain.mul(a, b), b) == a

    @pytest.mark.parametrize(
        "op",
        [
            lambda f: RationalFunction.one() + 0.5,
            lambda f: 0.5 + f,
            lambda f: f * "1/2",
            lambda f: f / 0.5,
            lambda f: 0.5 / f,
            lambda f: f - 0.5,
            lambda f: 0.5 - f,
        ],
        ids=["one+float", "float+f", "f*str", "f/float", "float/f", "f-float", "float-f"],
    )
    def test_other_operands_raise_type_error(self, op):
        with pytest.raises(TypeError):
            op(rf((1,), (1, -1)))

    def test_division_by_zero(self, plain):
        with pytest.raises(ZeroDivisionError):
            plain.div(RationalFunction.one(), RationalFunction.zero())
        with pytest.raises(ZeroDivisionError):
            rf((1,), ())

    def test_json_roundtrip_bit_exact(self):
        f = rf((1, -2, 2), (1, -3, 3, -1))
        blob = json.dumps(f.as_json_dict())
        assert RationalFunction.from_json_dict(json.loads(blob)) == f

    def test_latex(self):
        assert rf((1, -1), (1, -2)).latex() == "\\frac{1 - x}{1 - 2x}"

    def test_str(self):
        assert polynomial_str(Polynomial((1, -2, 2))) == "1 - 2x + 2x^2"
        assert str(rf((0, 0, 1), (1, -1))) == "(x^2) / (1 - x)"


class TestVanishes:
    def test_slot_comes_from_the_bound(self):
        # f = x and g = 2**62 both sit in 64-bit slots, where f - 4g reads 0
        # at x = 2**64; the bound |f - 4g|_1 = 2**64 + 1 moves X to 2**128
        f, g = RationalFunction.x(), rf((2**62,))
        assert f.num.bits < 64 and g.num.bits < 64 and f.num.v == 4 * g.num.v
        assert not vanishes(lambda one, x, f, g: f - g - g - g - g, f, g)
        assert vanishes(lambda one, x, f, g: f - x - g + g, f, g)

    def test_bound_beyond_the_inputs_slot(self):
        # both inputs sit in 64-bit slots, but the bound on the square
        # identity exceeds 2**63, so the second run decides; minus f - 4g,
        # which reads 0 at x = 2**64, it is nonzero and must stay False
        f, g = RationalFunction.x(), rf((2**62,))

        def square(one, x, f, g):
            return (f + g) * (f + g) - f * f - (g + g) * f - g * g

        assert vanishes(square, f, g)
        assert not vanishes(lambda one, x, f, g: square(one, x, f, g) - (f - g - g - g - g), f, g)
        # wide inputs with denominators: w0 = 128 and a bound near 2**442
        a, b = rf((2**100, 1), (1, -3)), rf((1, -(2**90)), (1, 2**70))
        assert vanishes(lambda one, x, a, b: (a - b) * (a + b) * a - a * a * a + b * b * a, a, b)
        assert not vanishes(lambda one, x, a, b: (a - b) * (a + b) * a - a * a * a + b * a * a, a, b)

    def test_norm_memo_keys_on_value_and_slot(self):
        # x and the constant 2**64 share v = 2**64, at slots 64 and 128; a
        # norm memo keyed on v alone would hand one the other's l1 norm
        f, g = RationalFunction.x(), rf((2**64,))
        assert f.num.v == g.num.v and f.num.bits | 63 != g.num.bits | 63
        for a, b in ((f, g), (g, f), (f, g)):
            assert not vanishes(lambda one, x, a, b: a - b, a, b)
            assert vanishes(lambda one, x, a, b: a - b + b - a, a, b)

    def test_shared_and_distinct_denominators(self):
        a, b = rf((1,), (1, -1)), rf((2, 1), (1, -1))
        c = rf((1,), (1, -2))
        assert vanishes(lambda one, x, a, b, c: (a + b) * c - a * c - b * c, a, b, c)
        assert vanishes(lambda one, x, a, b: a * b - b * a + (a - a) * x, a, b)
        # 1/(1-x) - 1 = x/(1-x)
        assert vanishes(lambda one, x, a: a - one - x * a, a)
        assert not vanishes(lambda one, x, a: a - one - a, a)
        assert not vanishes(lambda one, x, a, c: a - c, a, c)

    def test_no_inputs(self):
        assert vanishes(lambda one, x: x * x - x * x)
        assert not vanishes(lambda one, x: x - one)
        assert not vanishes(lambda one, x: one)


class TestSeriesOf:
    def test_known_expansions(self):
        assert [int(c) for c in series_of(rf((1, -2, 2), (1, -3, 3, -1)), 5).coeffs] == [1, 1, 2, 4, 7, 11]
        assert [int(c) for c in series_of(rf((1, -1), (1, -2)), 4).coeffs] == [1, 1, 2, 4, 8]
        assert [int(c) for c in series_of(rf((1,), (1, -1, -1)), 4).coeffs] == [1, 1, 2, 3, 5]

    def test_denominator_recurrence_invariant(self):
        rng = random.Random(3)
        for _ in range(20):
            f = RationalFunction(rand_poly(rng, 3), rand_unit_den(rng, 3))
            s = series_of(f, 8)
            a, b = f.num.coeffs + (0,) * 9, f.den.coeffs + (0,) * 9
            for n in range(9):
                acc = sum(b[j] * s.coeffs[n - j] for j in range(0, n + 1))
                assert acc == a[n]

    def test_multiplicative(self, plain):
        rng = random.Random(5)
        for _ in range(15):
            f = RationalFunction(rand_poly(rng, 3), rand_unit_den(rng, 3))
            g = RationalFunction(rand_poly(rng, 3), rand_unit_den(rng, 3))
            assert series_of(plain.mul(f, g), 7) == series_of(f, 7) * series_of(g, 7)

    def test_rejects_pole_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            series_of(rf((1,), (0, 1)), 3)

    def test_matches_the_recurrence(self, recurrence):
        """Random f with den(0) in {1, -1, 2, 3, 5} and negative
        coefficients, at orders below and above deg num: ``int``
        coefficients equal to the recurrence's when the canonical den(0)
        is 1, and a ``ValueError`` otherwise."""
        rng = random.Random(11)
        seen, refused = set(), set()
        for _ in range(200):
            den0 = rng.choice((1, -1, 2, 3, 5))
            f = rf(
                [rng.randint(-40, 40) for _ in range(rng.randint(0, 9))],
                [den0] + [rng.randint(-40, 40) for _ in range(rng.randint(0, 6))],
            )
            seen.add(den0)
            order = rng.randint(0, 12)
            if f.den.constant_term() != 1:
                refused.add(f.den.constant_term())
                with pytest.raises(ValueError, match=r"not in Z\[\[x\]\]"):
                    series_of(f, order)
                continue
            got = series_of(f, order)
            assert got.coeffs == recurrence(f, order)
            assert all(type(c) is int for c in got.coeffs)
        assert seen == {1, -1, 2, 3, 5}
        assert {2, 3, 5} <= refused

    def test_numerator_beyond_the_order(self, recurrence):
        f = rf((1, 2, 3, 4, 5, 6, 7), (1, -1))
        assert series_of(f, 3).coeffs == (1, 3, 6, 10)
        assert series_of(f, 3).coeffs == recurrence(f, 3)

    def test_order_zero(self, recurrence):
        assert series_of(rf((-4, 1), (1, 2)), 0).coeffs == (-4,)
        assert series_of(rf((7, 1, 1), (-1, 3)), 0).coeffs == (-7,)
        assert series_of(rf((1,), (-1, 0, 0, 9)), 0).coeffs == recurrence(rf((1,), (-1, 0, 0, 9)), 0)
        for den0 in (2, 3, 5):
            with pytest.raises(ValueError, match=f"constant term is {den0}, not 1"):
                series_of(rf((7, 1, 1), (den0, -1)), 0)

    def test_zero_numerator(self):
        assert series_of(RationalFunction.zero(), 6).coeffs == (0,) * 7
        assert all(type(c) is int for c in series_of(RationalFunction.zero(), 6).coeffs)

    def test_fast_growth(self):
        s = series_of(rf((1,), (1, -(2**100))), 30)
        assert s.coeffs == tuple(2 ** (100 * n) for n in range(31))

    def test_root_moduli_far_apart(self, recurrence):
        """The roots of 1 - x + 2**100 x**2 - 2**100 x**3 have moduli 1 and
        2**50: the coefficients swing in sign and size, and the series
        still equals the recurrence's."""
        f = rf((1,), (1, -1, 2**100, -(2**100)))
        assert series_of(f, 30).coeffs == recurrence(f, 30)


def ypoly(levels, order):
    """sum_j levels[j] y^j as a series truncated at y^order."""
    levels = list(levels)
    return BivariateSeries(levels + [RationalFunction.zero()] * (order + 1 - len(levels)))


def constants(*cs, order=None):
    """A series in y whose levels are the rational constants ``cs``: a
    power series over Q in the variable y."""
    return ypoly([rf((c.numerator,), (c.denominator,)) for c in cs], len(cs) - 1 if order is None else order)


def rand_ypoly(rng, order):
    """A random series in y whose y^0 level is nonzero, so a unit."""
    levels = []
    for j in range(order + 1):
        num = rand_poly(rng, 3, zero_ok=j > 0)
        levels.append(RationalFunction(num, rand_poly(rng, 2, zero_ok=False)))
    return ypoly(levels, order)


class TestPowerSeries:
    # a power series with rational coefficients is a BivariateSeries whose
    # levels are constants; its square root is BivariateSeries.sqrt

    def test_sqrt_one_minus_4x(self):
        s = constants(1, -4, order=3).sqrt(RationalFunction.one())
        assert s == constants(1, -2, -2, -4)

    def test_sqrt_of_one(self):
        one = constants(1, order=6)
        assert one.sqrt(RationalFunction.one()) == one
        assert one.sqrt(rf((-1,))) == -one

    def test_catalan_from_sqrt(self):
        one = constants(1, order=6)
        root = constants(1, -4, order=6).sqrt(RationalFunction.one())
        half = constants(Fraction(1, 2), order=6)
        cat = ((one - root) * half).levels[1:]
        assert cat == tuple(rf((c,)) for c in (1, 1, 2, 5, 14, 42))

    def test_sqrt_squares_back(self):
        rng = random.Random(9)
        for _ in range(25):
            s = constants(1, *[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(10)])
            t = s.sqrt(RationalFunction.one())
            assert t * t == s
        with pytest.raises(ValueError):
            constants(2, 1).sqrt(RationalFunction.one())

    def test_inverse(self, recurrence):
        assert recurrence(rf((1,), (1, -1)), 4) == (1, 1, 1, 1, 1)
        assert recurrence(rf((1,), (3, 1)), 3) == (
            Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27), Fraction(-1, 81)
        )

    def test_division_undoes_multiplication(self, recurrence, schoolbook):
        rng = random.Random(17)
        for b0 in (1, -1, 3):
            for _ in range(10):
                b = Polynomial([b0] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                f = RationalFunction(rand_poly(rng, 8), b)
                c = recurrence(f, 8)
                # den * c and num agree through x**8
                low = schoolbook.mul(f.den.coeffs[:9], c)[:9]
                assert schoolbook.trim(low) == schoolbook.trim(f.num.coeffs[:9])

    def test_zero_constant_divisor_raises(self, recurrence):
        with pytest.raises(ZeroDivisionError):
            recurrence(rf((1, 2, 3), (0, 1, 1)), 2)
        unit = constants(1, order=2)
        with pytest.raises(ZeroDivisionError):
            unit / constants(0, 1, order=2)

    def test_truncation_discipline(self):
        a = PowerSeries((1, 2, 3))
        b = PowerSeries((1, 2, 3, 4, 5))
        assert (a + b).order == 2
        assert (a * b).order == 2


class TestBivariateSeries:
    def test_mul_and_orders(self):
        a = ypoly([rf((1,)), rf((0, 1))], 3)  # 1 + xy
        b = ypoly([rf((1, -1))], 2)  # 1 - x
        c = a * b
        assert c.order_y == 2
        assert c.levels == (rf((1, -1)), rf((0, 1, -1)), RationalFunction.zero())
        assert a * a == ypoly([rf((1,)), rf((0, 2)), rf((0, 0, 1))], 3)

    def test_sqrt_squares_back(self):
        rng = random.Random(13)
        for _ in range(10):
            t = rand_ypoly(rng, 4)
            s = t * t
            assert s.sqrt(t.levels[0]) == t
            assert s.sqrt(rf(-t.levels[0].num, t.levels[0].den)) == -t
        # the y^0 level of the radicands of Phi and Psi: (1 - x)^2
        s = ypoly([rf((1, -2, 1)), rf((0, 4))], 3)
        assert s.sqrt(rf((1, -1))).levels[0] == rf((1, -1))
        with pytest.raises(ValueError, match="root0"):
            s.sqrt(rf((1, 1)))

    def test_unit_division(self):
        one = constants(1, order=4)
        unit = constants(1, -1, order=4)
        geom = one / unit
        assert geom == constants(1, 1, 1, 1, 1)
        assert geom * unit == one
        # any nonzero y^0 level is a unit: x is one in Q(x)
        two_x = ypoly([rf((0, 2)), rf((0, -2))], 4)
        assert two_x / two_x == one

    def test_mixed_orders_combine_to_the_minima(self):
        rng = random.Random(29)
        for _ in range(20):
            a, b = rand_ypoly(rng, 5), rand_ypoly(rng, 2)
            for x, y in ((a, b), (b, a)):
                for r in (x + y, x - y, x * y, x / y):
                    assert r.order_y == 2
                assert (x / y) * y == BivariateSeries(x.levels[:3])
                assert x * y == BivariateSeries(x.levels[:3]) * BivariateSeries(y.levels[:3])
