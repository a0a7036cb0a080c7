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
    _div,
    polynomial_gcd,
    polynomial_str,
    series_of,
)


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def recurrence(f, order):
    """The term recurrence of ``PowerSeries.__truediv__``: the reference
    that ``series_of``'s division must equal."""
    return PowerSeries.from_polynomial(f.num, order) / PowerSeries.from_polynomial(f.den, order)


def rand_poly(rng, degree, zero_ok=True):
    while True:
        p = Polynomial([rng.randint(-6, 6) for _ in range(degree + 1)])
        if zero_ok or not p.is_zero:
            return p


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial.x(-1),
        lambda: RationalFunction.x(-2),
        lambda: Polynomial((1, 2)).shift(-1),
        lambda: Polynomial().shift(-1),
        lambda: PowerSeries((1, 2)).mul_x_power(-1),
        lambda: BivariateSeries.zero(3, 2).mul_x_power(-1),
        lambda: BivariateSeries.zero(3, 2).mul_y_power(-1),
    ],
    ids=[
        "Polynomial.x",
        "RationalFunction.x",
        "Polynomial.shift",
        "Polynomial.shift-zero",
        "PowerSeries.mul_x_power",
        "BivariateSeries.mul_x_power",
        "BivariateSeries.mul_y_power",
    ],
)
def test_negative_power_raises(call):
    with pytest.raises(ValueError, match="power must be at least 0"):
        call()


class TestPolynomial:
    def test_non_integral_coefficients_are_fractions(self):
        # only series carry them; a polynomial's coefficients are ints
        assert PowerSeries(["1/2", "4/2"]).coeffs == (Fraction(1, 2), 2)
        assert type(PowerSeries(["1/2"]).coeffs[0]) is Fraction
        assert type(PowerSeries(["4/2"]).coeffs[0]) is int
        assert type(_div(1, 2)) is Fraction and _div(1, 2) == Fraction(1, 2)
        assert type(_div(4, 2)) is int and _div(4, 2) == 2

    @pytest.mark.parametrize("c", [Fraction(1, 2), "1/2", 0.5], ids=["Fraction", "str", "float"])
    def test_non_integer_coefficient_raises(self, c):
        with pytest.raises(TypeError):
            Polynomial((1, c))
        with pytest.raises(TypeError):
            rf((c,))

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

    def test_divmod_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rand_poly(rng, rng.randint(0, 5))
            b = rand_poly(rng, rng.randint(0, 3), zero_ok=False)
            assert (a * b).exact_div(b) == a

    @pytest.mark.parametrize(
        "a, b",
        [((3,), (2,)), ((1, 1), (2, 2)), ((1, 0, 1), (1, 1))],
        ids=["constant", "non-integral-quotient", "remainder"],
    )
    def test_exact_div_refuses_inexact(self, a, b):
        with pytest.raises(ValueError, match="inexact"):
            Polynomial(a).exact_div(Polynomial(b))

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
        # at the first xi = 4, gcd(12, 24) = 12 has the balanced digits
        # 0, -1, 1, so the candidate is x^2 - x, which does not divide 2x + x^2;
        # xi = 8 gives gcd(56, 80) = 8, the digits 0, 1 and the gcd x
        trial_division = algebra._quotient
        rejected = []

        def watched(num, den):
            q = trial_division(num, den)
            if q is None:
                rejected.append(tuple(den))
            return q

        monkeypatch.setattr(algebra, "_quotient", watched)
        a, b = Polynomial((0, 1, -1)), Polynomial((0, 2, 1))
        assert polynomial_gcd(a, b) == (Polynomial((0, 1)), Polynomial((1, -1)), Polynomial((2, 1)))
        assert rejected == [(0, -1, 1)]

    def test_repr_round_trips(self):
        assert repr(Polynomial((1, -2, 2))) == "Polynomial([1, -2, 2])"
        for p in [(), (7,), (1, -2, 2), (0, -3, 0, 5), (2**40 + 1, -(2**36), 1)]:
            assert eval(repr(Polynomial(p))) == Polynomial(p)


class TestRationalFunction:
    def test_common_denominator(self):
        assert rf((1,), (1, -1)) + rf((0, 1), (1, -1)) == rf((1, 1), (1, -1))

    def test_cancellation_to_canonical(self):
        assert rf((1,), (1, -1)) * rf((1, -1)) == RationalFunction.one()

    def test_solve_step_matches_known_display(self):
        # 1 / (1 - x*(1-2x+2x^2)/(1-x)^3) == (1-x)^3 / (1-4x+5x^2-3x^3)
        inner = rf((1, -2, 2), (1, -3, 3, -1))
        value = RationalFunction.one() / (RationalFunction.one() - RationalFunction.x() * inner)
        assert value == rf((1, -3, 3, -1), (1, -4, 5, -3))

    def test_normalization_clears_to_integers(self):
        f = (Fraction(1, 2) + Fraction(1, 3) * RationalFunction.x()) / Fraction(1, 6)
        assert all(c.denominator == 1 for c in f.num.coeffs + f.den.coeffs)
        assert f == rf((3, 2), (1,))

    def test_denominator_sign_normalized(self):
        f = rf((1,), (-1, 1))
        assert f.den.coeffs[0] > 0
        assert f == rf((-1,), (1, -1))

    def test_normalization_idempotent_and_cancel(self):
        rng = random.Random(11)
        for _ in range(60):
            a = RationalFunction(rand_poly(rng, 3), rand_poly(rng, 3, zero_ok=False))
            b = RationalFunction(rand_poly(rng, 2, zero_ok=False), rand_poly(rng, 2, zero_ok=False))
            again = RationalFunction(a.num, a.den)
            assert again == a
            assert a * b / b == a

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

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction.one() / RationalFunction.zero()
        with pytest.raises(ZeroDivisionError):
            rf((1,), ())

    def test_pow(self):
        x = RationalFunction.x()
        assert x ** 3 == rf((0, 0, 0, 1))
        assert (RationalFunction.one() - x) ** -1 == rf((1,), (1, -1))

    def test_json_roundtrip_bit_exact(self):
        f = rf((1, -2, 2), (1, -3, 3, -1))
        blob = json.dumps(f.as_json_dict())
        assert RationalFunction.from_json_dict(json.loads(blob)) == f

    def test_latex(self):
        assert rf((1, -1), (1, -2)).latex() == "\\frac{1 - x}{1 - 2x}"

    def test_str(self):
        assert polynomial_str(Polynomial((1, -2, 2))) == "1 - 2x + 2x^2"
        assert str(rf((0, 0, 1), (1, -1))) == "(x^2) / (1 - x)"


class TestSeriesOf:
    def test_known_expansions(self):
        assert [int(c) for c in series_of(rf((1, -2, 2), (1, -3, 3, -1)), 5).coeffs] == [1, 1, 2, 4, 7, 11]
        assert [int(c) for c in series_of(rf((1, -1), (1, -2)), 4).coeffs] == [1, 1, 2, 4, 8]
        assert [int(c) for c in series_of(rf((1,), (1, -1, -1)), 4).coeffs] == [1, 1, 2, 3, 5]

    def test_denominator_recurrence_invariant(self):
        rng = random.Random(3)
        for _ in range(20):
            den = rand_poly(rng, 3, zero_ok=False)
            if den.constant_term() == 0:
                den = den + Polynomial((1,))
            f = RationalFunction(rand_poly(rng, 3), den)
            s = series_of(f, 8)
            for n in range(9):
                acc = sum(f.den.coefficient(j) * s.coeffs[n - j] for j in range(0, n + 1))
                assert acc == f.num.coefficient(n)

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(15):
            polys = []
            for _ in range(4):
                p = rand_poly(rng, 3)
                polys.append(p + Polynomial((1,)) if p.constant_term() == 0 else p)
            f = RationalFunction(polys[0], polys[1])
            g = RationalFunction(polys[2], polys[3])
            if f.den.constant_term() == 0 or g.den.constant_term() == 0:
                continue
            assert series_of(f * g, 7) == series_of(f, 7) * series_of(g, 7)

    def test_rejects_pole_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            series_of(rf((1,), (0, 1)), 3)

    def test_matches_the_recurrence(self):
        """Random canonical f with den(0) in {1, 2, 3, 5} and negative
        coefficients, at orders below and above deg num: ``int`` where a
        coefficient is integral, ``Fraction`` otherwise."""
        rng = random.Random(11)
        seen = set()
        for _ in range(200):
            den0 = rng.choice((1, 2, 3, 5))
            f = rf(
                [rng.randint(-40, 40) for _ in range(rng.randint(0, 9))],
                [den0] + [rng.randint(-40, 40) for _ in range(rng.randint(0, 6))],
            )
            seen.add(f.den.constant_term())
            order = rng.randint(0, 12)
            got = series_of(f, order)
            assert got == recurrence(f, order)
            assert [type(c) for c in got.coeffs] == [
                int if Fraction(c).denominator == 1 else Fraction for c in got.coeffs
            ]
        assert {1, 2, 3, 5} <= seen

    def test_numerator_beyond_the_order(self):
        f = rf((1, 2, 3, 4, 5, 6, 7), (1, -1))
        assert series_of(f, 3).coeffs == (1, 3, 6, 10)
        assert series_of(f, 3) == recurrence(f, 3)

    def test_order_zero(self):
        assert series_of(rf((-4, 1), (1, 2)), 0).coeffs == (-4,)
        assert series_of(rf((7, 1, 1), (3, -1)), 0).coeffs == (Fraction(7, 3),)
        assert series_of(rf((1,), (2, 0, 0, 9)), 0) == recurrence(rf((1,), (2, 0, 0, 9)), 0)

    def test_zero_numerator(self):
        assert series_of(RationalFunction.zero(), 6) == PowerSeries.zero(6)
        assert all(type(c) is int for c in series_of(RationalFunction.zero(), 6).coeffs)

    def test_fast_growth(self):
        s = series_of(rf((1,), (1, -(2**100))), 30)
        assert s.coeffs == tuple(2 ** (100 * n) for n in range(31))

    def test_first_width_too_narrow(self, monkeypatch):
        """The roots of 1 - x + 2**100 x**2 - 2**100 x**3 have moduli 1 and
        2**50, which the first width underestimates: the division repeats
        at a larger width and still returns the series."""
        divisions = []

        def counting_divmod(a, b):
            divisions.append(b)
            return divmod(a, b)

        monkeypatch.setattr(algebra, "divmod", counting_divmod, raising=False)
        f = rf((1,), (1, -1, 2**100, -(2**100)))
        assert series_of(f, 30) == recurrence(f, 30)
        assert len(divisions) > 1


class TestPowerSeries:
    def test_sqrt_one_minus_4x(self):
        s = PowerSeries((1, -4, 0, 0)).sqrt()
        assert [str(c) for c in s.coeffs] == ["1", "-2", "-2", "-4"]

    def test_sqrt_of_one(self):
        assert PowerSeries.one(6).sqrt() == PowerSeries.one(6)

    def test_catalan_from_sqrt(self):
        n = 6
        root = PowerSeries.from_polynomial(Polynomial((1, -4)), n).sqrt()
        cat = (PowerSeries.one(n) - root).div_x_exact(1).scale(Fraction(1, 2))
        assert [int(c) for c in cat.coeffs] == [1, 1, 2, 5, 14, 42]

    def test_sqrt_squares_back(self):
        rng = random.Random(9)
        for _ in range(25):
            s = PowerSeries([1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(10)])
            t = s.sqrt()
            assert t * t == s
        with pytest.raises(ValueError):
            PowerSeries((2, 1)).sqrt()

    def test_divide_by_var(self):
        s = PowerSeries((0, 0, 1, 1))
        assert s.div_x_exact(1) == PowerSeries((0, 1, 1))
        with pytest.raises(ValueError):
            PowerSeries((1, 1)).div_x_exact(1)

    def test_inverse(self):
        s = PowerSeries((1, -1, 0, 0, 0))
        assert [int(c) for c in (PowerSeries.one(4) / s).coeffs] == [1, 1, 1, 1, 1]
        with pytest.raises(ZeroDivisionError):
            PowerSeries.one(1) / PowerSeries((0, 1))

    def test_division_undoes_multiplication(self):
        rng = random.Random(17)
        for b0 in (1, -1, 3):
            for _ in range(10):
                a = PowerSeries([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)])
                # trailing zeros: the recurrence stops at the last nonzero b_j
                low = [b0] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
                b = PowerSeries(low + [0] * (9 - len(low)))
                assert (a / b) * b == a
        q = PowerSeries((1, 0, 0, 0)) / PowerSeries((3, 1, 0, 0))
        assert q.coeffs == (Fraction(1, 3), Fraction(-1, 9), Fraction(1, 27), Fraction(-1, 81))

    def test_zero_constant_divisor_raises(self):
        a = PowerSeries((1, 2, 3))
        for b in (PowerSeries((0, 1, 1)), PowerSeries.zero(2)):
            with pytest.raises(ZeroDivisionError):
                a / b
        unit = BivariateSeries.from_terms({(0, 0): 1}, 2, 2)
        with pytest.raises(ZeroDivisionError):
            unit / BivariateSeries.from_terms({(1, 0): 1}, 2, 2)

    def test_truncation_discipline(self):
        a = PowerSeries((1, 2, 3))
        b = PowerSeries((1, 2, 3, 4, 5))
        assert (a + b).order == 2
        assert (a * b).order == 2
        assert a.mul_x_power(2).order == 4
        with pytest.raises(ValueError):
            a.truncate(5)


class TestBivariateSeries:
    def test_mul_and_orders(self):
        a = BivariateSeries.from_terms({(0, 0): 1, (1, 1): 1}, 4, 3)
        b = BivariateSeries.from_terms({(0, 0): 1, (1, 0): -1}, 4, 2)
        c = a * b
        assert (c.order_x, c.order_y) == (4, 2)
        assert c.coefficient(1, 0) == -1
        assert c.coefficient(1, 1) == 1
        assert c.coefficient(2, 1) == -1

    def test_sqrt_squares_back(self):
        rng = random.Random(13)
        terms = {(i, j): Fraction(rng.randint(-2, 2)) for i in range(7) for j in range(5)}
        terms[(0, 0)] = Fraction(1)
        s = BivariateSeries.from_terms(terms, 6, 4)
        t = s.sqrt()
        assert t * t == s

    def test_divide_by_y(self):
        s = BivariateSeries.from_terms({(0, 1): 1, (2, 2): 5}, 3, 3)
        q = s.div_y_exact(1)
        assert q.order_y == 2
        assert q.coefficient(0, 0) == 1
        assert q.coefficient(2, 1) == 5
        with pytest.raises(ValueError):
            s.div_y_exact(2)

    def test_unit_division(self):
        one = BivariateSeries.from_terms({(0, 0): 1}, 5, 4)
        unit = BivariateSeries.from_terms({(0, 0): 1, (0, 1): -1}, 5, 4)
        geom = one / unit
        assert all(geom.coefficient(0, j) == 1 for j in range(5))
        assert (geom * unit) == one

    def test_mixed_orders_combine_to_the_minima(self):
        # each operand has the larger order in one variable
        rng = random.Random(29)

        def rand(nx, ny):
            terms = {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(nx + 1) for j in range(ny + 1)}
            terms[(0, 0)] = Fraction(rng.choice([-2, 1, 3]))
            return BivariateSeries.from_terms(terms, nx, ny)

        for _ in range(20):
            a, b = rand(6, 2), rand(3, 5)
            for x, y in ((a, b), (b, a)):
                for r in (x + y, x - y, x * y, x / y):
                    assert (r.order_x, r.order_y) == (3, 2)
                assert (x / y) * y == x.truncate(3, 2)
                assert x * y == x.truncate(3, 2) * y.truncate(3, 2)
