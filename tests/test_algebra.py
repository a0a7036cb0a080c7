import json
import random
from fractions import Fraction

import pytest

from pattgf.algebra import (
    BivariateSeries,
    Polynomial,
    PowerSeries,
    RationalFunction,
    polynomial_gcd,
    polynomial_str,
    series_of,
)


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def rand_poly(rng, degree, zero_ok=True):
    while True:
        p = Polynomial([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)])
        if zero_ok or not p.is_zero:
            return p


class TestPolynomial:
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
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree or r.is_zero

    def test_gcd(self):
        a = Polynomial((1, -1)) * Polynomial((1, 1)) * Polynomial((2, 3))
        b = Polynomial((1, -1)) * Polynomial((5, 7))
        g = polynomial_gcd(a, b)
        assert g.degree == 1
        assert a.exact_div(g) * g == a
        assert polynomial_gcd(Polynomial((2,)), Polynomial((4,))).degree == 0


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
        f = rf([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 6)])
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
