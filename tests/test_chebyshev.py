from fractions import Fraction

import pytest

from pattgf.algebra import Polynomial, RationalFunction
from pattgf.chebyshev import (
    chebyshev_u,
    check_identity,
    identity_instances,
    r_func,
    r_func_or_zero,
    sweep_identities,
    v_poly,
)


def test_u_small_values():
    assert chebyshev_u(0) == Polynomial((1,))
    assert chebyshev_u(1) == Polynomial((0, 2))
    assert chebyshev_u(2) == Polynomial((-1, 0, 4))
    assert chebyshev_u(3) == Polynomial((0, -4, 0, 8))


def test_u_recurrence_and_degree():
    two_z = Polynomial((0, 2))
    for p in range(1, 60):
        assert chebyshev_u(p + 1) == two_z * chebyshev_u(p) - chebyshev_u(p - 1)
        assert chebyshev_u(p).degree == p


def test_v_small_values():
    assert v_poly(0) == Polynomial((1,))
    assert v_poly(1) == Polynomial((1,))
    assert v_poly(2) == Polynomial((1, -1))
    assert v_poly(4) == Polynomial((1, -3, 1))


def test_v_recurrence_degree_constant():
    x = Polynomial.x()
    for p in range(1, 60):
        assert v_poly(p + 1) == v_poly(p) - x * v_poly(p - 1)
    for p in range(25):
        assert v_poly(p).degree == p // 2
        assert v_poly(p).constant_term() == 1


def test_cold_deep_indices_return():
    """Both builders read their explicit sums, so a cold call far past
    Python's recursion limit returns; the reference is the three-term
    recurrence at the deep indices, V_1501 = V_1500 - x V_1499 and
    U_1001 = 2z U_1000 - U_999."""
    v_poly.cache_clear()
    chebyshev_u.cache_clear()
    assert v_poly(1501) == v_poly(1500) - v_poly(1499).shift(1)
    assert v_poly(1500).degree == 750 and v_poly(1500).constant_term() == 1
    assert chebyshev_u(1001) == Polynomial((0, 2)) * chebyshev_u(1000) - chebyshev_u(999)
    assert chebyshev_u(1000).degree == 1000


def test_v_matches_substituted_u():
    # V_p(x) = x^(p/2) U_p(1/(2 sqrt x)): the z^i coefficient of U_p is
    # nonzero only for i = p mod 2 and lands on x^((p-i)/2) / 2^i.
    for p in range(13):
        u = chebyshev_u(p)
        coeffs = {}
        for i in range(p + 1):
            c = u.coeffs[i]
            if c:
                assert (p - i) % 2 == 0
                c = c / Fraction(2) ** i
                assert c.denominator == 1
                coeffs[(p - i) // 2] = int(c)
        rebuilt = Polynomial([coeffs.get(j, 0) for j in range(p // 2 + 1)])
        assert rebuilt == v_poly(p)


def test_r_small_values():
    assert r_func(1) == RationalFunction.one()
    assert r_func(2) == RationalFunction((1,), (1, -1))
    assert r_func(3) == RationalFunction((1, -1), (1, -2))
    assert r_func_or_zero(0) == RationalFunction.zero()
    with pytest.raises(ValueError):
        r_func(0)


def test_r_iteration(plain):
    one, x = RationalFunction.one(), RationalFunction.x()
    for p in range(1, 25):
        assert plain.mul(r_func(p + 1), plain.sub(one, plain.mul(x, r_func(p)))) == one


def test_identity_examples():
    assert check_identity("iv", a=1, b=1)
    assert check_identity("iii", p=2)
    assert check_identity("i", s=2, t=1, w=1)
    assert check_identity("ii", s=0, t=0, w=1)
    assert check_identity("v", a=2, b=3)
    assert check_identity("vi", a=4, b=2)


def test_identity_range_validation():
    with pytest.raises(ValueError):
        check_identity("i", s=1, t=3, w=1)
    with pytest.raises(ValueError):
        check_identity("vi", a=2, b=2)
    with pytest.raises(ValueError):
        check_identity("vii", a=1, b=1)


@pytest.mark.parametrize("which", ["i", "ii", "iii", "iv", "v", "vi"])
def test_identity_parameter_names_are_checked(which):
    """A missing or an unexpected parameter is a ``ValueError`` that
    names the part's parameters, not a ``KeyError`` or a silent pass."""
    valid = identity_instances(which, 6)[0]
    names = ", ".join(valid)
    missing = dict(valid)
    missing.popitem()
    for params in (missing, {**valid, "q": 1}, {}):
        with pytest.raises(ValueError, match=rf"^identity \({which}\) takes the parameters {names}, got "):
            check_identity(which, **params)
    assert check_identity(which, **valid)


def test_v_forms_agree_with_the_r_forms(plain):
    """Parts (iii)-(vi) as stated in R_p, by per-operation
    ``RationalFunction`` arithmetic: the reference for their cleared
    forms in V."""
    one, x = RationalFunction.one(), RationalFunction.x()
    add, sub, mul, div = plain.add, plain.sub, plain.mul, plain.div

    def over(num, a, b):
        return RationalFunction(num, v_poly(a) * v_poly(b))

    def one_minus_x(f):
        return sub(one, mul(x, f))

    r_forms = {
        "iii": lambda p: r_func(p + 1) == div(one, one_minus_x(r_func(p))),
        "iv": lambda a, b: one_minus_x(mul(r_func(a), r_func(b))) == over(v_poly(a + b), a, b),
        "v": lambda a, b: sub(one_minus_x(r_func(a)), mul(x, r_func(b))) == over(v_poly(a + b + 1), a, b),
        "vi": lambda a, b: sub(r_func(a), r_func(b)) == over(v_poly(a - b - 1).shift(b), a, b),
    }
    for which, holds in r_forms.items():
        for kw in identity_instances(which, 12):
            assert holds(**kw), (which, kw)
            assert check_identity(which, **kw), (which, kw)


def test_identity_iv_explicit_form(plain):
    # 1 - x R_1 R_1 == V_2 / (V_1 V_1) == 1 - x
    lhs = plain.sub(RationalFunction.one(), plain.mul(plain.mul(RationalFunction.x(), r_func(1)), r_func(1)))
    assert lhs == RationalFunction((1, -1), (1,))


def test_sweep_small():
    results = sweep_identities(8)
    assert all(p == t for p, t in results.values())
    assert all(t > 0 for _, t in results.values())


def test_instances_respect_bounds():
    for which in ("i", "ii", "iii", "iv", "v", "vi"):
        for kw in identity_instances(which, 9):
            assert check_identity(which, **kw)
