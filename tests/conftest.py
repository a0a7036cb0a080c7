from fractions import Fraction

import pytest


def _term_recurrence(f, order):
    """The Taylor coefficients c_0..c_order of f = a/b from c*b = a, term
    by term: c_n = (a_n - sum_{0<j<=n} b_j c_(n-j)) / b_0.  A tuple of
    ``Fraction``s, which compare equal to equal ``int``s."""
    a, b = f.num.coeffs, f.den.coeffs
    c = []
    for n in range(order + 1):
        s = a[n] if n < len(a) else 0
        for j in range(1, min(n, len(b) - 1) + 1):
            s -= b[j] * c[n - j]
        c.append(Fraction(s) / b[0])
    return tuple(c)


@pytest.fixture(scope="session")
def recurrence():
    """The term recurrence: the independent reference that ``series_of``'s
    division must equal."""
    return _term_recurrence


class Schoolbook:
    """Z[x] on plain coefficient lists, low degree first, one coefficient
    at a time: the independent reference for the packed ``Polynomial``.
    Every result is a tuple without trailing zeros."""

    @staticmethod
    def trim(a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    @staticmethod
    def add(a, b, sign=1):
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += sign * c
        return Schoolbook.trim(out)

    @staticmethod
    def mul(a, b):
        out = [0] * (len(a) + len(b))
        for i, c in enumerate(a):
            for j, d in enumerate(b):
                out[i + j] += c * d
        return Schoolbook.trim(out)

    @staticmethod
    def shift(a, k):
        return Schoolbook.trim([0] * k + list(a)) if Schoolbook.trim(a) else ()


@pytest.fixture(scope="session")
def schoolbook():
    """Plain-list Z[x] arithmetic: the reference that ``Polynomial``'s
    packed arithmetic must equal."""
    return Schoolbook
