from fractions import Fraction

import pytest

from pattgf.algebra import PowerSeries


def _term_recurrence(f, order):
    """Taylor coefficients of f = a/b from c*b = a, term by term:
    c_n = (a_n - sum_{0<j<=n} b_j c_(n-j)) / b_0."""
    a, b = f.num.coeffs, f.den.coeffs
    c = []
    for n in range(order + 1):
        s = a[n] if n < len(a) else 0
        for j in range(1, min(n, len(b) - 1) + 1):
            s -= b[j] * c[n - j]
        c.append(Fraction(s) / b[0])
    return PowerSeries(c)


@pytest.fixture(scope="session")
def recurrence():
    """The term recurrence: the independent reference that ``series_of``'s
    division must equal."""
    return _term_recurrence
