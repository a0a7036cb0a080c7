from fractions import Fraction
from itertools import groupby
from math import comb

import pytest

from pattgf.algebra import BivariateSeries, RationalFunction
from pattgf.engine import phi_closed_series, psi_closed_series
from pattgf.errors import PatternError
from pattgf.patterns import as_pattern, flatten


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


def catalan(n):
    """The n-th Catalan number, |S_n(132)|."""
    return comb(2 * n, n) // (n + 1)


@pytest.fixture(scope="session", name="catalan")
def catalan_fixture():
    """Catalan(n): the count every unconstrained table must reach."""
    return catalan


def is_wedge(pat):
    """Whether ``pat`` is a wedge pattern, by one scan.

    A wedge interleaves a layered permutation of 1..s (its layers kept
    as contiguous blocks, in order) with the ascending run s+1,...,k so
    that the word starts with an upper entry and no two layers are
    adjacent.  Wedges avoid (1,3,2), there are 2^(k-1) of size k, and
    each has the avoidance series R_k.

    The upper values ascend and the word starts with an upper entry, so
    pat[0] is the smallest upper value s + 1: a smaller s would make
    pat[0] - 1 an upper value after pat[0].  With s fixed, every maximal
    block of lower entries must be one whole layer, that is the ascending
    run of consecutive values just below the previous block's (the first
    block ending at s); the last block then ends at 1, since exactly s
    entries are lower.

    >>> is_wedge((6, 4, 5, 7, 8, 3, 9, 1, 2))
    True
    >>> is_wedge((3, 2, 1))
    False
    """
    pat = as_pattern(pat)
    if not pat:
        return False
    s = pat[0] - 1
    upper, top = s + 1, s  # next upper value, top of the next layer
    for is_upper, block in groupby(pat, lambda v: v > s):
        block = tuple(block)
        if is_upper:
            expected = tuple(range(upper, upper + len(block)))
            upper += len(block)
        else:
            expected = tuple(range(top - len(block) + 1, top + 1))
            top -= len(block)
        if block != expected:
            return False
    return True


@pytest.fixture(scope="session", name="is_wedge")
def is_wedge_fixture():
    """The wedge detector: the reference for the wedge collapse theorem."""
    return is_wedge


def prefix_pattern(d, i):
    """The i-th prefix of the decomposition ``d``: segments and maxima up
    to maximum i, flattened.

    i = -1 gives the empty pattern; i = 0 gives the flattened first
    segment alone (without its maximum).
    """
    if not -1 <= i <= d.r:
        raise PatternError(f"prefix index {i} out of range [-1, {d.r}]")
    end = d.positions[i] + (i > 0) if i >= 0 else 0  # prefix 0 stops before m_0
    return flatten(d.pattern[:end])


def suffix_pattern(d, i):
    """The i-th suffix of the decomposition ``d``: segments and maxima
    from maximum i on, flattened.

    i = 0 is the whole pattern, i = r + 1 the empty pattern.
    """
    if not 0 <= i <= d.r + 1:
        raise PatternError(f"suffix index {i} out of range [0, {d.r + 1}]")
    return flatten(d.pattern[d.positions[i - 1] + 1 if i else 0 :])


@pytest.fixture(scope="session", name="prefix_pattern")
def prefix_pattern_fixture():
    """Prefix i of a ``canonical_decompose`` record by ``flatten``: the
    reference for the prefixes ``patterns.blocks`` slices."""
    return prefix_pattern


@pytest.fixture(scope="session", name="suffix_pattern")
def suffix_pattern_fixture():
    """Suffix i of a ``canonical_decompose`` record by ``flatten``: the
    reference for the suffixes ``patterns.blocks`` slices."""
    return suffix_pattern


_ZERO, _ONE, _X = RationalFunction.zero(), RationalFunction.one(), RationalFunction.x()


def phi_functional_equation_residual(order_y):
    """Residual of Phi = y/(1-y) + x Phi (Phi/y - 1 - Phi) + x y Phi,
    multiplied through by y, at y^0..y^(order_y+1), from the expansion
    ``phi_closed_series``.

    This is the aggregate of the avoidance recursion over decreasing
    patterns: summing F_k = 1 + x F_2 F_{k-1} + x * sum_{j>=2}
    (F_{j+1} - F_j) F_{k-j} against y^k.  (The j = 1 telescoping term
    contributes F_2 alone because the 0-th prefix of a decreasing
    pattern is empty and the empty-pattern series is 0.)  Times y the
    equation needs no Phi/y, so its y^m level reads
    P_(m-1) - [m >= 2] - x (S_m - P_(m-1) - S_(m-1) + P_(m-2)) with
    P = Phi and S = Phi^2; a correct Phi leaves every level exactly 0.
    """
    phi = phi_closed_series(order_y + 1)
    p = (_ZERO, _ZERO) + phi.levels  # p[m] = P_(m-2)
    s = (_ZERO,) + (phi * phi).levels  # s[m] = S_(m-1)
    return BivariateSeries(
        p[m + 1] - (_ONE if m >= 2 else _ZERO) - _X * (s[m + 1] - p[m + 1] - s[m] + p[m])
        for m in range(order_y + 2)
    )


def psi_functional_equation_residual(order_y):
    """Residual of (1-x)(Psi - xy) = x Psi^2 + x(1-x) y Psi at
    y^0..y^order_y, from the expansion ``psi_closed_series``: level m is
    (1-x)(Q_m - x[m = 1]) - x S_m - x(1-x) Q_(m-1) with Q = Psi and
    S = Psi^2."""
    psi = psi_closed_series(order_y)
    q = (_ZERO,) + psi.levels  # q[m] = Q_(m-1)
    s = (psi * psi).levels
    c = _ONE - _X
    return BivariateSeries(
        c * (q[m + 1] - (_X if m == 1 else _ZERO)) - _X * s[m] - _X * c * q[m]
        for m in range(order_y + 1)
    )


@pytest.fixture(scope="session", name="phi_functional_equation_residual")
def phi_residual_fixture():
    """Phi's functional equation level by level on the expansion: the
    cross-check of ``phi_closed_series`` that ``relations`` checks
    exactly as a polynomial identity."""
    return phi_functional_equation_residual


@pytest.fixture(scope="session", name="psi_functional_equation_residual")
def psi_residual_fixture():
    """Psi's functional equation level by level on the expansion: the
    cross-check of ``psi_closed_series``."""
    return psi_functional_equation_residual
