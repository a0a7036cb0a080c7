"""Exact polynomial, rational-function and truncated-series arithmetic.

Coefficients are ``int``s, and ``fractions.Fraction``s only where a value
is not integral; every equality used anywhere in the package is exact.

Representations:

- ``Polynomial``: dense coefficient tuple, index = degree, no trailing
  zeros; the zero polynomial is the empty tuple.
- ``RationalFunction``: numerator/denominator pair in canonical form:
  coprime, coefficients cleared to integers with joint content 1, and
  the lowest nonzero denominator coefficient positive.  Structural
  equality of canonical forms is therefore true equality.
- ``PowerSeries``: coefficients c_0..c_N; arithmetic never claims
  coefficients beyond the stated truncation order.  Division is the one
  series recurrence: ``series_of`` and the bivariate quotient and square
  root all call ``PowerSeries.__truediv__``.
- ``BivariateSeries``: rectangular truncation (Nx, Ny), stored as one
  ``PowerSeries`` in x per power of y.  Operations track how the valid
  rectangle shrinks (division by a variable) or grows (multiplication
  by a variable), so a zero test covers exactly the trusted region.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Sequence


def _coeff(c) -> Rational:
    """An exact coefficient: ``int`` when integral, else ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b) -> Rational:
    """The exact quotient a / b: ``int`` when b divides a, else ``Fraction``."""
    return a // b if a % b == 0 else Fraction(a) / b


def _cleared(coeffs: Sequence[Rational]) -> list[int]:
    """The coefficients times the lcm of their denominators."""
    scale = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs]


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        coeffs = [_coeff(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls, power: int = 1) -> "Polynomial":
        return cls([0] * power + [1])

    # -- basics --------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Rational:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def constant_term(self) -> Rational:
        return self.coefficient(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = _coeff(c)
        return Polynomial([c * a for a in self.coeffs])

    def shift(self, power: int) -> "Polynomial":
        """Multiply by x**power."""
        if self.is_zero:
            return self
        return Polynomial([0] * power + list(self.coeffs))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                f = _div(rem[i], lead)
                q[i - d] = f
                for j, c in enumerate(other.coeffs):
                    rem[i - d + j] -= f * c
        return Polynomial(q), Polynomial(rem)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q


def _primitive(ints: list[int]) -> list[int]:
    g = gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive gcd via the fraction-free (primitive) Euclidean remainder sequence."""
    A, B = _primitive(_cleared(a.coeffs)), _primitive(_cleared(b.coeffs))
    while B:
        # pseudo-remainder of A by B, all over the integers
        rem = list(A)
        d = len(B) - 1
        lead = B[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                f = rem[i]
                rem = [lead * c for c in rem]
                for j, c in enumerate(B):
                    rem[i - d + j] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
        A, B = B, _primitive(rem)
    return Polynomial(A)


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return Polynomial(), Polynomial.one()
        g = polynomial_gcd(num, den)
        if g.degree > 0:
            # stays in Z[x] for integral inputs: g is primitive (Gauss's lemma)
            num, den = num.exact_div(g), den.exact_div(g)
        ints = _cleared(num.coeffs + den.coeffs)
        split = len(num.coeffs)
        content = gcd(*ints)
        if next(c for c in ints[split:] if c) < 0:
            content = -content
        ints = [c // content for c in ints]
        return Polynomial(ints[:split]), Polynomial(ints[split:])

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls((), (1,))

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls((1,), (1,))

    @classmethod
    def x(cls, power: int = 1) -> "RationalFunction":
        return cls(Polynomial.x(power), Polynomial.one())

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial((c,)), Polynomial.one())

    # -- basics --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def value_at_zero(self) -> Rational:
        if self.den.constant_term() == 0:
            raise ZeroDivisionError("denominator vanishes at 0")
        return _div(self.num.constant_term(), self.den.constant_term())

    # -- arithmetic ----------------------------------------------------
    @staticmethod
    def _coerce(v) -> "RationalFunction":
        if isinstance(v, RationalFunction):
            return v
        return RationalFunction.constant(v)

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction.one() / self ** (-n)
        out = RationalFunction.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- presentation & serialization -----------------------------------
    def __repr__(self) -> str:
        return f"RationalFunction({self!s})"

    def __str__(self) -> str:
        return f"({polynomial_str(self.num)}) / ({polynomial_str(self.den)})"

    def as_json_dict(self) -> dict:
        """Coefficient arrays low degree first, as decimal strings (bit-exact)."""
        return {
            "numerator": [str(c) for c in self.num.coeffs],
            "denominator": [str(c) for c in self.den.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalFunction":
        return cls([int(s) for s in data["numerator"]], [int(s) for s in data["denominator"]])

    def latex(self) -> str:
        return f"\\frac{{{polynomial_latex(self.num)}}}{{{polynomial_latex(self.den)}}}"


def _term_str(c: Rational, i: int, latex: bool) -> str:
    if i == 0:
        return str(c)
    if i == 1:
        body = "x"
    elif latex and i >= 10:
        body = f"x^{{{i}}}"
    else:
        body = f"x^{i}"
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}{body}"


def _poly_str(p: Polynomial, latex: bool = False) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        term = _term_str(abs(c) if parts else c, i, latex)
        if parts:
            parts.append("- " + term if c < 0 else "+ " + term)
        else:
            parts.append(term)
    return " ".join(parts)


def polynomial_str(p: Polynomial) -> str:
    """Human form, ascending degree: ``1 - 2x + 2x^2``."""
    return _poly_str(p)


def polynomial_latex(p: Polynomial) -> str:
    """Same layout with braced exponents where LaTeX needs them."""
    return _poly_str(p, latex=True)


class PowerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        self.coeffs = tuple([_coeff(c) for c in coeffs])
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1] + [0] * order)

    @classmethod
    def from_polynomial(cls, p: Polynomial, order: int) -> "PowerSeries":
        return cls([p.coefficient(i) for i in range(order + 1)])

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, i: int) -> Rational:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({[str(c) for c in self.coeffs]})"

    # -- arithmetic (orders combine to the smaller one) -------------------
    def _align(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = self._align(other)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = self._align(other)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeries(out)

    def scale(self, c) -> "PowerSeries":
        c = _coeff(c)
        return PowerSeries([c * a for a in self.coeffs])

    def mul_x_power(self, p: int) -> "PowerSeries":
        """Shift up; the truncation order grows by p (nothing is lost)."""
        return PowerSeries([0] * p + list(self.coeffs))

    def div_x_exact(self, p: int) -> "PowerSeries":
        """Shift down by x**p; the low coefficients must vanish.

        A nonzero low-order coefficient signals an algebra bug upstream,
        not a user error, hence the hard failure.
        """
        if p == 0:
            return self
        if p > self.order:
            raise ValueError("cannot divide past the truncation order")
        if any(c != 0 for c in self.coeffs[:p]):
            raise ValueError(f"series not divisible by x^{p}")
        return PowerSeries(self.coeffs[p:])

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        """Quotient c = a / b, term by term from c*b = a:
        c_n = (a_n - sum_{0<j<=min(n, last)} b_j c_{n-j}) / b_0, with
        ``last`` the index of b's last nonzero coefficient.
        """
        n = self._align(other)
        a, b = self.coeffs, other.coeffs
        b0 = b[0]
        if b0 == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        last = max(j for j in range(n + 1) if b[j])
        out: list[Rational] = []
        for m in range(n + 1):
            s = a[m]
            for j in range(1, min(m, last) + 1):
                s -= b[j] * out[m - j]
            out.append(_div(s, b0))
        return PowerSeries(out)

    def sqrt(self) -> "PowerSeries":
        """Principal square root of a series with constant term 1.

        Term-by-term from t*t = s: t_n = (s_n - sum_{0<i<n} t_i t_{n-i}) / 2.
        """
        if self.coeffs[0] != 1:
            raise ValueError("series square root requires constant term 1")
        out = [1]
        for n in range(1, self.order + 1):
            s = sum(out[i] * out[n - i] for i in range(1, n))
            out.append(_div(self.coeffs[n] - s, 2))
        return PowerSeries(out)


class BivariateSeries:
    """Truncated series in x and y; ``levels[j]`` is the x-series of y^j."""

    __slots__ = ("levels",)

    def __init__(self, levels: Sequence[PowerSeries]):
        levels = tuple(levels)
        if not levels:
            raise ValueError("need at least the y^0 level")
        if len({s.order for s in levels}) != 1:
            raise ValueError("all levels must share one x-truncation order")
        self.levels = levels

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, nx: int, ny: int) -> "BivariateSeries":
        return cls([PowerSeries.zero(nx) for _ in range(ny + 1)])

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], object], nx: int, ny: int) -> "BivariateSeries":
        """Exact polynomial data {(x_deg, y_deg): coeff} at the given orders."""
        rows = [[0] * (nx + 1) for _ in range(ny + 1)]
        for (i, j), c in terms.items():
            if j <= ny and i <= nx:
                rows[j][i] = c
        return cls([PowerSeries(row) for row in rows])

    # -- basics ----------------------------------------------------------
    @property
    def order_x(self) -> int:
        return self.levels[0].order

    @property
    def order_y(self) -> int:
        return len(self.levels) - 1

    @property
    def is_zero(self) -> bool:
        return all(level.is_zero for level in self.levels)

    def coefficient(self, i: int, j: int) -> Rational:
        return self.levels[j].coefficient(i)

    def slice_y(self, j: int) -> PowerSeries:
        """The x-series multiplying y^j."""
        return self.levels[j]

    def truncate(self, nx: int, ny: int) -> "BivariateSeries":
        if nx > self.order_x or ny > self.order_y:
            raise ValueError("cannot extend a truncated series")
        return BivariateSeries([lvl.truncate(nx) for lvl in self.levels[: ny + 1]])

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariateSeries) and self.levels == other.levels

    def __repr__(self) -> str:
        return f"BivariateSeries(order_x={self.order_x}, order_y={self.order_y})"

    # -- arithmetic --------------------------------------------------------
    def _align(self, other: "BivariateSeries") -> tuple[int, int]:
        return min(self.order_x, other.order_x), min(self.order_y, other.order_y)

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        nx, ny = self._align(other)
        return BivariateSeries(
            [self.levels[j].truncate(nx) + other.levels[j].truncate(nx) for j in range(ny + 1)]
        )

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries([-lvl for lvl in self.levels])

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        return self + (-other)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        nx, ny = self._align(other)
        zero = PowerSeries.zero(nx)
        out = []
        for m in range(ny + 1):
            acc = zero
            for i in range(m + 1):
                a = self.levels[i] if i <= self.order_y else None
                b = other.levels[m - i] if m - i <= other.order_y else None
                if a is not None and b is not None:
                    acc = acc + a.truncate(nx) * b.truncate(nx)
            out.append(acc)
        return BivariateSeries(out)

    def scale(self, c) -> "BivariateSeries":
        return BivariateSeries([lvl.scale(c) for lvl in self.levels])

    def mul_x_power(self, p: int) -> "BivariateSeries":
        return BivariateSeries([lvl.mul_x_power(p) for lvl in self.levels])

    def mul_y_power(self, p: int) -> "BivariateSeries":
        zero = PowerSeries.zero(self.order_x)
        return BivariateSeries([zero] * p + list(self.levels))

    def div_x_exact(self, p: int) -> "BivariateSeries":
        return BivariateSeries([lvl.div_x_exact(p) for lvl in self.levels])

    def div_y_exact(self, p: int) -> "BivariateSeries":
        if p == 0:
            return self
        if p > self.order_y:
            raise ValueError("cannot divide past the y-truncation order")
        if any(not lvl.is_zero for lvl in self.levels[:p]):
            raise ValueError(f"series not divisible by y^{p}")
        return BivariateSeries(self.levels[p:])

    def __truediv__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Division by a unit (nonzero constant term), level by level."""
        nx, ny = self._align(other)
        u0 = other.levels[0].truncate(nx)
        out: list[PowerSeries] = []
        for m in range(ny + 1):
            acc = self.levels[m].truncate(nx)
            for i in range(1, m + 1):
                if i <= other.order_y:
                    acc = acc - other.levels[i].truncate(nx) * out[m - i]
            out.append(acc / u0)
        return BivariateSeries(out)

    def sqrt(self) -> "BivariateSeries":
        """Square root with constant term 1, by powers of y.

        The y^0 level is a univariate square root; higher levels follow
        from matching coefficients in t*t = s and dividing by 2*t_0.
        """
        if self.levels[0].coeffs[0] != 1:
            raise ValueError("series square root requires constant term 1")
        t0 = self.levels[0].sqrt()
        two_t0 = t0.scale(2)
        out = [t0]
        for m in range(1, self.order_y + 1):
            acc = self.levels[m]
            for i in range(1, m):
                acc = acc - out[i] * out[m - i]
            out.append(acc / two_t0)
        return BivariateSeries(out)


# -- module-level operations -------------------------------------------------

def series_of(f: RationalFunction, order: int) -> PowerSeries:
    """First ``order``+1 Taylor coefficients of ``f`` at 0: num / den as series."""
    if f.den.constant_term() == 0:
        raise ZeroDivisionError("denominator constant term is zero; no Taylor expansion at 0")
    return PowerSeries.from_polynomial(f.num, order) / PowerSeries.from_polynomial(f.den, order)
