"""Exact polynomial, rational-function and truncated-series arithmetic.

``Polynomial`` and ``RationalFunction`` live in Z[x] and ``PowerSeries``
in Z[[x]]: their coefficients are ``int``s, and any other coefficient is
a ``TypeError``.  A ``fractions.Fraction`` appears only as a constant
operand of ``RationalFunction`` arithmetic and as the argument of
``RationalFunction.constant``, which turns p/q into the canonical
(p)/(q).  Every equality used anywhere in the package is exact.
``RationalFunction._coerce`` imports ``fractions`` only for an operand
that is not an ``int``, so integral work never loads it.  Annotations
are strings, and ``Rational`` in them means ``numbers.Rational``, which
is never imported.

Representations:

- ``Polynomial``: one ``int`` v = sum c_i 2**(w i), the polynomial at
  x = 2**w (Kronecker substitution; Harvey, J. Symbolic Comput. 44,
  2009), whose coefficients are balanced digits in slots of w bits.
  With v go the length n (no trailing zeros; the zero polynomial is
  v = 0, n = 0) and a bound ``bits`` with |c_i| < 2**bits.  The slot
  width w is the smallest multiple of 64 above ``bits``, and ``bits``
  always lies in the same 64-bit block as the exact bit length of the
  largest coefficient, so w depends on the polynomial alone:
  |c_i| < 2**(w-1), and equal polynomials have equal v (``==`` compares
  v and w, ``hash`` is v's).  Sums, negation, products and shifts are
  one operation on v whenever the bound of the result stays below 64
  bits (a product's bound is bits_a + bits_b plus the bits of the
  shorter length); otherwise both bounds are tightened to the exact bit
  lengths and the operation runs at the slot that the tighter bound
  needs, with the result put back in canonical form.  The coefficient
  tuple ``coeffs`` is decoded from v on demand, where digits are
  needed: content, sign, printing, JSON and ``series_of``.  Adding half
  a slot to every slot makes each digit non-negative without a carry,
  so the decode is a few whole-integer operations and one byte
  conversion.
- ``RationalFunction``: numerator/denominator pair in canonical form:
  coprime, joint content 1, and the lowest nonzero denominator
  coefficient positive.  Structural equality of canonical forms is
  therefore true equality.  Four operations build their canonical
  result directly, with no gcd: ``-f`` is (-num, den);
  ``f ± p`` for p in Z[x] is
  (num ± p*den, den), since gcd(num + p*den, den) = gcd(num, den);
  ``x**k * f`` is (x**k * num, den) when den(0) != 0, since then x does
  not divide den; and ``1 / f`` is (den, num), both negated when num's
  lowest nonzero coefficient is negative.  The literals ``zero``,
  ``one``, ``x`` and constants are canonical as written.
  The other sums, products and quotients cancel on their operands
  before they multiply (Henrici, JACM 3, 1956; Knuth, TAOCP 2, 4.5.1).
  For n1/d1 + n2/d2 write d1 = g c1, d2 = g c2 with g = gcd(d1, d2);
  the sum is t/(g c1 c2) with t = n1 c2 + n2 c1.  An irreducible factor
  of c1 divides t only if it divides n1 c2, hence n1, as c1 is prime to
  c2; but n1 is prime to d1.  Likewise for c2, so only h = gcd(t, g)
  cancels.  A product cancels gcd(n1, d2) and gcd(n2, d1) and
  multiplies the cofactors, which are coprime across since n1 is prime
  to d1 and n2 to d2; a quotient multiplies by (d2, n2).  The
  constructor takes ``polynomial_gcd(num, den)`` first.  Every one of
  these coprime pairs ends in ``_normalize``, which only divides out the
  joint content and makes the lowest denominator coefficient positive.
  ``polynomial_gcd(a, b)`` returns the gcd g together with a/g and
  b/g.  It is the heuristic gcd at xi = 2**w, the slot width, where
  a(xi) and b(xi) are the packed values themselves: when
  gcd(a(xi), b(xi)) < xi/2 the gcd is 1, after one ``math.gcd``.
  Otherwise the balanced base-xi digits of that integer give a
  candidate, whose primitive part is accepted only if one integer
  division per input leaves no remainder and a coefficient bound shows
  that the product of candidate and quotient is the input itself.  The
  two quotients are the cofactors; a rejected candidate means a larger
  xi.  ``polynomial_gcd``'s docstring proves that the shortcut and an
  accepted candidate are exact and that the loop ends.
- ``PowerSeries``: integer coefficients c_0..c_N, with ``+`` and ``*``
  only.  A sum or product is truncated at the smaller order of its
  operands, so it never claims a coefficient that either lacks.
  ``series_of`` expands a ``RationalFunction`` whose series lies in
  Z[[x]] by one integer division at a power of two, certified by its
  own remainder; its docstring proves the certificate exact.
- ``BivariateSeries``: a power series in y, truncated only in y, whose
  y^j coefficient is an exact ``RationalFunction`` in x.  Its square root
  takes the exact root of the y^0 coefficient from the caller and
  checks it, so every coefficient stays in Q(x), with no ``Fraction``
  and no truncation in x.

``vanishes`` decides whether an expression in ``+``, ``-`` and ``*``
over ``RationalFunction`` inputs is zero by one integer evaluation at a
power of two, with the denominators cleared and the power fixed by a
coefficient bound, as in the heuristic gcd; no gcd is taken and no
canonical form is built.  Its docstring proves the test exact.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from math import gcd
from operator import add, index, mul, sub


def _check_power(power: int) -> None:
    if power < 0:
        raise ValueError(f"x**{power}: the power must be at least 0")


def _slot(bits: int) -> int:
    """The smallest multiple of 64 above ``bits``."""
    return (bits | 63) + 1


# (w, n) -> _bias(w, n), filled on first use
_BIASES: dict[tuple[int, int], int] = {}


def _bias(w: int, n: int) -> int:
    """sum 2**(w-1) 2**(w i) over i < n: half a slot in each of n slots."""
    bias = _BIASES.get((w, n))
    if bias is None:
        bias = _BIASES[w, n] = int.from_bytes((bytes(w // 8 - 1) + b"\x80") * n, "little")
    return bias


def _digits(v: int, n: int, w: int) -> list[int]:
    """The n balanced base-2**w digits of v, lowest first; each must lie
    in [-2**(w-1), 2**(w-1)).  Adding half a slot to every slot then
    carries nowhere, and flipping each slot's top bit leaves the digit's
    w-bit two's complement, which the bytes are read as."""
    bias = _bias(w, n)
    u = (v + bias) ^ bias
    if w == 64:
        return memoryview(u.to_bytes(8 * n, sys.byteorder)).cast("q").tolist()
    s = w // 8
    raw = u.to_bytes(s * n, "little")
    return [int.from_bytes(raw[i : i + s], "little", signed=True) for i in range(0, s * n, s)]


def _all_digits(v: int, w: int) -> list[int]:
    """Every balanced base-2**w digit of v, lowest first, trailing zeros stripped."""
    digits = _digits(v, (v.bit_length() + 1) // w + 1, w)
    while digits and digits[-1] == 0:
        digits.pop()
    return digits


def _pack(coeffs: Sequence[int], w: int) -> int:
    """sum c_i 2**(w i), the inverse of ``_digits``."""
    s, bias = w // 8, _bias(w, len(coeffs))
    raw = b"".join([c.to_bytes(s, "little", signed=True) for c in coeffs])
    return (int.from_bytes(raw, "little") ^ bias) - bias


class Polynomial:
    """c_0 + c_1 x + ... + c_(n-1) x**(n-1) in Z[x], held as one integer
    v = sum c_i 2**(w i); see the module docstring."""

    __slots__ = ("v", "n", "bits")

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(map(index, coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        bits = max(map(abs, coeffs), default=0).bit_length()
        self.v, self.n, self.bits = _pack(coeffs, _slot(bits)), len(coeffs), bits

    @classmethod
    def _new(cls, v: int, n: int, bits: int) -> "Polynomial":
        """Wrap a packed value with its length and bound; no checks."""
        p = object.__new__(cls)
        p.v, p.n, p.bits = v, n, bits
        return p

    @classmethod
    def _at_slot(cls, v: int, w: int, digits: list[int] | None = None) -> "Polynomial":
        """The polynomial whose balanced base-2**w digits are those of v
        (``digits``, when the caller has them), in canonical form."""
        if digits is None:
            digits = _all_digits(v, w)
        bits = max(map(abs, digits), default=0).bit_length()
        return cls._new(v, len(digits), bits) if _slot(bits) == w else cls(digits)

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._new(0, 0, 0)

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._new(1, 1, 1)

    @classmethod
    def x(cls, power: int = 1) -> "Polynomial":
        _check_power(power)
        return cls._new(1 << 64 * power, power + 1, 1)

    # -- basics --------------------------------------------------------
    @property
    def coeffs(self) -> tuple[int, ...]:
        """c_0, ..., c_(n-1); the zero polynomial has none."""
        return tuple(_digits(self.v, self.n, _slot(self.bits)))

    @property
    def degree(self) -> int:
        return self.n - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.n

    def constant_term(self) -> int:
        w = _slot(self.bits)
        c = self.v & ((1 << w) - 1)
        return c - (1 << w) if c >> (w - 1) else c

    def _lowest(self) -> int:
        """The lowest nonzero coefficient; 0 for the zero polynomial."""
        c = self.constant_term()
        return c if c or not self.n else next(d for d in self.coeffs if d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.v == other.v
            and (self.bits | 63) == (other.bits | 63)
        )

    def __hash__(self) -> int:
        return hash(self.v)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"

    def _tighten(self) -> int:
        """Lower ``bits`` to the largest coefficient's bit length and return
        it; the slot stays, as it is canonical."""
        self.bits = max(map(abs, self.coeffs), default=0).bit_length()
        return self.bits

    def _packed(self, w: int) -> int:
        """This polynomial packed at slot width w, at least its own."""
        return self.v if w == _slot(self.bits) else _pack(self.coeffs, w)

    def _over(self, c: int) -> "Polynomial":
        """self / c for an ``int`` c that divides every coefficient."""
        if self.bits < 64:
            return Polynomial._new(self.v // c, self.n, self.bits)
        return Polynomial([d // c for d in self.coeffs])

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._sum(other, add)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._sum(other, sub)

    def _sum(self, other, op) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        bits = max(self.bits, other.bits) + 1
        if bits < 64:
            v = op(self.v, other.v)
            return Polynomial._new(v, (v.bit_length() >> 6) + 1 if v else 0, bits)
        return _wide(op, self, other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._new(-self.v, self.n, self.bits)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = min(self.n, other.n)
        if not n:
            return Polynomial.zero()
        # |sum a_i b_j| < n 2**(bits_a + bits_b) <= 2**bits
        bits = self.bits + other.bits + (n - 1).bit_length()
        if bits < 64:
            return Polynomial._new(self.v * other.v, self.n + other.n - 1, bits)
        return _wide(mul, self, other)

    def shift(self, power: int) -> "Polynomial":
        """Multiply by x**power."""
        _check_power(power)
        if not self.n:
            return self
        return Polynomial._new(self.v << _slot(self.bits) * power, self.n + power, self.bits)


def _wide(op, a: Polynomial, b: Polynomial) -> Polynomial:
    """a + b, a - b or a * b once the bound leaves the 64-bit slot: both
    bounds are first tightened to the exact bit lengths, the operation
    runs at the slot the tighter bound needs, and a wide result is put in
    canonical form."""
    ea, eb = a._tighten(), b._tighten()
    bits = ea + eb + (min(a.n, b.n) - 1).bit_length() if op is mul else max(ea, eb) + 1
    w = _slot(bits)
    v = op(a._packed(w), b._packed(w))
    if w == 64:
        return Polynomial._new(v, (v.bit_length() >> 6) + 1 if v else 0, bits)
    return Polynomial._at_slot(v, w)


def _cofactor(v: int, vh: int, h: Polynomial, w: int) -> Polynomial | None:
    """The polynomial Q with Q(xi) = v / vh, xi = 2**w, if vh divides v
    and h Q provably has every coefficient inside half a slot; else None."""
    q, r = divmod(v, vh)
    if r:
        return None
    quotient = Polynomial._at_slot(q, w)
    if h.bits + quotient.bits + (min(h.n, quotient.n) - 1).bit_length() >= w:
        return None
    return quotient


def polynomial_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, a/g, b/g) with g = gcd(a, b) primitive, leading coefficient > 0.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989) with a division certificate.  xi = 2**w for the slot width w
    that holds both a and b, so a(xi) and b(xi) are their packed values
    and |a|, |b| < xi/2, with |.| the largest absolute coefficient.  The
    inputs need not be primitive.  The balanced base-xi digits of
    gamma = gcd(a(xi), b(xi)) form a polynomial H, and h = pp(H).  If
    gamma < xi/2, H is a constant and the gcd is 1.  Otherwise h is
    accepted only if h(xi) = gamma / cont(H) divides a(xi) and b(xi) and
    each quotient's digits Q pass a bit-length bound that gives
    |h| |Q| min(len h, len Q) < xi/2.  Then h Q has all its coefficients
    inside (-xi/2, xi/2) and the value a(xi), so it is a, as balanced
    digits are unique.  The two Q are the
    returned cofactors.  Otherwise w grows by a quarter or more, in
    whole 64-bit slots, and the step repeats.

    An accepted h is exact, and so is the shortcut.  Let G = gcd(a, b),
    primitive, so G divides a and b in Z[x] and G(xi) divides gamma.  Let
    p be a nonzero input (a, or b when a = 0).  A root of G is a root of
    p, so below 1 + |p| in absolute value (Cauchy), and 1 + |p| <= xi/2
    as p sits in the slot.  So a nonconstant q | G has
    |q(xi)| > (xi/2)**deg q >= xi/2.  So gamma < xi/2 leaves G constant.
    For an accepted h, G = h q in Z[x], and q(xi) h(xi) = G(xi) divides
    gamma = cont(H) h(xi), so q(xi) divides cont(H), which is nonzero and
    at most xi/2, as H's digits are.  So q = 1.

    The loop ends.  With a = G A', b = G B', gamma is G(xi) times a
    factor s that divides Res(A', B') != 0, whatever xi is; when A' and
    B' are both constants, s = gcd(A', B').  A zero input is that case:
    if b = 0, then G = pp(a), A' = +-cont(a), B' = 0 and s = cont(a).
    Once xi > 2 |s G| and the bounds on G A' and G B' fit below xi/2,
    H = s G, h = G and both certificates hold.  Two zero inputs give
    (0, 0, 0).
    """
    if a.is_zero and b.is_zero:
        return a, a, b
    w = _slot(max(a.bits, b.bits))
    while True:
        va, vb = a._packed(w), b._packed(w)
        gamma = gcd(va, vb)
        if not gamma >> (w - 1):
            return Polynomial.one(), a, b
        digits = _all_digits(gamma, w)
        c = gcd(*digits)
        if digits[-1] < 0:
            c = -c
        vh = gamma // c
        h = Polynomial._at_slot(vh, w, [d // c for d in digits])
        qa = _cofactor(va, vh, h, w)
        if qa is not None:
            qb = _cofactor(vb, vh, h, w)
            if qb is not None:
                return h, qa, qb
        w += 64 * (w // 256 + 1)


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        _, num, den = polynomial_gcd(num, den)
        self.num, self.den = self._normalize(num, den)

    @classmethod
    def _canonical(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair that is already in canonical form; no ``_normalize``."""
        f = object.__new__(cls)
        f.num, f.den = num, den
        return f

    @staticmethod
    def _normalize(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
        """The canonical form of num/den for a pair that must already be
        coprime: divide out the joint content and make den's lowest
        nonzero coefficient positive.  No gcd is taken here."""
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return Polynomial(), Polynomial.one()
        low = den._lowest()
        if low == 1:
            return num, den  # the content divides den's lowest coefficient
        content = gcd(*num.coeffs, *den.coeffs)
        if low < 0:
            content = -content
        elif content == 1:
            return num, den
        return num._over(content), den._over(content)

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._canonical(Polynomial(), Polynomial.one())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._canonical(Polynomial.one(), Polynomial.one())

    @classmethod
    def x(cls, power: int = 1) -> "RationalFunction":
        return cls._canonical(Polynomial.x(power), Polynomial.one())

    @classmethod
    def constant(cls, c: Rational) -> "RationalFunction":
        """The constant c; an int n gives (n)/(1), a Fraction p/q gives (p)/(q)."""
        return cls._canonical(Polynomial((c.numerator,)), Polynomial((c.denominator,)))

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
        return hash((self.num.v, self.den.v))

    # -- arithmetic ----------------------------------------------------
    @staticmethod
    def _coerce(v) -> "RationalFunction | None":
        """v as a ``RationalFunction``: itself, or an ``int`` or ``Fraction``
        constant; None for any other operand, whose operator then returns
        ``NotImplemented``, so Python raises ``TypeError``."""
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, int):
            return RationalFunction.constant(v)
        from fractions import Fraction

        return RationalFunction.constant(v) if isinstance(v, Fraction) else None

    def _is_polynomial(self) -> bool:
        return self.den.v == 1

    def _x_power(self) -> int | None:
        """k when this is x**k, else None."""
        p = self.num
        if self._is_polynomial() and p.n and p.v == 1 << 64 * (p.n - 1):
            return p.n - 1
        return None

    def _plus_polynomial(self, p: Polynomial) -> "RationalFunction":
        """self + p, canonical as is: gcd(num + p*den, den) = gcd(num, den) = 1."""
        num = self.num + p * self.den
        if num.is_zero:
            return RationalFunction._canonical(num, Polynomial.one())
        return RationalFunction._canonical(num, self.den)

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._is_polynomial():
            return self._plus_polynomial(o.num)
        if self._is_polynomial():
            return o._plus_polynomial(self.num)
        if self.den == o.den:
            g, t, den = self.den, self.num + o.num, Polynomial.one()
        else:
            g, c1, c2 = polynomial_gcd(self.den, o.den)
            t, den = self.num * c2 + o.num * c1, c1 * c2
        if t.is_zero:
            return RationalFunction.zero()
        if g.degree > 0:
            _, t, g = polynomial_gcd(t, g)
        if g.v != 1:
            den = den * g
        return RationalFunction._canonical(*RationalFunction._normalize(t, den))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._canonical(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        for f, g in ((self, o), (o, self)):
            # x**k * g stays canonical when x does not divide g.den
            k = f._x_power()
            if k is not None and g.den.constant_term():
                return RationalFunction._canonical(g.num.shift(k), g.den)
        return self._times(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        if self.num.v == 1 and self._is_polynomial():
            # 1 / o is (o.den, o.num), negated if that den's lowest coefficient is negative
            num, den = o.den, o.num
            if den._lowest() < 0:
                num, den = -num, -den
            return RationalFunction._canonical(num, den)
        return self._times(o.den, o.num)

    def _times(self, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """self * (num/den) for coprime num, den: cancel each numerator
        against the other denominator, then multiply the cofactors."""
        if self.is_zero or num.is_zero:
            return RationalFunction.zero()
        _, n1, d2 = polynomial_gcd(self.num, den)
        _, n2, d1 = polynomial_gcd(num, self.den)
        return RationalFunction._canonical(*RationalFunction._normalize(n1 * n2, d1 * d2))

    def __rtruediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

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

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(map(index, coeffs))
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")

    @classmethod
    def _exact(cls, coeffs: tuple) -> "PowerSeries":
        """Wrap a tuple of ``int`` coefficients as is; no checks."""
        s = object.__new__(cls)
        s.coeffs = coeffs
        return s

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

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
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._align(other)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._align(other)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(out)


class BivariateSeries:
    """Power series in y truncated at y**order_y; ``levels[j]``, the
    coefficient of y**j, is an exact ``RationalFunction`` in x."""

    __slots__ = ("levels",)

    def __init__(self, levels: Iterable[RationalFunction]):
        levels = tuple(levels)
        if not levels:
            raise ValueError("need at least the y^0 level")
        self.levels = levels

    # -- basics ----------------------------------------------------------
    @property
    def order_y(self) -> int:
        return len(self.levels) - 1

    @property
    def is_zero(self) -> bool:
        return all(level.is_zero for level in self.levels)

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariateSeries) and self.levels == other.levels

    def __repr__(self) -> str:
        return f"BivariateSeries({[str(level) for level in self.levels]})"

    # -- arithmetic (orders combine to the smaller one) -------------------
    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return BivariateSeries([a + b for a, b in zip(self.levels, other.levels)])

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries([-level for level in self.levels])

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Cauchy product."""
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        a, b = self.levels, other.levels
        out = []
        for m in range(min(len(a), len(b))):
            acc = a[0] * b[m]
            for i in range(1, m + 1):
                acc = acc + a[i] * b[m - i]
            out.append(acc)
        return BivariateSeries(out)

    def __truediv__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Division by a unit (nonzero y^0 level), term by term from
        c*b = a: c_m = (a_m - sum_{0<i<=m} b_i c_(m-i)) / b_0."""
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        a, b = self.levels, other.levels
        out: list[RationalFunction] = []
        for m in range(min(len(a), len(b))):
            acc = a[m]
            for i in range(1, m + 1):
                if not b[i].is_zero:
                    acc = acc - b[i] * out[m - i]
            out.append(acc / b[0])
        return BivariateSeries(out)

    def sqrt(self, root0: RationalFunction) -> "BivariateSeries":
        """The square root t with y^0 level ``root0``, which must square to
        this series' y^0 level (``ValueError`` otherwise).  Matching y^m in
        t*t = s gives t_m = (s_m - sum_{0<i<m} t_i t_(m-i)) / (2 t_0)."""
        if root0 * root0 != self.levels[0]:
            raise ValueError("root0 is not a square root of the y^0 level")
        two_t0 = root0 + root0
        out = [root0]
        for m in range(1, len(self.levels)):
            out.append((self.levels[m] - _pair_sum(out, m)) / two_t0)
        return BivariateSeries(out)


def _pair_sum(t: Sequence[RationalFunction], m: int) -> RationalFunction:
    """sum t_i t_(m-i) over 0 < i < m, each mirrored pair formed once."""
    acc = RationalFunction.zero()
    for i in range(1, (m + 1) // 2):
        acc = acc + t[i] * t[m - i]
    acc = acc + acc
    if m % 2 == 0:
        acc = acc + t[m // 2] * t[m // 2]
    return acc


# -- module-level operations -------------------------------------------------


class _Cleared:
    """n / prod_a d_a**e_a over the distinct input denominators d_a of
    ``vanishes``, with n and each d_a an ``int`` (a value at x = 2**w)
    and e the exponent tuple.  A product adds exponents; a sum lifts
    both sides to the larger exponent of each d_a."""

    __slots__ = ("n", "e", "dens")

    def __init__(self, n: int, e: tuple[int, ...], dens: list[int]):
        self.n, self.e, self.dens = n, e, dens

    def _lift(self, other: "_Cleared") -> tuple[int, int, tuple[int, ...]]:
        """Both numerators over the common denominator, and its exponents."""
        n1, n2, e1, e2 = self.n, other.n, self.e, other.e
        if e1 == e2:
            return n1, n2, e1
        for d, a, b in zip(self.dens, e1, e2):
            if a < b:
                n1 *= d ** (b - a)
            elif b < a:
                n2 *= d ** (a - b)
        return n1, n2, tuple(map(max, e1, e2))

    def __add__(self, other: "_Cleared") -> "_Cleared":
        n1, n2, e = self._lift(other)
        return type(self)(n1 + n2, e, self.dens)

    def __sub__(self, other: "_Cleared") -> "_Cleared":
        n1, n2, e = self._lift(other)
        return type(self)(n1 - n2, e, self.dens)

    def __mul__(self, other: "_Cleared") -> "_Cleared":
        return type(self)(self.n * other.n, tuple(map(add, self.e, other.e)), self.dens)


class _Norm(_Cleared):
    """``_Cleared`` over l1 norms: n bounds the l1 norm of the numerator,
    so subtraction adds."""

    __slots__ = ()

    def __sub__(self, other: "_Cleared") -> "_Cleared":
        return self + other


def vanishes(expr, *inputs: RationalFunction) -> bool:
    """Whether ``expr(one, x, *inputs)`` is the zero function, for an
    ``expr`` built with binary ``+``, ``-`` and ``*`` alone.

    Let d_1, ..., d_m be the distinct denominators of the inputs other
    than 1.  Every value of the expression is N / prod_a d_a**e_a with
    N in Z[x]: an input num/d_a has N = num and e_a = 1, ``one`` and
    ``x`` have N = 1 and x; a product multiplies the numerators and adds
    the exponents, and a sum or difference first multiplies each side's
    N by d_a**(e - e_a) to reach the larger exponent e of each d_a, so
    that an equal denominator is shared as in an lcm.  ``expr`` runs
    twice, over ``_Cleared`` numbers.  The first run replaces every
    polynomial by its l1 norm, where a sum or difference adds and a
    product multiplies; the triangle inequality and |pq|_1 <= |p|_1 |q|_1
    make its result a bound on |N|_1, and B is the largest of it and the
    l1 norms of the inputs' numerators and denominators.  The second run
    evaluates every polynomial at X = 2**w, w = ``_slot(B.bit_length() +
    1)``, which is each packed value at the slot w; as evaluation is a
    ring map, it ends with N(X).  The identity holds iff N(X) = 0:

    - every d_a(X) != 0, and the cleared denominator prod_a d_a**e_a is
      a nonzero polynomial, so the expression is 0 iff N = 0;
    - every coefficient of N, d_a and the numerators is at most
      B < 2**(w-1) = X/2 in absolute value, and balanced base-X digits
      are unique, so a nonzero polynomial among them is nonzero at X;
      N(X) = 0 thus holds iff N = 0, and d_a(X) != 0.

    w comes from B, not from the slots of the inputs: f = x and the
    constant g = 2**62 both sit in 64-bit slots, and f - 4g is nonzero
    but vanishes at x = 2**64, where B = 2**64 + 1 puts X at 2**128.
    The expression itself needs no gcd, no canonical form and no
    ``RationalFunction`` arithmetic.
    """
    index: dict[Polynomial, int] = {}
    for f in inputs:
        if f.den.v != 1:
            index.setdefault(f.den, len(index))
    unit = (0,) * len(index)
    exps = []
    for f in inputs:
        e = list(unit)
        if f.den.v != 1:
            e[index[f.den]] = 1
        exps.append(tuple(e))
    dens = [(d, d.coeffs) for d in index]
    nums = [(f.num, f.num.coeffs) for f in inputs]
    norms = [sum(map(abs, c)) for _, c in dens]
    bounds = [sum(map(abs, c)) for _, c in nums]
    one = _Norm(1, unit, norms)  # |1|_1 = |x|_1 = 1
    bound = expr(one, one, *(_Norm(b, e, norms) for b, e in zip(bounds, exps))).n
    w = _slot(max((bound, *norms, *bounds)).bit_length() + 1)

    def at(p: Polynomial, coeffs: tuple[int, ...]) -> int:
        return p.v if _slot(p.bits) == w else _pack(coeffs, w)

    vals = [at(*d) for d in dens]
    values = [_Cleared(at(*p), e, vals) for p, e in zip(nums, exps)]
    return not expr(_Cleared(1, unit, vals), _Cleared(1 << w, unit, vals), *values).n


# ``series_of`` is one long division whose cost grows like N**3: at 1000
# terms it takes at most 0.13 s over every avoid and once gf with k <= 8
# (CPython 3.11, 2 vCPUs x86_64), 30-55 times the term recurrence.
SERIES_ORDER_CAP = 1000

# certified expansions keyed by (f, order); see ``series_of``
_SERIES_MEMO: dict[tuple[RationalFunction, int], PowerSeries] = {}


def series_of(f: RationalFunction, order: int) -> PowerSeries:
    """First ``order``+1 Taylor coefficients of ``f`` at 0, read off one
    integer division (Kronecker substitution; Harvey, J. Symbolic
    Comput. 44, 2009).

    The series must lie in Z[[x]] and 0 <= ``order`` <=
    ``SERIES_ORDER_CAP``; anything else is a ``ValueError``, and a pole
    at 0 is a ``ZeroDivisionError``.  For f = P/D in canonical form the
    series lies in Z[[x]] exactly when D(0) = 1.  If D(0) = 1, the term
    recurrence c_n = P_n - sum_{j>=1} D_j c_(n-j) divides by nothing.
    Conversely, a rational series in Z[[x]] is P'/D' with P', D' coprime
    in Z[x] and D'(0) = 1 (Fatou's lemma); then the joint content is 1
    and the sign is canonical, so (P', D') = (P, D).  Every series this
    package expands counts permutations, so it lies in Z[[x]].

    Write N = ``order`` and d = deg D, and keep only P_i with i <= N
    (higher terms cannot reach c_N).  With X = 2**k and the reversed
    polynomials packed at X, A = sum_i P_i X**(N+d-i) and
    B = sum_j D_j X**(d-j), one ``divmod`` gives q = round(A/B) and
    r = A - qB.  The N+1 balanced base-X digits of q are c_N, ..., c_0;
    they are accepted if they exhaust q and

        2(|D|_1 max|c_n| + |P|) < X   and   2|r| < X**d,

    with |.| the largest absolute coefficient and |.|_1 their sum.
    Otherwise k doubles.

    Accepted digits are the series.  Let E = sum_n c_n x**n and
    S(y) = y**(N+d) (P - D E)(1/y), so that S(X) = A - qB = r.  Each
    coefficient of S is a coefficient of P minus at most one product
    D_j c_n per j, so below X/2 in absolute value by the first
    inequality.  A nonzero coefficient at degree m >= d would then make
    |S(X)| >= X**m - (X**m - 1)/2 > X**d/2, against the second; so
    deg S < d, and P - D E = x**(N+d) S(1/x) has no term below x**(N+1).
    As D(0) = 1, E is then the series of P/D to order N.

    The loop ends.  For the true c_n, dividing the reversed polynomials
    gives A(y) = B(y) C(y) + R(y) with C(X) = sum_n c_n X**(N-n) and
    deg R < d.  Once X is large against |P|, |D|, R and max|c_n|,
    |R(X)| < B(X)/2, so q = C(X), r = R(X), and both inequalities hold.

    k starts at 2N + 2 plus the bits of the two margins, room for
    |c_n| < 4**n: each series this package expands counts 132-avoiding
    permutations, at most the Catalan number C_n < 4**n.  Other series
    double k until certified; the start affects speed only.

    Cost: CPython's long division is schoolbook, so one attempt takes
    about (N+1) d (k/30)**2 digit steps, against (N+1) d small products
    for the term recurrence.  The division wins while k spans a few
    machine digits (N near 30), but k grows with N, so its cost grows
    like N**3; hence ``SERIES_ORDER_CAP``.

    Certified expansions are memoized by (f, N) for the life of the
    process, and a repeated call returns the same shared ``PowerSeries``;
    treat it as immutable.  ``f`` is keyed by its canonical form, which
    is unique, so a hit is the series a fresh division would certify.
    Both refusals run before the lookup, and only certified results are
    stored.
    """
    d0 = f.den.constant_term()
    if d0 != 1:
        if d0 == 0:
            raise ZeroDivisionError("denominator constant term is zero; no Taylor expansion at 0")
        raise ValueError(f"the series is not in Z[[x]]: its denominator's constant term is {d0}, not 1")
    n = index(order)
    if not 0 <= n <= SERIES_ORDER_CAP:
        raise ValueError(f"the series order must be between 0 and {SERIES_ORDER_CAP}, got {n}")
    key = (f, n)
    hit = _SERIES_MEMO.get(key)
    if hit is not None:
        return hit
    num, den = f.num.coeffs, f.den.coeffs
    p = num[: n + 1]
    deg = len(den) - 1
    norm_p = max(map(abs, p), default=0)
    norm_d = sum(map(abs, den))
    k = 2 * n + 2 + norm_d.bit_length() + norm_p.bit_length()
    while True:
        a = b = 0
        for c in p:
            a = (a << k) + c
        a <<= k * (n + deg + 1 - len(p))
        for c in den:
            b = (b << k) + c
        q, r = divmod(a, b)
        if 2 * r > b:
            q += 1
            r -= b
        x = 1 << k
        mask, half = x - 1, x >> 1
        e = []
        for _ in range(n + 1):
            c = q & mask
            q >>= k
            if c > half:
                c -= x
                q += 1
            e.append(c)
        if (
            not q
            and 2 * (norm_d * max(map(abs, e)) + norm_p) >> k == 0
            and (2 * abs(r)).bit_length() <= deg * k
        ):
            break
        k *= 2
    e.reverse()
    series = _SERIES_MEMO[key] = PowerSeries._exact(tuple(e))
    return series
