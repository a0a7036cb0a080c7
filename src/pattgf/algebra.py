"""Exact polynomial, rational-function and truncated-series arithmetic.

``Polynomial`` and ``RationalFunction`` live in Z[x] and ``PowerSeries``
in Z[[x]]: their coefficients are ``int``s, and any other coefficient is
a ``TypeError``.  Every equality used anywhere in the package is exact.

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
  therefore true equality.  It is a value and has no operators: a
  caller works on (numerator, denominator) pairs of ``Polynomial``s,
  adds two of them with ``_plus``, over the lcm of the denominators,
  and ends in one constructor call: ``polynomial_gcd`` of the pair,
  then ``_normalize``, which divides out the joint content and makes
  the lowest denominator coefficient positive.  The literals ``zero``,
  ``one`` and ``x`` and ``_canonical`` skip the gcd.
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
  accepted candidate are exact and that the loop ends.  At the 64-bit
  slot each quotient's length and a bound come off its packed value,
  one masked add per width of a short ladder (``_read``), and so does
  the candidate when its constant digit is +-1.  Digits are decoded
  when no width holds them, when the certificate fails at the bound
  read, for a candidate's content, and at wider slots.
  ``exact_quotient`` divides under the same certificate.
- ``PowerSeries``: integer coefficients c_0..c_N, with ``+`` and ``*``
  only.  A sum or product is truncated at the smaller order of its
  operands, so it never claims a coefficient that either lacks.
  ``series_of`` expands a ``RationalFunction`` whose series lies in
  Z[[x]] by the term recurrence, in ``int``s; its docstring shows that
  the series lies in Z[[x]] exactly when the denominator's constant
  term is 1.
- ``BivariateSeries``: a power series in y, truncated only in y, whose
  y^j coefficient is an exact ``RationalFunction`` in x.  Each level of
  a sum, product, quotient or square root is summed on pairs with
  ``_plus`` and takes one constructor gcd.  The square root takes the
  exact root of the y^0 coefficient from the caller and checks it, so
  every coefficient stays in Q(x), with no truncation in x.
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


_LOW64 = (1 << 64) - 1


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


def _read(v: int) -> Polynomial | None:
    """The polynomial packed in v at the 64-bit slot, its length and a
    bound read off v alone, or None if no width of the ladder holds it.

    With n slots and 2**(b-1) added to each, every digit lies in
    [-2**(b-1), 2**(b-1)) exactly when no bit of the sum falls outside
    the low b bits of a slot (the complement of that mask also covers a
    negative sum and every bit above slot n): then no slot carries and
    each holds its digit plus 2**(b-1).  The top digit is then nonzero,
    so n is the length: n is chosen so that v has at least 64n - 65
    bits, and a zero top digit would leave it at most 64n - 80."""
    if not v:
        return Polynomial.zero()
    n = (v.bit_length() + 1 >> 6) + 1
    full = _bias(64, n)
    ones = full >> 63
    for b in (8, 16, 24, 32, 48):
        half = full >> 64 - b
        if not (v + half) & ~((half << 1) - ones):
            return Polynomial._new(v, n, b)
    return None


def _cofactor(v: int, vh: int, h: Polynomial, w: int) -> Polynomial | None:
    """The polynomial Q with Q(xi) = v / vh, xi = 2**w, if vh divides v
    and h Q provably has every coefficient inside half a slot; else None.
    At the 64-bit slot Q is first read off the packed value; the digits
    are decoded, and h's bound tightened, only if no width holds Q or
    the certificate fails at the bounds read."""
    q, r = divmod(v, vh)
    if r:
        return None
    if w == 64:
        quotient = _read(q)
        if quotient is not None and h.bits + quotient.bits + (min(h.n, quotient.n) - 1).bit_length() < 64:
            return quotient
        h._tighten()
    quotient = Polynomial._at_slot(q, w)
    if h.bits + quotient.bits + (min(h.n, quotient.n) - 1).bit_length() >= w:
        return None
    return quotient


def _wider(w: int) -> int:
    """The next slot width to try: a quarter or more wider, in whole 64-bit slots."""
    return w + 64 * (w // 256 + 1)


def exact_quotient(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b for a nonzero b that divides a in Z[x]: one ``divmod`` at the
    slot that holds both, certified as in ``polynomial_gcd``, at a wider
    slot until the certificate holds (once xi/2 exceeds the bound of b Q)."""
    w = _slot(max(a.bits, b.bits))
    while True:
        q = _cofactor(a._packed(w), b._packed(w), b, w)
        if q is not None:
            return q
        w = _wider(w)


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
    whole 64-bit slots, and the step repeats.  A constant digit +-1 of
    gamma makes cont(H) = 1, and gamma > 0 makes H's leading digit
    positive, so then h = H, with no content to find.

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
        vh = gamma
        h = _read(gamma) if w == 64 and gamma & _LOW64 in (1, _LOW64) else None
        if h is None:
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
        w = _wider(w)


def _plus(n1: Polynomial, d1: Polynomial, n2: Polynomial, d2: Polynomial) -> tuple[Polynomial, Polynomial]:
    """n1/d1 + n2/d2 as a pair over lcm(d1, d2): with g = gcd(d1, d2) and
    d_i = g c_i, (n1 c2 + n2 c1)/(d1 c2); equal denominators just add
    numerators.  Nothing cancels, so the sum is exact but not canonical."""
    if d1 == d2:
        return n1 + n2, d1
    _, c1, c2 = polynomial_gcd(d1, d2)
    return n1 * c2 + n2 * c1, d1 * c2


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


def _term_str(c: int, i: int, latex: bool) -> str:
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
        pairs = zip(self.levels, other.levels)
        return BivariateSeries([RationalFunction(*_plus(a.num, a.den, b.num, b.den)) for a, b in pairs])

    def __neg__(self) -> "BivariateSeries":
        return BivariateSeries([RationalFunction._canonical(-f.num, f.den) for f in self.levels])

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Cauchy product."""
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        a, b = self.levels, other.levels
        n = min(len(a), len(b))
        return BivariateSeries([RationalFunction(*_products(zip(a[: m + 1], b[m::-1]))) for m in range(n)])

    def __truediv__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Division by a unit (nonzero y^0 level), term by term from
        c*b = a: c_m = (a_m - sum_{0<i<=m} b_i c_(m-i)) / b_0."""
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        a, b = self.levels, other.levels
        out: list[RationalFunction] = []
        for m in range(min(len(a), len(b))):
            n, d = _products((b[i], out[m - i]) for i in range(1, m + 1) if not b[i].is_zero)
            n, d = _plus(a[m].num, a[m].den, -n, d)
            out.append(RationalFunction(n * b[0].den, d * b[0].num))
        return BivariateSeries(out)

    def sqrt(self, root0: RationalFunction) -> "BivariateSeries":
        """The square root t with y^0 level ``root0``, which must square to
        this series' y^0 level (``ValueError`` otherwise).  Matching y^m in
        t*t = s gives t_m = (s_m - sum_{0<i<m} t_i t_(m-i)) / (2 t_0),
        each mirrored pair formed once and doubled."""
        if RationalFunction(root0.num * root0.num, root0.den * root0.den) != self.levels[0]:
            raise ValueError("root0 is not a square root of the y^0 level")
        t, two_t0 = [root0], root0.num + root0.num
        for m in range(1, len(self.levels)):
            n, d = _products((t[i], t[m - i]) for i in range(1, (m + 1) // 2))
            n = n + n
            if m % 2 == 0:
                h = t[m // 2]
                n, d = _plus(n, d, h.num * h.num, h.den * h.den)
            s = self.levels[m]
            n, d = _plus(s.num, s.den, -n, d)
            t.append(RationalFunction(n * root0.den, d * two_t0))
        return BivariateSeries(t)


def _products(pairs) -> tuple[Polynomial, Polynomial]:
    """sum f g over the (f, g) in ``pairs``, as an exact pair summed with ``_plus``."""
    n, d = Polynomial.zero(), Polynomial.one()
    for f, g in pairs:
        n, d = _plus(n, d, f.num * g.num, f.den * g.den)
    return n, d


# The order cap bounds the output and the memo, not the cost: the term
# recurrence expands the 67 distinct k = 8 avoid gfs to 1000 terms in
# 0.12-0.19 s (CPython 3.11, 2 vCPUs x86_64), and those 67 expansions
# hold 9.8 MB of coefficients.
SERIES_ORDER_CAP = 1000

# expansions keyed by (f, order); see ``series_of``
_SERIES_MEMO: dict[tuple[RationalFunction, int], PowerSeries] = {}


def series_of(f: RationalFunction, order: int) -> PowerSeries:
    """First ``order``+1 Taylor coefficients of ``f`` at 0, by the term
    recurrence.

    The series must lie in Z[[x]] and 0 <= ``order`` <=
    ``SERIES_ORDER_CAP``; anything else is a ``ValueError``, and a pole
    at 0 is a ``ZeroDivisionError``.  For f = P/D in canonical form the
    series lies in Z[[x]] exactly when D(0) = 1.  If D(0) = 1, the term
    recurrence c_n = P_n - sum_{j>=1} D_j c_(n-j) divides by nothing.
    Conversely, a rational series in Z[[x]] is P'/D' with P', D' coprime
    in Z[x] and D'(0) = 1 (Fatou's lemma); then the joint content is 1
    and the sign is canonical, so (P', D') = (P, D).  Every series this
    package expands counts permutations, so it lies in Z[[x]].  Each
    term is exact integer arithmetic, so there is nothing to certify.

    Expansions are memoized by (f, N) for the life of the process, and a
    repeated call returns the same shared ``PowerSeries``; treat it as
    immutable.  ``f`` is keyed by its canonical form, which is unique, so
    a hit is the series a fresh expansion would give.  Both refusals run
    before the lookup.
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
    num, tail = f.num.coeffs, f.den.coeffs[1:]
    e = []
    for p in num[: n + 1] + (0,) * (n + 1 - len(num)):
        e.append(p - sum(map(mul, tail, reversed(e))))
    series = _SERIES_MEMO[key] = PowerSeries._exact(tuple(e))
    return series
