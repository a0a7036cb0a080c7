"""Chebyshev polynomials of the second kind and their radical-free companions.

``chebyshev_u(p)`` builds U_p in the variable z from the three-term
recurrence U_0 = 1, U_1 = 2z, U_{p+1} = 2z*U_p - U_{p-1}.

Many closed forms in this package live at the substitution z = 1/(2*sqrt(x)),
which drags sqrt(x) into every formula.  The companion polynomial

    V_p(x) = x^(p/2) * U_p(1/(2*sqrt(x)))

absorbs the radical: writing U_p(z) = sum u_i z^i (nonzero only for
i = p mod 2), each term contributes u_i * x^(p/2) / (2^i x^(i/2)) =
(u_i / 2^i) * x^((p-i)/2) with an integer exponent, so V_p is an honest
integer polynomial.  Multiplying the defining recurrence by x^((p+1)/2)
turns it into V_{p+1} = V_p - x*V_{p-1} with V_0 = V_1 = 1, which gives
deg V_p = floor(p/2) and V_p(0) = 1.

The quotient R_p(x) = U_{p-1}(z) / (sqrt(x) * U_p(z)) then collapses to
x^((p-1)/2) U_{p-1} / (x^(1/2) x^(p/2) U_p) * x^... = V_{p-1} / V_p: the
x-powers cancel exactly, so R_p is rational with no radical.

``check_identity`` verifies six exact identities; parts (i)-(ii) in z,
parts (iii)-(vi) in x via the V translation, whose exponent bookkeeping
is documented on the function.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Polynomial, RationalFunction


@lru_cache(maxsize=None)
def chebyshev_u(p: int) -> Polynomial:
    """U_p as an integer polynomial in z (degree p)."""
    if p < 0:
        raise ValueError(f"index must be nonnegative: {p}")
    if p == 0:
        return Polynomial((1,))
    if p == 1:
        return Polynomial((0, 2))
    two_z = Polynomial((0, 2))
    return two_z * chebyshev_u(p - 1) - chebyshev_u(p - 2)


@lru_cache(maxsize=None)
def v_poly(p: int) -> Polynomial:
    """Companion polynomial V_p(x) = x^(p/2) * U_p(1/(2*sqrt(x))).

    Satisfies V_0 = V_1 = 1 and V_{p+1} = V_p - x*V_{p-1}; degree
    floor(p/2), constant term 1.  See the module docstring for the
    derivation.
    """
    if p < 0:
        raise ValueError(f"index must be nonnegative: {p}")
    if p <= 1:
        return Polynomial((1,))
    x = Polynomial.x()
    return v_poly(p - 1) - x * v_poly(p - 2)


def r_func(p: int) -> RationalFunction:
    """The rational function R_p = V_{p-1} / V_p, defined for p >= 1.

    Equals U_{p-1}(z) / (sqrt(x) U_p(z)) at z = 1/(2*sqrt(x)) and obeys
    R_1 = 1, R_{p+1} = 1 / (1 - x*R_p).
    """
    if p < 1:
        raise ValueError(f"index must be at least 1: {p}")
    # canonical as is: gcd(V_p, V_{p-1}) = gcd(V_{p-1}, x V_{p-2}) = ... = 1
    # since every V_q(0) = 1, which also makes the content 1 and the sign right
    return RationalFunction._canonical(v_poly(p - 1), v_poly(p))


def r_func_or_zero(p: int) -> RationalFunction:
    """R_p extended by R_0 = 0 (U_{-1} = 0), used by layered recursions."""
    if p == 0:
        return RationalFunction.zero()
    return r_func(p)


def _rf(num_polys, den_polys, x_power: int = 0) -> RationalFunction:
    num = Polynomial((1,))
    for q in num_polys:
        num = num * q
    den = Polynomial((1,))
    for q in den_polys:
        den = den * q
    return RationalFunction(num.shift(x_power), den)


def check_identity(which: str, **params: int) -> bool:
    """Exactly verify one of six product identities.

    Parts in z (checked as polynomial identities via ``chebyshev_u``):

    - ``i``  for s+w-1 >= t >= w >= 1:
        U_s*U_t - U_{s+w}*U_{t-w} = U_{w-1}*U_{s-t+w-1}.
        (The subtracted product must use index t-w; the variant with
        t+w already fails at s=2, t=1, w=1 on degree grounds.)
    - ``ii`` for s,t >= 0, w >= 1:
        U_{s+w}*U_{t+w} - U_s*U_t = U_{w-1}*U_{s+t+w+1}.

    Parts in x (checked as canonical rational-function identities).
    Translating with U_q = x^(-q/2) V_q, the stray sqrt(x) powers cancel
    as annotated:

    - ``iii`` for p >= 1:  R_{p+1} = 1/(1 - x*R_p)
        (in V terms this is exactly the recurrence V_{p+1} = V_p - x*V_{p-1}).
    - ``iv``  for a,b >= 1:  1 - x*R_a*R_b = V_{a+b}/(V_a*V_b)
        (x^(-(a+b)/2) clears identically on both sides).
    - ``v``   for a,b >= 1:  1 - x*R_a - x*R_b = V_{a+b+1}/(V_a*V_b)
        (the right-hand side carries sqrt(x)*U_{a+b+1}, contributing
        x^(1/2 - (a+b+1)/2 + (a+b)/2) = x^0).
    - ``vi``  for a >= b+1 >= 2:  R_a - R_b = x^b * V_{a-b-1}/(V_a*V_b)
        (here x^(-(a-b-1)/2 - 1/2 + (a+b)/2) = x^b survives).

    A missing or unexpected parameter is a ``ValueError`` naming the
    part's parameters, as is a parameter outside the part's range.
    """
    if which in ("i", "ii"):
        names, known = "s, t, w", len(params) == 3 and "s" in params and "t" in params and "w" in params
    elif which == "iii":
        names, known = "p", len(params) == 1 and "p" in params
    elif which in ("iv", "v", "vi"):
        names, known = "a, b", len(params) == 2 and "a" in params and "b" in params
    else:
        raise ValueError(f"unknown identity {which!r}; expected one of i..vi")
    if not known:
        got = ", ".join(sorted(params)) or "none"
        raise ValueError(f"identity ({which}) takes the parameters {names}, got {got}")
    if which == "i":
        s, t, w = params["s"], params["t"], params["w"]
        if not (w >= 1 and t >= w and s + w - 1 >= t):
            raise ValueError(f"need s+w-1 >= t >= w >= 1, got s={s} t={t} w={w}")
        lhs = chebyshev_u(s) * chebyshev_u(t) - chebyshev_u(s + w) * chebyshev_u(t - w)
        return lhs == chebyshev_u(w - 1) * chebyshev_u(s - t + w - 1)
    if which == "ii":
        s, t, w = params["s"], params["t"], params["w"]
        if not (s >= 0 and t >= 0 and w >= 1):
            raise ValueError(f"need s,t >= 0 and w >= 1, got s={s} t={t} w={w}")
        lhs = chebyshev_u(s + w) * chebyshev_u(t + w) - chebyshev_u(s) * chebyshev_u(t)
        return lhs == chebyshev_u(w - 1) * chebyshev_u(s + t + w + 1)
    if which == "iii":
        p = params["p"]
        if p < 1:
            raise ValueError(f"need p >= 1, got {p}")
        return r_func(p + 1) == RationalFunction.one() / (RationalFunction.one() - RationalFunction.x() * r_func(p))
    if which == "iv":
        a, b = params["a"], params["b"]
        if not (a >= 1 and b >= 1):
            raise ValueError(f"need a,b >= 1, got a={a} b={b}")
        lhs = RationalFunction.one() - RationalFunction.x() * r_func(a) * r_func(b)
        return lhs == _rf([v_poly(a + b)], [v_poly(a), v_poly(b)])
    if which == "v":
        a, b = params["a"], params["b"]
        if not (a >= 1 and b >= 1):
            raise ValueError(f"need a,b >= 1, got a={a} b={b}")
        lhs = RationalFunction.one() - RationalFunction.x() * r_func(a) - RationalFunction.x() * r_func(b)
        return lhs == _rf([v_poly(a + b + 1)], [v_poly(a), v_poly(b)])
    a, b = params["a"], params["b"]  # which == "vi"
    if not (a >= b + 1 >= 2):
        raise ValueError(f"need a >= b+1 >= 2, got a={a} b={b}")
    lhs = r_func(a) - r_func(b)
    return lhs == _rf([v_poly(a - b - 1)], [v_poly(a), v_poly(b)], x_power=b)


def identity_instances(which: str, max_index: int):
    """All valid parameter tuples whose polynomial indices stay <= max_index."""
    m = max_index
    if which == "i":
        return [
            {"s": s, "t": t, "w": w}
            for w in range(1, m + 1)
            for t in range(w, m + 1)
            for s in range(max(t - w + 1, 0), m - w + 1)
        ]
    if which == "ii":
        return [
            {"s": s, "t": t, "w": w}
            for w in range(1, m)
            for s in range(0, m - w)
            for t in range(0, m - w - s)
        ]
    if which == "iii":
        return [{"p": p} for p in range(1, m)]
    if which == "iv":
        return [{"a": a, "b": b} for a in range(1, m) for b in range(1, m - a + 1)]
    if which == "v":
        return [{"a": a, "b": b} for a in range(1, m) for b in range(1, m - a)]
    if which == "vi":
        return [{"a": a, "b": b} for a in range(2, m + 1) for b in range(1, a)]
    raise ValueError(f"unknown identity {which!r}")


def sweep_identities(max_index: int) -> dict[str, tuple[int, int]]:
    """Run every identity over all valid parameters with indices <= max_index.

    Returns {part: (passes, instances)}.
    """
    results = {}
    for which in ("i", "ii", "iii", "iv", "v", "vi"):
        instances = identity_instances(which, max_index)
        passes = sum(1 for kw in instances if check_identity(which, **kw))
        results[which] = (passes, len(instances))
    return results
