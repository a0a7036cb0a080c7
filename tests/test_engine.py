import hashlib
import json
import re
import threading
import time
from collections import Counter
from math import comb

import pytest

from pattgf import engine
from pattgf.algebra import Polynomial, RationalFunction, series_of
from pattgf.chebyshev import v_poly
from pattgf.engine import (
    _AVOID_MEMO,
    _LEVEL_MEMO,
    avoid_gf,
    once_gf,
    phi_closed_series,
    psi_closed_series,
)
from pattgf.errors import NotIn132Class, PatternError, UnsupportedPattern
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series
from pattgf.patterns import (
    as_pattern,
    blocks,
    canonical_decompose,
    contains_132,
    decreasing,
    expand_layered,
    expand_wedge_top,
    format_pattern,
    increasing,
    inverse,
    occurrence_count,
)
from pattgf.relations import verify_relation


def rf(num, den=(1,)):
    return RationalFunction(num, den)


def coeffs(f, n):
    return [int(c) for c in series_of(f, n).coeffs]


class TestAvoidGf:
    def test_golden_321(self):
        assert avoid_gf((3, 2, 1)) == rf((1, -2, 2), (1, -3, 3, -1))

    def test_golden_3214(self):
        assert avoid_gf((3, 2, 1, 4)) == rf((1, -3, 3, -1), (1, -4, 5, -3))

    def test_base_cases(self):
        assert avoid_gf(()) == RationalFunction.zero()
        assert avoid_gf((1,)) == RationalFunction.one()
        assert avoid_gf((1, 2)) == rf((1,), (1, -1))
        assert avoid_gf((2, 1)) == rf((1,), (1, -1))

    def test_rejects_132_containers(self):
        with pytest.raises(NotIn132Class):
            avoid_gf((1, 3, 2))
        with pytest.raises(NotIn132Class):
            avoid_gf((1, 4, 3, 2))

    def test_value_at_zero_is_one(self):
        for pat in [(2, 1, 3), (3, 1, 2), decreasing(6), expand_layered((5, 2))]:
            f = avoid_gf(pat)
            assert f.num.constant_term() == f.den.constant_term() == 1

    def test_linear_solve_divisor_never_zero(self, prefix_pattern, suffix_pattern, plain):
        # the divisor 1 - x F_pre0 - x F_sufr has constant term 1
        x = RationalFunction.x()
        for pat in [(3, 2, 1), (4, 3, 2, 1), expand_layered((5, 3, 1))]:
            d = canonical_decompose(pat)
            div = plain.sub(
                plain.sub(RationalFunction.one(), plain.mul(x, avoid_gf(prefix_pattern(d, 0)))),
                plain.mul(x, avoid_gf(suffix_pattern(d, d.r))),
            )
            assert div.num.constant_term() == div.den.constant_term() == 1

    def test_memo_values_normalized(self):
        avoid_gf((4, 3, 2, 1))
        for key, value in _AVOID_MEMO.items():
            if key:
                assert value.num.constant_term() == value.den.constant_term() == 1
            else:
                assert value.is_zero

    def test_trivial_prefix_is_catalan(self, catalan):
        for k in (4, 6):
            got = coeffs(avoid_gf(decreasing(k)), k - 1)
            assert got == [catalan(n) for n in range(k)]

    def test_matches_oracle_at_size_six(self):
        # one size beyond the exhaustive acceptance sweep
        for tau in enumerate_avoiders(6):
            got = coeffs(avoid_gf(tau), 8)
            assert got == list(series(ConstraintSpec(avoid=(tau,)), 8).counts), tau

    def test_thread_safe_memo(self):
        errors = []

        def work():
            try:
                for pat in [decreasing(7), expand_layered((6, 3)), (2, 1, 3)]:
                    assert avoid_gf(pat) == avoid_gf(pat)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


@pytest.fixture
def cold_avoid_memo():
    """Yield a function that empties ``_AVOID_MEMO`` down to its seed
    entry and ``_LEVEL_MEMO`` entirely; both memos' earlier contents are
    restored afterwards."""
    saved = dict(_AVOID_MEMO), dict(_LEVEL_MEMO)

    def reset():
        _AVOID_MEMO.clear()
        _AVOID_MEMO[()] = RationalFunction.zero()
        _LEVEL_MEMO.clear()

    yield reset
    for memo, contents in zip((_AVOID_MEMO, _LEVEL_MEMO), saved):
        memo.clear()
        memo.update(contents)


def test_cold_avoid_sweep_is_order_independent(cold_avoid_memo):
    """A level-memo entry is written by the first pattern whose level
    meets that equation.  Cold S_7(132) sweeps in sorted and in reverse
    order give every tau the same canonical JSON, so which pattern wrote
    an entry changes no result."""
    taus = sorted(enumerate_avoiders(7))
    runs = []
    for order in (taus, taus[::-1]):
        cold_avoid_memo()
        runs.append({tau: json.dumps(avoid_gf(tau).as_json_dict()) for tau in order})
    assert len(runs[0]) == 429
    assert runs[0] == runs[1]


def test_avoid_memo_keys_avoid_132(cold_avoid_memo):
    """The slicing is exact only on 132-avoiders.  After a cold
    ``avoid_gf`` sweep over S_8(132), every pattern ``_avoid`` was
    handed, sub-patterns included, is a 132-avoiding permutation of
    1..len."""
    cold_avoid_memo()
    for tau in enumerate_avoiders(8):
        avoid_gf(tau)
    for key in _AVOID_MEMO:
        assert as_pattern(key) == key and not contains_132(key), key


@pytest.mark.parametrize(
    "call, values",
    [
        (avoid_gf, (2.5, 1)),
        (once_gf, (1.9, 2.2)),
        (lambda v: ConstraintSpec(avoid=(v,)), (2.5, 1)),
        (lambda v: ConstraintSpec(contain=v), (1.9, 2.2)),
        (expand_layered, (3.7, 1.2)),
        (as_pattern, "321"),
        (lambda v: verify_relation("thm21", v), (2.5, 1)),
        (lambda v: verify_relation("thm23", v), (3.7, 1.2)),
        (avoid_gf, (None, 1)),
        (avoid_gf, (float("inf"), 1)),
        (avoid_gf, ("a", 1)),
        (lambda v: verify_relation("thm21", v), (1, "2")),
        (lambda v: expand_wedge_top(*v), (5, 4, 2.5)),
    ],
)
def test_non_integer_pattern_values_are_refused(cold_avoid_memo, call, values):
    """A value is a pattern entry only if it equals its ``int``; one
    that does not is refused as given, not truncated (which made
    (2.5, 1) the pattern 21) nor parsed from a string.  A value that
    ``int`` itself refuses (None, infinity, "a"), mixed types that do
    not sort, and wedge-top parameters are refused the same way."""
    with pytest.raises(PatternError, match=re.escape(f"pattern values must be integers: {tuple(values)}")):
        call(values)
    # an integral float is the integer, cold and from the memo alike
    cold_avoid_memo()
    cold = avoid_gf((2.0, 1.0))
    assert (2, 1) in _AVOID_MEMO
    assert avoid_gf((2.0, 1.0)) == cold == avoid_gf((2, 1)) == rf((1,), (1, -1))


def test_levels_equal_the_per_operation_solve(cold_avoid_memo, level_by_operations):
    """Every level of a cold S_8(132) sweep, r = 0..7, equals the
    per-operation solve exactly and is stored in canonical form: the
    constructor, which takes a gcd, returns the same pair.  A key splits
    as (r, prefixes 0..r-1, suffixes 1..r), and as (0, prefix 0) for r = 0."""
    cold_avoid_memo()
    for tau in enumerate_avoiders(8):
        avoid_gf(tau)
    ranks = Counter()
    for key, value in _LEVEL_MEMO.items():
        r = key[0]
        pre, suf = (key[1 : 1 + r], key[1 + r :]) if r else (key[1:], ())
        assert value == level_by_operations(r, pre, suf), key
        assert RationalFunction(value.num, value.den) == value, key
        ranks[r] += 1
    assert sorted(ranks.items()) == [(0, 65), (1, 59), (2, 73), (3, 52), (4, 35), (5, 16), (6, 5), (7, 1)]


def test_rational_function_has_no_arithmetic(cold_avoid_memo):
    """``RationalFunction`` is a value type: it defines no arithmetic
    operator, no int or ``Fraction`` coercion and no ``constant``, so
    ``f + g`` is a ``TypeError``.  Every level is built from exact
    (numerator, denominator) pairs, and a cold ``avoid_gf`` sweep over
    S_7(132), r = 0 levels included, solves each distinct level once."""
    removed = [f"__{name}__" for name in ("add", "sub", "mul", "truediv")]
    removed += [f"__r{name}__" for name in ("add", "sub", "mul", "truediv")]
    removed += ["__neg__", "_coerce", "constant"]
    assert [name for name in removed if name in RationalFunction.__dict__] == []
    f, g = RationalFunction.x(), RationalFunction.one()
    for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: f / g, lambda: -f, lambda: 1 + f):
        with pytest.raises(TypeError):
            op()
    cold_avoid_memo()
    for tau in enumerate_avoiders(7):
        avoid_gf(tau)
    assert len(_LEVEL_MEMO) == 133


def test_avoid_solves_each_pattern_once(cold_avoid_memo, monkeypatch):
    """``_avoid`` runs on an explicit stack: over a cold S_7(132) sweep it
    calls ``blocks`` once for each pattern it solves, and every such
    pattern ends in the memo."""
    calls = []

    def counted(pat):
        calls.append(pat)
        return blocks(pat)

    monkeypatch.setattr(engine, "blocks", counted)
    cold_avoid_memo()
    for tau in enumerate_avoiders(7):
        avoid_gf(tau)
    assert len(calls) == len(set(calls))
    assert all(pat in _AVOID_MEMO for pat in calls)


class TestWarmMemo:
    """``avoid_gf`` reads the memo before it validates its input; a warm
    memo changes no refusal and no answer."""

    def test_refusals_survive_a_warm_memo(self, cold_avoid_memo):
        cold_avoid_memo()
        for tau in enumerate_avoiders(5):
            avoid_gf(tau)
        with pytest.raises(NotIn132Class):
            avoid_gf((1, 3, 2))
        for bad in ((1, 1), (0, 1)):
            with pytest.raises(PatternError):
                avoid_gf(bad)

    def test_lists_tuples_and_generators_agree(self, cold_avoid_memo):
        cold_avoid_memo()
        want = avoid_gf((3, 1, 2, 4))
        assert avoid_gf([3, 1, 2, 4]) is want
        assert avoid_gf(v for v in (3, 1, 2, 4)) is want
        # a generator is read once, also for a pattern the memo lacks
        assert (3, 2, 1) not in _AVOID_MEMO
        assert avoid_gf(v for v in (3, 2, 1)) == rf((1, -2, 2), (1, -3, 3, -1))


class TestInverseSymmetry:
    """pi -> pi^-1 maps S_n(132) onto itself and the tau-avoiders onto the
    tau^-1-avoiders, keeping occurrence counts; these tests check the
    consequences without trusting the shared memo entry."""

    def test_counting_dp_is_inverse_symmetric(self):
        for k in range(1, 6):
            for tau in enumerate_avoiders(k):
                inv = inverse(tau)
                if inv <= tau:
                    continue
                for key in ("avoid", "contain"):
                    arg = (tau,) if key == "avoid" else tau
                    arg_inv = (inv,) if key == "avoid" else inv
                    assert series(ConstraintSpec(**{key: arg}), 12) == series(
                        ConstraintSpec(**{key: arg_inv}), 12
                    ), (key, tau)

    def test_cold_avoid_gf_is_inverse_symmetric(self, cold_avoid_memo):
        for k in range(1, 7):
            for tau in enumerate_avoiders(k):
                cold_avoid_memo()
                f = avoid_gf(tau)
                cold_avoid_memo()
                g = avoid_gf(inverse(tau))
                assert f.as_json_dict() == g.as_json_dict(), tau

    def test_once_gf_is_inverse_symmetric(self):
        supported = 0
        for k in range(1, 9):
            for tau in enumerate_avoiders(k):
                try:
                    f = once_gf(tau)
                except UnsupportedPattern:
                    with pytest.raises(UnsupportedPattern):
                        once_gf(inverse(tau))
                    continue
                supported += 1
                assert once_gf(inverse(tau)) == f, tau
        assert supported == 98

    def test_avoid_memo_stores_the_inverse(self, cold_avoid_memo):
        checked = 0
        for k in range(3, 6):
            for tau in enumerate_avoiders(k):
                if inverse(tau) == tau:
                    continue
                cold_avoid_memo()
                avoid_gf(tau)
                assert inverse(tau) in _AVOID_MEMO, tau
                checked += 1
        assert checked == 2 + 8 + 32

    def test_avoid_memo_keys_are_closed_under_inversion(self, cold_avoid_memo):
        """After a cold sweep over S_6(132), sub-patterns included, every
        key's inverse is a key holding the same entry, so a lookup of tau
        alone serves tau^-1."""
        cold_avoid_memo()
        taus = list(enumerate_avoiders(6))
        for tau in taus:
            avoid_gf(tau)
        assert set(taus) <= _AVOID_MEMO.keys()
        for key, value in _AVOID_MEMO.items():
            assert _AVOID_MEMO.get(inverse(key)) is value, key


def test_once_gf_reads_no_avoid_series(cold_avoid_memo, monkeypatch):
    """``once_gf`` answers from closed forms alone: a cold once sweep over
    S_7(132) leaves the avoid and level memos as cold as it found them."""
    cold_avoid_memo()
    monkeypatch.setattr(engine, "_ONCE_MEMO", {})
    answered = 0
    for tau in enumerate_avoiders(7):
        try:
            once_gf(tau)
        except UnsupportedPattern:
            continue
        answered += 1
    assert answered == 23
    assert list(_AVOID_MEMO) == [()] and not _LEVEL_MEMO


def test_output_digest():
    """SHA-256 of the canonical avoid and once output over S_k(132),
    k = 1..7, in sorted order: one JSON line per pattern and mode, with
    the refusal text where ``once_gf`` declines."""
    lines = []
    for k in range(1, 8):
        for tau in sorted(enumerate_avoiders(k)):
            for mode, gf in (("avoid", avoid_gf), ("once", once_gf)):
                try:
                    body = gf(tau).as_json_dict()
                except UnsupportedPattern as exc:
                    body = {"refused": str(exc)}
                lines.append(json.dumps({"pattern": format_pattern(tau), "mode": mode, **body}))
    assert len(lines) == 1250
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "7c1dbbb618025ad7bb9d330c2d7c6d59fdba3c57ebccd532ce3df35d4a49e95f"


def test_avoid_census_k7():
    """Every avoid series with k <= 7 (625 patterns), and every once series
    that ``once_gf`` answers there (68), equals the counting DP to n = 30.
    The DP counts permutations, independently of the recursion that
    ``avoid_gf`` solves, of the closed forms and of ``series_of``'s
    term recurrence; ``ci/census.py`` runs the same check over S_8(132).  The
    number of distinct avoid series is 1, 1, 2, 4, 8, 16, 32 for
    k = 1..7."""
    checked = once_checked = 0
    distinct = []
    for k in range(1, 8):
        gfs = set()
        for tau in enumerate_avoiders(k):
            f = avoid_gf(tau)
            gfs.add(f)
            assert series_of(f, 30).coeffs == series(ConstraintSpec(avoid=(tau,)), 30).counts, tau
            checked += 1
            try:
                f = once_gf(tau)
            except UnsupportedPattern:
                continue
            assert series_of(f, 30).coeffs == series(ConstraintSpec(contain=tau), 30).counts, tau
            once_checked += 1
        distinct.append(len(gfs))
    assert (checked, once_checked) == (625, 68)
    assert distinct == [1, 1, 2, 4, 8, 16, 32]


def test_expanded_functions_have_den0_one():
    """``series_of`` expands only series in Z[[x]], whose canonical
    denominator has constant term 1 (Fatou's lemma).  Every function the
    engine returns counts permutations, so none is refused: every avoid
    gf and every answered once gf with k <= 7, and every level of Phi and
    Psi up to y**12, 719 functions in all."""
    fs = [*phi_closed_series(12).levels, *psi_closed_series(12).levels]
    for k in range(1, 8):
        for tau in enumerate_avoiders(k):
            fs.append(avoid_gf(tau))
            try:
                fs.append(once_gf(tau))
            except UnsupportedPattern:
                pass
    assert len(fs) == 719
    assert [f for f in fs if f.den.constant_term() != 1] == []


def test_series_of_order_edges():
    f = avoid_gf((3, 2, 1))  # c_n = 1 + n(n-1)/2
    for order in (-1, 1001):
        with pytest.raises(ValueError, match=f"between 0 and 1000, got {order}"):
            series_of(f, order)
    assert series_of(f, 1000).coeffs == tuple(1 + comb(n, 2) for n in range(1001))
    with pytest.raises(ZeroDivisionError):
        series_of(rf((1,), (0, 1)), 0)


def test_series_of_residual_at_the_cap(schoolbook):
    """For the k = 12 pattern pinned in CI, whose avoid gf has degree 44
    over 44, series * den = num through x**1000, by plain-list products
    that share no algorithm with ``series_of``."""
    f = avoid_gf((12, 10, 8, 7, 9, 6, 5, 4, 11, 2, 3, 1))
    assert (len(f.num.coeffs), len(f.den.coeffs)) == (45, 45)
    low = schoolbook.mul(f.den.coeffs, series_of(f, 1000).coeffs)[:1001]
    assert schoolbook.trim(low) == schoolbook.trim(f.num.coeffs)


def test_series_of_memo_keeps_refusals(recurrence, plain):
    """Once ``series_of(f, 30)`` is memoized, the same call returns the
    stored series, which equals the term recurrence; every refusal still
    raises, and another order is its own expansion."""
    f = avoid_gf((4, 2, 3, 1))
    first = series_of(f, 30)
    assert series_of(f, 30) is first
    assert first.coeffs == recurrence(f, 30)
    assert series_of(f, 12).coeffs == recurrence(f, 12)
    for order in (-1, 1001):
        with pytest.raises(ValueError, match=f"between 0 and 1000, got {order}"):
            series_of(f, order)
    with pytest.raises(TypeError):
        series_of(f, 30.0)
    with pytest.raises(ValueError, match="constant term is 3, not 1"):
        series_of(plain.div(f, rf((3,))), 30)
    with pytest.raises(ZeroDivisionError):
        series_of(plain.mul(f, rf((1,), (0, 1))), 30)


def test_avoid_digest_k8(cold_avoid_memo):
    """SHA-256 of the canonical avoid JSON over all 1430 patterns of
    S_8(132), solved from a cold memo, in sorted order: the value the
    benchmark's gate pins for k = 8."""
    cold_avoid_memo()
    lines = [
        json.dumps({"pattern": format_pattern(tau), "mode": "avoid", **avoid_gf(tau).as_json_dict()})
        for tau in sorted(enumerate_avoiders(8))
    ]
    assert len(lines) == 1430
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "03f93ac9c780d60485d9d29a0e55ce779e702a26b49e2dd95461703cbc904d7e"


class TestOnceGf:
    def test_base_cases(self):
        assert once_gf((1,)) == RationalFunction.x()
        assert once_gf((1, 2)) == rf((0, 0, 1), (1, -2, 1))
        assert once_gf((2, 1)) == rf((0, 0, 1), (1, -1))

    def test_wedge_top_example(self):
        num = (v_poly(4) * v_poly(4)).shift(5)
        den = v_poly(5) * v_poly(5) * v_poly(1) * v_poly(2) * v_poly(2) * v_poly(2)
        assert once_gf((3, 4, 1, 2, 5)) == RationalFunction(num, den)

    def test_oracle_match_wedge_top_pattern(self):
        # (2,1,3,4) is the wedge-top {4,2,1}
        pat = (2, 1, 3, 4)
        assert coeffs(once_gf(pat), 8) == list(series(ConstraintSpec(contain=pat), 8).counts)

    def test_errors(self):
        with pytest.raises(NotIn132Class):
            once_gf((1, 3, 2))
        with pytest.raises(UnsupportedPattern):
            once_gf(())
        with pytest.raises(UnsupportedPattern):
            once_gf((4, 3, 1, 2))  # no closed once-form
        # the refusal names the pattern asked for, not its head [4,2,1] or
        # (3, 2, 1, 4), whether or not the pattern ends in (k-1, k)
        with pytest.raises(UnsupportedPattern, match=r"pattern \(3, 4, 2, 1, 5\);"):
            once_gf((3, 4, 2, 1, 5))
        with pytest.raises(UnsupportedPattern, match=r"pattern \(3, 2, 1, 4, 5\);"):
            once_gf((3, 2, 1, 4, 5))

    def test_trivial_prefix_zero(self):
        for pat in [increasing(4), expand_layered((4, 2)), expand_wedge_top(5, 3, 1)]:
            assert coeffs(once_gf(pat), len(pat) - 1) == [0] * len(pat)

    def test_two_layer_normalization_direction(self):
        """[3,1] and [3,2] are inverse patterns, so they share one series;
        brute force pins it to x^3/(V_3 V_1 V_1), the small-layer reading."""
        small = rf((0, 0, 0, 1), (1, -2))
        assert once_gf(expand_layered((3, 1))) == small
        assert once_gf(expand_layered((3, 2))) == small
        oracle_31 = list(series(ConstraintSpec(contain=expand_layered((3, 1))), 6).counts)
        oracle_32 = list(series(ConstraintSpec(contain=expand_layered((3, 2))), 6).counts)
        assert coeffs(small, 6) == oracle_31 == oracle_32 == [0, 0, 0, 1, 2, 4, 8]

    def test_two_layer_large_reading_fails_oracle(self):
        """The same product evaluated at the larger layer, x^3/(V_3 V_2 V_0),
        predicts 3 permutations at n = 4 where brute force counts 2."""
        large = RationalFunction(
            Polynomial.one().shift(3), v_poly(3) * v_poly(2) * v_poly(0)
        )
        assert coeffs(large, 4)[4] == 3
        assert series(ConstraintSpec(contain=expand_layered((3, 2))), 4).counts[4] == 2

    def test_wedge_top_plain_product_fails_oracle(self):
        """The one-square product x^k V_m / (V_k^2 V_{m-p-1} V_p) disagrees
        with brute force already at {3,2,1} (n=4: 3 vs 2); the implemented
        closed form keeps the squares from the boundary step."""
        plain = RationalFunction(
            Polynomial.one().shift(3) * v_poly(2),
            v_poly(3) * v_poly(3) * v_poly(0) * v_poly(1),
        )
        assert coeffs(plain, 6)[3:] == [1, 3, 8, 20]
        got = list(series(ConstraintSpec(contain=(2, 1, 3)), 6).counts)
        assert got[3:] == [1, 2, 5, 12]
        assert coeffs(once_gf((2, 1, 3)), 6) == got

    def test_closed_forms_are_canonical_as_built(self):
        """The two-layer and decreasing branches wrap their pair with no gcd;
        the constructor, which takes one, returns the same pair for k <= 12."""
        checked = 0
        for k in range(2, 13):
            for pat in [expand_layered((k, m)) for m in range(1, k)] + [decreasing(k)]:
                f = once_gf(pat)
                assert RationalFunction(f.num, f.den) == f, pat
                checked += 1
        assert checked == 77

    def test_separate_memo_tables(self):
        assert once_gf((1, 2)) != avoid_gf((1, 2))

    def test_every_supported_pattern_matches_oracle(self):
        # whatever the dispatcher accepts, it must agree with brute force
        supported = 0
        for k in range(1, 6):
            for tau in enumerate_avoiders(k):
                try:
                    f = once_gf(tau)
                except UnsupportedPattern:
                    continue
                supported += 1
                assert coeffs(f, 9) == list(series(ConstraintSpec(contain=tau), 9).counts), tau
        assert supported == 28

    def test_chain_shape_is_double_head_occurrence(self):
        # the condition of the ``once_by_chain`` reference's step: for tau of
        # size k ending in k, the head tau[:-1] occurs at least twice in tau
        # exactly when tau ends in k-1, k
        checked = 0
        for k in range(2, 10):
            for tau in enumerate_avoiders(k):
                if tau[-1] == k:
                    checked += 1
                    twice = occurrence_count(tau, tau[:-1]) >= 2
                    assert twice == (tau[-2] == k - 1), tau
        assert checked == 2055

    def test_increasing_run_equals_the_chain(self, once_by_chain):
        """x^k / V_k^2 equals the step-by-step chain over ``avoid_gf`` for
        every k <= 40, and every other answered pattern with k <= 8 that
        ends in (k-1, k) equals the chain down to its first head that does
        not."""
        for k in range(1, 41):
            assert once_gf(increasing(k)) == once_by_chain(increasing(k)), k
        chained = 0
        for k in range(3, 9):
            for tau in enumerate_avoiders(k):
                if tau[-2:] == (k - 1, k) and tau != increasing(k):
                    try:
                        f = once_gf(tau)
                    except UnsupportedPattern:
                        continue
                    chained += 1
                    assert f == once_by_chain(tau), tau
        assert chained == 35

    def test_deep_increasing_run(self):
        """12...600, deeper than Python's recursion limit allows a
        recursion over its heads to go, answers in well under a second,
        in the canonical form as built."""
        k = 600
        start = time.process_time()
        f = once_gf(increasing(k))
        assert time.process_time() - start < 1
        assert (f.num, f.den) == (Polynomial.x(k), v_poly(k) * v_poly(k))

    def test_coverage_census(self):
        supported = []
        for k in range(1, 9):
            n = 0
            for tau in enumerate_avoiders(k):
                try:
                    once_gf(tau)
                except UnsupportedPattern:
                    continue
                n += 1
            supported.append(n)
        assert supported == [1, 2, 5, 8, 12, 17, 23, 30]


class TestBivariateAggregates:
    def test_phi_slices(self):
        phi = phi_closed_series(4)
        assert phi.levels[0] == RationalFunction.zero()
        assert phi.levels[1] == RationalFunction.one()
        assert phi.levels[2] == rf((1,), (1, -1))
        assert phi.levels[3] == avoid_gf((3, 2, 1))
        assert phi.levels[4] == avoid_gf(decreasing(4))

    def test_psi_slices(self):
        psi = psi_closed_series(3)
        assert psi.levels[0] == RationalFunction.zero()
        assert psi.levels[1] == RationalFunction.x()
        assert psi.levels[2] == once_gf((2, 1))
        got = list(series(ConstraintSpec(contain=(3, 2, 1)), 8).counts)
        assert coeffs(psi.levels[3], 8) == got

    def test_functional_equation_residuals_vanish(
        self, phi_functional_equation_residual, psi_functional_equation_residual
    ):
        assert phi_functional_equation_residual(6).is_zero
        assert psi_functional_equation_residual(6).is_zero

    def test_once_of_decreasing_is_psi_slice(self):
        """``once_gf(k...1)``'s Narayana form equals the y^k level of the
        expansion of Psi."""
        psi = psi_closed_series(16)
        for k in range(3, 17):
            assert once_gf(decreasing(k)) == psi.levels[k], k

    def test_order_validation(self):
        with pytest.raises(ValueError):
            phi_closed_series(0)
        with pytest.raises(ValueError):
            psi_closed_series(0)
