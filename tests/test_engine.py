import hashlib
import json
import threading

import pytest

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
from pattgf.errors import NotIn132Class, UnsupportedPattern
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series
from pattgf.patterns import (
    as_pattern,
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

    def test_linear_solve_divisor_never_zero(self, prefix_pattern, suffix_pattern):
        # the divisor 1 - x F_pre0 - x F_sufr has constant term 1
        for pat in [(3, 2, 1), (4, 3, 2, 1), expand_layered((5, 3, 1))]:
            d = canonical_decompose(pat)
            div = (
                RationalFunction.one()
                - RationalFunction.x() * avoid_gf(prefix_pattern(d, 0))
                - RationalFunction.x() * avoid_gf(suffix_pattern(d, d.r))
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
    assert digest == "5d26b6708c2a172cc27588c01fd09168e16fe4c59619c9911042739df32d989d"


def test_avoid_census_k7():
    """Every avoid series with k <= 7 (625 patterns), and every once series
    that ``once_gf`` answers there (68), equals the counting DP to n = 30.
    The DP counts permutations, independently of the recursion that
    ``avoid_gf`` solves, of the closed forms and of ``series_of``'s
    division; ``ci/census.py`` runs the same check over S_8(132).  The
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
    assert series_of(f, 1000).coeffs[-1] == 1 + 1000 * 999 // 2
    with pytest.raises(ZeroDivisionError):
        series_of(rf((1,), (0, 1)), 0)


def test_series_of_memo_keeps_refusals(recurrence):
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
        series_of(f / 3, 30)
    with pytest.raises(ZeroDivisionError):
        series_of(f * rf((1,), (0, 1)), 30)


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

    def test_oracle_match_chain_pattern(self):
        # (2,1,3,4): strips to (2,1,3) = wedge-top then to [2,1]
        pat = (2, 1, 3, 4)
        assert coeffs(once_gf(pat), 8) == list(series(ConstraintSpec(contain=pat), 8).counts)

    def test_errors(self):
        with pytest.raises(NotIn132Class):
            once_gf((1, 3, 2))
        with pytest.raises(UnsupportedPattern):
            once_gf(())
        with pytest.raises(UnsupportedPattern):
            once_gf((4, 3, 1, 2))  # no closed once-form and no chain step
        # its head is [4,2,1]; the refusal names the pattern asked for, not the head
        with pytest.raises(UnsupportedPattern, match=r"pattern \(3, 4, 2, 1, 5\);"):
            once_gf((3, 4, 2, 1, 5))

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
        # the chain step's test: for tau of size k ending in k, the head
        # tau[:-1] occurs at least twice in tau exactly when tau ends in k-1, k
        checked = 0
        for k in range(2, 10):
            for tau in enumerate_avoiders(k):
                if tau[-1] == k:
                    checked += 1
                    twice = occurrence_count(tau, tau[:-1]) >= 2
                    assert twice == (tau[-2] == k - 1), tau
        assert checked == 2055

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
