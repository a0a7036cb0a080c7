"""The counting DP must agree with brute-force enumeration of S_n(132),
and on a widest k = 8 closure with the recursion, the once closed forms
and a reference join.

The reference lists every permutation with ``enumerate_avoiders`` and
counts each pattern's occurrences directly, as the order-isomorphic
subsequences of that permutation; ``occurrence_count`` is checked
against the same census.
"""

from collections import Counter
from itertools import combinations
from math import comb

import pytest

from pattgf import kernels
from pattgf.algebra import series_of
from pattgf.engine import avoid_gf, once_gf
from pattgf.errors import UnsupportedPattern
from pattgf.oracle import enumerate_avoiders
from pattgf.patterns import flatten, occurrence_count

N_MAX = 8
K_MAX = 5
TAUS = [tau for k in range(K_MAX + 1) for tau in enumerate_avoiders(k)]
AVOID_SETS = [(), ((3, 2, 1),), ((2, 1, 3), (3, 2, 1)), ((1, 3, 2),), ((),)]
CONTAINED = [None, (2, 1), (1, 2, 3), ()]


class _Flattened(dict):
    """flatten() memoized: the same value sequences recur across permutations."""

    def __missing__(self, values):
        pat = self[values] = flatten(values)
        return pat


@pytest.fixture(scope="module")
def census():
    """census[n][i][τ]: occurrences of τ, |τ| <= K_MAX, in the i-th
    permutation of S_n(132) (patterns that never occur count 0)."""
    flat = _Flattened()
    return {
        n: [
            Counter(flat[sub] for k in range(K_MAX + 1) for sub in combinations(perm, k))
            for perm in enumerate_avoiders(n)
        ]
        for n in range(N_MAX + 1)
    }


def test_census_matches_occurrence_count(census):
    for n in range(6):
        for perm, occ in zip(enumerate_avoiders(n), census[n]):
            for tau in TAUS:
                assert occurrence_count(perm, tau) == occ[tau], (perm, tau)


def test_dp_matches_enumeration_every_small_pattern(census):
    # avoid and contain exactly once, for every τ ∈ S_k(132), k <= 5
    for tau in TAUS:
        hist = [Counter(min(occ[tau], 2) for occ in census[n]) for n in range(N_MAX + 1)]
        assert kernels.count_constrained(N_MAX, (tau,), None) == tuple(h[0] for h in hist), tau
        assert kernels.count_constrained(N_MAX, (), tau) == tuple(h[1] for h in hist), tau


def test_dp_matches_enumeration_on_grid(census):
    # two avoided patterns, a pattern containing 132 and the empty pattern
    for avoid in AVOID_SETS:
        for contain in CONTAINED:
            # occurrences of `contain` in the permutations that avoid `avoid`
            hists = [
                Counter(occ[contain] if contain is not None else 0 for occ in rows
                        if not any(occ[p] for p in avoid))
                for rows in census.values()
            ]
            want = tuple(sum(h.values()) if contain is None else h[1] for h in hists)
            assert kernels.count_constrained(N_MAX, avoid, contain) == want, (avoid, contain)


def test_dp_totals_are_catalan(catalan):
    assert kernels.count_constrained(30, (), None) == tuple(catalan(n) for n in range(31))


def test_dp_spot_values_at_30():
    assert kernels.count_constrained(30, ((3, 2, 1),), None)[30] == 1 + comb(30, 2)
    # 2 1 3 4 ... n is the only 132-avoider with a single inversion
    assert kernels.count_constrained(30, (), (2, 1))[30] == 1


def test_empty_pattern_semantics():
    # the empty pattern occurs exactly once in every permutation
    assert kernels.count_constrained(4, ((),), None) == (0, 0, 0, 0, 0)
    assert kernels.count_constrained(4, (), ()) == (1, 1, 2, 5, 14)


# One of the three widest closures at k = 8: 20 patterns, 129 layout
# bits, so the masks span several machine words.
WIDE = (8, 7, 5, 6, 4, 3, 2, 1)


def _counts(table, key):
    """Decode a state key into the count vector of the closure, capped at 2."""
    return tuple(2 if key & g << 1 else 1 if key & g else 0 for g in table.guards)


def test_wide_avoid_table_matches_the_recursion():
    want = series_of(avoid_gf(WIDE), 30).coeffs
    assert kernels.count_constrained(30, (WIDE,), None) == want


def test_wide_once_table_matches_enumeration_and_pinned_values():
    got = kernels.count_constrained(20, (), WIDE)
    for n in range(10):
        want = sum(occurrence_count(perm, WIDE) == 1 for perm in enumerate_avoiders(n))
        assert got[n] == want, n
    # pinned from a tuple-of-counts implementation of the same DP
    assert got[18:] == (144165, 226205, 342055)


def test_k8_once_tables_match_once_gf():
    supported = 0
    for tau in enumerate_avoiders(8):
        try:
            f = once_gf(tau)
        except UnsupportedPattern:
            continue
        supported += 1
        got = kernels.count_constrained(20, (), tau)
        assert got == series_of(f, 20).coeffs, tau
    assert supported == 30


def test_every_wide_join_matches_the_capped_sum_of_products():
    table = kernels._Table((), WIDE)
    table.counts(20)
    index = {p: q for q, p in enumerate(table.patterns)}
    rules = [[(index[h], index[r]) for h, r in kernels._splits(p)] for p in table.patterns]
    counts = [_counts(table, key) for key in table.states]
    joins = 0
    for i, row in enumerate(table.joined):
        for j, s in row.items():
            left, right = counts[i], counts[j]
            want = tuple([min(2, sum([left[h] * right[r] for h, r in rule])) for rule in rules])
            assert (s < 0) == (want[index[WIDE]] > 1), (i, j)
            assert s < 0 or counts[s] == want, (i, j)
            joins += 1
    assert joins == 27888
