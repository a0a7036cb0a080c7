import copy
import itertools
import math
import pickle

import pytest

from pattgf.errors import PatternError
from pattgf.oracle import ConstraintSpec, CountTable, enumerate_avoiders
from pattgf.patterns import (
    FamilySpec,
    as_pattern,
    blocks,
    canonical_decompose,
    classify,
    contains_132,
    decreasing,
    expand_layered,
    expand_wedge_top,
    flatten,
    format_pattern,
    increasing,
    inverse,
    iter_layered_specs,
    occurrence_count,
    parse_pattern,
)


def test_parse_direct_notations():
    assert parse_pattern("321") == (3, 2, 1)
    assert parse_pattern("3 2 1") == (3, 2, 1)
    assert parse_pattern("10 9 8 7 6 5 4 3 2 1") == decreasing(10)


def test_parse_layered_expansion():
    assert parse_pattern("[5,3,1]") == (4, 5, 2, 3, 1)
    assert parse_pattern("[3]") == (1, 2, 3)
    assert parse_pattern("[3,2,1]") == (3, 2, 1)


def test_parse_wedge_top():
    assert parse_pattern("{5,4,2}") == (3, 4, 1, 2, 5)
    assert parse_pattern("{3,2,1}") == (2, 1, 3)


def test_parse_decreasing_shorthand():
    assert parse_pattern("<4>") == (4, 3, 2, 1)


@pytest.mark.parametrize(
    "text",
    ["", "abc", "122", "1 3", "[3,5]", "[0]", "{3,3,1}", "{2,1}", "<0>", "3 2 x"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(PatternError):
        parse_pattern(text)


def test_flatten():
    assert flatten((4, 5, 2)) == (2, 3, 1)
    assert flatten(()) == ()
    assert flatten((7, 3, 9, 1)) == (3, 2, 4, 1)
    with pytest.raises(PatternError):
        flatten((1, 1))


def test_format_roundtrip():
    assert parse_pattern(format_pattern((3, 1, 2))) == (3, 1, 2)


def test_occurrence_count_examples():
    assert occurrence_count((2, 1, 3), (1, 2)) == 2
    assert occurrence_count((6, 4, 5, 7, 8, 3, 9, 1, 2), (1, 3, 2)) == 0
    assert occurrence_count((3, 2, 1), (3, 2, 1)) == 1
    assert occurrence_count((), ()) == 1
    assert occurrence_count((2, 1), ()) == 1
    assert occurrence_count(tuple(range(8, 0, -1)), (2, 1)) == 28


def test_canonical_decomposition_examples():
    d = canonical_decompose((3, 2, 1))
    assert d.maxima == (3, 2, 1) and d.segments == ((), (), ()) and d.r == 2
    d = canonical_decompose((3, 2, 1, 4))
    assert d.maxima == (4,) and d.segments == ((3, 2, 1),) and d.r == 0
    d = canonical_decompose((1,))
    assert d.maxima == (1,) and d.segments == ((),) and d.r == 0
    with pytest.raises(PatternError):
        canonical_decompose(())


def test_decomposition_roundtrip_exhaustive():
    # interleaving segments and maxima gives back every permutation up to size 8
    for k in range(1, 9):
        for perm in itertools.permutations(range(1, k + 1)):
            d = canonical_decompose(perm)
            assert _interleave(d.maxima, d.segments, 0, d.r + 1) == perm


def test_prefix_suffix_examples(prefix_pattern, suffix_pattern):
    d = canonical_decompose((3, 2, 1))
    assert prefix_pattern(d, 1) == (2, 1)
    assert prefix_pattern(d, -1) == ()
    assert prefix_pattern(d, 0) == ()
    assert suffix_pattern(d, 1) == (2, 1)
    assert suffix_pattern(d, 0) == (3, 2, 1)
    assert suffix_pattern(d, 3) == ()
    with pytest.raises(PatternError):
        prefix_pattern(d, 3)
    with pytest.raises(PatternError):
        suffix_pattern(d, 4)
    d2 = canonical_decompose((3, 2, 1, 4))
    assert prefix_pattern(d2, 0) == (3, 2, 1)


def _reference_parts(pat):
    """Right-to-left maxima and the segments before each, by a direct scan."""
    maxima, segments, seg = [], [], []
    for i, v in enumerate(pat):
        if all(v > w for w in pat[i + 1:]):
            maxima.append(v)
            segments.append(tuple(seg))
            seg = []
        else:
            seg.append(v)
    return maxima, segments


def _reference_flatten(word):
    ranked = sorted(word)
    return tuple(ranked.index(v) + 1 for v in word)


def _interleave(maxima, segments, lo, hi):
    word = []
    for j in range(lo, hi):
        word.extend(segments[j])
        word.append(maxima[j])
    return _reference_flatten(word)


def test_slices_match_interleave_reference(prefix_pattern, suffix_pattern):
    # every tau in S_k(132), k <= 7, every valid index
    for k in range(1, 8):
        for pat in enumerate_avoiders(k):
            maxima, segments = _reference_parts(pat)
            r = len(maxima) - 1
            d = canonical_decompose(pat)
            assert (d.maxima, d.segments, d.r) == (tuple(maxima), tuple(segments), r)
            assert prefix_pattern(d, -1) == ()
            assert prefix_pattern(d, 0) == _reference_flatten(segments[0])
            for i in range(1, r + 1):
                assert prefix_pattern(d, i) == _interleave(maxima, segments, 0, i + 1)
            for i in range(r + 2):
                assert suffix_pattern(d, i) == _interleave(maxima, segments, i, r + 1)
            for bad in (-2, r + 1):
                with pytest.raises(PatternError):
                    prefix_pattern(d, bad)
            for bad in (-1, r + 2):
                with pytest.raises(PatternError):
                    suffix_pattern(d, bad)


def test_blocks_match_the_reference_decomposition(prefix_pattern, suffix_pattern):
    """On every tau in S_k(132), k <= 8, the slices ``blocks`` reads off
    the block structure equal the flattened reference: r, prefixes
    0..max(r-1, 0) and suffixes 1..r of ``canonical_decompose``."""
    checked = 0
    for k in range(1, 9):
        for tau in enumerate_avoiders(k):
            d = canonical_decompose(tau)
            want = (
                d.r,
                [prefix_pattern(d, i) for i in range(max(d.r, 1))],
                [suffix_pattern(d, i) for i in range(1, d.r + 1)],
            )
            assert blocks(tau) == want, tau
            checked += 1
    assert checked == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430


def test_classify_families():
    assert classify((4, 5, 2, 3, 1)) == FamilySpec("layered", (5, 3, 1))
    assert classify((3, 2, 1)) == FamilySpec("layered", (3, 2, 1))
    assert classify((1, 2, 3)) == FamilySpec("layered", (3,))
    assert classify((3, 4, 1, 2, 5)) == FamilySpec("wedge-top", (5, 4, 2))
    # a wedge that is neither layered nor wedge-top is plain
    assert classify((6, 4, 5, 7, 8, 3, 9, 1, 2)) == FamilySpec("plain", ())


def test_classify_layered_roundtrip():
    # every permutation, so a pattern that only looks layered or wedge-top is caught too
    for k in range(1, 8):
        families = {expand_layered(tops): FamilySpec("layered", tops) for tops in iter_layered_specs(k)}
        for m in range(2, k):
            for p in range(1, m):
                families[expand_wedge_top(k, m, p)] = FamilySpec("wedge-top", (k, m, p))
        for pat in itertools.permutations(range(1, k + 1)):
            assert classify(pat) == families.get(pat, FamilySpec("plain")), pat


@pytest.mark.parametrize(
    "make, other, field, text",
    [
        (
            lambda: canonical_decompose((3, 2, 1, 4)),
            lambda: canonical_decompose((3, 2, 4, 1)),
            "positions",
            "CanonicalDecomposition(pattern=(3, 2, 1, 4), positions=(3,))",
        ),
        (
            lambda: FamilySpec("layered", (5, 3, 1)),
            lambda: FamilySpec("layered", (5, 3)),
            "kind",
            "FamilySpec(kind='layered', params=(5, 3, 1))",
        ),
        (
            lambda: ConstraintSpec(avoid=[[3, 2, 1]], contain=[2, 1]),
            lambda: ConstraintSpec(avoid=[[3, 2, 1]]),
            "avoid",
            "ConstraintSpec(avoid=((3, 2, 1),), contain=(2, 1))",
        ),
        (
            lambda: CountTable((1, 1, 2)),
            lambda: CountTable((1, 1, 2, 5)),
            "counts",
            "CountTable(counts=(1, 1, 2))",
        ),
    ],
    ids=["CanonicalDecomposition", "FamilySpec", "ConstraintSpec", "CountTable"],
)
def test_frozen_records(make, other, field, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other()
    assert repr(a) == str(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, ())
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and repr(a) == text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert a._replace() == a and type(a._replace()) is type(a)
    # _replace rebuilds through the constructor, so ConstraintSpec coerces
    assert ConstraintSpec(avoid=[[3, 2, 1]])._replace(contain=[2, 1]).contain == (2, 1)


def test_expand_validation():
    for tops in [(3, 3), (2, 0), ()]:
        with pytest.raises(PatternError, match="layered tops must be strictly decreasing positive"):
            expand_layered(tops)
    for params in [(3, 1, 2), (3, 2, 0)]:
        with pytest.raises(PatternError, match=r"k > m > p > 0: \(3, "):
            expand_wedge_top(*params)


def test_iter_layered_specs_order():
    assert list(iter_layered_specs(4)) == [
        (4, 3, 2, 1), (4, 3, 2), (4, 3, 1), (4, 3), (4, 2, 1), (4, 2), (4, 1), (4,)
    ]
    # every (k, *decreasing run of smaller positive tops) with at least
    # min_layers entries, each once, in decreasing lexicographic order
    for k in range(1, 9):
        for min_layers in (1, 2, 3):
            got = list(iter_layered_specs(k, min_layers=min_layers))
            assert got == sorted(set(got), reverse=True), (k, min_layers)
            for tops in got:
                assert tops[0] == k and len(tops) >= min_layers and tops[-1] > 0, tops
                assert all(a > b for a, b in zip(tops, tops[1:])), tops
            count = sum(math.comb(k - 1, n) for n in range(min_layers - 1, k))
            assert len(got) == count, (k, min_layers)


def test_wedge_examples(is_wedge):
    assert is_wedge((6, 4, 5, 7, 8, 3, 9, 1, 2))
    assert is_wedge((4, 5, 6, 3, 7, 8, 1, 2, 9))
    assert is_wedge(increasing(5))
    assert is_wedge(expand_layered((5, 2)))
    assert is_wedge(expand_wedge_top(5, 4, 2))
    assert not is_wedge((3, 2, 1))
    assert not is_wedge((1, 3, 2))
    # one- and two-layer and wedge-top patterns are all wedges
    for k in range(1, 9):
        for tops in iter_layered_specs(k):
            assert is_wedge(expand_layered(tops)) == (len(tops) <= 2), tops
        for m in range(2, k):
            for p in range(1, m):
                assert is_wedge(expand_wedge_top(k, m, p)), (k, m, p)


def test_every_wedge_avoids_132(is_wedge):
    # the detector accepts exactly 2^(k-1) permutations of 1..k, all 132-avoiders
    for k in range(1, 8):
        wedges = [perm for perm in itertools.permutations(range(1, k + 1)) if is_wedge(perm)]
        assert len(wedges) == 2 ** (k - 1), k
        assert not any(map(contains_132, wedges)), k


def test_occurrence_zero_iff_avoids():
    host = (5, 3, 4, 1, 2)
    for k in range(1, 4):
        for pat in itertools.permutations(range(1, k + 1)):
            avoids = all(flatten(sub) != pat for sub in itertools.combinations(host, k))
            assert (occurrence_count(host, pat) == 0) == avoids


def test_occurrence_monotone_under_appended_maximum():
    # appending a fresh maximum cannot destroy occurrences of a pattern
    # that ends with its own maximum
    pat = (2, 1, 3)
    hosts = [(2, 1, 3), (3, 1, 2), (2, 1), (4, 2, 3, 1)]
    for host in hosts:
        extended = host + (len(host) + 1,)
        assert occurrence_count(extended, pat) >= occurrence_count(host, pat)


def test_contains_132_scan_matches_occurrence_search():
    checked = 0
    for k in range(8):
        for perm in itertools.permutations(range(1, k + 1)):
            assert contains_132(perm) == (occurrence_count(perm, (1, 3, 2)) > 0), perm
            checked += 1
    assert checked == 5914


def test_inverse():
    assert inverse(()) == ()
    assert inverse((2, 3, 1)) == (3, 1, 2)
    for perm in itertools.permutations(range(1, 6)):
        inv = inverse(perm)
        assert inverse(inv) == perm
        assert all(perm[inv[v - 1] - 1] == v for v in range(1, 6))


def test_as_pattern_rejects_non_permutations():
    with pytest.raises(PatternError):
        as_pattern((1, 3))
    with pytest.raises(PatternError):
        as_pattern((0, 1))
