import itertools

import pytest

from pattgf.errors import PatternError
from pattgf.oracle import enumerate_avoiders
from pattgf.patterns import (
    FamilySpec,
    as_pattern,
    canonical_decompose,
    classify,
    contains_132,
    decreasing,
    expand_layered,
    expand_wedge_top,
    flatten,
    format_pattern,
    increasing,
    is_wedge,
    iter_layered_specs,
    iter_wedges,
    occurrence_count,
    parse_pattern,
    prefix_closure_pattern,
    prefix_pattern,
    suffix_pattern,
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


def test_occurrence_count_cap_short_circuits():
    host = tuple(range(8, 0, -1))
    full = occurrence_count(host, (2, 1))
    assert full == 28
    assert occurrence_count(host, (2, 1), cap=3) >= 3
    assert (occurrence_count(host, (2, 1), cap=1) > 0) == (full > 0)


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
    # reconstruction must be exact for every permutation up to size 8
    for k in range(1, 9):
        for perm in itertools.permutations(range(1, k + 1)):
            assert canonical_decompose(perm).reconstruct() == perm


def test_prefix_suffix_examples():
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
    assert prefix_closure_pattern(d2, 0) == (3, 2, 1, 4)


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


def test_slices_match_interleave_reference():
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
            for i in range(r + 1):
                assert prefix_closure_pattern(d, i) == _interleave(maxima, segments, 0, i + 1)
            for i in range(r + 2):
                assert suffix_pattern(d, i) == _interleave(maxima, segments, i, r + 1)
            for bad in (-2, r + 1):
                with pytest.raises(PatternError):
                    prefix_pattern(d, bad)
            for bad in (-1, r + 1):
                with pytest.raises(PatternError):
                    prefix_closure_pattern(d, bad)
            for bad in (-1, r + 2):
                with pytest.raises(PatternError):
                    suffix_pattern(d, bad)


def test_classify_families():
    assert classify((4, 5, 2, 3, 1)) == FamilySpec("layered", (5, 3, 1))
    assert classify((3, 2, 1)) == FamilySpec("layered", (3, 2, 1))
    assert classify((1, 2, 3)) == FamilySpec("layered", (3,))
    assert classify((3, 4, 1, 2, 5)) == FamilySpec("wedge-top", (5, 4, 2))
    # a wedge that is neither layered nor wedge-top is plain
    assert classify((6, 4, 5, 7, 8, 3, 9, 1, 2)) == FamilySpec("plain", ())


def test_classify_layered_roundtrip():
    for k in range(1, 8):
        for tops in iter_layered_specs(k):
            assert classify(expand_layered(tops)) == FamilySpec("layered", tops)


def test_family_spec_validation():
    with pytest.raises(PatternError):
        FamilySpec("layered", (3, 3))
    with pytest.raises(PatternError):
        FamilySpec("wedge-top", (3, 1, 2))
    with pytest.raises(PatternError):
        FamilySpec("oval", ())
    with pytest.raises(PatternError):
        FamilySpec("decreasing", (4,))  # decreasing patterns are layered


def test_wedge_examples():
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


def test_every_wedge_avoids_132():
    for k in range(1, 9):
        for w in iter_wedges(k):
            assert not contains_132(w), w


def test_iter_wedges_consistent_with_detector():
    for k in range(1, 8):
        generated = set(iter_wedges(k))
        detected = {
            perm
            for perm in itertools.permutations(range(1, k + 1))
            if is_wedge(perm)
        }
        assert generated == detected


def test_occurrence_zero_iff_avoids():
    host = (5, 3, 4, 1, 2)
    for k in range(1, 4):
        for pat in itertools.permutations(range(1, k + 1)):
            count = occurrence_count(host, pat)
            assert (count == 0) == (occurrence_count(host, pat, cap=1) == 0)


def test_occurrence_monotone_under_appended_maximum():
    # appending a fresh maximum cannot destroy occurrences of a pattern
    # that ends with its own maximum
    pat = (2, 1, 3)
    hosts = [(2, 1, 3), (3, 1, 2), (2, 1), (4, 2, 3, 1)]
    for host in hosts:
        extended = host + (len(host) + 1,)
        assert occurrence_count(extended, pat) >= occurrence_count(host, pat)


def test_as_pattern_rejects_non_permutations():
    with pytest.raises(PatternError):
        as_pattern((1, 3))
    with pytest.raises(PatternError):
        as_pattern((0, 1))
