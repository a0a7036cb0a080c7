import json

import pytest

from collections import Counter

from pattgf.errors import EnumerationCapExceeded, PatternError
from pattgf.oracle import (
    ConstraintSpec,
    CountTable,
    avoid_series,
    catalan,
    count,
    enumerate_avoiders,
    once_series,
    series,
)
from pattgf.patterns import contains, occurrence_count


def test_enumerate_base_cases():
    assert list(enumerate_avoiders(0)) == [()]
    assert list(enumerate_avoiders(1)) == [(1,)]
    assert set(enumerate_avoiders(3)) == {(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3)}


def test_enumerate_counts_are_catalan():
    for n in range(0, 11):
        assert sum(1 for _ in enumerate_avoiders(n)) == catalan(n)


def test_enumerate_never_yields_132_container():
    for n in range(0, 8):
        for perm in enumerate_avoiders(n):
            assert not contains(perm, (1, 3, 2))


def test_enumerate_deterministic():
    assert list(enumerate_avoiders(6)) == list(enumerate_avoiders(6))


def test_enumerate_cap_guard(monkeypatch):
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_avoiders(13))
    monkeypatch.setenv("PATTGF_ORACLE_CAP", "3")
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_avoiders(4))


def test_count_examples():
    assert count(4, ConstraintSpec(avoid=((3, 2, 1),))) == 7
    assert count(3, ConstraintSpec(contain=(2, 1), t=1)) == 1  # only 2 1 3
    assert count(5, ConstraintSpec(avoid=((),))) == 0  # empty pattern occurs everywhere
    assert count(0, ConstraintSpec(contain=(), t=1)) == 1


def test_count_cap_guard():
    with pytest.raises(EnumerationCapExceeded):
        count(31, ConstraintSpec())
    assert count(30, ConstraintSpec()) == catalan(30)


def test_negative_series_length_raises():
    with pytest.raises(EnumerationCapExceeded):
        series(ConstraintSpec(), -1)
    assert series(ConstraintSpec(), 0).counts == (1,)


def test_malformed_cap_override_is_usage_error(monkeypatch):
    monkeypatch.setenv("PATTGF_ORACLE_CAP", "ten")
    with pytest.raises(ValueError, match="PATTGF_ORACLE_CAP") as info:
        count(4, ConstraintSpec())
    assert not isinstance(info.value, EnumerationCapExceeded)


def test_series_examples():
    assert series(ConstraintSpec(avoid=((3, 2, 1),)), 5).counts == (1, 1, 2, 4, 7, 11)
    assert series(ConstraintSpec(contain=(1, 2), t=1), 4).counts == (0, 0, 1, 2, 3)
    # two-pattern table: avoid (2,1,3) and contain (2,1) exactly once
    assert series(ConstraintSpec(avoid=((2, 1, 3),), contain=(2, 1)), 4).counts == (0, 0, 1, 0, 0)


def test_once_series_helper():
    assert once_series((2, 1), 5).counts == (0, 0, 1, 1, 1, 1)
    assert once_series((2, 1), 4, also_avoid=((3, 1, 2),)).counts[:3] == (0, 0, 1)


def test_at_least_mode_complements_avoid():
    for n in range(0, 7):
        for pat in [(2, 1), (3, 2, 1), (2, 1, 3)]:
            avoided = count(n, ConstraintSpec(avoid=(pat,)))
            containing = count(n, ConstraintSpec(contain=pat, t=1, mode="at_least"))
            assert avoided + containing == catalan(n)


def test_counts_bounded_by_catalan():
    t = series(ConstraintSpec(contain=(2, 1, 3)), 8)
    assert all(c <= catalan(n) for n, c in enumerate(t.counts))


def test_count_table_serialization():
    t = CountTable((1, 1, 2))
    assert t.n_max == 2
    assert json.loads(json.dumps(t.to_json())) == ["1", "1", "2"]
    assert t.to_csv() == "0,1\n1,1\n2,2"


def test_constraint_spec_validation():
    with pytest.raises(PatternError):
        ConstraintSpec(avoid=((1, 3),))
    with pytest.raises(PatternError):
        ConstraintSpec(contain=(1,), t=-1)
    with pytest.raises(PatternError):
        ConstraintSpec(contain=(1,), mode="sometimes")


def test_avoid_series_helper():
    assert avoid_series([(3, 2, 1)], 5).counts == (1, 1, 2, 4, 7, 11)
    assert avoid_series([(2, 1, 3), (3, 2, 1)], 4).counts[4] == count(
        4, ConstraintSpec(avoid=((2, 1, 3), (3, 2, 1)))
    )


def test_counts_partition_by_maximum_position():
    # merging per-position-of-maximum counts reproduces the total
    n, pat = 7, (3, 2, 1)
    by_pos = Counter(
        perm.index(n)
        for perm in enumerate_avoiders(n)
        if occurrence_count(perm, pat, cap=1) == 0
    )
    assert sum(by_pos.values()) == count(n, ConstraintSpec(avoid=(pat,)))


def test_exactly_twice():
    # permutations with exactly two inversions that avoid 132
    t = series(ConstraintSpec(contain=(2, 1), t=2), 5)
    assert t.counts[0:3] == (0, 0, 0)
    assert t.counts[3] == 2  # 231 and 312
