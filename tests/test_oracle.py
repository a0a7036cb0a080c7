import json
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from pattgf.errors import EnumerationCapExceeded, PatternError
from pattgf.oracle import (
    ConstraintSpec,
    CountTable,
    count,
    enumerate_avoiders,
    series,
)
from pattgf.patterns import occurrence_count


def test_enumerate_base_cases():
    assert list(enumerate_avoiders(0)) == [()]
    assert list(enumerate_avoiders(1)) == [(1,)]
    assert set(enumerate_avoiders(3)) == {(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 1, 3), (1, 2, 3)}


def test_enumerate_counts_are_catalan(catalan):
    for n in range(0, 11):
        assert sum(1 for _ in enumerate_avoiders(n)) == catalan(n)


def test_enumerate_never_yields_132_container():
    for n in range(0, 8):
        for perm in enumerate_avoiders(n):
            assert occurrence_count(perm, (1, 3, 2)) == 0


def test_enumerate_deterministic():
    assert list(enumerate_avoiders(6)) == list(enumerate_avoiders(6))


def test_enumerate_cap_guard():
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_avoiders(13))


def test_count_examples():
    assert count(4, ConstraintSpec(avoid=((3, 2, 1),))) == 7
    assert count(3, ConstraintSpec(contain=(2, 1))) == 1  # only 2 1 3
    assert count(5, ConstraintSpec(avoid=((),))) == 0  # empty pattern occurs everywhere
    assert count(0, ConstraintSpec(contain=())) == 1


def test_count_cap_guard(catalan):
    with pytest.raises(EnumerationCapExceeded):
        count(31, ConstraintSpec())
    assert count(30, ConstraintSpec()) == catalan(30)


def test_negative_series_length_raises():
    with pytest.raises(EnumerationCapExceeded):
        series(ConstraintSpec(), -1)
    assert series(ConstraintSpec(), 0).counts == (1,)


def test_series_above_cap_refused_before_counting(monkeypatch):
    from pattgf import kernels

    def refuse(*args):
        raise AssertionError("counted before the cap check")

    monkeypatch.setattr(kernels, "count_constrained", refuse)
    with pytest.raises(EnumerationCapExceeded, match="n_max=31"):
        series(ConstraintSpec(contain=(8, 7, 5, 6, 4, 3, 2, 1)), 31)


def test_series_and_count_make_one_kernel_call(monkeypatch):
    from pattgf import kernels

    calls = []
    real = kernels.count_constrained

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "count_constrained", counted)
    spec = ConstraintSpec(avoid=((3, 2, 1),))
    assert series(spec, 9).counts[9] == 37
    assert calls == [(9, ((3, 2, 1),), None)]
    assert count(9, spec) == 37
    assert len(calls) == 2


def test_concurrent_series_match_sequential():
    """The counting DP keeps no state between calls, so threads that
    count different constraint sets at once get the sequential tables."""
    specs = [
        ConstraintSpec(avoid=((3, 2, 1),)),
        ConstraintSpec(contain=(2, 1, 3)),
        ConstraintSpec(avoid=((2, 1, 3),), contain=(2, 1)),
        ConstraintSpec(contain=(4, 3, 1, 2)),
    ]
    want = [series(spec, 20) for spec in specs]
    start = threading.Barrier(len(specs))

    def run(spec):
        start.wait(timeout=60)
        return series(spec, 20)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-table
    try:
        with ThreadPoolExecutor(len(specs)) as pool:
            got = list(pool.map(run, specs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_series_examples():
    assert series(ConstraintSpec(avoid=((3, 2, 1),)), 5).counts == (1, 1, 2, 4, 7, 11)
    assert series(ConstraintSpec(contain=(1, 2)), 4).counts == (0, 0, 1, 2, 3)
    # two-pattern table: avoid (2,1,3) and contain (2,1) exactly once
    assert series(ConstraintSpec(avoid=((2, 1, 3),), contain=(2, 1)), 4).counts == (0, 0, 1, 0, 0)


def test_once_series_helper():
    assert series(ConstraintSpec(contain=(2, 1)), 5).counts == (0, 0, 1, 1, 1, 1)
    assert series(ConstraintSpec(avoid=((3, 1, 2),), contain=(2, 1)), 4).counts[:3] == (0, 0, 1)


def test_counts_bounded_by_catalan(catalan):
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
        ConstraintSpec(contain=(1, 1))


def test_avoid_series_helper():
    assert series(ConstraintSpec(avoid=((3, 2, 1),)), 5).counts == (1, 1, 2, 4, 7, 11)
    assert series(ConstraintSpec(avoid=((2, 1, 3), (3, 2, 1))), 4).counts[4] == count(
        4, ConstraintSpec(avoid=((2, 1, 3), (3, 2, 1)))
    )


def test_counts_partition_by_maximum_position():
    # merging per-position-of-maximum counts reproduces the total
    n, pat = 7, (3, 2, 1)
    by_pos = Counter(
        perm.index(n)
        for perm in enumerate_avoiders(n)
        if occurrence_count(perm, pat) == 0
    )
    assert sum(by_pos.values()) == count(n, ConstraintSpec(avoid=(pat,)))

