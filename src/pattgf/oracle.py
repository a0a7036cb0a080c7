"""Independent counts over S_n(132).

``enumerate_avoiders`` streams the 132-avoiding permutations of length
n by placing the maximum at every position and recursing on both sides
(the left part takes the values directly below the maximum, so the
total count is Catalan(n)); with ``patterns.occurrence_count`` it is the
brute-force ground truth.  ``count``/``series`` ask the two questions the
recursions need, "avoid every pattern in a set" and "contain one pattern
exactly once", of the polynomial-time counting DP of ``kernels``, which
never lists a permutation.  ``series`` is one kernel call for every
n = 0..n_max, and ``count(n)`` reads entry n of ``series`` up to n.

Fixed safety caps bound both: enumeration at n <= 12 and constraint
counting at n <= 30.

``ConstraintSpec`` and ``CountTable`` are ``namedtuple`` subclasses;
``ConstraintSpec`` turns its patterns into tuples on construction,
``_replace`` included.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from . import kernels
from .errors import EnumerationCapExceeded
from .patterns import as_pattern

ENUMERATION_CAP = 12
COUNT_CAP = 30


class ConstraintSpec(namedtuple("ConstraintSpec", "avoid contain")):
    """Avoid every pattern in ``avoid`` and, unless ``contain`` is None,
    contain that pattern exactly once.  Every permutation contains the
    empty pattern exactly once, so ``contain=()`` adds no constraint."""

    __slots__ = ()

    def __new__(cls, avoid: tuple[tuple[int, ...], ...] = (), contain: tuple[int, ...] | None = None):
        return super().__new__(
            cls,
            tuple(as_pattern(p) for p in avoid),
            None if contain is None else as_pattern(contain),
        )

    _make = classmethod(lambda cls, it: cls(*it))  # ``_replace`` coerces too


class CountTable(namedtuple("CountTable", "counts")):
    """Counts indexed by n = 0..n_max; each entry is at most Catalan(n)."""

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def to_json(self) -> list[str]:
        return [str(c) for c in self.counts]

    def to_csv(self) -> str:
        return "\n".join(f"{n},{c}" for n, c in enumerate(self.counts))


def enumerate_avoiders(n: int) -> Iterator[tuple[int, ...]]:
    """Yield each element of S_n(132) exactly once, deterministically.

    Order is a pure function of n: the position of the maximum moves
    left to right, then both sides recurse the same way.
    """
    if not 0 <= n <= ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"n={n} outside the enumeration cap [0, {ENUMERATION_CAP}]")

    def gen(lo: int, size: int) -> Iterator[tuple[int, ...]]:
        if size == 0:
            yield ()
            return
        top = lo + size - 1
        for left in range(size):  # number of entries before the maximum
            for left_part in gen(top - left, left):
                for right_part in gen(lo, size - 1 - left):
                    yield left_part + (top,) + right_part

    return gen(1, n)


def count(n: int, spec: ConstraintSpec) -> int:
    """Number of permutations in S_n(132) meeting all constraints."""
    return series(spec, n).counts[n]


def series(spec: ConstraintSpec, n_max: int) -> CountTable:
    """Counts for every n = 0..n_max as a CountTable, from one table of
    the counting DP."""
    if not 0 <= n_max <= COUNT_CAP:
        raise EnumerationCapExceeded(f"n_max={n_max} outside the counting cap [0, {COUNT_CAP}]")
    return CountTable(kernels.count_constrained(n_max, spec.avoid, spec.contain))
