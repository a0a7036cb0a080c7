"""Independent counts over S_n(132).

``enumerate_avoiders`` streams the 132-avoiding permutations of length
n by placing the maximum at every position and recursing on both sides
(the left part takes the values directly below the maximum, so the
total count is Catalan(n)); with ``patterns.occurrence_count`` it is the
brute-force ground truth.  ``count``/``series`` evaluate avoid and
contain-exactly/at-least constraints with the polynomial-time counting
DP of ``kernels``, which never lists a permutation.

Safety caps bound both: enumeration at n <= 12 and constraint counting
at n <= 30 by default; the PATTGF_ORACLE_CAP environment variable raises
(or lowers) both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb
from typing import Iterator

from . import kernels
from .errors import EnumerationCapExceeded, PatternError
from .patterns import as_pattern

DEFAULT_ENUMERATION_CAP = 12
DEFAULT_COUNT_CAP = 30


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _cap(default: int) -> int:
    override = os.environ.get("PATTGF_ORACLE_CAP")
    if override:
        try:
            return int(override)
        except ValueError:
            raise ValueError(f"bad PATTGF_ORACLE_CAP value {override!r}") from None
    return default


@dataclass(frozen=True)
class ConstraintSpec:
    """Avoid every pattern in ``avoid``; optionally contain one pattern
    exactly ``t`` times (``mode="exactly"``) or at least ``t`` times
    (``mode="at_least"``)."""

    avoid: tuple[tuple[int, ...], ...] = ()
    contain: tuple[int, ...] | None = None
    t: int = 1
    mode: str = "exactly"

    def __post_init__(self):
        object.__setattr__(self, "avoid", tuple(as_pattern(p) for p in self.avoid))
        if self.contain is not None:
            object.__setattr__(self, "contain", as_pattern(self.contain))
        if self.t < 0:
            raise PatternError(f"occurrence count must be nonnegative: {self.t}")
        if self.mode not in ("exactly", "at_least"):
            raise PatternError(f"unknown containment mode {self.mode!r}")


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by n = 0..n_max; each entry is at most Catalan(n)."""

    counts: tuple[int, ...]

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
    cap = _cap(DEFAULT_ENUMERATION_CAP)
    if not 0 <= n <= cap:
        raise EnumerationCapExceeded(f"n={n} outside the enumeration cap [0, {cap}]")

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
    cap = _cap(DEFAULT_COUNT_CAP)
    if not 0 <= n <= cap:
        raise EnumerationCapExceeded(f"n={n} outside the counting cap [0, {cap}]")
    return kernels.count_constrained(
        n, spec.avoid, spec.contain, spec.t, spec.mode == "at_least"
    )


def series(spec: ConstraintSpec, n_max: int) -> CountTable:
    """Counts for every n = 0..n_max as a CountTable.

    The counting DP keeps the tables of the latest constraint set, so
    each ``count`` here extends them by one size instead of rebuilding.
    """
    if n_max < 0:
        raise EnumerationCapExceeded(f"n_max={n_max} is negative")
    return CountTable(tuple(count(n, spec) for n in range(n_max + 1)))
