"""Constraint counting over S_n(132) by a place-the-maximum DP.

Every π ∈ S_n(132) with n >= 1 is π = L n R, where L ∈ S_l(132) holds
the values directly below n and R ∈ S_{n-1-l}(132) the rest, so every
entry of L exceeds every entry of R.  An occurrence of σ in π therefore
splits at a skew cut σ = σ[:c] ⊖ σ[c:]: the tail σ[c:] lies in R, and
the head σ[:c] lies in L, or ends in its own maximum, matched to n, with
the rest of it in L.  Summed over the skew cuts of σ,

    occ(σ, π) = Σ occ(head, L) · occ(tail, R).

Close the constraint patterns under these heads and tails.  The state of
a permutation is the vector of its occurrence counts of the closure, each
capped at C (2 to count exactly one occurrence, 1 when nothing is
contained).  Capping commutes with sums of products of nonnegative
integers, so the state of π follows from those of L and R.  The table
for size n maps each state to the number of permutations having it.
Occurrence counts never decrease when a permutation grows, so a state
that already breaks a constraint is dropped for good.  Patterns that
contain 132 need no special case (their counts stay 0), nor does the
empty pattern (its count stays 1).
"""

from __future__ import annotations

import threading

BACKEND_NAME = "dp"


def _splits(sigma: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(part in L, part in R) for every way an occurrence of σ meets L n R."""
    k = len(sigma)
    out = []
    for c in range(k + 1):
        tail = sigma[c:]
        if max(tail, default=0) != k - c:  # not a skew cut
            continue
        head = tuple(v - (k - c) for v in sigma[:c])
        out.append((head, tail))
        if c and sigma[c - 1] == k:
            out.append((head[:-1], tail))
    return out


class _Table:
    """Per-size state tables for one constraint set, grown on demand.

    States are interned: ``states[i]`` is the count vector of state i,
    a level maps state ids to numbers of permutations, and ``joined[i]``
    maps j to the id of the state of L n R when L has state i and R has
    state j (-1 once that state is dropped).
    """

    def __init__(self, avoid, contain):
        self.key = (avoid, contain)
        roots = list(avoid) if contain is None else [*avoid, contain]
        patterns: list[tuple[int, ...]] = []
        index: dict[tuple[int, ...], int] = {}
        stack = [tuple(p) for p in roots]
        while stack:
            p = stack.pop()
            if p not in index:
                index[p] = len(patterns)
                patterns.append(p)
                stack.extend(part for split in _splits(p) for part in split)
        self.rules = [[(index[h], index[r]) for h, r in _splits(p)] for p in patterns]
        self.avoid_ix = [index[tuple(p)] for p in avoid]
        self.contain_ix = None if contain is None else index[tuple(contain)]
        self.cap = 1 if contain is None else 2
        self.states: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.joined: list[dict[int, int]] = []
        # the empty permutation contains the empty pattern once, nothing else
        base = self._intern(tuple(int(p == ()) for p in patterns))
        self.levels: list[dict[int, int]] = [{base: 1} if base >= 0 else {}]

    def _intern(self, state: tuple[int, ...]) -> int:
        """Id of ``state``, or -1 if it already breaks a constraint."""
        if any(state[i] for i in self.avoid_ix):
            return -1
        c = self.contain_ix
        if c is not None and state[c] > 1:
            return -1
        if state not in self.ids:
            self.ids[state] = len(self.states)
            self.states.append(state)
            self.joined.append({})
        return self.ids[state]

    def _join(self, i: int, j: int) -> int:
        left, right, cap = self.states[i], self.states[j], self.cap
        return self._intern(tuple([
            min(cap, sum([left[h] * right[r] for h, r in rule])) for rule in self.rules
        ]))

    def _next_level(self) -> dict[int, int]:
        levels, n = self.levels, len(self.levels)
        out: dict[int, int] = {}
        for l in range(n):
            right = list(levels[n - 1 - l].items())
            for i, a in levels[l].items():
                row = self.joined[i]
                for j, b in right:
                    s = row.get(j)
                    if s is None:
                        s = row[j] = self._join(i, j)
                    if s >= 0:
                        out[s] = out.get(s, 0) + a * b
        return out

    def count(self, n: int) -> int:
        while len(self.levels) <= n:
            self.levels.append(self._next_level())
        c = self.contain_ix
        if c is None:
            return sum(self.levels[n].values())
        return sum(m for i, m in self.levels[n].items() if self.states[i][c] == 1)


_current: _Table | None = None  # only the most recent constraint set is kept
_lock = threading.Lock()


def count_constrained(
    n: int,
    avoid: tuple[tuple[int, ...], ...],
    contain: tuple[int, ...] | None,
) -> int:
    """Number of 132-avoiding permutations of length n that avoid every
    pattern in ``avoid`` and, unless ``contain`` is None, contain it
    exactly once.

    Repeated calls with the same constraints reuse the tables already
    built, so a series for n = 0..N costs one table build.
    """
    global _current
    with _lock:
        if _current is None or _current.key != (avoid, contain):
            _current = _Table(avoid, contain)
        return _current.count(n)
