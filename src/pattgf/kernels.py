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
that already breaks a constraint is dropped for good.  Each call of
``count_constrained`` builds one table for every size up to its n_max
and keeps nothing, so concurrent calls share no state.  Patterns that
contain 132 need no special case (their counts stay 0), nor does the
empty pattern (its count stays 1).

A state is held as bit masks, so that a join is a fixed handful of
integer operations whatever the size of the closure (the packed-field
technique of Lamport, "Multiple byte processing with full-word
instructions", CACM 18(8), 1975).  Pattern p of the closure owns a
segment of m + 1 consecutive bits: one *slot* bit per split (head, tail)
of p from ``_splits``, then one *guard* bit g_p.  Every pattern has
m >= 1 splits, since () splits as ((), ()).  ADD sets every slot bit,
GUARD every guard bit and ONE the lowest slot bit of each segment.

- A state is the pair of guard masks ge1 = {g_p : count_p >= 1} and
  ge2 = {g_p : count_p >= 2} (ge2 = 0 when C = 1), interned as the one
  integer ge1 | ge2 << 1.  The bit above a guard is a slot bit or lies
  beyond the layout, never a guard bit, so the key fixes the pair.
- Each state keeps four slot masks: L1 (L2) marks the slots whose head
  has count >= 1 (>= 2) in it, and R1 (R2) the slots whose tail does.
  L1 is the union of HEAD_q, the slots with head q, over the g_q in ge1;
  the others are built the same way.
- For L with state i and R with state j, a = L1_i & R1_j marks the
  splits whose product occ(head, L) · occ(tail, R) is >= 1, and
  b = (L2_i & R1_j) | (L1_i & R2_j) those whose product is >= 2.  So in
  the state of L n R, count_p >= 1 iff a is nonzero on p's segment, and
  count_p >= 2 iff b is, or a has two set bits there.

Two identities read those conditions off every segment at once.  On one
segment, write s < 2**m for the slot bits of a mask whose guard bit is
clear; the segment of ADD is 2**m - 1.

1. ge1 = (a + ADD) & GUARD, and ge2 = ((z | b) + ADD) & GUARD.  The
   segment sum s + 2**m - 1 sets the guard bit 2**m iff s >= 1, and it
   is at most 2**(m+1) - 2, so no carry crosses into the next segment
   and every segment adds on its own.
2. z = a & ((a | GUARD) - ONE) clears the lowest set bit of each segment
   of a.  The segment of a | GUARD is 2**m + s >= 1, so subtracting its
   ONE bit borrows nothing from the next segment.  For s >= 1 the
   difference is 2**m + s - 1, and s & (s - 1) is s without its lowest
   set bit (the guard bit goes, as a has none).  For s = 0 the guard
   bit absorbs the borrow and the AND with a gives 0.  So z is nonzero
   on a segment iff a has at least two set bits there.
"""

from __future__ import annotations

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
    """Per-size state tables for one constraint set.

    ``patterns[q]`` is closure pattern q and ``guards[q]`` its guard bit.
    States are interned: ``states[i]`` is the key ``ge1 | ge2 << 1`` of
    state i, ``masks[i]`` its slot masks (L1, L2, R1, R2), a level maps
    state ids to numbers of permutations, and ``joined[i]`` maps j to the
    id of the state of L n R when L has state i and R has state j (-1
    once that state is dropped).
    """

    def __init__(self, avoid, contain):
        roots = list(avoid) if contain is None else [*avoid, contain]
        patterns: list[tuple[int, ...]] = []
        splits: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
        index: dict[tuple[int, ...], int] = {}
        stack = [tuple(p) for p in roots]
        while stack:
            p = stack.pop()
            if p not in index:
                index[p] = len(patterns)
                patterns.append(p)
                splits.append(_splits(p))
                stack.extend(part for split in splits[-1] for part in split)
        self.patterns = patterns
        # the slot/guard layout of the module docstring
        self.guards: list[int] = []
        self.heads = [0] * len(patterns)
        self.tails = [0] * len(patterns)
        self.add = self.one = bit = 0
        for parts in splits:
            start = bit
            for h, r in parts:
                self.heads[index[h]] |= 1 << bit
                self.tails[index[r]] |= 1 << bit
                bit += 1
            self.add |= (1 << bit) - (1 << start)
            self.one |= 1 << start
            self.guards.append(1 << bit)
            bit += 1
        self.guard = sum(self.guards)
        self.avoid = 0
        for p in avoid:
            self.avoid |= self.guards[index[tuple(p)]]
        self.contain = 0 if contain is None else self.guards[index[tuple(contain)]]
        self.states: list[int] = []
        self.masks: list[tuple[int, int, int, int]] = []
        self.ids: dict[int, int] = {}
        self.joined: list[dict[int, int]] = []
        # the empty permutation contains the empty pattern once, nothing else
        empty = index.get(())
        base = self._intern(0 if empty is None else self.guards[empty], 0)
        self.levels: list[dict[int, int]] = [{base: 1} if base >= 0 else {}]

    def _gather(self, ge: int, parts: list[int]) -> int:
        """Union of ``parts[q]`` over the patterns q whose guard bit is in ``ge``."""
        out = 0
        for g, m in zip(self.guards, parts):
            if ge & g:
                out |= m
        return out

    def _intern(self, ge1: int, ge2: int) -> int:
        """Id of the state (ge1, ge2), or -1 if it already breaks a constraint."""
        if ge1 & self.avoid or ge2 & self.contain:
            return -1
        key = ge1 | ge2 << 1
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.states)
            self.states.append(key)
            self.masks.append((
                self._gather(ge1, self.heads), self._gather(ge2, self.heads),
                self._gather(ge1, self.tails), self._gather(ge2, self.tails),
            ))
            self.joined.append({})
        return i

    def _join(self, i: int, j: int) -> int:
        l1, l2, _, _ = self.masks[i]
        _, _, r1, r2 = self.masks[j]
        a = l1 & r1
        ge1 = (a + self.add) & self.guard
        if not self.contain:  # C = 1
            return self._intern(ge1, 0)
        z = a & ((a | self.guard) - self.one)
        b = l2 & r1 | l1 & r2
        return self._intern(ge1, ((z | b) + self.add) & self.guard)

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

    def counts(self, n_max: int) -> tuple[int, ...]:
        while len(self.levels) <= n_max:
            self.levels.append(self._next_level())
        levels, c = self.levels[:n_max + 1], self.contain
        if not c:
            return tuple(sum(level.values()) for level in levels)
        # states with c in ge2 were dropped, so c in ge1 means count == 1
        return tuple(sum(m for i, m in level.items() if self.states[i] & c) for level in levels)


def count_constrained(
    n_max: int,
    avoid: tuple[tuple[int, ...], ...],
    contain: tuple[int, ...] | None,
) -> tuple[int, ...]:
    """Numbers of 132-avoiding permutations of each length n = 0..n_max
    that avoid every pattern in ``avoid`` and, unless ``contain`` is
    None, contain it exactly once."""
    return _Table(avoid, contain).counts(n_max)
