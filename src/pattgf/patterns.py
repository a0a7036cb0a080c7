"""Permutation patterns: parsing, containment, canonical decomposition.

A pattern is a plain tuple of distinct integers 1..k in one-line
notation; the empty tuple is the empty pattern.  Everything here is a
pure function of its arguments.

Accepted text formats (``parse_pattern``):

- ``"3 2 1"``     space-separated one-line notation,
- ``"321"``       digit string, only for k <= 9,
- ``"[5,3,1]"``   layered pattern with the given layer tops; layer i
                  expands to the ascending run (m_{i+1}+1, ..., m_i),
- ``"<4>"``       the decreasing pattern (4,3,2,1),
- ``"{5,4,2}"``   the wedge pattern (p+1,...,m, 1,...,p, m+1,...,k)
                  for parameters k > m > p > 0.

Emitted patterns use space-separated one-line notation (``format_pattern``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import PatternError

Pattern = tuple  # one-line notation, values 1..k


def as_pattern(values: Iterable[int]) -> tuple[int, ...]:
    """Validate ``values`` as a permutation of 1..k and return it as a tuple.

    >>> as_pattern([3, 1, 2])
    (3, 1, 2)
    """
    pat = tuple(int(v) for v in values)
    if sorted(pat) != list(range(1, len(pat) + 1)):
        raise PatternError(f"not a permutation of 1..{len(pat)}: {pat}")
    return pat


def format_pattern(pat: Sequence[int]) -> str:
    return " ".join(str(v) for v in pat)


def flatten(values: Sequence[int]) -> tuple[int, ...]:
    """The unique permutation of 1..len order-isomorphic to ``values``.

    >>> flatten((4, 5, 2))
    (2, 3, 1)
    >>> flatten(())
    ()
    """
    vals = tuple(values)
    if len(set(vals)) != len(vals):
        raise PatternError(f"duplicate values in {vals}")
    rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return tuple(rank[v] for v in vals)


def occurrence_count(host: Sequence[int], pat: Sequence[int], cap: int | None = None) -> int:
    """Number of index subsequences of ``host`` order-isomorphic to ``pat``.

    Exhaustive subsequence search pruned by partial order-isomorphism;
    with ``cap`` the search stops as soon as ``cap`` occurrences are
    confirmed (the return value is then >= cap but not the full count).
    The empty pattern occurs exactly once in every host.
    """
    host = tuple(host)
    pat = tuple(pat)
    n, k = len(host), len(pat)
    if k == 0:
        return 1
    if k > n:
        return 0
    chosen: list[int] = []
    count = 0

    def extend(j: int, start: int) -> bool:
        nonlocal count
        for p in range(start, n - (k - j) + 1):
            v = host[p]
            if all((v > w) == (pat[j] > pat[a]) for a, w in enumerate(chosen)):
                if j + 1 == k:
                    count += 1
                    if cap is not None and count >= cap:
                        return True
                else:
                    chosen.append(v)
                    done = extend(j + 1, p + 1)
                    chosen.pop()
                    if done:
                        return True
        return False

    extend(0, 0)
    return count


def contains(host: Sequence[int], pat: Sequence[int]) -> bool:
    return occurrence_count(host, pat, cap=1) > 0


def contains_132(pat: Sequence[int]) -> bool:
    return contains(pat, (1, 3, 2))


@dataclass(frozen=True)
class CanonicalDecomposition:
    """A pattern written around its right-to-left maxima.

    ``positions`` indexes the right-to-left maxima of ``pattern``; their
    values ``maxima`` run m_0 = k > ... > m_r, and ``segments`` are the
    possibly empty stretches before each, so interleaving segment i
    before maximum i reconstructs the pattern.  Every entry of segment
    i exceeds maximum i+1 and everything in segment i+1.
    """

    pattern: tuple[int, ...]
    positions: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.positions) - 1

    @property
    def maxima(self) -> tuple[int, ...]:
        return tuple(self.pattern[i] for i in self.positions)

    @property
    def segments(self) -> tuple[tuple[int, ...], ...]:
        starts = (0,) + tuple(i + 1 for i in self.positions)
        return tuple(self.pattern[a:b] for a, b in zip(starts, self.positions))

    def reconstruct(self) -> tuple[int, ...]:
        word: list[int] = []
        for seg, m in zip(self.segments, self.maxima):
            word.extend(seg)
            word.append(m)
        return tuple(word)


def canonical_decompose(pat: Sequence[int]) -> CanonicalDecomposition:
    """Decompose around right-to-left maxima.

    >>> d = canonical_decompose((3, 2, 1, 4))
    >>> d.maxima, d.segments, d.r
    ((4,), ((3, 2, 1),), 0)
    """
    pat = as_pattern(pat)
    if not pat:
        raise PatternError("empty pattern has no canonical decomposition")
    positions = []
    best = 0
    for i in reversed(range(len(pat))):
        if pat[i] > best:
            positions.append(i)
            best = pat[i]
    return CanonicalDecomposition(pat, tuple(reversed(positions)))


def prefix_pattern(d: CanonicalDecomposition, i: int) -> tuple[int, ...]:
    """The i-th prefix: segments and maxima up to maximum i, flattened.

    i = -1 gives the empty pattern; i = 0 gives the flattened first
    segment alone (without its maximum).
    """
    if not -1 <= i <= d.r:
        raise PatternError(f"prefix index {i} out of range [-1, {d.r}]")
    end = d.positions[i] + (i > 0) if i >= 0 else 0  # prefix 0 stops before m_0
    return flatten(d.pattern[:end])


def suffix_pattern(d: CanonicalDecomposition, i: int) -> tuple[int, ...]:
    """The i-th suffix: segments and maxima from maximum i on, flattened.

    i = 0 is the whole pattern, i = r + 1 the empty pattern.
    """
    if not 0 <= i <= d.r + 1:
        raise PatternError(f"suffix index {i} out of range [0, {d.r + 1}]")
    return flatten(d.pattern[d.positions[i - 1] + 1 if i else 0 :])


def prefix_closure_pattern(d: CanonicalDecomposition, i: int) -> tuple[int, ...]:
    """The i-th prefix *including* maximum i as a trailing new maximum.

    Differs from ``prefix_pattern(d, 0)`` by keeping m_0; used by the
    numeric relation checks, whose boundary terms constrain the part
    of a permutation left of the placed maximum by this pattern.
    """
    if not 0 <= i <= d.r:
        raise PatternError(f"prefix index {i} out of range [0, {d.r}]")
    return flatten(d.pattern[: d.positions[i] + 1])


@dataclass(frozen=True)
class FamilySpec:
    """A pattern family as ``classify`` reports it: layered, wedge-top or
    plain.

    Parameters: layered -> the layer tops (m_0, ..., m_r); wedge-top ->
    (k, m, p) with k > m > p > 0; plain -> ().  Decreasing patterns are
    layered, with all-singleton layers.
    """

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == "layered":
            p = self.params
            if not p or any(v <= 0 for v in p) or any(a <= b for a, b in zip(p, p[1:])):
                raise PatternError(f"layered tops must be strictly decreasing positive: {p}")
        elif self.kind == "wedge-top":
            if len(self.params) != 3:
                raise PatternError(f"wedge-top spec needs (k, m, p): {self.params}")
            k, m, p = self.params
            if not k > m > p > 0:
                raise PatternError(f"wedge-top parameters must satisfy k > m > p > 0: {self.params}")
        elif self.kind != "plain":
            raise PatternError(f"unknown family kind {self.kind!r}")


def increasing(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def decreasing(k: int) -> tuple[int, ...]:
    return tuple(range(k, 0, -1))


def expand_layered(tops: Sequence[int]) -> tuple[int, ...]:
    """Layered pattern from layer tops: each layer is an ascending run.

    >>> expand_layered((5, 3, 1))
    (4, 5, 2, 3, 1)
    """
    FamilySpec("layered", tuple(int(t) for t in tops))  # validates
    word: list[int] = []
    bottoms = list(tops[1:]) + [0]
    for top, bottom in zip(tops, bottoms):
        word.extend(range(bottom + 1, top + 1))
    return tuple(word)


def expand_wedge_top(k: int, m: int, p: int) -> tuple[int, ...]:
    """The wedge (p+1,...,m, 1,...,p, m+1,...,k).

    >>> expand_wedge_top(5, 4, 2)
    (3, 4, 1, 2, 5)
    """
    FamilySpec("wedge-top", (k, m, p))  # validates
    return tuple(range(p + 1, m + 1)) + tuple(range(1, p + 1)) + tuple(range(m + 1, k + 1))


def _layered_tops(pat: tuple[int, ...]) -> tuple[int, ...] | None:
    """Layer tops if ``pat`` is layered, else None."""
    if not pat:
        return None
    runs: list[tuple[int, int]] = []
    lo = pat[0]
    for prev, cur in zip(pat, pat[1:]):
        if cur != prev + 1:
            runs.append((lo, prev))
            lo = cur
    runs.append((lo, pat[-1]))
    tops = []
    expect_top = len(pat)
    for run_lo, run_hi in runs:
        if run_hi != expect_top or run_lo > run_hi:
            return None
        tops.append(run_hi)
        expect_top = run_lo - 1
    if expect_top != 0:
        return None
    return tuple(tops)


def _wedge_top_params(pat: tuple[int, ...]) -> tuple[int, int, int] | None:
    k = len(pat)
    if k < 3 or 1 not in pat:
        return None
    p = pat[0] - 1
    if p < 1:
        return None
    m = p + pat.index(1)
    if not k > m > p:
        return None
    if pat == expand_wedge_top(k, m, p):
        return (k, m, p)
    return None


def classify(pat: Sequence[int]) -> FamilySpec:
    """Detect the family of a pattern.

    Layered patterns (including decreasing ones, which are layered
    with all-singleton layers) come back as ``layered`` with their
    layer tops; the three-parameter wedge shape as ``wedge-top``;
    everything else, including general wedges, as ``plain``.

    >>> classify((4, 5, 2, 3, 1))
    FamilySpec(kind='layered', params=(5, 3, 1))
    """
    pat = as_pattern(pat)
    tops = _layered_tops(pat)
    if tops is not None:
        return FamilySpec("layered", tops)
    wtp = _wedge_top_params(pat)
    if wtp is not None:
        return FamilySpec("wedge-top", wtp)
    return FamilySpec("plain", ())


def parse_pattern(text: str) -> tuple[int, ...]:
    """Parse any accepted pattern notation (see module docstring)."""
    text = text.strip()
    if not text:
        raise PatternError("empty pattern text")
    try:
        if text.startswith("[") and text.endswith("]"):
            tops = tuple(int(tok) for tok in text[1:-1].split(","))
            return expand_layered(tops)
        if text.startswith("<") and text.endswith(">"):
            k = int(text[1:-1])
            if k < 1:
                raise PatternError(f"decreasing size must be positive: {k}")
            return decreasing(k)
        if text.startswith("{") and text.endswith("}"):
            k, m, p = (int(tok) for tok in text[1:-1].split(","))
            return expand_wedge_top(k, m, p)
    except PatternError:
        raise
    except ValueError as exc:
        raise PatternError(f"malformed pattern text {text!r}") from exc
    try:
        if " " in text:
            return as_pattern(int(tok) for tok in text.split())
        return as_pattern(int(ch) for ch in text)  # digit string, k <= 9
    except PatternError:
        raise
    except ValueError as exc:
        raise PatternError(f"malformed pattern text {text!r}") from exc


# -- wedge patterns ---------------------------------------------------------
#
# A wedge interleaves a layered permutation of 1..s (its layers kept as
# contiguous blocks, in order) with the ascending run s+1,...,k so that
# the word starts with an upper element and no two layers are adjacent.
# Wedges avoid (1,3,2) and their avoidance series depends only on k.


def is_wedge(pat: Sequence[int]) -> bool:
    """Whether ``pat`` is a wedge pattern (any s).

    >>> is_wedge((6, 4, 5, 7, 8, 3, 9, 1, 2))
    True
    >>> is_wedge((3, 2, 1))
    False
    """
    pat = as_pattern(pat)
    k = len(pat)
    if k == 0:
        return False
    for s in range(k):
        if pat[0] <= s:
            continue
        upper = [v for v in pat if v > s]
        if upper != sorted(upper):
            continue
        lower_pos = [i for i, v in enumerate(pat) if v <= s]
        lower = tuple(pat[i] for i in lower_pos)
        tops = _layered_tops(lower) if s else ()
        if s and tops is None:
            continue
        # each layer contiguous in pat, with at least one upper between layers
        ok = True
        idx = 0
        prev_end = -2
        layer_sizes = []
        if s:
            bottoms = list(tops[1:]) + [0]
            layer_sizes = [t - b for t, b in zip(tops, bottoms)]
        for size in layer_sizes:
            block = lower_pos[idx:idx + size]
            if block != list(range(block[0], block[0] + size)) or block[0] <= prev_end + 1:
                ok = False
                break
            prev_end = block[-1]
            idx += size
        if ok:
            return True
    return False


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def iter_wedges(k: int) -> Iterator[tuple[int, ...]]:
    """All wedge patterns of size k, enumerated by their layered lower part."""
    seen: set[tuple[int, ...]] = set()
    for s in range(k):
        for comp in _compositions(s):
            q = len(comp)
            # layers top-down as value runs
            layers = []
            top = s
            for size in comp:
                layers.append(tuple(range(top - size + 1, top + 1)))
                top -= size
            # k-s upper values into q+1 slots, first q nonempty
            for dist in _compositions(k - s + 1):
                if len(dist) != q + 1:
                    continue
                counts = list(dist)
                counts[-1] -= 1  # trailing slot may be empty
                word: list[int] = []
                nxt = s + 1
                for i in range(q):
                    word.extend(range(nxt, nxt + counts[i]))
                    nxt += counts[i]
                    word.extend(layers[i])
                word.extend(range(nxt, nxt + counts[q]))
                pat = tuple(word)
                if pat not in seen:
                    seen.add(pat)
                    yield pat


def iter_layered_specs(k: int, min_layers: int = 1) -> Iterator[tuple[int, ...]]:
    """Layer-top tuples of all layered patterns of size k with at least
    ``min_layers`` layers."""
    for comp in _compositions(k):
        if len(comp) < min_layers:
            continue
        tops = []
        top = k
        for size in comp:
            tops.append(top)
            top -= size
        yield tuple(tops)
