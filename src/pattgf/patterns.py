"""Permutation patterns: parsing, containment, canonical decomposition.

A pattern is a plain tuple of distinct integers 1..k in one-line
notation; the empty tuple is the empty pattern.  Everything here is a
pure function of its arguments, and each pattern rule is checked here
once, the (1,3,2) refusal ``require_132_avoiding`` included.  This
module also owns the block slices of a 132-avoider: ``blocks`` cuts the
prefixes and suffixes around its right-to-left maxima that the
avoidance recursion and the relation checks read.  The records
``CanonicalDecomposition`` and ``FamilySpec`` are ``namedtuple``
subclasses: immutable, hashable, and equal to the plain tuple of their
fields.

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

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .errors import NotIn132Class, PatternError


def _integers(values: Iterable[int]) -> tuple[int, ...]:
    """``values`` as ``int``s, each equal to its ``int`` (see ``as_pattern``), else a ``PatternError``."""
    given = tuple(values)
    try:
        ints = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != given:
        raise PatternError(f"pattern values must be integers: {given}")
    return ints


def as_pattern(values: Iterable[int]) -> tuple[int, ...]:
    """Validate ``values`` as a permutation of 1..k and return it as a tuple.

    A value is accepted only if it equals its ``int``, the equality the
    avoid memo's key lookup uses: (2.0, 1.0) is the pattern (2, 1), and
    (2.5, 1) or the string "21" is refused, not truncated or parsed.

    >>> as_pattern([3, 1, 2])
    (3, 1, 2)
    """
    pat = _integers(values)
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


def occurrence_count(host: Sequence[int], pat: Sequence[int]) -> int:
    """Number of index subsequences of ``host`` order-isomorphic to ``pat``.

    Exhaustive subsequence search pruned by partial order-isomorphism.
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

    def extend(j: int, start: int) -> None:
        nonlocal count
        for p in range(start, n - (k - j) + 1):
            v = host[p]
            if all((v > w) == (pat[j] > pat[a]) for a, w in enumerate(chosen)):
                if j + 1 == k:
                    count += 1
                else:
                    chosen.append(v)
                    extend(j + 1, p + 1)
                    chosen.pop()

    extend(0, 0)
    return count


def contains_132(pat: Sequence[int]) -> bool:
    """Whether ``pat`` contains (1,3,2), by one right-to-left scan.

    ``stack`` holds a decreasing run of candidates for the "2";
    ``third`` is the largest value popped so far, i.e. a "2" with a
    larger "3" to its left.  An entry below ``third`` completes a 132.
    ``occurrence_count(pat, (1, 3, 2)) > 0`` is the reference.

    >>> contains_132((2, 4, 1, 3)), contains_132((3, 4, 1, 2))
    (True, False)
    """
    stack: list[int] = []
    third = 0
    for v in reversed(pat):
        if v < third:
            return True
        while stack and stack[-1] < v:
            third = stack.pop()
        stack.append(v)
    return False


def inverse(pat: Sequence[int]) -> tuple[int, ...]:
    """The inverse permutation: its v-th entry is the position of v in ``pat``.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(pat)
    for i, v in enumerate(pat, 1):
        inv[v - 1] = i
    return tuple(inv)


class CanonicalDecomposition(namedtuple("CanonicalDecomposition", "pattern positions")):
    """A pattern written around its right-to-left maxima.

    ``positions`` indexes the right-to-left maxima of ``pattern``; their
    values ``maxima`` run m_0 = k > ... > m_r, and ``segments`` are the
    possibly empty stretches before each, so interleaving segment i
    before maximum i reconstructs the pattern.  When the pattern avoids
    (1,3,2), every entry of segment i exceeds maximum i+1 and everything
    in segment i+1.  Other patterns need not have that order; in
    (1, 3, 2), segment 0 is (1,) and maximum 1 is 2:

    >>> d = canonical_decompose((1, 3, 2))
    >>> d.segments, d.maxima
    (((1,), ()), (3, 2))
    """

    __slots__ = ()

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


def blocks(pat: tuple[int, ...]) -> tuple[int, list, list]:
    """(r, prefixes 0..max(r-1, 0), suffixes 1..r) of a nonempty
    132-avoider tau of size k, whose right-to-left maxima
    m_0 = k > ... > m_r sit at positions p_0 < ... < p_r.

    Prefix i is what comes up to m_i (prefix 0 stops just before it),
    suffix i what comes from m_i on, both flattened.  Every entry at or
    before p_i exceeds every entry after it: an entry a before p_i below
    a later b would make (a, m_i, b) a 132, since m_i exceeds everything
    to its right.  So the entries after p_i are exactly 1..k-p_i-1 (and
    m_(i+1) = k-p_i-1), and those up to p_i are the top p_i+1 values.
    Hence suffix i is tau[p_(i-1)+1:] as it stands, and prefix i is
    tau[:p_i+1] for i >= 1, tau[:p_0] for i = 0, minus k-1-p_i.  Every
    slice of a 132-avoider is again one.  The ends need no slicing:
    prefix -1 and suffix r+1 are empty, suffix 0 is tau, and prefix r is
    tau when r >= 1.

    >>> blocks((4, 5, 2, 3, 1))
    (2, [(1,), (3, 4, 1, 2)], [(2, 3, 1), (1,)])
    """
    k = len(pat)
    p = pat.index(k)
    positions = [p]
    while p < k - 1:  # the next maximum is k-1-p
        p = pat.index(k - 1 - p, p + 1)
        positions.append(p)
    r = len(positions) - 1
    prefixes = [
        tuple(map((q + 1 - k).__add__, pat[: q + (i > 0)]))
        for i, q in enumerate(positions[: max(r, 1)])
    ]
    return r, prefixes, [pat[q + 1 :] for q in positions[:-1]]


class FamilySpec(namedtuple("FamilySpec", "kind params", defaults=((),))):
    """A pattern family as ``classify`` reports it: layered, wedge-top or
    plain.

    Parameters: layered -> the layer tops (m_0, ..., m_r); wedge-top ->
    (k, m, p) with k > m > p > 0; plain -> ().  Decreasing patterns are
    layered, with all-singleton layers.  A plain record: the ``expand_*``
    functions check parameters given from outside.
    """

    __slots__ = ()


def increasing(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def decreasing(k: int) -> tuple[int, ...]:
    return tuple(range(k, 0, -1))


def expand_layered(tops: Sequence[int]) -> tuple[int, ...]:
    """Layered pattern from layer tops: each layer is an ascending run.

    >>> expand_layered((5, 3, 1))
    (4, 5, 2, 3, 1)
    """
    tops = _integers(tops)
    if not tops or tops[-1] <= 0 or any(a <= b for a, b in zip(tops, tops[1:])):
        raise PatternError(f"layered tops must be strictly decreasing positive: {tops}")
    word: list[int] = []
    for top, bottom in zip(tops, tops[1:] + (0,)):
        word.extend(range(bottom + 1, top + 1))
    return tuple(word)


def expand_wedge_top(k: int, m: int, p: int) -> tuple[int, ...]:
    """The wedge (p+1,...,m, 1,...,p, m+1,...,k).

    >>> expand_wedge_top(5, 4, 2)
    (3, 4, 1, 2, 5)
    """
    k, m, p = _integers((k, m, p))
    if not k > m > p > 0:
        raise PatternError(f"wedge-top parameters must satisfy k > m > p > 0: {(k, m, p)}")
    return tuple(range(p + 1, m + 1)) + tuple(range(1, p + 1)) + tuple(range(m + 1, k + 1))


def _layered_tops(pat: tuple[int, ...]) -> tuple[int, ...] | None:
    """Layer tops if ``pat`` is layered, else None.

    A layer's top ends its ascending run and exceeds everything after
    it, so the tops of a layered pattern are its right-to-left maxima.
    """
    if not pat:
        return None
    tops = canonical_decompose(pat).maxima
    return tops if expand_layered(tops) == pat else None


def _wedge_top_params(pat: tuple[int, ...]) -> tuple[int, int, int] | None:
    """(k, m, p) if ``pat`` is the wedge-top {k,m,p}, else None: its first
    entry is p+1, and 1 follows the run p+1..m."""
    if not pat:
        return None
    k, p = len(pat), pat[0] - 1
    m = p + pat.index(1)
    if k > m > p > 0 and pat == expand_wedge_top(k, m, p):
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
            return expand_layered(int(tok) for tok in text[1:-1].split(","))
        if text.startswith("<") and text.endswith(">"):
            k = int(text[1:-1])
            if k < 1:
                raise PatternError(f"decreasing size must be positive: {k}")
            return decreasing(k)
        if text.startswith("{") and text.endswith("}"):
            k, m, p = (int(tok) for tok in text[1:-1].split(","))
            return expand_wedge_top(k, m, p)
        if " " in text:
            return as_pattern(int(tok) for tok in text.split())
        return as_pattern(int(ch) for ch in text)  # digit string, k <= 9
    except PatternError:
        raise
    except ValueError as exc:
        raise PatternError(f"malformed pattern text {text!r}") from exc


def require_132_avoiding(pat: tuple[int, ...]) -> None:
    """Raise ``NotIn132Class`` if ``pat`` contains (1,3,2); no S_n(132)
    permutation contains such a pattern, so there is nothing to count."""
    if contains_132(pat):
        raise NotIn132Class(
            f"pattern {pat} contains (1,3,2), so every permutation in S_n(132) "
            "avoids it; only patterns that avoid (1,3,2) are supported"
        )


def iter_layered_specs(k: int, min_layers: int = 1) -> Iterator[tuple[int, ...]]:
    """Layer-top tuples of all layered patterns of size k with at least
    ``min_layers`` layers, in decreasing lexicographic order: k, then any
    decreasing run of smaller positive tops."""
    runs = (run for n in range(min_layers - 1, k) for run in combinations(range(k - 1, 0, -1), n))
    for run in sorted(runs, reverse=True):
        yield (k, *run)
