"""Census of the avoid and once series against the counting DP.

    PYTHONPATH=src python ci/census.py

For every tau in S_8(132) (1430 patterns), checks that
``series_of(avoid_gf(tau), 30)`` equals the counting DP's table to
n = 30, and the same for ``once_gf(tau)`` wherever it answers (30
patterns).  Prints one summary line per mode and exits 1 on any
mismatch, naming the pattern, and with ``series_of``'s message when it
refuses the function.  A third line prints the number of distinct avoid
series over S_8(132); the script also exits 1 unless it is 67.  Tier-1
runs the same checks for every k <= 7; this script lives outside its
test paths because k = 8 takes several seconds.
"""

import sys
import time

from pattgf.algebra import series_of
from pattgf.engine import avoid_gf, once_gf
from pattgf.errors import UnsupportedPattern
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series
from pattgf.patterns import format_pattern

K = 8
N = 30
DISTINCT_AVOID = 67


def main() -> int:
    started = time.perf_counter()
    checked = {"avoid": 0, "once": 0}
    bad: dict[str, list[str]] = {"avoid": [], "once": []}
    avoid_gfs = set()
    for tau in enumerate_avoiders(K):
        f = avoid_gf(tau)
        avoid_gfs.add(f)
        cases = [("avoid", f, ConstraintSpec(avoid=(tau,)))]
        try:
            cases.append(("once", once_gf(tau), ConstraintSpec(contain=tau)))
        except UnsupportedPattern:
            pass
        for mode, f, spec in cases:
            checked[mode] += 1
            try:
                got = series_of(f, N).coeffs
            except ValueError as exc:  # series_of refuses f
                bad[mode].append(f"{format_pattern(tau)}: {exc}")
                continue
            if got != series(spec, N).counts:
                bad[mode].append(format_pattern(tau))
    elapsed = time.perf_counter() - started
    for mode in ("avoid", "once"):
        print(f"census k={K}: {checked[mode] - len(bad[mode])}/{checked[mode]} {mode} series match the DP to n={N}")
    print(f"census k={K}: {len(avoid_gfs)} distinct avoid series (expected {DISTINCT_AVOID})")
    print(f"census k={K}: {elapsed:.1f}s")
    for mode in ("avoid", "once"):
        for word in bad[mode]:
            print(f"mismatch: {mode} {word}")
    return 1 if bad["avoid"] or bad["once"] or len(avoid_gfs) != DISTINCT_AVOID else 0


if __name__ == "__main__":
    sys.exit(main())
