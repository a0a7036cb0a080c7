"""Census of the avoid series against the counting DP.

    PYTHONPATH=src python ci/census.py

For every tau in S_8(132) (1430 patterns), checks that
``series_of(avoid_gf(tau), 30)`` equals the counting DP's table to
n = 30, prints one summary line and exits 1 on any mismatch, naming the
pattern.  Tier-1 runs the same check for every k <= 7; this script lives
outside its test paths because k = 8 takes several seconds.
"""

import sys
import time

from pattgf.algebra import series_of
from pattgf.engine import avoid_gf
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series
from pattgf.patterns import format_pattern

K = 8
N = 30


def main() -> int:
    started = time.perf_counter()
    checked, bad = 0, []
    for tau in enumerate_avoiders(K):
        if series_of(avoid_gf(tau), N).coeffs != series(ConstraintSpec(avoid=(tau,)), N).counts:
            bad.append(format_pattern(tau))
        checked += 1
    print(f"census k={K}: {checked - len(bad)}/{checked} avoid series match the DP to n={N}"
          f" ({time.perf_counter() - started:.1f}s)")
    for word in bad:
        print(f"mismatch: {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
