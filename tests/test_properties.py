"""Property-based checks: symbolic series against the counting DP.

Patterns are drawn from S_k(132), k <= 8, and every generating function
the engine returns must expand to the DP oracle's table up to n = 20.
"""

from hypothesis import given, settings, strategies as st

from pattgf.algebra import series_of
from pattgf.engine import avoid_gf, once_gf
from pattgf.errors import UnsupportedPattern
from pattgf.oracle import ConstraintSpec, enumerate_avoiders, series

N = 20
S132 = [list(enumerate_avoiders(k)) for k in range(9)]
patterns_132 = st.integers(0, 8).flatmap(lambda k: st.sampled_from(S132[k]))


def coeffs(f) -> tuple[int, ...]:
    return tuple(int(c) for c in series_of(f, N).coeffs)


@settings(max_examples=30, deadline=None)
@given(patterns_132)
def test_gf_series_match_dp(tau):
    assert coeffs(avoid_gf(tau)) == series(ConstraintSpec(avoid=(tau,)), N).counts
    try:
        once = once_gf(tau)
    except UnsupportedPattern:
        return
    assert coeffs(once) == series(ConstraintSpec(contain=tau, t=1), N).counts
