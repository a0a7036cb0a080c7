import pytest

from pattgf import cli, oracle, relations
from pattgf.algebra import PowerSeries, RationalFunction
from pattgf.engine import avoid_gf, once_gf
from pattgf.errors import NotIn132Class, PatternError
from pattgf.oracle import ConstraintSpec, enumerate_avoiders
from pattgf.patterns import canonical_decompose, expand_layered, iter_layered_specs
from pattgf.relations import verify_relation


def test_thm21_golden_instance():
    assert verify_relation("thm21", (3, 2, 1)).passed


def test_thm21_sweep_small():
    for k in range(1, 5):
        for perm in enumerate_avoiders(k):
            assert verify_relation("thm21", perm).passed, perm


def test_thm23_instances():
    specs = [tops for k in range(2, 8) for tops in iter_layered_specs(k, min_layers=2)]
    assert len(specs) == 120
    for tops in specs:
        assert verify_relation("thm23", tops).passed, tops
    with pytest.raises(PatternError):
        verify_relation("thm23", (4,))


def test_thm31_hand_counted_instances():
    # [3,2,1] = 321: the j=1 boundary factor reduces to the constant 1
    assert verify_relation("thm31", (3, 2, 1), terms=8).passed
    # [4,2,1]: nonempty first segment, two-pattern right factors in play
    assert verify_relation("thm31", (4, 2, 1), terms=8).passed


def test_thm31_accepts_layered_tops_or_pattern():
    tops = (4, 2)
    assert verify_relation("thm31", tops, terms=7).passed
    assert verify_relation("thm31", expand_layered(tops), terms=7).passed


def test_thm31_corrected_boundary_on_nonlayered_pattern():
    # (3,2,4,1): the printed left boundary factor (avoid the full next
    # prefix) fails brute force at n = 5; the prefix-closure boundary
    # implemented here keeps the relation exact.
    assert verify_relation("thm31", (3, 2, 4, 1), terms=8).passed


@pytest.fixture
def cold_series_cache():
    relations._SERIES_CACHE.clear()
    yield
    relations._SERIES_CACHE.clear()


def _bump(series, index):
    coeffs = list(series.coeffs)
    coeffs[index] += 1
    return PowerSeries(coeffs)


def _bump_table(monkeypatch, key, index):
    """Add 1 to coefficient ``index`` of the oracle table (avoid, contain) = key."""
    real = relations._oracle_series

    def bumped(n_max, avoid=(), contain=None):
        s = real(n_max, avoid, contain)
        return _bump(s, index) if (avoid, contain) == key else s

    monkeypatch.setattr(relations, "_oracle_series", bumped)


def test_once_recursion_truncation_edge(monkeypatch, cold_series_cache):
    # G = x·((F + A)·G + Σ L_i·B_i) to order n: every coefficient of G
    # through x^n is checked, and the bracket's x^n coefficient is not
    tops, n = (4, 2, 1), 9
    real = relations._oracle_series
    keys = set()

    def record(n_max, avoid=(), contain=None):
        keys.add((avoid, contain))
        return real(n_max, avoid, contain)

    with monkeypatch.context() as mp:
        mp.setattr(relations, "_oracle_series", record)
        assert verify_relation("thm31", tops, terms=n).passed
    g_key = ((), expand_layered(tops))
    assert g_key in keys and len(keys) == 6  # G, A, L_1, L_2, B_1, B_2
    for m in range(n + 1):
        with monkeypatch.context() as mp:
            _bump_table(mp, g_key, m)
            assert not verify_relation("thm31", tops, terms=n).passed, m
    for key in keys - {g_key}:
        with monkeypatch.context() as mp:
            _bump_table(mp, key, n)
            assert verify_relation("thm31", tops, terms=n).passed, key
    series_of = relations.series_of
    monkeypatch.setattr(relations, "series_of", lambda f, order: _bump(series_of(f, order), n))
    assert verify_relation("thm31", tops, terms=n).passed


def test_inverse_pattern_reuses_the_mirror_tables(monkeypatch, cold_series_cache):
    """thm31 on (3,4,2,1) builds its six tables; on the inverse (4,3,1,2)
    half of its tables are mirrors of those, so it builds only three, and
    each series it reads equals a fresh table of its own constraint set."""
    built, handed = [], []
    real_build, real_lookup = relations.oracle_series, relations._oracle_series

    def build(spec, n_max):
        built.append(spec)
        return real_build(spec, n_max)

    def lookup(n_max, avoid=(), contain=None):
        s = real_lookup(n_max, avoid, contain)
        handed.append((ConstraintSpec(avoid, contain), n_max, s))
        return s

    monkeypatch.setattr(relations, "oracle_series", build)
    monkeypatch.setattr(relations, "_oracle_series", lookup)
    assert verify_relation("thm31", (3, 4, 2, 1)).passed
    assert len(built) == 6
    built.clear()
    handed.clear()
    assert verify_relation("thm31", (4, 3, 1, 2)).passed
    assert len(built) == 3 and len(handed) == 6
    for spec, n_max, s in handed:
        assert s.coeffs == oracle.series(spec, n_max).counts, spec


def test_thm33_instances():
    for tops in [(3, 2, 1), (4, 2, 1), (5, 4, 3, 1), (5, 3, 2, 1)]:
        assert verify_relation("thm33", tops, terms=8).passed


def test_thm33_reports_boundary_and_coefficient_checks():
    rep = verify_relation("thm33", (5, 3, 1), terms=8)
    assert [c.label for c in rep.checks] == ["boundary terms", "coefficients 0..8"]
    assert rep.passed


def test_thm33_catches_a_wrong_boundary_index(monkeypatch):
    # thm31 reads no R-function, so only the layered check notices
    r_func = relations.r_func_or_zero
    monkeypatch.setattr(relations, "r_func_or_zero", lambda p: r_func(p + 1))
    assert not verify_relation("thm33", (5, 3, 1), terms=8).passed
    assert verify_relation("thm31", (5, 3, 1), terms=8).passed
    # thm23 reads the same boundary terms; thm21 reads none
    assert not verify_relation("thm23", (5, 3, 1)).passed
    assert verify_relation("thm21", expand_layered((5, 3, 1))).passed


def test_thm21_catches_a_wrong_suffix(monkeypatch):
    # F(suffix 1) of (4,5,2,3,1) off by x^12, past any coefficient-wise
    # check to the default order; thm23 reads the same suffix
    pat, suffix = expand_layered((5, 3, 1)), (2, 3, 1)
    real = relations.avoid_gf
    monkeypatch.setattr(
        relations, "avoid_gf", lambda p: real(p) + RationalFunction.x(12) if p == suffix else real(p)
    )
    rep = verify_relation("thm21", pat)
    assert [(c.label, c.passed) for c in rep.checks] == [("symbolic identity", False)]
    assert not verify_relation("thm23", (5, 3, 1)).passed
    assert verify_relation("thm21", (3, 2, 1)).passed


def test_remark31_instances():
    rep = verify_relation("remark31", (4, 2, 1), terms=8)
    assert rep.passed
    assert any("j=2" in c.label for c in rep.checks)
    assert verify_relation("remark31", (5, 4, 3, 1), terms=8).passed
    # two layers only: no j >= 2 instances, vacuously true
    rep = verify_relation("remark31", (3, 2), terms=6)
    assert rep.passed


def test_remark31_on_nonlayered_pattern():
    # not layered: three right-to-left maxima 5, 4, 1 with the segment 3 2
    rep = verify_relation("remark31", (5, 3, 2, 4, 1), terms=8)
    assert [c.label for c in rep.checks] == ["j=2 coefficients 0..8"]
    assert rep.passed


def test_functional_equations():
    for relation in ("thm22feq", "thm32feq"):
        report = verify_relation(relation)
        assert [(c.label, c.passed) for c in report.checks] == [("exact identity", True), ("series root", True)]
        # ``orders`` is accepted and not read; perfbench/workloads.py passes it
        assert verify_relation(relation, orders=(9, 7)).passed


@pytest.mark.parametrize("y_order", [33, 40])
@pytest.mark.parametrize("relation", ["thm22feq", "thm32feq"])
def test_functional_equations_refuse_y_order_above_cap(capsys, relation, y_order):
    """The feq checks are exact, so a y order past the former cap of 32
    changes nothing in ``verify_relation``, and ``pattgf verify``, where
    a user can give one, refuses it as ``--terms``."""
    report = verify_relation(relation, orders=(0, y_order))
    assert [(c.label, c.passed) for c in report.checks] == [("exact identity", True), ("series root", True)]
    assert cli.main(["verify", relation, "--terms", str(y_order)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {relation} is checked symbolically and does not read --terms"


@pytest.mark.parametrize("terms", [0, -1])
@pytest.mark.parametrize("relation", ["thm31", "thm33", "remark31", "thm21", "thm23", "thm22feq", "thm32feq"])
def test_once_recursion_refuses_terms_below_one(relation, terms):
    # to order 0 the check reads only G_0 = 0, which holds for every pattern;
    # the symbolic checks read no order, but refuse the same values
    with pytest.raises(ValueError, match=f"{relation}: terms must be at least 1, got {terms}"):
        verify_relation(relation, (4, 2, 1), terms=terms)


def test_unknown_relation():
    with pytest.raises(PatternError):
        verify_relation("thm99", (3, 2, 1))


def test_report_lines():
    rep = verify_relation("thm21", (3, 2, 1))
    lines = rep.lines()
    assert lines[0].startswith("thm21") and lines[0].endswith("PASS")


@pytest.mark.parametrize(
    "relation, pat",
    [("thm21", (1, 3, 2)), ("thm31", (1, 3, 2)), ("thm31", (2, 4, 1, 3)), ("remark31", (1, 4, 3, 2))],
)
def test_132_containing_pattern_is_refused(relation, pat):
    with pytest.raises(NotIn132Class):
        verify_relation(relation, pat, terms=6)


def test_132_refusal_has_one_message():
    messages = []
    for refuse in (avoid_gf, once_gf, lambda pat: verify_relation("thm21", pat)):
        with pytest.raises(NotIn132Class) as info:
            refuse((1, 3, 2))
        messages.append(str(info.value))
    assert messages == [messages[0]] * 3 and messages[0].startswith("pattern (1, 3, 2) contains (1,3,2)")


@pytest.mark.parametrize("relation", ["thm21", "thm23", "thm31", "thm33", "remark31"])
def test_pattern_relation_without_params(relation):
    with pytest.raises(PatternError, match=relation):
        verify_relation(relation)


def test_padded_slices_match_the_reference(prefix_pattern, suffix_pattern):
    """On every tau in S_k(132), k <= 8, the padded lists the checks read
    hold prefix i at index i for i = -1..r and suffix i at index i for
    i = 0..r+1, as the ``flatten`` reference cuts them."""
    for k in range(1, 9):
        for tau in enumerate_avoiders(k):
            d = canonical_decompose(tau)
            r, pre, suf = relations._slices(tau)
            assert r == d.r and len(pre) == len(suf) == r + 2, tau
            assert [pre[i] for i in range(-1, r + 1)] == [prefix_pattern(d, i) for i in range(-1, r + 1)], tau
            assert suf == [suffix_pattern(d, i) for i in range(r + 2)], tau


@pytest.mark.parametrize("relation", ["thm21", "thm31", "remark31"])
def test_empty_pattern_is_refused(relation):
    with pytest.raises(PatternError, match="^empty pattern has no canonical decomposition$"):
        verify_relation(relation, ())


def test_thm31_refuses_a_single_maximum():
    with pytest.raises(PatternError, match="^the exactly-once recursion needs at least two maxima$"):
        verify_relation("thm31", (1, 2, 3))
