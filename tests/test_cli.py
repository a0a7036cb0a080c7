import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pattgf import relations
from pattgf.algebra import RationalFunction
from pattgf.chebyshev import r_func
from pattgf.cli import _known_v_quotient, main

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("algebra", "chebyshev", "kernels", "oracle", "engine", "relations")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_gf_plain(capsys):
    code, out, _ = run(capsys, "gf", "321", "--mode", "avoid", "--format", "plain")
    assert code == 0
    assert out == "(1 - 2x + 2x^2) / (1 - 3x + 3x^2 - x^3)"


def test_gf_json_roundtrip(capsys):
    code, out, _ = run(capsys, "gf", "321", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pattern"] == "3 2 1"
    assert payload["mode"] == "avoid"
    assert RationalFunction.from_json_dict(payload) == RationalFunction(
        (1, -2, 2), (1, -3, 3, -1)
    )


def test_gf_latex_annotates_known_quotients(capsys):
    code, out, _ = run(capsys, "gf", "[4,2]", "--format", "latex")
    assert code == 0
    assert out.startswith("\\frac{")
    assert "V_{3}(x) / V_{4}(x)" in out
    code, out, _ = run(capsys, "gf", "[30]", "--format", "latex")
    assert code == 0
    assert out.endswith("  % = V_{29}(x) / V_{30}(x)")
    code, out, _ = run(capsys, "gf", "321", "--format", "latex")
    assert code == 0
    assert out == "\\frac{1 - 2x + 2x^2}{1 - 3x + 3x^2 - x^3}"


def test_known_v_quotient_names_every_r():
    for p in range(1, 41):
        assert _known_v_quotient(r_func(p)) == f"V_{{{p - 1}}}(x) / V_{{{p}}}(x)"
    for f in (RationalFunction.zero(), RationalFunction((1, 1)), RationalFunction((1,), (1, -2))):
        assert _known_v_quotient(f) is None


def test_series_output(capsys):
    code, out, _ = run(capsys, "series", "321", "--mode", "avoid", "--terms", "5")
    assert code == 0
    assert out == "1 1 2 4 7 11"


def test_series_terms(capsys):
    assert run(capsys, "series", "321", "--terms", "0") == (0, "1", "")
    code, out, err = run(capsys, "series", "321", "--terms", "-1")
    assert code == 1
    assert out == ""
    assert "series order must be between 0 and 1000, got -1" in err
    code, out, err = run(capsys, "series", "321", "--terms", "1001")
    assert code == 1
    assert out == ""
    assert "series order must be between 0 and 1000, got 1001" in err
    assert run(capsys, "series", "1", "--terms", "1000")[0] == 0


def test_series_equals_oracle_smoke(capsys):
    _, series_out, _ = run(capsys, "series", "{4,3,1}", "--mode", "once", "--terms", "7")
    _, oracle_out, _ = run(capsys, "oracle", "{4,3,1}", "--mode", "once", "--max-n", "7")
    oracle_counts = [line.split(",")[1] for line in oracle_out.splitlines()]
    assert series_out.split() == oracle_counts


def test_not_in_class_exit_code(capsys):
    code, _, err = run(capsys, "gf", "1432", "--mode", "avoid")
    assert code == 3
    assert "(1,3,2)" in err


def test_unsupported_exit_code(capsys):
    code, _, err = run(capsys, "gf", "4312", "--mode", "once")
    assert code == 2
    assert "oracle" in err


def test_usage_exit_code(capsys):
    code, _, _ = run(capsys, "gf", "not-a-pattern")
    assert code == 1
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1
    code, _, _ = run(capsys, "verify", "lemma41")  # removed alias of `identities`
    assert code == 1


def test_oracle_csv_and_json(capsys):
    code, out, _ = run(capsys, "oracle", "321", "--mode", "avoid", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,2", "3,4", "4,7"]
    code, out, _ = run(capsys, "oracle", "321", "--max-n", "3", "--format", "json")
    assert json.loads(out) == ["1", "1", "2", "4"]


def test_oracle_cap_limits(capsys):
    code, out, _ = run(capsys, "oracle", "21", "--mode", "once", "--max-n", "30")
    assert code == 0
    assert out.splitlines()[-1] == "30,1"
    code, _, err = run(capsys, "oracle", "321", "--max-n", "31")
    assert code == 1
    assert "cap" in err


def test_oracle_negative_max_n_is_usage_error(capsys):
    code, out, err = run(capsys, "oracle", "21", "--max-n", "-1")
    assert code == 1
    assert out == ""
    assert "n_max=-1" in err


def test_oracle_also_avoid(capsys):
    code, out, _ = run(
        capsys, "oracle", "21", "--mode", "once", "--also-avoid", "213", "--max-n", "4"
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()] == ["0", "0", "1", "0", "0"]


def test_identities_alias(capsys):
    code, out, _ = run(capsys, "identities", "--max", "6")
    assert code == 0
    assert out == "6/6 identities hold over 1..6"


def test_verify_thm21_sweep(capsys):
    code, out, _ = run(capsys, "verify", "thm21", "--range", "1:3")
    assert code == 0
    assert out == "thm21: 8/8 instances hold"
    # size 0 holds only the empty pattern, which the sweep skips
    code, out, _ = run(capsys, "verify", "thm21", "--range", "0:2")
    assert code == 0
    assert out == "thm21: 3/3 instances hold"


def test_verify_thm23_sweep(capsys):
    code, out, _ = run(capsys, "verify", "thm23", "--range", "2:4")
    assert code == 0
    assert out.endswith("instances hold")


def test_verify_feq(capsys):
    code, out, _ = run(capsys, "verify", "thm32feq")
    assert code == 0
    assert out == "thm32feq: 1/1 instances hold"


@pytest.mark.parametrize("relation", ["thm31", "thm22feq"])
@pytest.mark.parametrize("terms", ["0", "-2"])
def test_verify_terms_below_one_is_usage_error(capsys, relation, terms):
    code, out, err = run(capsys, "verify", relation, "--range", "2:3", "--terms", terms)
    assert code == 1
    assert out == ""
    assert f"--terms must be at least 1, got {terms}" in err


@pytest.mark.parametrize(
    "relation, flag, value",
    [
        ("thm21", "--terms", "5"),
        ("thm23", "--terms", "40"),
        ("thm22feq", "--terms", "8"),
        ("thm32feq", "--terms", "8"),
        ("thm22feq", "--range", "2:4"),
        ("thm32feq", "--range", "2"),
    ],
)
def test_verify_unread_flag_is_usage_error(capsys, relation, flag, value):
    code, out, err = run(capsys, "verify", relation, flag, value)
    assert code == 1
    assert out == ""
    reason = "is checked symbolically" if flag == "--terms" else "has no pattern sizes"
    assert err == f"error: {relation} {reason} and does not read {flag}"


@pytest.mark.parametrize("relation, text", [("thm21", "x"), ("thm31", "2:x"), ("thm23", ":3"), ("thm21", "2:")])
def test_verify_malformed_range_is_usage_error(capsys, relation, text):
    code, out, err = run(capsys, "verify", relation, "--range", text)
    assert code == 1
    assert out == ""
    assert "--range" in err and "A:B" in err and repr(text) in err


@pytest.mark.parametrize("relation", ["thm31", "thm33", "remark31"])
def test_verify_terms_above_count_cap_is_usage_error(capsys, relation):
    code, out, err = run(capsys, "verify", relation, "--range", "2:3", "--terms", "40")
    assert code == 1
    assert out == ""
    assert "--terms" in err and "oracle.COUNT_CAP = 30" in err and "got 40" in err


def test_verify_feq_terms_above_cap_is_usage_error(capsys):
    """The feq checks read no y order: ``--terms`` is refused on both
    sides of the former cap of 32, and without it both still hold."""
    for relation in ("thm22feq", "thm32feq"):
        for terms in ("32", "33"):
            assert run(capsys, "verify", relation, "--terms", terms) == (
                1, "", f"error: {relation} is checked symbolically and does not read --terms"
            )
        assert run(capsys, "verify", relation) == (0, f"{relation}: 1/1 instances hold", "")


def test_verify_default_terms(capsys):
    assert run(capsys, "verify", "thm31", "--range", "2:3") == run(
        capsys, "verify", "thm31", "--range", "2:3", "--terms", "9"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        (("identities", "--max", "0"), "part(s) i, ii, iii, iv, v, vi"),
        (("identities", "--max", "1"), "part(s) i, ii, iii, iv, v, vi"),
        (("identities", "--max", "2"), "part(s) v"),
        (("identities", "--max", "-3"), "over 1..-3"),
        (("verify", "thm31", "--range", "5:2"), "--range 5:2"),
        (("verify", "thm23", "--range", "1:1"), "--range 1:1"),
        (("verify", "thm21", "--range", "0:0"), "--range 0:0"),
    ],
)
def test_empty_sweep_is_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "no instances" in err and named in err


def test_smallest_nonempty_identity_sweep(capsys):
    code, out, _ = run(capsys, "identities", "--max", "3")
    assert code == 0
    assert out == "6/6 identities hold over 1..3"


def readme_examples():
    """(argv, expected stdout lines) for each ``$ pattgf`` line of the
    README's ``sh`` blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *expected = chunk.rstrip("\n").split("\n")
            argv = shlex.split(command)
            assert argv[0] == "pattgf", command
            examples.append((argv[1:], expected))
    return examples


def test_readme_cli_examples(capsys):
    examples = readme_examples()
    assert len(examples) == 5
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


def test_import_cli_loads_every_module_and_no_heavy_stdlib():
    """``import pattgf.cli`` registers every pattgf module in
    ``sys.modules`` (the benchmark's tracer wraps entry points in all of
    them; most are lazy handles, executed on first use), and loads none
    of the stdlib modules that cost start-up time on every CLI call.
    ``-S`` keeps ``site`` from preloading anything.  An avoid series has
    den(0) = 1, so ``gf`` and ``series`` stay in ``int``s, and the two
    feq checks are identities in Z[x]: ``fractions`` is still unloaded
    after running all four."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import sys, pattgf.cli; print(*sorted(sys.modules)); "
        "assert pattgf.cli.main(['gf', '45231']) == 0; "
        "assert pattgf.cli.main(['series', '45231', '--terms', '30']) == 0; "
        "assert pattgf.cli.main(['verify', 'thm22feq']) == 0; "
        "assert pattgf.cli.main(['verify', 'thm32feq']) == 0; "
        "print('fractions' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    loaded = out[0].split()
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "numbers", "json"}
    assert heavy.isdisjoint(loaded), heavy.intersection(loaded)
    wrapped = {"patterns", "algebra", "chebyshev", "engine", "oracle", "kernels", "relations", "cli"}
    assert {f"pattgf.{name}" for name in wrapped} <= set(loaded)
    assert out[-1] == "False"


def fresh(script):
    """The stdout lines of ``script`` run by a fresh ``python -S``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (None, LAZY),
        (["verify", "--help"], LAZY),
        (["oracle", "321", "--max-n", "6"], ("algebra", "chebyshev", "engine", "relations")),
        (["gf", "45231"], ("oracle", "kernels", "relations")),
    ],
)
def test_commands_execute_only_the_modules_they_use(argv, unloaded):
    """A lazy handle's type is ``_LazyModule`` until its first attribute
    access executes it; ``type()`` reads no attribute, so it loads
    nothing."""
    call = "" if argv is None else f"pattgf.cli.main({argv!r}); "
    out = fresh(
        "import sys, types, pattgf.cli; " + call
        + f"print(*[m for m in {LAZY!r} if type(sys.modules['pattgf.' + m]) is not types.ModuleType])"
    )
    assert set(unloaded) <= set(out[-1].split())


def test_package_surface():
    import pattgf

    assert pattgf.__all__ == [
        "BivariateSeries", "CanonicalDecomposition", "ConstraintSpec", "CountTable",
        "EnumerationCapExceeded", "FamilySpec", "NotIn132Class", "PatternError",
        "Polynomial", "PowerSeries", "RationalFunction", "RelationReport",
        "UnsupportedPattern", "avoid_gf", "canonical_decompose", "chebyshev_u",
        "check_identity", "classify", "count", "enumerate_avoiders", "flatten",
        "format_pattern", "occurrence_count", "once_gf", "parse_pattern",
        "phi_closed_series", "psi_closed_series", "r_func", "series",
        "series_of", "sweep_identities", "v_poly", "verify_relation",
    ]
    names = {}
    exec("from pattgf import *", names)
    for name in pattgf.__all__:
        value = names[name]
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(pattgf.__all__) <= set(dir(pattgf))
    with pytest.raises(AttributeError, match="no_such_name"):
        pattgf.no_such_name
    out = fresh(
        "import sys, pattgf; print(*sorted(sys.modules)); "
        "import pattgf.cli; import pattgf.engine; print(pattgf.engine.avoid_gf((3, 2, 1))); "
        "print(pattgf.avoid_gf is pattgf.engine.avoid_gf)"
    )
    assert [m for m in out[0].split() if m.startswith("pattgf.")] == []
    assert out[1:] == ["(1 - 2x + 2x^2) / (1 - 3x + 3x^2 - x^3)", "True"]


def test_verify_help_states_the_relations_defaults(capsys):
    assert main(["verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"series order for thm31/thm33/remark31 (default {relations.DEFAULT_TERMS});" in text
    assert "not read by the symbolic thm21/thm23/thm22feq/thm32feq" in text
