import json

import pytest

from pattgf.algebra import RationalFunction
from pattgf.cli import main


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


def test_series_output(capsys):
    code, out, _ = run(capsys, "series", "321", "--mode", "avoid", "--terms", "5")
    assert code == 0
    assert out == "1 1 2 4 7 11"


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
    code, _, err = run(capsys, "gf", "4321", "--mode", "once")
    assert code == 2
    assert "oracle" in err


def test_usage_exit_code(capsys):
    code, _, _ = run(capsys, "gf", "not-a-pattern")
    assert code == 1
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_oracle_csv_and_json(capsys):
    code, out, _ = run(capsys, "oracle", "321", "--mode", "avoid", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,2", "3,4", "4,7"]
    code, out, _ = run(capsys, "oracle", "321", "--max-n", "3", "--format", "json")
    assert json.loads(out) == ["1", "1", "2", "4"]


def test_oracle_cap_limits(capsys, monkeypatch):
    code, out, _ = run(capsys, "oracle", "21", "--mode", "once", "--max-n", "30")
    assert code == 0
    assert out.splitlines()[-1] == "30,1"
    code, _, err = run(capsys, "oracle", "321", "--max-n", "31")
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("PATTGF_ORACLE_CAP", "ten")
    code, _, err = run(capsys, "oracle", "321", "--max-n", "4")
    assert code == 1
    assert "PATTGF_ORACLE_CAP" in err


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


def test_verify_lemma41_line(capsys):
    code, out, _ = run(capsys, "verify", "lemma41", "--max", "12")
    assert code == 0
    assert out == "6/6 identities hold over 1..12"


def test_identities_alias(capsys):
    code, out, _ = run(capsys, "identities", "--max", "6")
    assert code == 0
    assert out == "6/6 identities hold over 1..6"


def test_verify_thm21_sweep(capsys):
    code, out, _ = run(capsys, "verify", "thm21", "--range", "1:3")
    assert code == 0
    assert out == "thm21: 8/8 instances hold"


def test_verify_thm23_sweep(capsys):
    code, out, _ = run(capsys, "verify", "thm23", "--range", "2:4")
    assert code == 0
    assert out.endswith("instances hold")


def test_verify_feq(capsys):
    code, out, _ = run(capsys, "verify", "thm32feq", "--terms", "8")
    assert code == 0
    assert out == "thm32feq: 1/1 instances hold"


@pytest.mark.parametrize(
    "argv, named",
    [
        (("identities", "--max", "0"), "part(s) i, ii, iii, iv, v, vi"),
        (("identities", "--max", "1"), "part(s) i, ii, iii, iv, v, vi"),
        (("identities", "--max", "2"), "part(s) v"),
        (("verify", "lemma41", "--max", "-3"), "over 1..-3"),
        (("verify", "thm31", "--range", "5:2"), "--range 5:2"),
        (("verify", "thm23", "--range", "1:1"), "--range 1:1"),
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
