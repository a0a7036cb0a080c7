"""The package and the CI scripts parse as Python 3.10, the oldest
version ``pyproject.toml`` supports, so syntax that only a newer
interpreter accepts (``except*``, say) fails here rather than in CI."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(ROOT.glob("src/pattgf/**/*.py")) + sorted(ROOT.glob("ci/**/*.py"))
    assert ROOT / "src" / "pattgf" / "cli.py" in paths and ROOT / "ci" / "census.py" in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
