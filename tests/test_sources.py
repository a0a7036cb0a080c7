"""The package, the CI scripts and the tests parse as Python 3.10, the
oldest version ``pyproject.toml`` supports, so syntax that only a newer
interpreter accepts (``except*``, say) fails here rather than in CI."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = [p for d in ("src/pattgf", "ci", "tests") for p in sorted(ROOT.glob(f"{d}/**/*.py"))]
    for required in ("src/pattgf/cli.py", "ci/census.py", "tests/test_sources.py"):
        assert ROOT / required in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
