import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    """Every source file parses under the Python 3.10 grammar, the oldest release pyproject.toml allows.

    This checks grammar only, such as ``except*`` (3.11) or ``type`` aliases
    (3.12); a stdlib API that 3.10 lacks passes it unnoticed.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
