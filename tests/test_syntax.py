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


def unused_imports(tree: ast.Module) -> list[str]:
    """``line: name`` of each name an import binds that its scope never reads. An import's scope is the
    function it sits in, or else the module; a function nested in that scope reads the name too."""
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    unused = []
    for scope in scopes:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:  # the imports of this scope, not of the functions inside it
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{node.lineno}: {name}" for name in bound if name not in read]
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.extend(ast.iter_child_nodes(node))
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/hallmark/*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    """A stale import costs load time, and one left inside a command loads a layer the command no longer
    runs; no other test fails for it. Names in ``__init__``'s lazy table are strings, not imports."""
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
