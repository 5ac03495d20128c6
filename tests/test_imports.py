"""Every name a package module imports is used in that module (stdlib ast
only; __init__.py re-exports its imports and is left out)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ffperm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements anywhere in source that no Name
    node reads; `import a.b` binds a."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nimport numpy.linalg\n"
              "from x import a, b as c\n\ndef f():\n    from y import d\n"
              "    return a(numpy)\n")
    assert unused_imports(source) == ["c", "d", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
