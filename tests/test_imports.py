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


# the build fills the field's tables; state that only these methods read
# is build-only and is kept in locals, not slots
BUILD = {"__init__", "_times_row", "_exp_log", "_build_tables"}


def unread_field_slots(sources: list[str]) -> list[str]:
    """Names in Field.__slots__ that no attribute load in sources reads
    outside the BUILD methods of Field."""
    slots, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Field":
                for item in node.body:
                    if (isinstance(item, ast.Assign)
                            and getattr(item.targets[0], "id", "")
                            == "__slots__"):
                        slots.update(ast.literal_eval(item.value))
                    elif (isinstance(item, ast.FunctionDef)
                          and item.name in BUILD):
                        skip.update(map(id, ast.walk(item)))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in skip)
    return sorted(slots - read)


def test_unread_field_slots_are_found():
    source = ("class Field:\n    __slots__ = ('q', '_red', 'add_t')\n\n"
              "    def __init__(self):\n        self._red = self.q\n"
              "        self.add_t = self._red\n\n"
              "    def add(self, a):\n        return self.add_t[a]\n")
    assert unread_field_slots([source]) == ["_red", "q"]
    assert unread_field_slots([source, "def f(x):\n    return x.q\n"]) \
        == ["_red"]


def test_every_field_slot_is_read_outside_the_build():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_field_slots(sources) == []


def local_imports(source: str) -> list[tuple[str, str]]:
    """(innermost enclosing function, import statement) for every import
    inside a function body of source, in line order."""
    owner = {}
    # ast.walk goes breadth first, so a nested function overwrites its
    # enclosing function as the owner of its imports
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((inner, node.name) for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return [(name, ast.unparse(node))
            for node, name in sorted(owner.items(),
                                     key=lambda item: item[0].lineno)]


def test_local_imports_are_found():
    source = ("import os\n\ndef f():\n    from x import a\n\n"
              "    def g():\n        import y\n    return a\n")
    assert local_imports(source) == [("f", "from x import a"),
                                     ("g", "import y")]


def test_imports_sit_at_module_level():
    # verify and constructions import each other, so conjecture_fn's
    # import of lpp_chain is the one that must wait for the call
    found = {path.name: local_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {
        "verify.py": [("conjecture_fn", "from .constructions import lpp_chain")]}
