"""Every top-level import in the package and in the tests is read somewhere.

The check uses only the standard `ast` module: a name that a module-level
`import` binds must be read by some expression of the same module, an
annotation included. `__init__.py` files are exempt, since their imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in (ROOT / "src" / "fleetcast", ROOT / "tests")
               for path in folder.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """The names bound by the module's top-level imports that it never
    reads, in name order."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nimport json as j\n"
              "from math import inf, pi\n"
              "def f(x: inf) -> None:\n    return os.path\n")
    assert unused_imports(source) == ["j", "pi", "sys"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
