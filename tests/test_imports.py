"""Every name a library module imports is used in that module.

A static check on the syntax trees of ``src/sylowlab/*.py``, so an
import left behind by a refactor fails the suite.  ``__init__.py`` is
left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sylowlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_modules_are_found():
    assert {"group.py", "sylow.py", "covering.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import CapExceeded, NotNormal as NN\n"
              "def f():\n"
              "    from .group import is_normal\n"
              "    return os.sep, CapExceeded\n")
    assert unused_imports(source) == ["NN", "is_normal"]
