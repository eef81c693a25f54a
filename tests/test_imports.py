"""Every name that a `from ... import` brings into a library module is used there.

A stdlib `ast` check, so it needs no linter: a library module (the package
`__init__` re-exports and is left out) must reference each name it imports
by `from ... import`. `__future__` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lorentzgh"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert "core.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_from_import(module):
    assert unused_from_imports((SRC / module).read_text()) == []


def test_check_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "from .core import build_space, point_indices as pi\n"
              "def f(n):\n    return build_space(n)\n")
    assert unused_from_imports(source) == ["pi"]
