"""No leftover names in the library: unused imports and unreferenced private helpers.

Stdlib `ast` checks, so they need no linter. A library module (the package
`__init__` re-exports and is left out) must reference each name it imports
by `from ... import`; `__future__` imports are directives, not names. Every
module-level `_private` function, class or constant must be referenced by
some library module, its own included.
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


def private_names(tree: ast.Module) -> set[str]:
    """Module-level `_name` functions, classes and assigned constants (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private name that no source loads by name or attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in private_names(tree) - used)


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


def test_no_unreferenced_private_name():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_private_check_sees_a_leftover():
    sources = {"a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _helper():\n    return _LIMIT\n"
                       "class _Old:\n    pass\n__version__ = '1'\n",
               "b.py": "from . import a\ndef f():\n    return a._helper() + a._B\n"}
    assert unreferenced_privates(sources) == ["a.py:_A", "a.py:_Old"]
