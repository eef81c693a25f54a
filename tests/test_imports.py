"""No leftover names in the library: unused imports, unreferenced private helpers, unused API.

Stdlib `ast` checks, so they need no linter. A library module (the package
`__init__` re-exports and is left out) must reference each name it imports
by `from ... import`; `__future__` imports are directives, not names. Every
module-level `_private` function, class or constant must be referenced by
some library module, its own included. Every module-level public function
or class must be referenced by the library, the acceptance criteria, the
benchmark (its sources or its `SPANS` table) or the README; a name that only
unit tests call is not part of the surface. Re-exports do not count. Imports
sit at module level: no library function body holds an `import` statement.
"""

import ast
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lorentzgh"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def referenced(trees) -> set[str]:
    """Names the trees load by name or reach as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


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
    used = referenced(trees.values())
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in private_names(tree) - used)


def unused_public(sources: dict[str, str], outside: list[str], words: set[str]) -> list[str]:
    """`module:name` for each public module-level function or class of `sources`
    that neither they, the `outside` sources nor `words` reference."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = referenced([*trees.values(), *map(ast.parse, outside)]) | words
    return sorted(f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def imports_in_functions(source: str) -> list[str]:
    """`function:line` for each import statement inside a function body."""
    tree = ast.parse(source)
    return sorted(f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))


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


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    assert imports_in_functions((SRC / module).read_text()) == []


def test_function_import_check_sees_one():
    source = ("import math\n"
              "def f():\n    from . import core\n    return core\n"
              "def g():\n    return math.pi\n")
    assert imports_in_functions(source) == ["f:3"]


def test_no_unreferenced_private_name():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_private_check_sees_a_leftover():
    sources = {"a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _helper():\n    return _LIMIT\n"
                       "class _Old:\n    pass\n__version__ = '1'\n",
               "b.py": "from . import a\ndef f():\n    return a._helper() + a._B\n"}
    assert unreferenced_privates(sources) == ["a.py:_A", "a.py:_Old"]


def test_public_surface_is_used():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    outside = [p.read_text() for p in [ROOT / "tests" / "test_acceptance.py",
                                       *sorted((ROOT / "perfbench").glob("*.py"))]]
    spans = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["SPANS"]
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    assert unused_public(sources, outside, words | {f for fs in spans.values() for f in fs}) == []


def test_surface_check_sees_an_unused_name():
    sources = {"a.py": "def called():\n    pass\ndef tested_only():\n    pass\n"
                       "class Documented:\n    pass\ndef benched():\n    return _helper()\n"
                       "def _helper():\n    return called()\n",
               "__init__.py": "from .a import called, tested_only\n"}
    outside = ["import lorentzgh as lg\nlg.a.benched()\n"]
    assert unused_public(sources, outside, {"Documented"}) == ["a.py:tested_only"]
