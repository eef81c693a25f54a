"""List the library statements that the test suite never runs.

Run from the repository root, with any extra pytest arguments after it:

    PYTHONPATH=src python tests/line_survey.py [pytest args]

It runs the suite in this process under a `sys.settrace` line tracer that
records the lines executed in `src/lorentzgh`, then prints one
`path:line: statement` for every executable statement none of whose own
lines ran, and exits 1 if there is any. A statement's own lines are the
whole of a simple statement and the header of a compound one (decorators
included, body excluded); an `except` clause counts as a statement. It is
executable when one of those lines starts bytecode, so declarations that
compile to nothing (`nonlocal`, `global`, function docstrings) are skipped.
Code that runs only in a subprocess of the suite is not traced, so the body
of an `if __name__ == "__main__":` guard is skipped too. The file is not
collected by pytest (its name does not start with `test_`).
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "lorentzgh"


def _trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args` and return its exit code and the lines run per library file."""
    hits: dict[str, set[int]] = {}
    in_library: dict[str, bool] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in in_library:
            in_library[name] = Path(name).resolve().parent == LIBRARY
        if in_library[name]:
            hits.setdefault(name, set())
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for name, lines in hits.items():
        ran.setdefault(str(Path(name).resolve()), set()).update(lines)
    return int(code), ran


def _bytecode_lines(code) -> set[int]:
    """Lines that start bytecode in `code` and every code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _bytecode_lines(const)
    return lines


def _own_lines(node) -> range:
    """The lines of `node` outside its nested statement blocks."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    blocks = [getattr(node, name, None) for name in ("body", "handlers", "orelse", "finalbody")]
    firsts = [block[0].lineno for block in blocks if isinstance(block, list) and block]
    return range(start, min(firsts) if firsts else node.end_lineno + 1)


def unrun_statements(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each executable statement of `path` whose own lines never ran."""
    source = path.read_text()
    executable = _bytecode_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    tree = ast.parse(source)
    for node in tree.body:  # a script guard's body runs only in a subprocess
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            executable -= set(range(node.body[0].lineno, node.end_lineno + 1))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        own = set(_own_lines(node))
        if own & executable and not own & ran:
            out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv: list[str]) -> int:
    code, hits = _trace_suite(argv)
    unrun = [(path, line, stmt) for path in sorted(LIBRARY.glob("*.py"))
             for line, stmt in unrun_statements(path, hits.get(str(path), set()))]
    print(f"\n{len(unrun)} library statements never ran (pytest exit code {code})")
    for path, line, stmt in unrun:
        print(f"{path.relative_to(LIBRARY.parent.parent)}:{line}: {stmt}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
