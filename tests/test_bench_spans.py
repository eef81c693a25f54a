"""The benchmark's span table names functions that exist.

`perfbench/tracing.py` times each layer by rebinding the functions named in
its `SPANS` table. A name that no longer resolves, say after an unused
function is deleted, makes `perfbench/run.py --trace 1` fail with an
AttributeError while nothing else in the suite notices. This test loads the
table by path, without changing it, and checks every name against the library.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SPANS = runpy.run_path(str(TRACING))["SPANS"]  # compiles from source, writes no bytecode


@pytest.mark.parametrize("module, func", [(m, f) for m, funcs in SPANS.items() for f in funcs],
                         ids=lambda v: v)
def test_span_names_a_library_function(module, func):
    lib = importlib.import_module(f"lorentzgh.{module}")
    assert inspect.isfunction(getattr(lib, func, None)), f"lorentzgh.{module}.{func}"
