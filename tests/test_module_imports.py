"""Every import of the package sits at module top.

A function-local import hides a dependency from the module header and is
the usual patch for an import cycle; the modules are layered so that none
is needed (`spectral` below `transfer` and `shift`, `blaschke` and
`transfer` below `stochastic`).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "innerdyn"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [f"{path.name}:{inner.lineno}"
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(fn) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert local == []
