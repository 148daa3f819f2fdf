"""The benchmark tracer binds innerdyn functions by name; they must exist.

`perfbench/tracer.py` rebinds every (module, attribute) of its BOUNDARIES
table when a benchmark runs with tracing. A renamed function would only show
up there, so the table is resolved against the package here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    # run from source, so nothing (not even bytecode) is written under perfbench/
    tracer = runpy.run_path(str(TRACER), run_name="perfbench_tracer")
    return [(module, attr) for module, attr, _counter, _only_home in tracer["BOUNDARIES"]]


@pytest.mark.parametrize("module, attr", _boundaries())
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"innerdyn.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
