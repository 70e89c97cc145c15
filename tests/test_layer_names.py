"""The benchmark's tracer finds the layers it times by module and name.

``perfbench/tracing.py`` swaps each ``(module, name)`` global of the package
for a timed wrapper; a renamed or inlined function would only print
``trace: ... not found`` in a traced run.  The table is read from the
source, so nothing of the benchmark runs here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def layer_patches() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["LAYER_PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_PATCHES table in {TRACING}")


@pytest.mark.parametrize("module, name, span", layer_patches())
def test_layer_is_a_callable_module_global(module, name, span):
    namespace = vars(importlib.import_module(f"posidonia_inspect.{module}"))
    assert callable(namespace.get(name)), f"posidonia_inspect.{module} has no function {name}"
