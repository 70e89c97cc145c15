"""The benchmark's tracer finds the layers it times by module and name.

``perfbench/tracing.py`` swaps each ``(module, name)`` global of the package
for a timed wrapper; a renamed or inlined function would only print
``trace: ... not found`` in a traced run, and a name the module still
imports but no longer calls would leave its layer silently at zero.  The
table and the module sources are read with ``ast``, so nothing of the
benchmark runs here.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "posidonia_inspect"


def layer_patches() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["LAYER_PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_PATCHES table in {TRACING}")


@functools.lru_cache(maxsize=None)
def called_names(module: str) -> frozenset:
    """Names the module calls directly, as ``name(...)``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return frozenset(
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    )


@pytest.mark.parametrize("module, name, span", layer_patches())
def test_layer_is_a_callable_module_global(module, name, span):
    namespace = vars(importlib.import_module(f"posidonia_inspect.{module}"))
    assert callable(namespace.get(name)), f"posidonia_inspect.{module} has no function {name}"


@pytest.mark.parametrize("module, name, span", layer_patches())
def test_layer_is_called_by_its_module(module, name, span):
    assert name in called_names(module), (
        f"posidonia_inspect/{module}.py never calls {name}, so {span} would read zero"
    )
