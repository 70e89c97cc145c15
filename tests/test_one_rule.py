"""What a valid number or integer is, is decided in ``_rules.py`` alone.

Every other module of ``posidonia_inspect`` checks numbers through it, so
this test fails when one writes the rule out again: a call of
``math.isfinite`` (or of an ``isfinite`` imported from ``math``), or an
``isinstance`` call that names ``bool``.  ``np.isfinite`` over an array is
not the rule and stays allowed.  The sources are read with ``ast``, so
nothing of the package is imported here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posidonia_inspect"


def copies_of_the_rule(path: Path) -> list[str]:
    """'file:line what' for each line of the file that writes the rule out."""
    tree = ast.parse(path.read_text())
    from_math = {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names if alias.name == "isfinite"
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "isfinite"
                and isinstance(func.value, ast.Name) and func.value.id == "math") or (
                isinstance(func, ast.Name) and func.id in from_math):
            found.add((node.lineno, "math.isfinite"))
        elif isinstance(func, ast.Name) and func.id == "isinstance" and any(
                isinstance(n, ast.Name) and n.id == "bool" for arg in node.args[1:]
                for n in ast.walk(arg)):
            found.add((node.lineno, "isinstance(..., bool)"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


def test_only_the_rules_module_writes_the_number_rule():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_rules.py")
    assert modules, f"no modules found under {PACKAGE}"
    copies = [site for path in modules for site in copies_of_the_rule(path)]
    assert not copies, (
        f"{len(copies)} copies of the number rule outside _rules.py: {', '.join(copies)}; "
        "check the value with _rules.number, numbers, vector or integer instead"
    )
