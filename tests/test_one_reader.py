"""The command line reads every input file through one function, ``cli._read``.

That function turns each failure to read or decode a file into one
``error:`` line that names the file once and exits 1.  This test fails when
another function of ``cli.py`` calls a file reader itself (``open``,
``json.load``, ``read_pnm``, ``read_mask`` or ``load_scenario``), which
would let that failure escape the rule.  The source is read with ``ast``,
so nothing of the package is imported here.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "posidonia_inspect" / "cli.py"
READERS = {"open", "read_pnm", "read_mask", "load_scenario"}
JSON_READERS = {"load", "loads"}
THE_READER = "_read"


def reader_calls(tree: ast.Module) -> list[tuple[str, int, str]]:
    """(enclosing function, line, callee) for each call of a file reader."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in READERS:
                    found.append((where, child.lineno, func.id))
                elif (isinstance(func, ast.Attribute) and func.attr in JSON_READERS
                        and isinstance(func.value, ast.Name) and func.value.id == "json"):
                    found.append((where, child.lineno, f"json.{func.attr}"))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_the_reader_reads_files():
    tree = ast.parse(CLI.read_text())
    calls = reader_calls(tree)
    assert any(where == THE_READER for where, _, _ in calls), (
        f"cli.{THE_READER} no longer opens a file; update this test with the reader's new name"
    )
    strays = [f"cli.py:{line} {where} calls {callee}" for where, line, callee in calls if where != THE_READER]
    assert not strays, (
        f"{len(strays)} file reads outside cli.{THE_READER}: {', '.join(strays)}; "
        f"pass the reader to {THE_READER} instead"
    )
