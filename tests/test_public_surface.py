"""Every name and member the package exposes is used by the program, not only by tests.

A public function that only tests call is surface the pipeline does not
need, and so is a record field or method that nothing reads.  Each name in
the ``__all__`` of a module of ``posidonia_inspect`` (``__init__.py`` only
re-exports, so it is neither checked nor counted as a user) must be
loaded, as a name or an attribute, by some file under ``src/``,
``scripts/`` or ``perfbench/`` that is not a test.  A definition is not a
load and an ``__all__`` entry is a string, so neither counts; an import
counts once the imported binding is loaded.  Names are matched by
spelling, not resolved to their module.  Likewise each public field,
method and property of a class in such a module must be read as an
attribute (``obj.name`` in load context) by one of those files; a write, a
keyword argument or a ``getattr`` by string does not count.  The sources
are read with ``ast``, so nothing of the package is imported here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posidonia_inspect"


def program_files() -> list[Path]:
    files = []
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if "tests" in parts or path.name.startswith("test_") or path == PACKAGE / "__init__.py":
                continue
            files.append(path)
    return files


def loaded_names(path: Path) -> set[str]:
    """Names and attributes the file loads, imported names by their source name."""
    tree = ast.parse(path.read_text())
    loads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if (alias.asname or alias.name) in loads
    }
    return loads | imported


def exports() -> list[tuple[str, str]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["__all__"]:
                found += [(path.stem, name) for name in ast.literal_eval(node.value)]
    return found


def test_each_export_is_used_outside_the_tests():
    names = exports()
    assert names, f"no __all__ found under {PACKAGE}"
    used = set().union(*(loaded_names(path) for path in program_files()))
    unused = [f"{module}.{name}" for module, name in names if name not in used]
    assert not unused, (
        f"exported but reached only from tests: {', '.join(unused)}; "
        "delete them, or drop them from __all__ if the module keeps them"
    )


def members() -> list[tuple[str, str, str]]:
    """(module, class, member) for each public field, method and property."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif isinstance(node, ast.FunctionDef):
                    name = node.name
                else:
                    continue
                if not name.startswith("_"):
                    found.append((path.stem, cls.name, name))
    return found


def read_attributes(path: Path) -> set[str]:
    return {
        node.attr for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_each_member_is_read_outside_the_tests():
    found = members()
    assert found, f"no class members found under {PACKAGE}"
    read = set().union(*(read_attributes(path) for path in program_files()))
    unread = [f"{module}.{cls}.{name}" for module, cls, name in found if name not in read]
    assert not unread, (
        f"members no program file reads: {', '.join(unread)}; "
        "delete them, or read them where the program needs them"
    )
