"""No module under ``src/`` or ``tests/`` imports a name it never uses.

This is the check of CI's ruff F401 step, run as an AST scan so that it
needs nothing beyond the standard library.  A name counts as used when
it is loaded anywhere in the module, named in ``__all__``, or named in a
quoted annotation.  Imports in an ``__init__.py`` are re-exports and
are allowed, as is any import line marked ``# noqa: F401`` (or a bare
``# noqa``).
"""

from __future__ import annotations

import ast
import pathlib
from typing import List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")


def _noqa(lines: List[str], node: ast.stmt) -> bool:
    """A bare ``# noqa`` or one naming F401 on any line of ``node``."""
    for line in lines[node.lineno - 1:node.end_lineno]:
        comment = line.partition("#")[2].strip()
        if comment.startswith("noqa"):
            codes = comment[4:].strip()
            if not codes.startswith(":") or "F401" in codes:
                return True
    return False


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()

    def add_quoted(annotation) -> None:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                return
            used.update(
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
            )

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            add_quoted(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_quoted(node.returns)
        elif isinstance(node, ast.AnnAssign):
            add_quoted(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            used.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    # quoted annotations nested inside subscripts, e.g. Optional["Foo"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            for elt in ast.walk(node.slice):
                add_quoted(elt)
    return used


def unused_imports(path: pathlib.Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every unused import in one module."""
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if _noqa(lines, node):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                found.append((node.lineno, bound))
    return sorted(found)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import_and_honours_noqa(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json  # noqa: E501\n"
        "from typing import List, Optional\n"
        "__all__ = ['List']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == [(1, "os"), (3, "json")]
