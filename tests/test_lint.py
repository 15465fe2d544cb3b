"""Static checks with the standard library's ``ast`` on the package source,
the benchmark scripts and the tests.

Two kinds of dead code fail the suite: a function local that is assigned
but never read (a target named ``_`` is exempt), and an unused import
(``from __future__`` imports and the re-exports of ``__init__.py`` are
exempt).  A name counts as read anywhere in the function, nested
functions included, so a closure variable is not reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cohcp"
MODULES = [p for d in (SRC, ROOT / "benchmarks", ROOT / "tests") for p in sorted(d.glob("*.py"))]


def _label(path: Path) -> str:
    """A package module by its name, any other file by its folder and name."""
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


def _names(node, ctx) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def unread_locals(tree: ast.Module) -> list:
    """(function, name) for every local stored and never loaded."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unread = _names(fn, ast.Store) - _names(fn, ast.Load) - {"_"}
            found += [(fn.name, name) for name in sorted(unread)]
    return found


def unused_imports(tree: ast.Module) -> list:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return sorted(imported - _names(tree, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=_label)
def test_no_unread_locals(path):
    assert unread_locals(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=_label)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checks_find_what_they_name():
    tree = ast.parse(
        "import os\n"
        "from math import pi, tau\n"
        "def f(x):\n"
        "    _, y = x\n"
        "    z = tau\n"
        "    def g():\n"
        "        return y\n"
        "    return g\n")
    assert unread_locals(tree) == [("f", "z")]
    assert unused_imports(tree) == ["os", "pi"]
