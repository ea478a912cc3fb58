"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted([*(REPO / "src" / "regioncl").glob("*.py"),
                  *(REPO / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Imported names that the module never reads, in import order.

    A name counts as read when it appears as a name expression anywhere in
    the module, annotations included, or as a string in ``__all__``.
    """
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


def test_scanner_finds_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from typing import Any, List\nfrom x import y as z\n"
              "__all__ = ['z']\n"
              "def f(a: List) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os", "os", "Any"]


def test_no_module_imports_a_name_it_never_reads():
    found = {str(path.relative_to(REPO)): names for path in MODULES
             if (names := unused_imports(path.read_text()))}
    assert found == {}
