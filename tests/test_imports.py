"""Every top-level import of a non-package ``src/`` module is used.

No linter ships with the project, so this is a word scan: an imported
name that occurs only once in its own module (the import itself) is
unused.  Package ``__init__`` modules are skipped, since they import
to re-export.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(path: Path):
    """``(line, name)`` of each top-level import *path* never uses."""
    text = path.read_text()
    for node in ast.parse(text).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1:
                yield node.lineno, name


def test_no_unused_top_level_imports():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path)
    ]
    assert unused == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List as L\n\n"
        "x: L[int] = []\n"
    )
    assert list(unused_imports(module)) == [(2, "os"), (3, "Dict")]
