"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import triconic

PACKAGE = Path(triconic.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_imports():
    src = "from __future__ import annotations\nimport math, os\nfrom a.b import c as d, e\nos.sep\ne()\n"
    assert _unused_imports(src) == ["d", "math"]


def test_package_modules_have_no_unused_imports():
    # __init__.py imports names to re-export them.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
