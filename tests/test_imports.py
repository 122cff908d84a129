"""Every name a package module imports is used in that module."""

import ast
import subprocess
import sys
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


def test_package_runs_without_scipy(cli_env):
    # The package's root-finders are its own: importing every entry module
    # and running both circle searches and a Brent polish loads no scipy.
    code = (
        "import sys\n"
        "import triconic, triconic.cli, triconic.verify, triconic.loci, triconic.render\n"
        "from triconic.geom import Point2, Triangle\n"
        "t = Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))\n"
        "assert triconic.loci.find_pstar_candidates(t)\n"
        "assert len(triconic.loci.find_phyp_circle_points(t)) == 2\n"
        "assert list(triconic.loci.bisect_sign_changes(lambda s: s * s - 2.0, 1.0, 2.0, steps=3))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
