"""Every name a package module imports is used in that module, every
module-level private name is used somewhere in the package, and the
package measures lengths by its one rule."""

import ast
import re
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


def _definitions(stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _private_definitions(stmt) -> list[str]:
    """The private names (_x, not __x__) a module-level statement defines."""
    return [n for n in _definitions(stmt) if n.startswith("_") and not n.startswith("__")]


def _references(stmt) -> set[str]:
    """Names a statement reads, bare (x) or as an attribute (module.x)."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _unused_privates(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level private name that no other
    module-level statement of any of the sources reads."""
    stmts = [(mod, stmt) for mod, src in sources.items() for stmt in ast.parse(src).body]
    refs = [_references(stmt) for _, stmt in stmts]
    unused = []
    for k, (mod, stmt) in enumerate(stmts):
        for name in _private_definitions(stmt):
            if not any(name in r for j, r in enumerate(refs) if j != k):
                unused.append(f"{mod}:{name}")
    return sorted(unused)


def test_scan_finds_unused_private_names():
    sources = {
        "a.py": "_A = 1\n_B, (_C, d) = 2, (3, 4)\n__all__ = []\ndef _f():\n    return _f()\n",
        "b.py": "import a\nfrom a import _B\nx = a._A + _g()\ndef _g():\n    return _B\n",
    }
    assert _unused_privates(sources) == ["a.py:_C", "a.py:_f"]


def test_package_has_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unused_privates(sources) == []


_LIBRARY_HYPOT = re.compile(r"\b(?:math|np|numpy)\.hypot\b|\bfrom (?:math|numpy) import .*\bhypot\b")


def _library_hypots(source: str) -> list[int]:
    """The lines of source that name math.hypot or np.hypot."""
    return [k for k, line in enumerate(source.splitlines(), 1) if _LIBRARY_HYPOT.search(line)]


def test_scan_finds_library_hypots():
    src = ("import math\nmath.hypot(1, 2)\nnp.hypot(x, y)\nfrom math import sqrt, hypot\n"
           "kernels._hypot(1, 2)\n")
    assert _library_hypots(src) == [2, 3, 4]


def test_package_uses_one_length_rule():
    # kernels._hypot, sqrt(x*x + y*y), is the package's one length rule:
    # math.hypot and np.hypot differ from it in the last bit on about 1% of
    # inputs, so the object path and the array checks would part.
    found = {p.name: _library_hypots(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _kernel_readers(source: str, names) -> set[str]:
    """Which of the kernels' names source reads: as kernels.name, or
    imported from the kernels module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "kernels" and node.attr in names:
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("kernels"):
            found.update(a.name for a in node.names if a.name in names)
    return found


def test_scan_finds_kernel_readers():
    src = "from . import kernels\nfrom .kernels import carnot as c\nkernels.kept_gap(1)\nkernels.fit_six()\n"
    assert _kernel_readers(src, {"carnot", "kept_gap", "vertices"}) == {"carnot", "kept_gap"}


def test_six_point_rules_live_in_triads():
    # kernels.kept_gap and kernels.carnot are the distinct-vertex and
    # sideline rules of the six-point conic: only triads applies them
    # (_six_point_fit, _carnot_rule), so that six_point_conic, the circle
    # test and the verifier's fits read one rule set.
    names = {"carnot", "kept_gap"}
    readers = {p.name: _kernel_readers(p.read_text(), names) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in readers.items() if found} == {"triads.py": names}


def _blas_users(source: str) -> set:
    """The top-level functions and classes of source that use @ or
    np.linalg.norm."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)) or (
                isinstance(node, ast.Attribute) and node.attr == "norm"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
            ):
                found.add(top.name)
    return found


def test_scan_finds_blas_users():
    src = "import numpy as np\ndef f(m):\n    return m @ m\nclass C:\n    def g(self):\n" \
          "        return np.linalg.norm(self)\ndef h(m):\n    return np.linalg.det(m)\n"
    assert _blas_users(src) == {"f", "C"}


def test_conics_are_built_without_blas():
    # No @ or np.linalg.norm builds, normalizes, evaluates or intersects a
    # Conic, whose bits would then change with the BLAS build: the modules
    # that build plane conics use them not at all.  (render samples a conic
    # on its eigenframe, which is left out.)
    found = {name: _blas_users((PACKAGE / name).read_text())
             for name in ("conic.py", "kernels.py", "triads.py", "loci.py", "scene.py")}
    assert found == {"conic.py": set(), "kernels.py": set(), "triads.py": set(), "loci.py": set(),
                     "scene.py": set()}


def test_conic_line_rule_lives_in_kernels():
    # kernels._line_roots and kernels._polish are the package's one
    # conic-line rule and Newton polish: the pencil route reads them, as
    # pair_points does, and conic keeps no second copy.
    body = ast.parse((PACKAGE / "conic.py").read_text()).body
    copies = {"conic_line_intersection", "common_points", "_quad_grad", "_newton_polish", "_POLISH_STEPS"}
    assert {name for stmt in body for name in _definitions(stmt)} & copies == set()
    route = next(stmt for stmt in body if _definitions(stmt) == ["conic_conic_intersections"])
    assert _kernel_readers(ast.unparse(route), {"_line_roots", "_polish"}) == {"_line_roots", "_polish"}


def test_covertex_rule_lives_in_kernels():
    # kernels.covertices is the package's one co-vertex rule, and the P2.9
    # and P3.9 checks read it through their one helper, its one reader; no
    # module keeps the object path's co-vertex check or its copies of the
    # rule, nor the co-vertex determinant, so P2.9 scans the displayed
    # locus (loci.covertex_locus_V), a rule apart from the co-vertices it
    # checks.
    copies = {"covertex_conic_check", "triad_covertices", "covertices_of_focal_conic",
              "covertex_conconic_V"}
    defined = {p.name: {node.name for node in ast.walk(ast.parse(p.read_text()))
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))} & copies
               for p in PACKAGE.glob("*.py")}
    assert {name: names for name, names in defined.items() if names} == {}
    readers, functions = set(), {}
    for p in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(p.read_text()).body:
            if p.name == "verify.py":
                functions.update(dict.fromkeys(_definitions(stmt), stmt))
            if _kernel_readers(ast.unparse(stmt), {"covertices"}):
                readers.update(f"{p.name}:{name}" for name in _definitions(stmt))
    assert readers == {"verify.py:_covertex_fits"}
    for check in ("_chk_covertex_locus_V", "_chk_covertex_equilateral_P"):
        assert "_covertex_fits" in _references(functions[check]), check
    assert "covertex_locus_V" in _references(functions["_covertex_locus_on_ray"])
    assert "_covertex_locus_on_ray" in _references(functions["_chk_covertex_locus_V"])


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
        "assert triconic.loci.batch_sign_changes(lambda s, k: s * s - 2.0, [1.0], [2.0], 3)[0]\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_import_loads_no_thread_pool(cli_env):
    # Every CLI start imports these; concurrent.futures (and through it
    # logging) is imported only when verify runs on more than one thread.
    code = (
        "import sys\n"
        "import triconic, triconic.cli, triconic.verify, triconic.loci, triconic.render\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _two_point_lines(source: str) -> set[str]:
    """The top-level definitions of source that build a line (x1 - x2,
    y1 - y2, x1 * y2 - x2 * y1) through two points, as geom.line_through
    does: a 3-tuple of two plain differences and a difference of products."""
    def difference(e, of):
        return isinstance(e, ast.BinOp) and isinstance(e.op, ast.Sub) and all(
            of(t) for t in (e.left, e.right))

    def line(node):
        plain = lambda t: not isinstance(t, ast.BinOp)  # noqa: E731
        product = lambda t: isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)  # noqa: E731
        return (isinstance(node, ast.Tuple) and len(node.elts) == 3 and difference(node.elts[0], plain)
                and difference(node.elts[1], plain) and difference(node.elts[2], product))

    return {name for top in ast.parse(source).body if any(map(line, ast.walk(top)))
            for name in _definitions(top)}


def test_scan_finds_two_point_lines():
    src = ("def f(p, q):\n    return (p[1] - q[1], q[0] - p[0], p[0] * q[1] - q[0] * p[1])\n"
           "def g(u, v):\n    return (u[1] * v[2] - u[2] * v[1], 0.0, u[0] * v[1] - u[1] * v[0])\n")
    assert _two_point_lines(src) == {"f"}


def test_chord_rule_lives_in_focal_pairs():
    # The line pairs of kernels.focal_pairs are the verifier's one source of
    # pair chords: P2.4 and P4.8 take them from it and test them through
    # their one helper, _chord_gaps.  Only _through_pair_points (P4.7, P5.6)
    # reads kernels.pair_points, and no verify function draws a chord
    # through two points: the only two-point lines are the sidelines and
    # P2.3's excentral sides, which it tests for tangency.
    source = (PACKAGE / "verify.py").read_text()
    functions = {name: stmt for stmt in ast.parse(source).body for name in _definitions(stmt)}
    readers = {name: _kernel_readers(ast.unparse(stmt), {"pair_points", "focal_pairs"})
               for name, stmt in functions.items()}
    assert {name for name, found in readers.items() if "pair_points" in found} == {"_through_pair_points"}
    helpers = {name for name, stmt in functions.items() if "_chord_gaps" in _references(stmt)}
    assert helpers == {"_chk_pair_chords_x20", "_chk_chords_x8"}
    assert all("focal_pairs" in readers[name] for name in helpers)
    # Their circumdiameter is kernels.circumcircle's, P4.8's through
    # _v_hyperbola_circle.
    assert _kernel_readers(ast.unparse(functions["_chk_pair_chords_x20"]), {"circumcircle"})
    assert _kernel_readers(ast.unparse(functions["_v_hyperbola_circle"]), {"circumcircle"})
    assert "_v_hyperbola_circle" in _references(functions["_chk_chords_x8"])
    assert _two_point_lines(source) == {"_sidelines", "_chk_excentral_tangents"}


def test_float_policy_lives_in_the_runner():
    # The verifier's one floating-point policy: run_proposition draws and
    # checks, and replay_witness checks, under one np.errstate each, both
    # through _check.  No check, draw or helper sets its own, but
    # _tri_mask, which the public draws reach outside the runner.
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    functions = {name: stmt for stmt in tree.body for name in _definitions(stmt)}
    setters = {name for name, stmt in functions.items() if "errstate" in _references(stmt)}
    assert setters == {"run_proposition", "replay_witness", "_tri_mask"}
    assert all("_check" in _references(functions[name]) for name in ("run_proposition", "replay_witness"))
