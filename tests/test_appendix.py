import hashlib
import importlib
import json
import pathlib
import shutil
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import triconic
from triconic import appendix
from triconic.appendix import BLOCK_NAMES, eval_terms, load_block
from triconic.errors import ConstructionFailed
from triconic.geom import Point2, Triangle
from triconic.verify import random_triangle

from reference_checks import check_appendix

def _data_text(name):
    return resources.files("triconic").joinpath(f"data/appendix/{name}.json").read_text()


# Frozen checksums of the term-list data files; regeneration requires a
# deliberate update here.
PINNED_SHA256 = {
    "a_ellipse": "c119dd06535bcbcdbe7354556309e2ec0f15837f5db37e6411b5a187b73a3015",
    "major_vertices": "1b6dcb5dc491e4eee72338c1fa0b317044653190c331677b823327519a6250f5",
    "x3prime_center": "126a0d4d06e55967f2bd6f87e8bfd7c32eb116f3a23a58da2134dc00fd4fd548",
    "phyp_member": "9bfd162993dda2348a2ae4839aa4919921461a722541ae3d47df4ef37936e5cf",
    "pstar_conic": "4122286cccd6266b55aeb42f45d598635b213ce6010a52318d09730cda7b8681",
    "x5452_coordinate": "37174d4c3a8b65302a707203cb7e3356cdcfd44d820740153ea2aab843be8193",
}


def test_data_file_checksums():
    for name, want in PINNED_SHA256.items():
        got = hashlib.sha256(_data_text(name).encode()).hexdigest()
        assert got == want, f"{name}.json changed: sha256 {got}"


def test_a_copy_of_the_package_reads_its_own_data(tmp_path, monkeypatch):
    # load_block finds its data files in its own package: a copy of the
    # package imported under another name reads the copy's files.
    pkg = pathlib.Path(triconic.__file__).parent
    shutil.copytree(pkg, tmp_path / "triconic_copy", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "triconic_copy" / "data" / "appendix" / "a_ellipse.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "notes": "the copy's own file"}))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        copy = importlib.import_module("triconic_copy.appendix")
        assert copy.load_block("a_ellipse")["notes"] == "the copy's own file"
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "triconic_copy"]:
            del sys.modules[name]
    assert load_block("a_ellipse")["notes"] != "the copy's own file"


def test_term_list_self_consistency():
    # Exact re-evaluation with Fractions at a rational sample must agree
    # with the float evaluator.
    sample = {
        "a": Fraction(7, 5),
        "b": Fraction(6, 5),
        "c": Fraction(4, 3),
        "x": Fraction(1, 3),
        "y": Fraction(-2, 7),
        "z": Fraction(5, 11),
        "S": Fraction(9, 8),
        "rt": Fraction(3, 2),
        "La": Fraction(1, 6),
        "Lb": Fraction(-1, 4),
        "Lc": Fraction(1, 12),
        "p": Fraction(2, 5),
        "q": Fraction(1, 7),
        "r": Fraction(3, 8),
    }
    for name in BLOCK_NAMES:
        block = load_block(name)
        for poly, rows in block["polys"].items():
            exact = Fraction(0)
            for row in rows:
                term = Fraction(row[0])
                for var, e in zip(block["variables"], row[1:]):
                    term *= sample[var] ** e
                exact += term
            val, _ = eval_terms(
                rows, block["variables"], {k: float(v) for k, v in sample.items()}
            )
            assert val == pytest.approx(float(exact), rel=1e-10, abs=1e-9)


def _eval_terms_reference(rows, variables, values):
    """eval_terms as a loop over the rows."""
    vals = [float(values[v]) for v in variables]
    total = 0.0
    biggest = 0.0
    for row in rows:
        term = float(row[0])
        for v, e in zip(vals, row[1:]):
            if e:
                term *= v**e
        total += term
        a = abs(term)
        if a > biggest:
            biggest = a
    return total, biggest


def test_eval_terms_is_bit_identical_to_the_row_loop(rng):
    # Values from seeded triangles: the sides, barycentrics of a point near
    # the triangle, twice the area, and signed axis quantities; one case
    # per variable sets it to 0.0, where its zero exponents must still
    # multiply by exactly 1.0.
    names = {"x", "y", "z", "p", "q", "r", "S", "rt", "La", "Lb", "Lc"}
    samples = []
    for _ in range(20):
        t = random_triangle(rng)
        a, b, c = t.sides()
        u, v = rng.uniform(-0.5, 1.5, 2)
        values = dict(zip(sorted(names), rng.uniform(-1.0, 1.0, len(names))))
        values.update(a=a, b=b, c=c, x=u, y=v, z=1.0 - u - v, S=2.0 * t.area)
        samples.append(values)
    for name in BLOCK_NAMES:
        block = load_block(name)
        variables = block["variables"]
        for poly, rows in block["polys"].items():
            cases = list(samples)
            for var in variables:
                cases.append({**samples[0], var: 0.0})
            # Columns of exponent 0 only, and a plain list of rows.
            padded = [list(row) + [0] for row in rows]
            for values in cases:
                want = _eval_terms_reference(rows, variables, values)
                assert eval_terms(rows, variables, values) == want, (name, poly)
                assert eval_terms([list(row) for row in rows], variables, values) == want
                got = eval_terms(padded, variables + ["pad"], {**values, "pad": 3.5})
                assert got == want


def _bits(total, biggest):
    return float(total).hex(), float(biggest).hex()


def test_eval_terms_columns_are_one_point_calls(rng):
    # Seeded columns: the sides of random triangles (raised to powers up to
    # 20 in some blocks) and uniform values for the other variables, with
    # one column of zeros, where only the constant rows count.  Each column
    # of one call has the bits of a one-point call and of the row loop, the
    # sum's sign of zero included.
    names = sorted({v for name in BLOCK_NAMES for v in load_block(name)["variables"]})
    cols = {v: rng.uniform(-1.5, 1.5, 9) for v in names}
    for i in range(1, 9):
        cols["a"][i], cols["b"][i], cols["c"][i] = random_triangle(rng).sides()
    for v in names:
        cols[v][0] = 0.0
    tops = []
    for name in BLOCK_NAMES:
        block = load_block(name)
        variables = block["variables"]
        for poly, rows in block["polys"].items():
            tops.append(max(rows.tops))
            total, biggest = eval_terms(rows, variables, cols)
            assert total.shape == biggest.shape == (9,)
            for i in range(9):
                one = {v: float(cols[v][i]) for v in variables}
                want = _bits(*_eval_terms_reference(rows, variables, one))
                assert _bits(total[i], biggest[i]) == want == _bits(*eval_terms(rows, variables, one))
            # A batch of one, lists, and floats broadcast against columns.
            first = eval_terms(rows, variables, {v: [cols[v][1]] for v in variables})
            assert _bits(*(x[0] for x in first)) == _bits(total[1], biggest[1])
            mixed = {v: cols[v][1:].tolist() for v in variables}
            mixed[variables[0]] = float(cols[variables[0]][4])
            got = eval_terms(rows, variables, mixed)
            one = {v: float(cols[v][4]) for v in variables}
            assert _bits(got[0][3], got[1][3]) == _bits(*eval_terms(rows, variables, one))
    assert max(tops) >= 3 and min(tops) <= 2


def test_eval_terms_reads_any_shape_of_columns(rng):
    # Sides per triangle (shape (3,)) broadcast against 4 points each
    # (shape (4, 3)): each entry is the call at its own values.
    block = load_block("a_ellipse")
    rows, variables = block["polys"]["main"], block["variables"]
    sides = [random_triangle(rng).sides() for _ in range(3)]
    values = {v: np.array([s[k] for s in sides]) for k, v in enumerate("abc")}
    values.update({v: rng.uniform(-1.0, 1.0, (4, 3)) for v in "xyz"})
    total, biggest = eval_terms(rows, variables, values)
    assert total.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            one = {v: float(values[v][j] if v in "abc" else values[v][i, j]) for v in variables}
            assert _bits(total[i, j], biggest[i, j]) == _bits(*eval_terms(rows, variables, one))


@pytest.mark.parametrize("chunk", [1, 5, 12])
def test_eval_terms_in_chunks_keeps_each_column(chunk, rng, monkeypatch):
    # Chunks of columns that split the broadcast shape (4, 3) anywhere,
    # with a last chunk short, give each column the bits of one chunk.
    block = load_block("a_ellipse")
    rows, variables = block["polys"]["main"], block["variables"]
    sides = [random_triangle(rng).sides() for _ in range(3)]
    values = {v: np.array([s[k] for s in sides]) for k, v in enumerate("abc")}
    values.update({v: rng.uniform(-1.0, 1.0, (4, 3)) for v in "xyz"})
    whole = eval_terms(rows, variables, values)
    monkeypatch.setattr(appendix, "_TERM_CHUNK", chunk)
    parts = eval_terms(rows, variables, values)
    assert [w.tobytes() for w in parts] == [w.tobytes() for w in whole]


def test_every_block_checks_on_random_triangles(rng):
    p_needed = {"phyp_member", "pstar_conic"}
    for name in BLOCK_NAMES:
        thr = 1e-7 if name in ("major_vertices", "x3prime_center", "x5452_coordinate") else 1e-6
        done = 0
        while done < 3:
            t = random_triangle(rng)
            extra = None
            if name in p_needed:
                extra = Point2(*rng.uniform(-0.2, 1.2, 2))
            try:
                res = check_appendix(name, t, extra)
            except (ConstructionFailed, Exception) as exc:
                if isinstance(exc, ConstructionFailed):
                    continue
                raise
            assert res <= thr, f"{name}: residual {res}"
            done += 1


def test_unknown_block():
    with pytest.raises(KeyError):
        check_appendix("nope", Triangle(Point2(0, 0), Point2(1, 0), Point2(0, 1)))
