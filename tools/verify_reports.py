#!/usr/bin/env python3
"""Write and compare `triconic verify --prop all` reports, locus outputs and region maps.

    python tools/verify_reports.py write DIR
    python tools/verify_reports.py diff DIR_A DIR_B

`write` runs the CLI at seeds 42 and 1-8 (DIR/seedN.json), at seed 42
with `--threads 2` (DIR/threads2.json) and with `--trials 50` (DIR/trials50.json, so the
batched checks are compared at more than their default trials), the
README's x478 and O* loci
(DIR/locus_x478.json, DIR/locus_ostar.json), the zero sets of the
half-tangent sextic, of the x478 quartic and of the V-ellipse co-vertex
locus (DIR/locus_sextic.json, DIR/locus_x478_zero_set.json,
DIR/locus_covertex_zero_set.json), the `regions --json` maps of the three
kinds on the README's triangle "0,3 4,0 0,0" and on its (10, 10)
translate, one 80x70 map, of more than 4,096 cells, and one 5000x2
map, whose rows are wider than `kernels._BATCH_CHUNK` (4,096 cells), so
that a chunk of the batch kernel ends inside a row (DIR/regions_*.json,
each with its PPM beside it), and builds and renders
the README's two scenes on that triangle (DIR/scene_v_ell.svg,
DIR/scene_soddy.svg), the README's V-ellipse scene moved by (1e5, 1e5)
(DIR/scene_v_ell_far.svg), the P-ellipse and P-hyperbola scenes of the
triangle "0,0 4,0 1,3" at P = (1.5, 1) (DIR/scene_p_ell.svg,
DIR/scene_p_hyp.svg), and two V-hyperbola scenes that pin the Soddy-line
regime rule: one on a triangle of the half-tangent sextic, where the
outer Soddy circle is a line, drawn with the circles on the sides as
diameters that it touches (DIR/scene_soddy_line.svg), and one on the
same triangle with C's height moved by 3e-10
(DIR/scene_soddy_line_moved.svg), each from the scene JSON beside it,
with the
caller's PYTHONPATH, so the outputs of another checkout come from
pointing PYTHONPATH at its `src`.  It also runs the two circle-point
searches, which no CLI command reaches, in its own process (the same
PYTHONPATH) on the README's triangle, on 40 `random_triangle` and 10
`random_flat_triangle` of a fixed rng and on three thin triangles whose
searches fail and a moved and scaled copy of each, each triangle alone
and all 57 in one batch search of each kind, and writes the repr of each
result, or of its library error with the error's attributes, to
DIR/circle_points.json.  A CLI exit of 1 (some proposition
failed) is a report like any other; an exit of 2 is an error.

`diff` compares the files of the same name in two directories.  For the
reports it prints each proposition entry that differs: its id, both
max_residual values and whether the witness moved.  For each locus
output, the circle points and each SVG that is not byte-identical it
prints how many of its numbers changed and the largest change among
them, absolute (|a - b|) and
relative (|a - b| / max(|a|, |b|), which reads 1 or 2 for a value that
moves from or across 0), or that the text between the numbers differs.
For each region map that is not byte-identical it prints how many cells
differ, or that the grids differ in their box or size.
It names each directory whose threads2.json is not byte-identical to its
seed42.json (the thread count must not change the report).  It exits 1
if anything differs.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

SEEDS = (42, 1, 2, 3, 4, 5, 6, 7, 8)
LOCI = (
    ("locus_x478.json", ["locus", "--kind", "x478", "--samples", "120", "--out"]),
    (
        "locus_ostar.json",
        ["locus", "--kind", "ostar", "--triangle", "0.1,0.2 1.3,0.15 0.5,1.1", "--out"],
    ),
    (
        "locus_sextic.json",
        ["locus", "--kind", "zero-set:halftangent_sextic", "--samples", "400",
         "--bbox=-1,1,0.3,1.2", "--out"],
    ),
    (
        "locus_x478_zero_set.json",
        ["locus", "--kind", "zero-set:x478_quartic", "--samples", "400",
         "--bbox=-0.8,0.8,-0.3,1.3", "--out"],
    ),
    (
        "locus_covertex_zero_set.json",
        ["locus", "--kind", "zero-set:covertex_locus_V", "--samples", "400",
         "--bbox=-2.5,2.5,-2.5,2.5", "--out"],
    ),
)

README_TRIANGLE = "0,3 4,0 0,0"
# Each region kind on the README's triangle and on its (10, 10) translate,
# at the CLI's 64x64 grid, one map of more than 4,096 cells and one whose
# rows are longer than that.
REGIONS = tuple(
    (f"regions_{kind}{suffix}.json", ["regions", "--kind", kind, "--triangle", tri])
    for kind in ("v-ell", "p-ell", "p-hyp")
    for suffix, tri in (("", README_TRIANGLE), ("_moved", "10,13 14,10 10,10"))
) + (
    ("regions_p-ell_80x70.json",
     ["regions", "--kind", "p-ell", "--triangle", README_TRIANGLE, "--grid", "80x70"]),
    ("regions_p-hyp_5000x2.json",
     ["regions", "--kind", "p-hyp", "--triangle", README_TRIANGLE, "--grid", "5000x2"]),
)
# A triangle on the half-tangent sextic (tan(A/2) + tan(B/2) + tan(C/2) =
# 2, the Soddy-line regime) and the same triangle with C's height moved by
# 3e-10, each point's floats as their repr.
SEXTIC_TRIANGLE = "-1.0,0.0 1.0,0.0 0.1,0.7455902263442132"
SEXTIC_MOVED = "-1.0,0.0 1.0,0.0 0.1,0.7455902265678903"
# The triangle of the P-triad scenes, at P = (1.5, 1).
P_TRIANGLE = "0,0 4,0 1,3"
# (SVG, triangle, construct arguments) of each scene.
SVGS = (
    ("scene_v_ell.svg", README_TRIANGLE, ["--triad", "v-ell"]),
    ("scene_soddy.svg", README_TRIANGLE, ["--triad", "v-hyp", "--center", "X20"]),
    ("scene_v_ell_far.svg", "100000,100003 100004,100000 100000,100000", ["--triad", "v-ell"]),
    ("scene_p_ell.svg", P_TRIANGLE, ["--triad", "p-ell", "--point", "1.5,1"]),
    ("scene_p_hyp.svg", P_TRIANGLE, ["--triad", "p-hyp", "--point", "1.5,1"]),
    ("scene_soddy_line.svg", SEXTIC_TRIANGLE, ["--triad", "v-hyp"]),
    ("scene_soddy_line_moved.svg", SEXTIC_MOVED, ["--triad", "v-hyp"]),
)

CIRCLE_POINTS = "circle_points.json"
# The rng of the circle searches' random triangles.
CIRCLE_SEED = 7
# Thin triangles whose circle searches fail, with NotConverged or
# PointAtInfinity (tests/test_loci.py's _FAILING), and the scale and then
# the offset of their moved copies.
FAILING_TRIANGLES = ("0,0 1,0 0.4,1e-3", "0,0 1,0 -0.5,1e-3", "0,0 1,0 0.4,1e-5")
FAILING_MOVE = (250.0, -1000.0, 3000.0)


def _circle_points() -> dict:
    """{triangle: repr of its corners, search: repr of each result} of the
    circle-point searches on the README's triangle, on 40 random and 10
    flat triangles of CIRCLE_SEED and on the FAILING_TRIANGLES and their
    copies moved by FAILING_MOVE, each triangle alone and all of them in
    one batch search; a library error as its repr and its attributes."""
    import numpy as np

    from triconic import loci, verify
    from triconic.errors import TriconicError
    from triconic.geom import Point2, Triangle

    def triangle(text, scale=1.0, dx=0.0, dy=0.0):
        corners = (map(float, v.split(",")) for v in text.split())
        return Triangle(*(Point2(x * scale + dx, y * scale + dy) for x, y in corners))

    rng = np.random.default_rng(CIRCLE_SEED)
    ts = [triangle(README_TRIANGLE),
          *(verify.random_triangle(rng) for _ in range(40)),
          *(verify.random_flat_triangle(rng) for _ in range(10)),
          *(triangle(text) for text in FAILING_TRIANGLES),
          *(triangle(text, *FAILING_MOVE) for text in FAILING_TRIANGLES)]

    def shown(result):
        if isinstance(result, TriconicError):
            return f"{result!r} {vars(result)!r}"
        return repr(result)

    return {"triangle": [repr(t.vertices()) for t in ts],
            **{search.__name__: [shown(loci._attempt(search, t)) for t in ts]
               for search in (loci.find_pstar_candidates, loci.find_phyp_circle_points)},
            **{batch.__name__: [shown(r) for r in batch(ts)]
               for batch in (loci.pstar_candidates_batch, loci.phyp_circle_points_batch)}}


def _reports():
    for seed in SEEDS:
        yield f"seed{seed}.json", ["verify", "--prop", "all", "--seed", str(seed), "--report"]
    yield "threads2.json", ["--threads", "2", "verify", "--prop", "all", "--seed", "42", "--report"]
    yield "trials50.json", ["verify", "--prop", "all", "--seed", "42", "--trials", "50", "--report"]


def _runs(out: pathlib.Path):
    """(output file, CLI arguments) of each run, in order."""
    for name, args in [*_reports(), *LOCI]:
        yield out / name, [*args, str(out / name)]
    for name, args in REGIONS:
        ppm = out / name.replace(".json", ".ppm")
        yield out / name, [*args, "--out", str(ppm), "--json", str(out / name)]
    for name, triangle, args in SVGS:
        scene, svg = out / name.replace(".svg", ".json"), out / name
        yield scene, ["construct", f"--triangle={triangle}", *args, "--out", str(scene)]
        yield svg, ["render", "--scene", str(scene), "--out", str(svg)]


def write(out: pathlib.Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for path, args in _runs(out):
        cmd = [sys.executable, "-m", "triconic.cli", *args]
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        if code not in (0, 1):
            print(f"error: {' '.join(cmd)} exited {code}", file=sys.stderr)
            return 2
        print(f"wrote {path} (exit {code})")
    (out / CIRCLE_POINTS).write_text(json.dumps(_circle_points(), indent=1))
    print(f"wrote {out / CIRCLE_POINTS}")
    return 0


# A number as JSON and the SVG paths write it, or a JSON non-finite.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def _number_moves(text_a: str, text_b: str) -> str:
    """How the numbers of two texts differ: how many of them changed
    value, and the largest change, absolute and relative; or that the text
    between the numbers differs."""
    if _NUMBER.sub("#", text_a) != _NUMBER.sub("#", text_b):
        return "the text between the numbers differs"
    numbers = _NUMBER.findall(text_a)
    pairs = [(float(x), float(y)) for x, y in zip(numbers, _NUMBER.findall(text_b))
             if x != y and float(x) != float(y)]
    moves = [abs(x - y) if math.isfinite(x - y) else math.inf for x, y in pairs]
    relative = max((m / max(abs(x), abs(y)) for m, (x, y) in zip(moves, pairs)), default=0.0)
    return (f"{len(pairs)} of {len(numbers)} numbers changed, the largest by "
            f"{max(moves, default=0.0):.3g} absolute and {relative:.3g} relative")


def _cell_moves(grid_a: dict, grid_b: dict) -> str:
    """How two `regions --json` grids differ: the number of cells whose
    class differs, or that their box or size differs."""
    if [grid_a[k] for k in ("bbox", "nx", "ny")] != [grid_b[k] for k in ("bbox", "nx", "ny")]:
        return "the grids differ in their box or size"
    cells = [(x, y) for ra, rb in zip(grid_a["cells"], grid_b["cells"]) for x, y in zip(ra, rb)]
    return f"{sum(x != y for x, y in cells)} of {len(cells)} cells differ"


def diff(a: pathlib.Path, b: pathlib.Path) -> int:
    differ = False
    for name, _ in _reports():
        ra = json.loads((a / name).read_text())
        rb = json.loads((b / name).read_text())
        ea = {r["id"]: r for r in ra["results"]}
        eb = {r["id"]: r for r in rb["results"]}
        for pid in sorted(ea.keys() | eb.keys()):
            x, y = ea.get(pid), eb.get(pid)
            if json.dumps(x) == json.dumps(y):
                continue
            differ = True
            res = [r["max_residual"] if r else None for r in (x, y)]
            moved = (x or {}).get("witness") != (y or {}).get("witness")
            print(f"{name} {pid}: max_residual {res[0]!r} -> {res[1]!r}, witness moved: {moved}")
        rest_a = {k: v for k, v in ra.items() if k != "results"}
        rest_b = {k: v for k, v in rb.items() if k != "results"}
        if json.dumps(rest_a) != json.dumps(rest_b):
            differ = True
            print(f"{name}: report fields differ: {rest_a} -> {rest_b}")
    for kind, names in (("locus", [name for name, _ in LOCI]), ("circle point", [CIRCLE_POINTS]),
                        ("SVG", [name for name, *_ in SVGS])):
        for name in names:
            text_a, text_b = ((d / name).read_text() for d in (a, b))
            if text_a != text_b:
                differ = True
                print(f"{name}: {kind} outputs differ: {_number_moves(text_a, text_b)}")
    for name, _ in REGIONS:
        text_a, text_b = ((d / name).read_text() for d in (a, b))
        if text_a != text_b:
            differ = True
            print(f"{name}: region maps differ: {_cell_moves(json.loads(text_a), json.loads(text_b))}")
    for d in (a, b):
        if (d / "threads2.json").read_bytes() != (d / "seed42.json").read_bytes():
            differ = True
            print(f"{d}: threads2.json differs from seed42.json")
    print("outputs differ" if differ else "outputs agree")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        return write(pathlib.Path(argv[1]))
    if len(argv) == 3 and argv[0] == "diff":
        return diff(pathlib.Path(argv[1]), pathlib.Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
