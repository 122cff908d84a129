#!/usr/bin/env python3
"""Write and compare `triconic verify --prop all` reports and locus outputs.

    python tools/verify_reports.py write DIR
    python tools/verify_reports.py diff DIR_A DIR_B

`write` runs the CLI at seeds 42 and 1-8 (DIR/seedN.json), at seed 42
with `--tol 1e-8` (DIR/tol8.json) and at seed 42 with `--threads 2`
(DIR/threads2.json), the README's x478 and O* loci
(DIR/locus_x478.json, DIR/locus_ostar.json), and builds and renders the
README's two scenes on the triangle "0,3 4,0 0,0" (DIR/scene_v_ell.svg,
DIR/scene_soddy.svg, each from the scene JSON beside it), with the
caller's PYTHONPATH, so the outputs of another checkout come from
pointing PYTHONPATH at its `src`.  A CLI exit of 1 (some proposition
failed) is a report like any other; an exit of 2 is an error.

`diff` compares the files of the same name in two directories.  For the
reports it prints each proposition entry that differs: its id, both
max_residual values and whether the witness moved.  It names each locus
output and each SVG that is not byte-identical, and each directory whose
threads2.json is not byte-identical to its seed42.json (the thread count
must not change the report).  It exits 1 if anything differs.
"""

import json
import pathlib
import subprocess
import sys

SEEDS = (42, 1, 2, 3, 4, 5, 6, 7, 8)
LOCI = (
    ("locus_x478.json", ["locus", "--kind", "x478", "--samples", "120", "--out"]),
    (
        "locus_ostar.json",
        ["locus", "--kind", "ostar", "--triangle", "0.1,0.2 1.3,0.15 0.5,1.1", "--out"],
    ),
)

README_TRIANGLE = "0,3 4,0 0,0"
SVGS = (
    ("scene_v_ell.svg", ["--triad", "v-ell"]),
    ("scene_soddy.svg", ["--triad", "v-hyp", "--center", "X20"]),
)


def _reports():
    for seed in SEEDS:
        yield f"seed{seed}.json", ["verify", "--prop", "all", "--seed", str(seed), "--report"]
    yield "tol8.json", ["--tol", "1e-8", "verify", "--prop", "all", "--seed", "42", "--report"]
    yield "threads2.json", ["--threads", "2", "verify", "--prop", "all", "--seed", "42", "--report"]


def _runs(out: pathlib.Path):
    """(output file, CLI arguments) of each run, in order."""
    for name, args in [*_reports(), *LOCI]:
        yield out / name, [*args, str(out / name)]
    for name, args in SVGS:
        scene, svg = out / name.replace(".svg", ".json"), out / name
        yield scene, ["construct", "--triangle", README_TRIANGLE, *args, "--out", str(scene)]
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
    return 0


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
    for name, _ in LOCI:
        if (a / name).read_bytes() != (b / name).read_bytes():
            differ = True
            print(f"{name}: locus outputs differ")
    for name, _ in SVGS:
        if (a / name).read_bytes() != (b / name).read_bytes():
            differ = True
            print(f"{name}: SVG outputs differ")
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
