#!/usr/bin/env python3
"""Time the benchmark's operations on two `triconic` trees in one process.

    python tools/ab_time.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding a `triconic` package,
such as two checkouts' `src`.  Each tree's package is copied into a
temporary directory under its own name (`triconic_parent`,
`triconic_change`), and both are imported into this process, so the two
run on the same interpreter, in the same process, a fraction of a second
apart.  The package finds its data files by the name `triconic`, so
CHANGE_SRC is also put on `sys.path` and both copies read its data files;
the script stops if the two trees' `data` directories differ.

The operations are those of `perfbench` (see perfbench/README.md), whose
inputs are read from perfbench/workloads.py, in groups:

    maps      loci.region_map on the REGION_GRID, every region kind on each
              of the REGION_TRIANGLES, MAP_REPEATS times each
    x478      loci.sample_locus_x478(X478_SAMPLES)
    ostar     loci.sample_locus_ostar(t, OSTAR_SAMPLES) on each of the
              LOCI_TRIANGLES
    pstar     loci.find_pstar_candidates(t) on each of the LOCI_TRIANGLES
    phyp      loci.find_phyp_circle_points(t) on each of the LOCI_TRIANGLES
    batch     loci.pstar_candidates_batch and loci.phyp_circle_points_batch
              on BATCH_TRIALS `random_triangle`s of an rng seeded with
              VERIFY_SEED, as P3.2 and P5.4 search at their default trials
    manifest  verify.run_all(VERIFY_SEED, threads=1)

perfbench/ is the one beside this script's directory; workloads.py is
imported with CHANGE_SRC's `triconic`; each tree gets the triangles as its
own `geom.Triangle`s of the same coordinates.  A library error of a search
counts as its result.  After one untimed round, each of ROUNDS rounds times
every group once on each tree, alternating which tree goes first.  For
each group, and for their sum, the script prints each tree's median time a
round with its quartiles, the change of the median in %, and the number of
rounds CHANGE_SRC was faster.  Besides the two trees and perfbench/, it
needs only the standard library and numpy.
"""

import argparse
import filecmp
import importlib
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

ALIASES = ("triconic_parent", "triconic_change")
GROUPS = ["maps", "x478", "ostar", "pstar", "phyp", "batch", "manifest"]
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# Each round runs every map MAP_REPEATS times, so the maps group is not
# dwarfed by the timer's resolution and the machine's jitter.
MAP_REPEATS = 5
# The batch searches' triangles: P3.2's and P5.4's default trials.
BATCH_TRIALS = 6
ROUNDS = 40


def _same_data(a, b):
    """Whether the directory trees a and b hold the same files, byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_data(a / d, b / d) for d in cmp.common_dirs
    )


def _operations(alias, workloads):
    """{group: function running the group's operations} for one tree."""
    loci = importlib.import_module(f"{alias}.loci")
    verify = importlib.import_module(f"{alias}.verify")
    geom = importlib.import_module(f"{alias}.geom")
    errors = importlib.import_module(f"{alias}.errors")
    maps = [geom.Triangle(*(geom.Point2(x, y) for x, y in t)) for t in workloads.REGION_TRIANGLES]
    tris = [
        geom.Triangle(*(geom.Point2(v.x, v.y) for v in t.vertices())) for t in workloads.LOCI_TRIANGLES
    ]
    rng = np.random.default_rng(workloads.VERIFY_SEED)
    trials = [verify.random_triangle(rng) for _ in range(BATCH_TRIALS)]

    def each(fn, *args):
        def run():
            for t in tris:
                try:
                    fn(t, *args)
                except errors.TriconicError:
                    pass
        return run

    def region_maps():
        for _ in range(MAP_REPEATS):
            for t in maps:
                for kind in loci.REGION_KINDS:
                    loci.region_map(t, kind, workloads.REGION_GRID)

    return {
        "maps": region_maps,
        "x478": lambda: loci.sample_locus_x478(workloads.X478_SAMPLES),
        "ostar": each(loci.sample_locus_ostar, workloads.OSTAR_SAMPLES),
        "pstar": each(loci.find_pstar_candidates),
        "phyp": each(loci.find_phyp_circle_points),
        "batch": lambda: (loci.pstar_candidates_batch(trials), loci.phyp_circle_points_batch(trials)),
        "manifest": lambda: verify.run_all(workloads.VERIFY_SEED, threads=1),
    }


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _ms(times):
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"{median * 1e3:9.2f} ms ({q1 * 1e3:.2f}-{q3 * 1e3:.2f})", median


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    srcs = [pathlib.Path(s).resolve() / "triconic" for s in (args.parent_src, args.change_src)]
    for pkg in srcs:
        if not (pkg / "__init__.py").is_file():
            sys.exit(f"no triconic package at {pkg}")
    if not _same_data(srcs[0] / "data", srcs[1] / "data"):
        sys.exit("the two trees' triconic/data directories differ")
    with tempfile.TemporaryDirectory() as tmp:
        for pkg, alias in zip(srcs, ALIASES):
            shutil.copytree(pkg, pathlib.Path(tmp) / alias, ignore=shutil.ignore_patterns("__pycache__"))
        sys.path[:0] = [tmp, str(srcs[1].parent), str(PERFBENCH)]
        workloads = importlib.import_module("workloads")
        ops = [_operations(alias, workloads) for alias in ALIASES]
        for tree in ops:
            for g in GROUPS:
                tree[g]()
        times = {(i, g): [] for i in (0, 1) for g in GROUPS + ["total"]}
        won = dict.fromkeys(GROUPS + ["total"], 0)
        for r in range(ROUNDS):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            total = [0.0, 0.0]
            for g in GROUPS:
                got = {i: _seconds(ops[i][g]) for i in order}
                for i in (0, 1):
                    times[i, g].append(got[i])
                    total[i] += got[i]
                won[g] += got[1] < got[0]
            for i in (0, 1):
                times[i, "total"].append(total[i])
            won["total"] += total[1] < total[0]
    print(f"{ROUNDS} alternating rounds; median time a round (quartiles)")
    print(f"{'group':<9} {'parent':>30} {'change':>30} {'change %':>9}  change won")
    for g in GROUPS + ["total"]:
        (p, pm), (c, cm) = _ms(times[0, g]), _ms(times[1, g])
        print(f"{g:<9} {p:>30} {c:>30} {100.0 * (cm - pm) / pm:>+8.1f}%  {won[g]}/{ROUNDS}")


if __name__ == "__main__":
    main(sys.argv[1:])
