"""Workloads and metrics of the triconic benchmark.

Imported by run.py once the package source is on the path.  A run is a
series of rounds; every round runs the verify manifest, the region maps and
the loci operations, and every output is checked with checks.py.

On a shared machine the speed of a fixed computation swings by up to 2x,
both from one fraction of a second to the next and over minutes, so a time
taken as it comes says more about the machine than about the program.  The
benchmark therefore runs a fixed calibration computation of its own
(calibration.py) before every unit, and scales each time it takes by
CALIBRATION_S over the mean calibration time measured around it: every time
it reports is in seconds of a machine that runs the calibration in
CALIBRATION_S.  A set-up subprocess is scaled by calibrations it runs itself.
Each timed operation has a key and runs several times in a run; a metric
uses the median of its key's scaled times.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

from triconic import loci, render, scene, verify
from triconic.geom import Point2, Triangle

import checks
from calibration import CALIBRATION_S, calibrate
from tracer import Tracer

SRC = Path(loci.__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# The verify manifest always runs at this seed: its time varies 6.8-11.8 s
# across seeds, and some seeds make A3 crash (see CHANGES.md).
VERIFY_SEED = 42
SETUP_REPEATS = 5
SETUP_IMPORT = "import triconic, triconic.cli, triconic.verify, triconic.loci, triconic.render"
# A set-up subprocess may run at another speed than this process, so after
# its imports it prints the time they ended and the median of
# SETUP_CALIBRATIONS calibrations of its own.  time.perf_counter is the
# system-wide monotonic clock, the same in both processes.
SETUP_CALIBRATIONS = 10
SETUP_CHILD = (
    f"import time; {SETUP_IMPORT}; done = time.perf_counter(); import calibration; "
    f"print(done, calibration.median_time({SETUP_CALIBRATIONS}))"
)
# A run makes one round per ROUND_SECONDS of --seconds, and at least
# MIN_ROUNDS.  The number of rounds does not depend on the machine's speed,
# so a slow stretch cannot change how many samples a key gets.
ROUND_SECONDS = 20
MIN_ROUNDS = 2

# A time is scaled by the mean of the calibrations (calibration.py) that ran
# next to it: the last one before it, the first one after it, and every one
# within CALIBRATION_REACH times its duration of it.  The machine's speed
# holds for a fraction of a second to a few seconds, so a short operation is
# best judged by its two neighbours and a long one by a wider span.
CALIBRATION_REACH = 2.0

REGION_GRID = (32, 32)
REGION_TRIANGLES = (
    ((0.0, 3.0), (4.0, 0.0), (0.0, 0.0)),
    ((0.1, 0.2), (1.3, 0.15), (0.5, 1.1)),
)
# Translated copies expose the position-dependent classifier thresholds;
# their wrong cells are the regions workload's failed operations.
REGION_SHIFT = (10.0, 10.0)

# Times each cheap operation runs in a round; the verify manifest runs once.
MAP_REPEATS = 2
SWEEP_REPEATS = 4
SEARCH_REPEATS = 2

X478_SAMPLES = 720
OSTAR_SAMPLES = 240
ZERO_SETS = (
    ("x478_quartic", (-0.8, 0.8, -0.3, 1.3)),
    ("covertex_locus_V", (-2.5, 2.5, -2.5, 2.5)),
    ("halftangent_sextic", (-1.0, 1.0, 0.3, 1.2)),
)
# The timed loci operations run on these fixed triangles, so that the loci
# metrics do not change with the seed; the loci workload adds seeded ones.
# find_phyp_circle_points fails to converge on some random triangles (see
# CHANGES.md), so it runs on the fixed triangles only.
_fixed = np.random.default_rng(0)
LOCI_TRIANGLES = (
    verify.random_triangle(_fixed),
    verify.random_triangle(_fixed),
    verify.random_flat_triangle(_fixed),
)


class Run:
    """Operation counts, check failures, timed samples and calibrations of
    one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # False while a unit of the other workload runs: its outputs are
        # checked, its operations not counted.
        self.counting = True
        self.wrong: list[str] = []
        self.times: dict[tuple, list[tuple]] = {}  # (start, end) per key
        self.calibrations: list[tuple] = []  # (middle, duration)
        self.samples: dict[tuple, int] = {}  # locus samples per sweep key
        self.setup: list[tuple] = []  # (import time, calibration) per subprocess
        self.verify_results: dict[str, dict] = {}  # last result per proposition

    def count(self, attempted: int, failed: int = 0) -> None:
        if self.counting:
            self.attempted += attempted
            self.failed += failed

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)
            print(f"wrong output: {what}", file=sys.stderr)

    def timed(self, key, what: str, fn, *args):
        """Run one operation and keep its start and end under `key`; an
        exception counts it as failed."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the run goes on; the failure is counted
            print(f"failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.count(1, 1)
            if not self.counting:
                self.check(False, f"{what} raised in an uncounted unit")
            return None
        self.record(key, t0, time.perf_counter())
        self.count(1)
        return out

    def record(self, key, start: float, end: float) -> None:
        if key is not None:
            self.times.setdefault(key, []).append((start, end))

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        self.calibrations.append(((t0 + t1) / 2, t1 - t0))

    def scaled(self, start: float, end: float) -> float:
        # Calibrations are appended in time order.
        middles = [t for t, _ in self.calibrations]
        reach = CALIBRATION_REACH * (end - start)
        lo = min(bisect.bisect_left(middles, start - reach), bisect.bisect_left(middles, start) - 1)
        hi = max(bisect.bisect_right(middles, end + reach), bisect.bisect_right(middles, end) + 1)
        near = [dt for _, dt in self.calibrations[max(lo, 0) : hi]]
        return (end - start) * CALIBRATION_S / statistics.fmean(near)

    def median(self, keys, scaled: bool = True) -> list[float]:
        """Per key, the median of its times, scaled or as measured."""
        missing = [k for k in keys if k not in self.times]
        self.check(not missing, f"no successful run of {missing}")
        return [
            statistics.median(
                self.scaled(a, b) if scaled else b - a for a, b in self.times[k]
            )
            for k in keys
            if k in self.times
        ]


# ---------------------------------------------------------------------------
# Units
#
# A unit is a call without arguments that runs and checks some operations.
# ---------------------------------------------------------------------------


def verify_units(run: Run) -> list:
    """One unit per proposition of the manifest at one worker, as
    verify.run_all(VERIFY_SEED, threads=1) runs it, each witness replayed.
    Each proposition result is one operation."""
    return [lambda pid=pid: _proposition(run, pid) for pid in verify.PROPOSITION_IDS]


def _proposition(run: Run, pid: str):
    r = run.timed(("verify", pid), pid, verify.run_proposition, pid, VERIFY_SEED)
    if r is None:
        return
    run.verify_results[pid] = r.to_json()
    bound = verify.EVIDENCE_BOUND if r.evidence else r.threshold
    run.check(
        r.passed and r.max_residual <= bound,
        f"verify: {pid} max_residual {r.max_residual!r} over {bound}",
    )
    replayed = verify.replay_witness(pid, r.witness) if r.witness is not None else None
    run.check(
        replayed == r.max_residual,
        f"verify: {pid} witness replays to {replayed!r}, report says {r.max_residual!r}",
    )


def region_units(run: Run, shifted: bool) -> list:
    """MAP_REPEATS times every region kind on the fixed triangles, and, if
    `shifted`, once on their translated copies; each map emitted as PPM.
    Each cell is one operation."""

    def maps(offset):
        return [
            lambda i=i, kind=kind: _region_map(run, i, offset, kind)
            for i in range(len(REGION_TRIANGLES))
            for kind in loci.REGION_KINDS
        ]

    return maps((0.0, 0.0)) * MAP_REPEATS + (maps(REGION_SHIFT) if shifted else [])


def _region_map(run: Run, i: int, offset, kind) -> None:
    nx, ny = REGION_GRID
    base = REGION_TRIANGLES[i]
    tri = np.array(base) + offset
    t = Triangle(*(Point2(x, y) for x, y in tri))
    center = checks.circumcenter(tri)
    r2 = 2.0 * float(np.linalg.norm(tri[0] - center))
    bbox = (center[0] - r2, center[0] + r2, center[1] - r2, center[1] + r2)
    name = f"regions: {kind} on {base} + {offset}"
    # Only the untranslated maps are timed: they run in both workloads.
    key = None if any(offset) else ("map", i, kind)
    t0 = time.perf_counter()
    grid = loci.region_map(t, kind, REGION_GRID)
    run.record(key, t0, time.perf_counter())
    run.check(
        (grid.nx, grid.ny) == REGION_GRID
        and np.allclose(grid.bbox, bbox, rtol=0.0, atol=1e-12 * r2),
        f"{name}: bbox or size",
    )
    _, wrong = checks.region_cells_wrong(tri, kind, grid.bbox, nx, ny, grid.cells)
    n_wrong = int(wrong.sum())
    if any(offset):
        run.count(nx * ny, n_wrong)
    else:
        run.count(nx * ny)
        run.check(n_wrong == 0, f"{name}: {n_wrong} cells misclassified")
    run.check(
        checks.ppm_matches(render.emit_ppm(grid), grid.cells),
        f"{name}: PPM does not match the cells",
    )


def loci_units(run: Run) -> list:
    """The timed loci operations: SWEEP_REPEATS times the x478 sweep and
    the O* sweep on each fixed triangle, and SEARCH_REPEATS times both
    circle-point searches on each fixed triangle, with a scene per found
    point.  Each sweep, search and scene is one operation."""
    n = range(len(LOCI_TRIANGLES))
    sweeps = [lambda: _x478(run)] + [
        lambda i=i: _ostar(run, ("ostar", i), LOCI_TRIANGLES[i]) for i in n
    ]
    searches = [lambda i=i: _fixed_triangle(run, i) for i in n]
    return sweeps * SWEEP_REPEATS + searches * SEARCH_REPEATS


def seeded_loci_units(run: Run, rng) -> list:
    """The loci workload's own inputs: the three zero-set traces, and on two
    random and one flat triangle drawn from `rng` the O* sweep, the P*
    search and a scene per candidate.  Each trace, sweep, search and scene
    is one operation."""
    triangles = [verify.random_triangle(rng), verify.random_triangle(rng)]
    triangles.append(verify.random_flat_triangle(rng))
    return [lambda name=name, bbox=bbox: _zero_set(run, name, bbox) for name, bbox in ZERO_SETS] + [
        lambda t=t: _seeded_triangle(run, t) for t in triangles
    ]


def _x478(run: Run) -> None:
    samples = run.timed(("x478",), "x478 sweep", loci.sample_locus_x478, X478_SAMPLES)
    if samples is not None:
        run.samples[("x478",)] = len(samples)
        run.check(
            len(samples) == X478_SAMPLES
            # Each sample is (theta, C, center, residual).
            and all(checks.x478_sample_ok(*astuple(s)[1:3]) for s in samples),
            "loci: x478 sample off the quartic",
        )


def _zero_set(run: Run, name: str, bbox) -> None:
    fn = getattr(loci, name)
    polys = run.timed(None, f"zero set {name}", loci.trace_zero_set, fn, bbox)
    if polys is not None:
        dist = checks.zero_set_max_distance(fn, polys, bbox)
        run.check(
            bool(polys) and dist <= checks.ZERO_SET_TOL,
            f"loci: {name} traced point at relative distance {dist:.3e}",
        )


def _ostar(run: Run, key, t: Triangle) -> None:
    tri = _array(t)
    out = run.timed(key, "ostar sweep", loci.sample_locus_ostar, t, OSTAR_SAMPLES)
    if out is not None:
        samples, _ = out
        if key is not None:
            run.samples[key] = len(samples)
        arcs = checks.ostar_arc_conics(tri)
        run.check(
            # The sweep skips the angles next to the three vertices.
            len(samples) >= 0.9 * OSTAR_SAMPLES
            and all(checks.ostar_center_ok(arcs, s.center.as_tuple()) for s in samples),
            f"loci: ostar center off its arc ellipse on {tri.tolist()}",
        )


def _pstar(run: Run, key, t: Triangle) -> list:
    tri = _array(t)
    cands = run.timed(key, "pstar search", loci.find_pstar_candidates, t)
    if cands is None:
        return []
    run.check(
        checks.pstar_ok(tri, cands[0][0]),
        f"loci: P* vertices not concyclic on {tri.tolist()}",
    )
    return [("p_ellipse", Point2(*c[0])) for c in cands]


def _phyp(run: Run, key, t: Triangle) -> list:
    tri = _array(t)
    pair = run.timed(key, "phyp search", loci.find_phyp_circle_points, t)
    if pair is None:
        return []
    run.check(
        checks.phyp_pair_ok(tri, pair[0].as_tuple(), pair[1].as_tuple()),
        f"loci: P-hyperbola circle points wrong on {tri.tolist()}",
    )
    return [("p_hyperbola", p) for p in pair]


def _fixed_triangle(run: Run, i: int) -> None:
    t = LOCI_TRIANGLES[i]
    points = _pstar(run, ("pstar", i), t) + _phyp(run, ("phyp", i), t)
    _scenes(run, t, points)


def _seeded_triangle(run: Run, t: Triangle) -> None:
    _ostar(run, None, t)
    _scenes(run, t, _pstar(run, None, t))


def _scenes(run: Run, t: Triangle, points) -> None:
    for kind, p in points:
        out = run.timed(None, f"scene {kind}", _scene_svg, t, kind, p)
        if out is not None:
            run.check(
                checks.scene_ok(out[0], scene.Scene, out[1]),
                f"loci: {kind} scene at {p.as_tuple()}: no round-trip fixpoint "
                "or SVG not XML",
            )


def _scene_svg(t, kind, p):
    sc = scene.scene_for_triad(t, kind, p)
    return sc, render.emit_svg(sc)


def _array(t: Triangle) -> np.ndarray:
    return np.array([v.as_tuple() for v in t.vertices()])


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def round_units(workload: str, seed: int, i: int, run: Run) -> list:
    """Round `i`: the workload's own units, counted, and the other units,
    uncounted, interleaved so that each group is spread over the round."""
    verify_group = [_uncounted(run, u) for u in verify_units(run)]
    if workload == "regions":
        own = region_units(run, shifted=True)
        other = [_uncounted(run, u) for u in loci_units(run)]
    else:
        own = loci_units(run) + seeded_loci_units(run, np.random.default_rng([seed, i]))
        other = [_uncounted(run, u) for u in region_units(run, shifted=False)]
    placed = [
        ((j + 0.5) / len(g), u)
        for g in (verify_group, own, other)
        for j, u in enumerate(g)
    ]
    return [u for _, u in sorted(placed, key=lambda pu: pu[0])]


def _uncounted(run: Run, unit):
    def probe():
        run.counting = False
        try:
            unit()
        finally:
            run.counting = True

    return probe


def setup_times(run: Run) -> None:
    """SETUP_REPEATS fresh interpreters importing the CLI modules: for each,
    the time from its start to the end of its imports, and its own median
    calibration time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            env=env,
            cwd=SRC.parent,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        done, cal = map(float, out.stdout.split())
        run.setup.append((done - t0, cal))


def rounds(seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS))


def untraced(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    """End-to-end metrics from the set-up samples and whole rounds, with a
    calibration before every unit."""
    run = Run()
    setup_times(run)
    for i in range(rounds(seconds)):
        for unit in round_units(workload, seed, i, run):
            run.calibrate()
            unit()
    run.calibrate()

    def metrics(scaled: bool) -> dict:
        def median(keys):
            return run.median(keys, scaled)

        nx, ny = REGION_GRID
        maps = median(
            [("map", i, kind) for i in range(len(REGION_TRIANGLES)) for kind in loci.REGION_KINDS]
        )
        sweeps = [("x478",)] + [("ostar", i) for i in range(len(LOCI_TRIANGLES))]
        searches = median(
            [(name, i) for i in range(len(LOCI_TRIANGLES)) for name in ("pstar", "phyp")]
        )
        return {
            "setup_s": (
                statistics.median(t * CALIBRATION_S / c if scaled else t for t, c in run.setup),
                "s",
            ),
            "verify_s": (sum(median([("verify", p) for p in verify.PROPOSITION_IDS])), "s"),
            "regions_cells_per_s": (len(maps) * nx * ny / sum(maps), "cells/s"),
            "locus_samples_per_s": (
                sum(run.samples.get(k, 0) for k in sweeps) / sum(median(sweeps)),
                "samples/s",
            ),
            "circle_search_s": (sum(searches) / len(LOCI_TRIANGLES), "s"),
        }

    raw = metrics(scaled=False)
    cal = statistics.median(dt for _, dt in run.calibrations)
    print(
        f"# as measured, unscaled: "
        + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items())
        + f"; median calibration {cal * 1e3:.4f} ms against {CALIBRATION_S * 1e3:g} ms"
    )
    return run, metrics(scaled=True)


def traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    """Per-layer metrics: one round without tracing, the same round traced
    (the ratio of their wall times is the overhead), then the manifest with
    two workers, untraced, checked against the results of the rounds.

    `seconds` is not used: a traced run is always these three steps."""
    run = Run()
    t0 = time.perf_counter()
    for unit in round_units(workload, seed, 0, run):
        unit()
    plain_s = time.perf_counter() - t0
    with Tracer() as tracer:
        t0 = time.perf_counter()
        for unit in round_units(workload, seed, 0, run):
            unit()
        traced_s = time.perf_counter() - t0
    metrics = tracer.metrics(verify.PROPOSITION_IDS)
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")

    t0 = time.perf_counter()
    report = verify.run_all(VERIFY_SEED, threads=2)
    metrics["verify_2w_s"] = (time.perf_counter() - t0, "s")
    one = [run.verify_results.get(pid) for pid in verify.PROPOSITION_IDS]
    run.check(
        json.dumps(report["results"]) == json.dumps(one),
        "verify: one-worker and two-worker results differ",
    )
    return run, metrics
