import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from triconic.cli import main
from triconic.conic import Conic, residual
from triconic.errors import EmptyScene
from triconic.geom import Point2, Triangle, distance
from triconic.loci import region_map, sample_locus_ostar
from triconic.render import PALETTE, emit_ppm, emit_svg
from triconic.scene import Scene, scene_for_triad


def run_cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "triconic.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_scene_round_trip_fixpoint(t345):
    sc = scene_for_triad(t345, "v_hyperbola")
    text1 = sc.dumps()
    text2 = Scene.loads(text1).dumps()
    assert text1 == text2


def test_scene_unique_labels(t345):
    sc = Scene(triangle=t345)
    sc.add_point("X", Point2(0, 0))
    with pytest.raises(ValueError):
        sc.add_point("X", Point2(1, 1))


def test_empty_scene_rejected():
    with pytest.raises(EmptyScene):
        emit_svg(Scene())


def test_svg_unit_circle_bbox():
    sc = Scene()
    sc.conics.append(Conic.from_coeffs([1, 0, 1, 0, 0, -1]))
    sc.add_point("O", Point2(0, 0))
    svg = emit_svg(sc)
    root = ET.fromstring(svg)  # valid XML
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert paths
    xs, ys = [], []
    for el in paths:
        for tok in el.attrib["d"].replace("M", " ").replace("L", " ").split():
            pass
    # Parse the circle path coordinates.
    coords = []
    for el in paths:
        toks = el.attrib["d"].replace("M", "").replace("L", " ").split()
        coords.extend((float(toks[i]), float(toks[i + 1])) for i in range(0, len(toks), 2))
    xs = [cx for cx, _ in coords]
    ys = [cy for _, cy in coords]
    assert abs(max(xs) - 1.0) < 0.01 and abs(min(xs) + 1.0) < 0.01
    assert abs(max(ys) - 1.0) < 0.01 and abs(min(ys) + 1.0) < 0.01


def test_svg_degenerate_two_segments(t345):
    # The degenerate six-point conic of the 3-4-5 V-ellipse triad renders as
    # two straight segments.
    sc = scene_for_triad(t345, "v_ellipse")
    svg = emit_svg(sc)
    root = ET.fromstring(svg)
    segs = [
        el
        for el in root.iter()
        if el.tag.endswith("path") and el.attrib["d"].count("L") == 1
        and el.attrib.get("stroke") == "#aa3377"
    ]
    assert len(segs) == 2


def test_svg_vhyp_structure(t345):
    sc = scene_for_triad(t345, "v_hyperbola")
    svg = emit_svg(sc)
    root = ET.fromstring(svg)
    assert "X175" in svg and "X176" in svg
    circles = [
        el for el in root.iter() if el.tag.endswith("circle") and el.attrib.get("fill") == "none"
    ]
    assert len(circles) >= 2  # both Soddy circles
    member_paths = [
        el
        for el in root.iter()
        if el.tag.endswith("path") and el.attrib.get("stroke") in ("#cc3311", "#117733", "#0077bb")
    ]
    assert len(member_paths) >= 3


def test_vhyp_scene_builds_the_soddy_configuration_once(t345, monkeypatch):
    # The Soddy centers are read from the configuration whose circles the
    # scene draws: one centers.soddy call, X175 only off the line regime.
    from triconic import centers
    from reference_checks import _sextic_triangles

    for t, regime in ((t345, "contains"), (_sextic_triangles([0.1])[0], "line")):
        cfg, calls = centers.soddy(t), []
        monkeypatch.setattr(centers, "soddy", lambda t, _real=centers.soddy: calls.append(t) or _real(t))
        points = dict(scene_for_triad(t, "v_hyperbola").points)
        monkeypatch.undo()
        assert calls == [t] and cfg.regime == regime
        assert points["X176"] == cfg.inner.center
        assert points.get("X175") == (None if regime == "line" else cfg.outer_circle.center)


def test_vhyp_scene_draws_the_soddy_line():
    # On a triangle of the half-tangent sextic the outer Soddy circle is a
    # line: the scene holds it as its one conic, the double line (l x + m y
    # + n)^2, with the three circles on the sides as diameters, which it
    # touches (P4.10), and the SVG draws it once, as one segment on the
    # line.
    from triconic import centers
    from triconic.conic import ConicClass, classify

    t = Triangle(Point2(-1.0, 0.0), Point2(1.0, 0.0), Point2(0.1, 0.7455902263442132))
    line = centers.soddy(t).outer_line
    sc = scene_for_triad(t, "v_hyperbola")
    assert len(sc.conics) == 1
    assert classify(sc.conics[0]) == ConicClass.DEGENERATE_PARALLEL_LINES
    l, m, n = line.l, line.m, line.n
    want = Conic.from_coeffs((l * l, 2 * l * m, m * m, 2 * l * n, 2 * m * n, n * n))
    assert np.array_equal(sc.conics[0].m, want.m)
    assert [c.radius for c in sc.circles[1:]] == [distance(p, q) / 2.0 for p, q in
                                                 ((t.a, t.b), (t.b, t.c), (t.c, t.a))]
    assert max(abs(abs(line.eval_point(c.center)) / math.hypot(l, m) - c.radius)
               for c in sc.circles[1:]) <= 1e-12
    assert Scene.loads(sc.dumps()).dumps() == sc.dumps()
    paths = [
        el.attrib["d"] for el in ET.fromstring(emit_svg(sc)).iter()
        if el.tag.endswith("path") and el.attrib.get("stroke") == "#aa3377"
        and "stroke-dasharray" not in el.attrib
    ]
    assert len(paths) == 1 and paths[0].count("L") == 1
    toks = [float(tok) for tok in paths[0].replace("M", " ").replace("L", " ").split()]
    ends = [Point2(toks[i], -toks[i + 1]) for i in (0, 2)]
    assert distance(*ends) > 1.0
    assert max(abs(line.eval_point(p)) for p in ends) <= 1e-5 * math.hypot(l, m)


def _scene_conic_samples(dx, dy):
    """render._conic_samples of every conic of the four triad scenes of the
    (0.1,0.2) (1.3,0.15) (0.5,1.1) triangle moved by (dx, dy), P at (1, 1)
    moved alike: per kind, (conic kind, [(xs, ys) arrays of each branch])
    for the three members and then the six-point conic."""
    from triconic.conic import FocalConic, conic_from_foci
    from triconic.render import _conic_samples, _scene_bbox
    from triconic.scene import _conic_from_json

    t = Triangle(Point2(0.1 + dx, 0.2 + dy), Point2(1.3 + dx, 0.15 + dy), Point2(0.5 + dx, 1.1 + dy))
    out = {}
    for kind in ("v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"):
        p = Point2(1.0 + dx, 1.0 + dy) if kind.startswith("p_") else None
        sc = scene_for_triad(t, kind, p)
        bbox = _scene_bbox(sc)
        trj = sc.triads[0]
        conics = [
            (m["kind"], conic_from_foci(
                FocalConic(Point2(*m["focus1"]), Point2(*m["focus2"]), m["axis_length"], m["kind"])
            ))
            for m in trj["members"]
        ]
        conics.append((trj["six_point_class"], _conic_from_json(trj["six_point_conic"])))
        out[kind] = [(cls, _conic_samples(con, bbox)) for cls, con in conics]
    return out


def test_render_samples_move_with_the_scene():
    # A scene moved by (100, 100) draws the same curves, moved: the same
    # number of polylines and samples, each sample moved by the offset, and
    # each curve drawn as its class (an ellipse one closed polyline, a
    # hyperbola two branches).
    from triconic.render import MIN_CONIC_SAMPLES

    here, moved = _scene_conic_samples(0.0, 0.0), _scene_conic_samples(100.0, 100.0)
    for kind in here:
        for (cls, polys), (_, polys_moved) in zip(here[kind], moved[kind]):
            assert [len(xs) for xs, _ in polys] == [len(xs) for xs, _ in polys_moved], (kind, cls)
            if cls == "ellipse":
                assert [len(xs) for xs, _ in polys] == [MIN_CONIC_SAMPLES + 1], kind
            else:
                assert cls == "hyperbola" and len(polys) == 2, kind
            for (xs, ys), (xs_moved, ys_moved) in zip(polys, polys_moved):
                assert np.all(np.abs(xs_moved - xs - 100.0) < 1e-9)
                assert np.all(np.abs(ys_moved - ys - 100.0) < 1e-9)


def test_render_samples_a_parabola_as_one_run():
    # y = x^2 in a view its vertex and the edges x = -2, 2 frame: one run
    # on the curve that crosses the whole view.
    from triconic.render import _conic_samples

    con = Conic.from_coeffs((1, 0, 0, 0, -1, 0))
    runs = _conic_samples(con, (-2, 2, -1, 3))
    assert len(runs) == 1
    xs, ys = runs[0]
    assert max(residual(con, Point2(x, y)) for x, y in zip(xs, ys)) <= 1e-12
    assert xs.min() <= -2.0 and xs.max() >= 2.0


def test_ppm_format_and_palette(t_generic):
    grid = region_map(t_generic, "p_ellipse_over_P", (12, 10))
    ppm = emit_ppm(grid)
    lines = ppm.strip().split("\n")
    header = lines[0].split()
    assert header[0] == "P3"
    assert (int(header[1]), int(header[2]), int(header[3])) == (12, 10, 255)
    assert len(lines) == 11
    known = {f"{r} {g} {b}" for r, g, b in PALETTE.values()}
    for row in lines[1:]:
        vals = row.split()
        assert len(vals) == 36
        for k in range(0, 36, 3):
            assert " ".join(vals[k : k + 3]) in known


def test_ppm_matches_classify_spot_check(equilateral):
    # Cell classes agree with the object-level classifier at cell centers.
    from triconic.conic import ConicClass, classify as conic_classify
    from triconic.errors import DegenerateMember
    from triconic.triads import build_triad, six_point_conic

    grid = region_map(equilateral, "p_ellipse_over_P", (9, 9))
    checked = 0
    for j in range(9):
        for i in range(9):
            if checked >= 20:
                break
            x, y = grid.cell_center(i, j)
            try:
                rep = six_point_conic(build_triad(equilateral, "p_ellipse", Point2(x, y)))
                want = rep.conic_class.value
            except DegenerateMember:
                want = "degenerate"
            assert grid.cells[j][i] == want
            checked += 1
    assert checked == 20


def test_cli_construct_classify_345(tmp_path, cli_env):
    r = run_cli(
        ["construct", "--triangle", "0,3 4,0 0,0", "--triad", "v-ell", "--out", "s.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["classify", "--scene", "s.json"], tmp_path, cli_env)
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "degenerate_two_lines"
    assert lines[1] == "center (-3.6,-4.8)"


def test_cli_classify_prints_the_stored_triad_class(tmp_path, cli_env):
    # The 3-4-5 triangle moved to (1000, 1000): the class and center are
    # those decided in the frame of the fit, not a reclassification of the
    # plane coefficients (which read degenerate_parallel_lines).
    r = run_cli(
        ["construct", "--triangle", "1000,1003 1004,1000 1000,1000", "--triad", "v-ell",
         "--out", "s.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["classify", "--scene", "s.json"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines() == ["degenerate_two_lines", "center (996.4,995.2)"]


def test_cli_usage_error(tmp_path, cli_env):
    r = run_cli(
        ["construct", "--triangle", "0,3 4,0 0,0", "--triad", "nope", "--out", "x"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 2
    r = run_cli(["classify"], tmp_path, cli_env)
    assert r.returncode == 2


def test_cli_verify_single(tmp_path, cli_env):
    r = run_cli(
        ["verify", "--prop", "P4.2-intouch-extouch", "--seed", "42", "--trials", "10",
         "--report", "rep.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["all_pass"] is True


def test_cli_render_and_regions(tmp_path, t345, cli_env):
    r = run_cli(
        ["construct", "--triangle", "0,3 4,0 0,0", "--triad", "v-hyp", "--out", "vh.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    r = run_cli(["render", "--scene", "vh.json", "--out", "vh.svg"], tmp_path, cli_env)
    assert r.returncode == 0
    svg = (tmp_path / "vh.svg").read_text()
    ET.fromstring(svg)
    assert "X175" in svg and "X176" in svg
    r = run_cli(
        ["regions", "--kind", "p-ell", "--triangle", "0,3 4,0 0,0", "--grid", "16x16",
         "--out", "m.ppm", "--json", "m.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    assert (tmp_path / "m.ppm").read_text().startswith("P3 16 16 255")
    gj = json.loads((tmp_path / "m.json").read_text())
    assert gj["nx"] == 16 and len(gj["cells"]) == 16


def test_cli_locus(tmp_path, cli_env):
    r = run_cli(
        ["locus", "--kind", "x478", "--samples", "24", "--out", "l.json"], tmp_path, cli_env
    )
    assert r.returncode == 0
    data = json.loads((tmp_path / "l.json").read_text())
    assert len(data) == 24
    assert max(s["implicit_residual"] for s in data) <= 1e-8
    r = run_cli(
        ["locus", "--kind", "zero-set:halftangent_sextic", "--samples", "400",
         "--bbox=-1,1,0.3,1.2", "--out", "z.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    polys = json.loads((tmp_path / "z.json").read_text())
    assert polys


def test_cli_locus_ostar(tmp_path, cli_env):
    tri = "0.1,0.2 1.3,0.15 0.5,1.1"
    r = run_cli(
        ["locus", "--kind", "ostar", "--triangle", tri, "--samples", "60", "--out", "o.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "o.json").read_text())
    t = Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))
    samples, arcs = sample_locus_ostar(t, 60)
    # 60 angles, one of them within 0.03 rad of each vertex.
    assert len(data) == len(samples) == 57
    for s in data:
        c = Point2(*s["center"])
        assert s["implicit_residual"] <= 1e-8
        assert min(residual(con, c) for con in arcs.values()) <= 1e-8


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize(
    "kind", [["x478"], ["ostar", "--triangle", "0,3 4,0 0,0"], ["zero-set:x478_quartic"]]
)
def test_cli_locus_rejects_samples_below_one(kind, samples, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["locus", "--kind", *kind, f"--samples={samples}", "--out", "l.json"])
    assert code == 2
    assert "--samples" in capsys.readouterr().err
    assert not (tmp_path / "l.json").exists()


@pytest.mark.parametrize(
    "args, name",
    [(["verify", "--trials=0"], "trials"), (["verify", "--trials=-5"], "trials"),
     (["--threads=0", "verify"], "--threads")],
)
def test_cli_verify_rejects_counts_below_one(args, name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([*args, "--report", "r.json"])
    assert code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_verify_writes_a_timing_sidecar(tmp_path, monkeypatch):
    # The sidecar holds each proposition's draw and check seconds; the
    # report beside it carries none and is byte-identical at 1 and 8 threads.
    from triconic.verify import PROPOSITION_IDS

    monkeypatch.chdir(tmp_path)
    for threads in (1, 8):
        code = main([f"--threads={threads}", "verify", "--trials", "2",
                     "--report", f"r{threads}.json", "--timings", f"t{threads}.json"])
        assert code == 0
        sidecar = json.loads((tmp_path / f"t{threads}.json").read_text())
        assert (sidecar["seed"], sidecar["threads"]) == (42, threads)
        assert list(sidecar["timings"]) == list(PROPOSITION_IDS)
        for entry in sidecar["timings"].values():
            assert set(entry) == {"draw_s", "check_s"}
            assert all(0.0 <= v < 60.0 for v in entry.values())
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r8.json").read_bytes()
    assert "draw_s" not in (tmp_path / "r1.json").read_text()
    code = main(["verify", "--prop", "P2.4-chords-x20", "--trials", "3", "--timings", "one.json"])
    assert code == 0
    assert list(json.loads((tmp_path / "one.json").read_text())["timings"]) == ["P2.4-chords-x20"]


def test_render_pure_function_of_scene(tmp_path, cli_env):
    r = run_cli(
        ["construct", "--triangle", "0.1,0.2 1.3,0.15 0.5,1.1", "--triad", "p-hyp",
         "--point", "0.62,0.5", "--out", "p.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0
    before = (tmp_path / "p.json").read_text()
    r = run_cli(["render", "--scene", "p.json", "--out", "p1.svg"], tmp_path, cli_env)
    assert r.returncode == 0
    r = run_cli(["render", "--scene", "p.json", "--out", "p2.svg"], tmp_path, cli_env)
    assert (tmp_path / "p.json").read_text() == before
    assert (tmp_path / "p1.svg").read_text() == (tmp_path / "p2.svg").read_text()


def test_cli_construct_with_centers(tmp_path, cli_env):
    r = run_cli(
        ["construct", "--triangle", "0,3 4,0 0,0", "--triad", "v-ell",
         "--center", "X20", "--center", "X8", "--out", "c.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "c.json").read_text())
    labels = {pt["label"]: pt["xy"] for pt in data["points"]}
    assert labels["X20"] == [4.0, 3.0]
    assert labels["X8"] == [2.0, 1.0]
    r = run_cli(
        ["construct", "--triangle", "0,3 4,0 0,0", "--triad", "v-ell",
         "--center", "X999", "--out", "c2.json"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 2


def test_cli_exit_1_on_verification_failure(tmp_path, cli_env):
    # A corrupted global tolerance makes honest checks fail: exit code 1.
    r = run_cli(
        ["--tol", "1e-20", "verify", "--prop", "P2.1-yiu-vertices",
         "--seed", "42", "--trials", "3"],
        tmp_path,
        cli_env,
    )
    assert r.returncode == 1
    assert "[FAIL] P2.1-yiu-vertices" in r.stdout, r.stdout + r.stderr


def test_env_tolerance_override(tmp_path, cli_env):
    env = dict(cli_env)
    env["TRICONIC_TOL"] = "1e-5"
    r = subprocess.run(
        [sys.executable, "-c", "import triconic; print(triconic.get_tol())"],
        capture_output=True, text=True, env=env,
    )
    assert r.stdout.strip() == "1e-05"
    # The variable takes set_tol's check on the first get_tol(), not at
    # import, and the CLI reports it as a usage error.
    env["TRICONIC_TOL"] = "nan"
    r = subprocess.run(
        [sys.executable, "-c", "import triconic\ntry:\n    triconic.get_tol()\n"
         "except ValueError as exc:\n    print(exc)"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0 and "TRICONIC_TOL must be a finite number" in r.stdout, r.stderr
    r = run_cli(["verify", "--prop", "P2.1-yiu-vertices", "--trials", "1"], tmp_path, env)
    assert r.returncode == 2
    assert r.stderr.startswith("error: TRICONIC_TOL must be a finite number"), r.stderr
    # --tol overrides the variable.
    r = run_cli(["--tol", "1e-9", "verify", "--prop", "P2.1-yiu-vertices", "--trials", "1"],
                tmp_path, env)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, 1.0])
def test_set_tol_rejects_values_outside_its_range(value, monkeypatch):
    from triconic import config

    old = config.get_tol()
    # Restored after the test even where set_tol accepts the value.
    monkeypatch.setattr(config, "_tol", old)
    with pytest.raises(ValueError, match="finite number"):
        config.set_tol(value)
    assert config.get_tol() == old


@pytest.mark.parametrize("value", ["-1", "0", "nan"])
def test_cli_rejects_a_bad_tol(value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([f"--tol={value}", "verify", "--prop", "P2.1-yiu-vertices", "--report", "r.json"])
    assert code == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("bbox", ["1,-1,0,1", "0,0,0,1", "0,1,1,1", "nan,1,0,1", "0,inf,0,1", "0,1,0"])
@pytest.mark.parametrize(
    "command",
    [["locus", "--kind", "zero-set:x478_quartic"],
     ["regions", "--kind", "p-ell", "--triangle", "0,3 4,0 0,0", "--grid", "4x4"]],
)
def test_cli_rejects_a_bad_bbox(command, bbox, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([*command, f"--bbox={bbox}", "--out", "o.out"])
    assert code == 2
    assert "--bbox" in capsys.readouterr().err
    assert not (tmp_path / "o.out").exists()


@pytest.mark.parametrize("grid", ["64", "3x", "x4", "4x4x4", "2.5x4", "ax4"])
def test_cli_rejects_a_bad_grid(grid, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["regions", "--kind", "p-ell", "--triangle", "0,3 4,0 0,0", f"--grid={grid}",
                 "--out", "o.ppm"])
    assert code == 2
    assert f"--grid needs two integers NXxNY, got {grid!r}" in capsys.readouterr().err
    assert not (tmp_path / "o.ppm").exists()


@pytest.mark.parametrize("point", ["1", "1,", "1,2,3", "a,2"])
def test_cli_rejects_a_bad_point(point, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["construct", "--triad", "p-ell", "--triangle", "0,3 4,0 0,0", f"--point={point}",
                 "--out", "o.svg"])
    assert code == 2
    assert f"--point needs two numbers x,y, got {point!r}" in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("command", [
    ["construct", "--triad", "v-ell", "--out", "o.svg"],
    ["locus", "--kind", "ostar", "--out", "o.svg"],
    ["regions", "--kind", "v-ell", "--out", "o.svg"],
])
@pytest.mark.parametrize("triangle", ["0,3 4 0,0", "0,3 4,0", "0,3 4,0 0,0 1,1", "0,3 4,0,1 0,0", "0,3 a,0 0,0"])
def test_cli_rejects_a_bad_triangle(command, triangle, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([*command, f"--triangle={triangle}"])
    assert code == 2
    assert f"--triangle needs three points x1,y1 x2,y2 x3,y3, got {triangle!r}" in capsys.readouterr().err
    assert not (tmp_path / "o.svg").exists()


def test_svg_view_box_covers_a_scene_conic():
    # The view of a scene holding a raw conic covers the conic, not only
    # the scene's points.
    sc = Scene()
    sc.conics.append(Conic.from_coeffs([1, 0, 1, 0, 0, -1]))
    sc.add_point("O", Point2(0, 0))
    root = ET.fromstring(emit_svg(sc))
    xmin, top, w, h = (float(v) for v in root.attrib["viewBox"].split())
    # The y axis points up: the view spans x in [xmin, xmin + w] and
    # y in [-top - h, -top].
    assert xmin <= -1.0 and xmin + w >= 1.0
    assert -top - h <= -1.0 and -top >= 1.0


def _line_paths(root) -> list:
    """The (x, y) ends of each one-segment scene-conic path of an SVG."""
    out = []
    for el in root.iter():
        if el.tag.endswith("path") and el.attrib.get("stroke") == "#aa3377" and el.attrib["d"].count("L") == 1:
            x0, y0, x1, y1 = map(float, el.attrib["d"].replace("M", "").replace("L", " ").split())
            out.append(((x0, -y0), (x1, -y1)))
    return out


def test_svg_renders_a_scene_of_only_a_line():
    # The double line y = 1 alone: its point nearest the origin, with the
    # origin, spans the view, and the line crosses it.
    g = (0.0, 1.0, -1.0)
    sc = Scene()
    sc.conics.append(Conic(np.outer(g, g)))
    root = ET.fromstring(emit_svg(sc))
    xmin, top, w, h = (float(v) for v in root.attrib["viewBox"].split())
    assert -top - h < 0.0 and -top > 1.0
    ((x0, y0), (x1, y1)), = _line_paths(root)
    assert y0 == y1 == 1.0 and sorted((x0, x1)) == pytest.approx([xmin, xmin + w])


def test_svg_draws_a_line_outside_the_other_content():
    # Points (0, 0) and (1, 0) and the double line y = 5: the view reaches
    # the line's point nearest the centre of the points, (0.5, 5).
    g = (0.0, 1.0, -5.0)
    sc = Scene()
    sc.add_point("O", Point2(0.0, 0.0))
    sc.add_point("E", Point2(1.0, 0.0))
    sc.conics.append(Conic(np.outer(g, g)))
    root = ET.fromstring(emit_svg(sc))
    xmin, top, w, h = (float(v) for v in root.attrib["viewBox"].split())
    assert -top > 5.0 and -top - h < 0.0
    ((x0, y0), (x1, y1)), = _line_paths(root)
    assert y0 == y1 == 5.0 and sorted((x0, x1)) == pytest.approx([xmin, xmin + w])


@pytest.mark.parametrize("entry", ["conic", "triad"])
def test_scene_rejects_a_non_cartesian_conic(entry, tmp_path, t345, cli_env):
    # Scenes hold Cartesian conics only: a raw conic or a triad's six-point
    # conic in another frame is refused on load, not skipped or classified.
    if entry == "conic":
        sc = Scene()
        sc.conics.append(Conic.from_coeffs([1, 0, 1, 0, 0, -1]))
        sc.add_point("O", Point2(0, 0))
        data = sc.to_json()
        con = data["conics"][0]
    else:
        data = scene_for_triad(t345, "v_ellipse").to_json()
        con = data["triads"][0]["six_point_conic"]
    assert con["frame"] == "cartesian"
    con["frame"] = "bary"
    text = json.dumps(data)
    with pytest.raises(ValueError, match="bary"):
        Scene.loads(text)
    (tmp_path / "s.json").write_text(text)
    for cmd in (["render", "--scene", "s.json", "--out", "s.svg"],
                ["classify", "--scene", "s.json"]):
        r = run_cli(cmd, tmp_path, cli_env)
        assert r.returncode == 2, r.stdout
        assert "'bary'" in r.stderr
    assert not (tmp_path / "s.svg").exists()


@pytest.mark.parametrize("text, field", [
    ('{"triangle": {"a": [0,0], "c": [1,1]}}', "triangle.b is missing"),
    ("[]", "a scene must be a JSON object, not list"),
    ('{"conics": [{"frame": "cartesian"}]}', "conics[0].coeffs is missing"),
    ('{"points": [{"label": "O", "xy": [0]}]}', "points[0].xy must be an [x, y] pair"),
    ('{"circles": [{"cx": 0, "cy": "0", "r": 1}]}', "circles[0].cy must be a number"),
])
def test_scene_rejects_a_malformed_file(text, field, tmp_path, monkeypatch, capsys):
    # A scene missing a field or holding one of the wrong type is refused
    # on load with a ValueError naming the field: render and classify print
    # an error line and exit 2, the usage-error code.
    with pytest.raises(ValueError) as err:
        Scene.loads(text)
    assert field in str(err.value)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(text)
    for cmd in (["render", "--scene", "s.json", "--out", "s.svg"],
                ["classify", "--scene", "s.json"]):
        assert main(cmd) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "s.svg").exists()


def _set_at(path, data, value):
    *keys, last = path
    for key in keys:
        data = data[key]
    data[last] = value


# A number field of each kind a scene holds, as the path of keys to it in
# the scene JSON, and the field its error names.
_NUMBER_FIELDS = {
    "coeffs": (("conics", 0, "coeffs", 5), "conics[0].coeffs"),
    "circle": (("circles", 0, "r"), "circles[0].r"),
    "point": (("points", 0, "xy", 1), "points[0].xy"),
    "triangle": (("triangle", "b", 0), "triangle.b"),
    "p": (("p", 0), "p"),
    "vertex": (("triads", 0, "vertices", 2, 1), "triads[0].vertices[2]"),
    "triad_p": (("triads", 0, "p", 1), "triads[0].p"),
    "focus": (("triads", 0, "members", 1, "focus2", 0), "triads[0].members[1].focus2"),
    "axis": (("triads", 0, "members", 0, "axis_length"), "triads[0].members[0].axis_length"),
}


def _number_scene(t345, value, path) -> str:
    """A built P-hyperbola scene with a conic, holding value at path."""
    data = scene_for_triad(t345, "p_hyperbola", Point2(1.0, 1.0)).to_json()
    data["conics"] = [{"coeffs": [1.0, 0.0, 1.0, 0.0, 0.0, -1.0], "frame": "cartesian"}]
    data["circles"] = [{"cx": 0.0, "cy": 0.0, "r": 1.0}]
    _set_at(path, data, value)
    return json.dumps(data)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "huge"])
@pytest.mark.parametrize("kind", sorted(_NUMBER_FIELDS))
def test_scene_rejects_a_number_that_is_not_finite(kind, value, t345, tmp_path, monkeypatch, capsys):
    # json reads NaN, Infinity and -Infinity, and an integer of any size,
    # none a finite float: the scene refuses each on load with a ValueError
    # naming the field, and render and classify exit 2 with it.
    path, field = _NUMBER_FIELDS[kind]
    text = _number_scene(t345, value, path)
    with pytest.raises(ValueError, match=rf"^scene field {re.escape(field)} must be a finite number$"):
        Scene.loads(text)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(text)
    for cmd in (["render", "--scene", "s.json", "--out", "s.svg"],
                ["classify", "--scene", "s.json"]):
        assert main(cmd) == 2
        assert capsys.readouterr().err == f"error: scene field {field} must be a finite number\n"
    assert not (tmp_path / "s.svg").exists()


def test_cli_refuses_an_infinite_coefficient_without_a_warning(t345, tmp_path, cli_env):
    # An Infinity coefficient must be refused before the conic's symmetry
    # test, which reads inf - inf as NaN, with numpy's RuntimeWarning on
    # stderr, and names no field.
    (tmp_path / "s.json").write_text(_number_scene(t345, math.inf, _NUMBER_FIELDS["coeffs"][0]))
    r = run_cli(["classify", "--scene", "s.json"], tmp_path, cli_env)
    assert r.returncode == 2, r.stdout
    assert r.stderr == "error: scene field conics[0].coeffs must be a finite number\n"


def _strip_members_axis(triad):
    del triad["members"][1]["axis_length"]


@pytest.mark.parametrize("cmd", [["render", "--scene", "s.json", "--out", "s.svg"],
                                 ["classify", "--scene", "s.json"]], ids=["render", "classify"])
@pytest.mark.parametrize("damage, field", [
    (lambda triad: triad.clear(), "triads[0].vertices is missing"),
    (lambda triad: triad.pop("six_point_class"), "triads[0].six_point_class is missing"),
    (lambda triad: triad.update(six_point_center=[1.0]),
     "triads[0].six_point_center must be an [x, y] pair"),
    (_strip_members_axis, "triads[0].members[1].axis_length is missing"),
    (lambda triad: triad["vertices"].append("A"), "triads[0].vertices[6] must be an [x, y] pair"),
], ids=["empty", "class", "center", "member", "vertex"])
def test_scene_rejects_a_malformed_triad(cmd, damage, field, tmp_path, t345, monkeypatch,
                                         capsys):
    # A built scene whose triad record lacks a field that render or
    # classify reads (the record {} among them) is refused on load with a
    # ValueError naming the field: both commands exit 2, not with a
    # KeyError traceback.
    data = scene_for_triad(t345, "v_ellipse").to_json()
    damage(data["triads"][0])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps(data))
    assert main(cmd) == 2
    assert capsys.readouterr().err == f"error: scene field {field}\n"
    assert not (tmp_path / "s.svg").exists()
