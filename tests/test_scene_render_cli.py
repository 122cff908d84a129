import json
import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from triconic import config
from triconic.cli import main
from triconic.conic import Conic, residual
from triconic.errors import EmptyScene
from triconic.geom import Point2, Triangle, distance
from triconic.loci import region_map, sample_locus_ostar
from triconic.render import PALETTE, emit_ppm, emit_svg
from triconic.scene import Scene, _conic_from_json, scene_for_triad


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


def _read_back(svg: str) -> list:
    """(tag, stroke, points, lengths) of the SVG's root and of each element
    below it, read back in the plane (y up): the root's view corner (xmin,
    ymax) and its width and height; a path's vertices, or its quadratic
    Bezier M P0 Q P1 P2 at t = 0, 1/4, 1/2, 3/4 and 1; an ellipse's four
    axis ends (its rotate transform about its center) and its semi-axes; a
    line's two ends; a circle's center and radius; a text's anchor and
    font size."""
    root = ET.fromstring(svg)
    xmin, top, w, h = map(float, root.attrib["viewBox"].split())
    out = [("svg", None, [(xmin, -top)], [w, h])]
    for el in root:
        tag, at = el.tag.rsplit("}", 1)[-1], el.attrib
        lengths = []
        if tag == "path":
            toks = at["d"].split()
            vals = [float(tok) for tok in toks if tok not in ("M", "Q")]
            pts = list(zip(vals[::2], vals[1::2]))
            if "Q" in toks:
                (x0, y0), (x1, y1), (x2, y2) = pts
                pts = [((1 - t) ** 2 * x0 + 2 * t * (1 - t) * x1 + t * t * x2,
                        (1 - t) ** 2 * y0 + 2 * t * (1 - t) * y1 + t * t * y2)
                       for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        elif tag == "ellipse":
            deg, cx, cy = map(float, re.fullmatch(r"rotate\((\S+) (\S+) (\S+)\)", at["transform"]).groups())
            assert (cx, cy) == (float(at["cx"]), float(at["cy"]))
            c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
            lengths = [float(at["rx"]), float(at["ry"])]
            pts = [(cx + k * r * ux, cy + k * r * uy)
                   for r, (ux, uy) in zip(lengths, ((c, s), (-s, c))) for k in (1.0, -1.0)]
        elif tag == "line":
            pts = [(float(at["x1"]), float(at["y1"])), (float(at["x2"]), float(at["y2"]))]
        elif tag == "circle":
            pts, lengths = [(float(at["cx"]), float(at["cy"]))], [float(at["r"])]
        else:
            assert tag == "text", tag
            pts, lengths = [(float(at["x"]), float(at["y"]))], [float(at["font-size"])]
        out.append((tag, at.get("stroke"), [(x, -y) for x, y in pts], lengths))
    return out


def _drawn(svg: str, stroke: str = "#aa3377") -> list:
    """The read-back elements (_read_back) of one stroke colour, by default
    the scene conics'."""
    return [el for el in _read_back(svg) if el[1] == stroke]


def test_svg_unit_circle_bbox():
    # The unit circle is one <ellipse> whose axis ends are (+-1, 0) and
    # (0, +-1), whatever its rotation.
    sc = Scene()
    sc.conics.append(Conic.from_coeffs([1, 0, 1, 0, 0, -1]))
    sc.add_point("O", Point2(0, 0))
    (tag, _, pts, lengths), = _drawn(emit_svg(sc))
    assert tag == "ellipse" and lengths == [1.0, 1.0]
    xs, ys = zip(*pts)
    assert max(xs) == pytest.approx(1.0, abs=1e-12) and min(xs) == pytest.approx(-1.0, abs=1e-12)
    assert max(ys) == pytest.approx(1.0, abs=1e-12) and min(ys) == pytest.approx(-1.0, abs=1e-12)


def test_svg_degenerate_two_segments(t345):
    # The degenerate six-point conic of the 3-4-5 V-ellipse triad renders as
    # two <line>s through its center (-3.6, -4.8), the two lines of the
    # conic, whose ends lie beyond the view.
    sc = scene_for_triad(t345, "v_ellipse")
    svg = emit_svg(sc)
    (_, _, (corner,), (w, h)), *_ = _read_back(svg)
    segs = _drawn(svg)
    assert [tag for tag, *_ in segs] == ["line", "line"]
    con = _conic_from_json(sc.triads[0]["six_point_conic"])
    for _, _, ends, _ in segs:
        (x0, y0), (x1, y1) = ends
        assert abs((x1 - x0) * (-4.8 - y0) - (y1 - y0) * (-3.6 - x0)) <= 1e-9 * math.hypot(x1 - x0, y1 - y0)
        assert max(residual(con, Point2(x, y)) for x, y in ends) <= 1e-9
        assert all(not (corner[0] <= x <= corner[0] + w and corner[1] - h <= y <= corner[1]) for x, y in ends)


def test_svg_vhyp_structure(t345):
    sc = scene_for_triad(t345, "v_hyperbola")
    svg = emit_svg(sc)
    root = ET.fromstring(svg)
    assert "X175" in svg and "X176" in svg
    circles = [
        el for el in root.iter() if el.tag.endswith("circle") and el.attrib.get("fill") == "none"
    ]
    assert len(circles) >= 2  # both Soddy circles
    # Each hyperbola member is drawn as its two sampled branches.
    for stroke in ("#cc3311", "#117733", "#0077bb"):
        assert [tag for tag, *_ in _drawn(svg, stroke)] == ["path", "path"]


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
    # touches (P4.10), and the SVG draws it once, as one <line> whose ends
    # lie on the line, beyond the view.
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
    svg = emit_svg(sc)
    (_, _, ((xmin, ymax),), (w, h)), *_ = _read_back(svg)
    ends, = _line_ends(svg)
    assert min(x for x, _ in ends) < xmin and max(x for x, _ in ends) > xmin + w
    assert max(abs(line.eval_point(Point2(*p))) for p in ends) <= 1e-9 * math.hypot(l, m)


def _triad_svgs(dx, dy) -> dict:
    """{kind: (member kinds, six-point class, _read_back of its SVG)} of
    the four triad scenes of the (0.1,0.2) (1.3,0.15) (0.5,1.1) triangle
    moved by (dx, dy), P at (1, 1) moved alike."""
    t = Triangle(Point2(0.1 + dx, 0.2 + dy), Point2(1.3 + dx, 0.15 + dy), Point2(0.5 + dx, 1.1 + dy))
    out = {}
    for kind in ("v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"):
        p = Point2(1.0 + dx, 1.0 + dy) if kind.startswith("p_") else None
        sc = scene_for_triad(t, kind, p)
        trj = sc.triads[0]
        out[kind] = ([m["kind"] for m in trj["members"]], trj["six_point_class"], _read_back(emit_svg(sc)))
    return out


_MEMBER_STROKES = ("#cc3311", "#117733", "#0077bb")


def test_render_samples_move_with_the_scene():
    # A scene moved by (100, 100) draws the same elements, moved: each
    # element of the same tag, colour and number of points, each point
    # moved by the offset and each length kept, and each curve drawn as its
    # class (an ellipse one <ellipse>, a hyperbola two sampled branches).
    # Members are drawn from their foci and six-point conics from the fit
    # of their vertices, in its own frame: here they move by at most 7.2e-13
    # and 4.1e-13 of the span, within the SVG's rounding (1e-12 of the span
    # a number).  Over 160 seeded triads of the four kinds members moved by
    # at most 5.3e-12, where a thin member's minor semi-axis takes the
    # foci's rounding.
    here, moved = _triad_svgs(0.0, 0.0), _triad_svgs(100.0, 100.0)
    for kind, (members, six_class, els) in here.items():
        span = max(els[0][3])
        for cls, stroke in zip(members, _MEMBER_STROKES):
            tags = [tag for tag, s, *_ in els if s == stroke]
            assert tags == (["ellipse"] if cls == "ellipse" else ["path", "path"]), (kind, cls)
        assert [tag for tag, s, *_ in els if s == "#aa3377"] == \
            (["ellipse"] if six_class == "ellipse" else ["path", "path"]), kind
        for (tag, stroke, pts, lengths), (*key, pts_moved, lengths_moved) in \
                zip(els, moved[kind][2], strict=True):
            assert key == [tag, stroke] and len(pts) == len(pts_moved), (kind, tag, stroke)
            bound = 3e-12 * span
            assert np.all(np.abs(np.subtract(pts_moved, pts) - 100.0) <= bound), (kind, tag, stroke)
            assert np.all(np.abs(np.subtract(lengths_moved, lengths)) <= bound), (kind, tag, stroke)


def test_render_draws_a_parabola_as_one_bezier():
    # y = x^2 in a view its vertex and the edges x = -2, 2 frame: one
    # quadratic Bezier, on the curve at every parameter, that crosses the
    # whole view.
    from triconic.render import _framed, _primitives

    con = Conic.from_coeffs((1, 0, 0, 0, -1, 0))
    (kind, *ctrl), = _primitives(*_framed(con, 0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
    assert kind == "bezier"
    (x0, y0), (x1, y1), (x2, y2) = (p.as_tuple() for p in ctrl)
    for t in np.linspace(0.0, 1.0, 17):
        x = (1 - t) ** 2 * x0 + 2 * t * (1 - t) * x1 + t * t * x2
        y = (1 - t) ** 2 * y0 + 2 * t * (1 - t) * y1 + t * t * y2
        assert residual(con, Point2(x, y)) <= 1e-12
    assert min(x0, x2) <= -2.0 and max(x0, x2) >= 2.0


@pytest.mark.parametrize("coeffs, frame, kind", [
    # A parabola along (1, 1), in a frame at the view's edge.
    ((1.0, -2.0, 1.0, -8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0), 0.0), (3.9, -3.9, 4.0), "bezier"),
    # Two lines, in a frame much smaller than the view.
    ((1.0, 0.0, -1.0, -0.5, -0.5, 0.0), (1.0, 1.0, 0.1), "line"),
])
def test_primitives_cross_the_view_from_the_frame_they_are_given_in(coeffs, frame, kind):
    # A conic given in a frame other than the view's, as a six-point
    # conic is given in its fit's, is laid out about the view: the ends of
    # each of its primitives lie on the conic and beyond the view [-4, 4]^2.
    from triconic.conic import _substituted
    from triconic.render import _primitives

    con = Conic.from_coeffs(coeffs)
    prims = _primitives(_substituted(coeffs, frame[2], 0.0, frame[0], frame[1]), frame, (0.0, 0.0, 4.0))
    assert {k for k, *_ in prims} == {kind} and len(prims) == (1 if kind == "bezier" else 2)
    for _, *pts in prims:
        for p in (pts[0], pts[-1]):
            assert residual(con, p) <= 1e-9 and max(abs(p.x), abs(p.y)) > 4.0


# A conic of each class and one without real points: its coefficients
# (xx, xy, yy, x, y, 1), its class, and the elements that draw it.
_CLASS_CONICS = {
    "circle": ((1.0, 0.0, 1.0, -0.6, 0.4, -1.07), "circle", ["ellipse"]),
    "ellipse": ((2.0, 1.0, 3.0, -0.5, 0.7, -4.0), "ellipse", ["ellipse"]),
    "parabola": ((1.0, 2.0, 1.0, -1.0, 1.0, -1.0), "parabola", ["path"]),
    "hyperbola": ((1.0, 0.3, -2.0, 0.0, 0.0, -1.0), "hyperbola", ["path", "path"]),
    "two_lines": ((1.0, 1.0, -2.0, -1.0, 1.0, 0.0), "degenerate_two_lines", ["line", "line"]),
    "parallel_lines": ((1.0, 2.0, 1.0, 0.0, 0.0, -1.0), "degenerate_parallel_lines", ["line", "line"]),
    "point": ((1.0, 0.0, 1.0, 0.0, 0.0, 0.0), "degenerate_point", []),
    "no_real_points": ((1.0, 0.0, 2.0, 0.0, 0.0, 1.0), "ellipse", []),
    # Without quadratic part a conic is the line at infinity with one real
    # line, here x = 1, or with none: only real lines are drawn.
    "one_line": ((0.0, 0.0, 0.0, 1.0, 0.0, -1.0), "degenerate_parallel_lines", ["line"]),
    "constant": ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), "degenerate_parallel_lines", []),
}


@pytest.mark.parametrize("case", sorted(_CLASS_CONICS))
def test_svg_elements_read_back_onto_their_conic(case):
    # Each class is drawn as its own primitive, parsed back from the SVG:
    # an ellipse's four axis ends, a parabola's Bezier at t = 0, 1/4, 1/2,
    # 3/4 and 1, each line's two ends and every hyperbola sample lie on the
    # scene's conic to 1e-9 relative; a point conic and an ellipse without
    # real points draw nothing.
    from triconic.conic import classify

    coeffs, cls, tags = _CLASS_CONICS[case]
    con = Conic.from_coeffs(coeffs)
    assert classify(con).value == cls
    sc = Scene()
    sc.add_point("L", Point2(-3.0, -3.0))
    sc.add_point("U", Point2(3.0, 3.0))
    sc.conics.append(con)
    svg = emit_svg(sc)
    drawn = _drawn(svg)
    assert [tag for tag, *_ in drawn] == tags
    if cls == "parabola":
        assert " Q " in ET.fromstring(svg).find("{*}path[@stroke='#aa3377']").attrib["d"]
    if cls == "hyperbola":
        # Each branch keeps one sample beyond the view at each end, and the
        # viewport clips them.
        (_, _, ((xmin, ymax),), (w, h)), *_ = _read_back(svg)
        for _, _, points, _ in drawn:
            inside = [xmin <= x <= xmin + w and ymax - h <= y <= ymax for x, y in points]
            assert inside[1:-1] and inside[0] is inside[-1] is False and inside[1] and inside[-2]
    pts = [p for _, _, points, _ in drawn for p in points]
    assert max((residual(con, Point2(*p)) for p in pts), default=0.0) <= 1e-9


def test_cli_renders_a_conic_without_quadratic_part(tmp_path, monkeypatch, capsys):
    # A scene of only the line x = 1 written as a conic draws that one line
    # and not the line at infinity; a scene of only a constant conic has
    # nothing to draw, which render reports as an error, exit 2.
    monkeypatch.chdir(tmp_path)
    for coeffs in ((0.0, 0.0, 0.0, 1.0, 0.0, -1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)):
        sc = Scene()
        sc.conics.append(Conic.from_coeffs(coeffs))
        (tmp_path / "s.json").write_text(sc.dumps())
        code = main(["render", "--scene", "s.json", "--out", "s.svg"])
        if coeffs[3]:
            assert code == 0
            ((x0, _), (x1, _)), = _line_ends((tmp_path / "s.svg").read_text())
            assert x0 == x1 == 1.0
        else:
            assert code == 2 and "nothing to render" in capsys.readouterr().err
            with pytest.raises(EmptyScene):
                emit_svg(sc)


def test_svg_draws_a_lone_conic_far_from_the_origin():
    # A scene of only the unit circle about (1e5, 1e5): a frame at the
    # origin finds its center, where it is decided an ellipse, so the view
    # covers it and one <ellipse> draws it.  Its plane coefficients hold
    # the radius to about 1e-7 that far out.
    d = 1e5
    sc = Scene()
    sc.conics.append(Conic.from_coeffs((1.0, 0.0, 1.0, -2.0 * d, -2.0 * d, 2.0 * d * d - 1.0)))
    (_, _, ((xmin, ymax),), (w, h)), (tag, _, _, lengths) = _read_back(emit_svg(sc))
    assert tag == "ellipse" and lengths == pytest.approx([1.0, 1.0], abs=1e-6)
    assert xmin < d - 1.0 and xmin + w > d + 1.0 and ymax > d + 1.0 and ymax - h < d - 1.0


def test_svg_of_a_far_scene_is_the_scene_moved():
    # The README's V-ellipse scene moved by (1e5, 1e5) draws the unmoved
    # scene's elements, moved: the same tags and colours, every point read
    # back moved by the offset and every length kept, to 1e-6 of the view's
    # span; the view box too.  Its six-point conic, two lines, is drawn from
    # the fit of its vertices in the fit's frame, where it is decided two
    # lines as the scene stores it; its plane coefficients cannot decide
    # that far out.
    def read(d):
        t = Triangle(Point2(d, 3.0 + d), Point2(4.0 + d, d), Point2(d, d))
        return _read_back(emit_svg(scene_for_triad(t, "v_ellipse")))

    here, far = read(0.0), read(1e5)
    bound = 1e-6 * max(here[0][3])
    assert [tag for tag, s, *_ in here if s == "#aa3377"] == ["line", "line"]
    for (tag, stroke, pts, lengths), (*key, pts_far, lengths_far) in zip(here, far, strict=True):
        assert key == [tag, stroke] and len(pts) == len(pts_far), (tag, stroke)
        assert np.all(np.abs(np.subtract(pts_far, pts) - 1e5) <= bound), (tag, stroke)
        assert np.all(np.abs(np.subtract(lengths_far, lengths)) <= bound), (tag, stroke)


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


def test_cli_exit_1_on_verification_failure(tmp_path, monkeypatch, capsys):
    # A corrupted tolerance makes honest checks fail: exit code 1.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(config, "TOL", 1e-20)
    code = main(["verify", "--prop", "P2.1-yiu-vertices", "--seed", "42", "--trials", "3"])
    out = capsys.readouterr()
    assert code == 1
    assert "[FAIL] P2.1-yiu-vertices" in out.out, out.out + out.err


def test_tolerance_cannot_be_set(tmp_path, cli_env, monkeypatch, capsys):
    # The tolerance is one fixed constant: --tol is an unknown option, and
    # TRICONIC_TOL, which at 1e-3 once broke A1 at seed 2, is not read.
    monkeypatch.chdir(tmp_path)
    for tol in (["--tol", "1e-8"], ["--tol=1e-8"]):
        code = main([*tol, "verify", "--prop", "P2.1-yiu-vertices", "--report", "r.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage: triconic")
        assert not (tmp_path / "r.json").exists()
    env = dict(cli_env, TRICONIC_TOL="1e-3")
    r = run_cli(["verify", "--prop", "A1-aellipse-polynomial", "--seed", "2"], tmp_path, env)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "[PASS] A1-aellipse-polynomial" in r.stdout, r.stdout


@pytest.mark.parametrize("value", ["1e-5", "inf", "nan", "0", "-1", "1"])
def test_env_tolerance_is_not_read(value, tmp_path, cli_env):
    # No value of TRICONIC_TOL reaches the package: neither one the old
    # switch took (1e-5) nor one it refused with a usage error.  The
    # package has no setter left to take it.
    code = (
        "import triconic\nfrom triconic import config\nfrom triconic.cli import main\n"
        "print(triconic.get_tol(), hasattr(triconic, 'set_tol'), hasattr(config, 'set_tol'))\n"
        "print(main(['verify', '--prop', 'P2.1-yiu-vertices', '--trials', '1']))"
    )
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                       env=dict(cli_env, TRICONIC_TOL=value), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "1e-09 False False"
    assert "[PASS] P2.1-yiu-vertices" in r.stdout and lines[-1] == "0", r.stdout


@pytest.mark.parametrize("argv", [
    ["--tol", "1e-9", "verify"],
    ["--tol=nan", "verify"],
    ["verify", "--tol", "1e-8"],
])
def test_cli_rejects_any_tol(argv, tmp_path, monkeypatch, capsys):
    # --tol is an unknown option wherever it stands and whatever its value,
    # the old default included: a usage error, and no report is written.
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "--prop", "P2.1-yiu-vertices", "--report", "r.json"])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage: triconic")
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


def _line_ends(svg: str) -> list:
    """The (x, y) ends of each scene-conic <line> of an SVG."""
    return [tuple(ends) for tag, _, ends, _ in _drawn(svg) if tag == "line"]


def test_svg_renders_a_scene_of_only_a_line():
    # The double line y = 1 alone: its point nearest the origin, with the
    # origin, spans the view, and the line crosses it, its ends beyond it.
    g = (0.0, 1.0, -1.0)
    sc = Scene()
    sc.conics.append(Conic(np.outer(g, g)))
    svg = emit_svg(sc)
    xmin, top, w, h = (float(v) for v in ET.fromstring(svg).attrib["viewBox"].split())
    assert -top - h < 0.0 and -top > 1.0
    ((x0, y0), (x1, y1)), = _line_ends(svg)
    assert y0 == y1 == 1.0 and min(x0, x1) < xmin and max(x0, x1) > xmin + w


def test_svg_draws_a_line_outside_the_other_content():
    # Points (0, 0) and (1, 0) and the double line y = 5: the view reaches
    # the line's point nearest the centre of the points, (0.5, 5).
    g = (0.0, 1.0, -5.0)
    sc = Scene()
    sc.add_point("O", Point2(0.0, 0.0))
    sc.add_point("E", Point2(1.0, 0.0))
    sc.conics.append(Conic(np.outer(g, g)))
    svg = emit_svg(sc)
    xmin, top, w, h = (float(v) for v in ET.fromstring(svg).attrib["viewBox"].split())
    assert -top > 5.0 and -top - h < 0.0
    ((x0, y0), (x1, y1)), = _line_ends(svg)
    assert y0 == y1 == 5.0 and min(x0, x1) < xmin and max(x0, x1) > xmin + w


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
    (lambda triad: triad["vertices"].pop(), "triads[0].vertices must hold six points"),
], ids=["empty", "class", "center", "member", "vertex", "five_vertices"])
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
