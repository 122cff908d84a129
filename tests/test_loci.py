import collections
import json
import math
import types
from dataclasses import astuple

import numpy as np
import pytest

from triconic import cli, kernels, loci, verify
from triconic.centers import circumcircle, classic_center, incircle
from triconic.conic import ConicClass, classify, residual
from triconic.errors import (
    DegenerateMember,
    DegenerateTriangle,
    NotConverged,
    PointAtInfinity,
    RankDeficient,
    TriconicError,
)
from triconic.geom import BaryCoords, Point2, Triangle, bary_to_cartesian, distance
from triconic.loci import (
    covertex_condition_equilateral_P,
    covertex_locus_V,
    find_phyp_circle_points,
    find_pstar_candidates,
    halftangent_sextic,
    ostar_arc_ellipses,
    parabola_deg8_V,
    phyp_circle_functional,
    pstar_circle_functional,
    region_map,
    LocusSample,
    LocusSweep,
    sample_locus_ostar,
    sample_locus_x478,
    trace_zero_set,
    x478_center_for_theta,
    x478_quartic,
)
from triconic.triads import (
    _kernel_args,
    build_triad,
    six_point_conic,
    triad_vertices,
)
from triconic.verify import random_flat_triangle, random_triangle

from reference_checks import (
    covertex_conconic_V,
    covertex_conic_check,
    deltas,
    equilateral_arcs_reference,
    is_circle,
    lambdas,
    point_at,
    reflection_triangle,
    second_common_point,
    x55_conjecture_check,
)
from test_verify import _shape_grid


def test_x478_quartic_values():
    assert x478_quartic(0.5, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert x478_quartic(0.0, 0.0) == 0.0


def test_halftangent_sextic_value():
    assert halftangent_sextic(0.0, 1.0) == 25.0
    # Sign change bracketing the quintic root on x = 0.
    assert halftangent_sextic(0.0, 0.7) < 0.0
    assert halftangent_sextic(0.0, 0.9) > 0.0


def test_halftangent_sextic_brackets_its_root_on_every_vertical():
    # P4.6 and P4.10 draw x uniform in [-0.45, 0.45] and take the sextic's
    # root on x = const in [0.25, 1.4]; the sign change at the ends of that
    # interval is what lets the draw skip the root search.
    for x in np.linspace(-0.45, 0.45, 10001).tolist():
        assert halftangent_sextic(x, 0.25) < 0.0 < halftangent_sextic(x, 1.4), x


def test_parabola_deg8_equilateral():
    assert parabola_deg8_V(1.0, 1.0, 1.0) == -3.0


def test_pstar_functional_equilateral_center(equilateral):
    c = Point2(0.0, math.sqrt(3) / 6)
    assert pstar_circle_functional(*equilateral.sides(), *deltas(equilateral, c)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_covertex_condition_side_sqrt3_centroid():
    # Equilateral with circumradius 1: the centroid is the isolated zero.
    verts = [
        Point2(math.cos(a), math.sin(a))
        for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
    ]
    t = Triangle(*verts)
    assert covertex_condition_equilateral_P(*deltas(t, Point2(0.0, 0.0))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_sample_locus_x478():
    samples = sample_locus_x478(120)
    assert len(samples) == 120
    assert max(s.implicit_residual for s in samples) <= 1e-8
    # The locus arc sits above y = 1 (open side condition).
    assert min(s.center.y for s in samples) > 1.0
    # Symmetric parameterization: theta and pi - theta give mirrored centers.
    c1 = x478_center_for_theta(0.4)[1]
    c2 = x478_center_for_theta(math.pi - 0.4)[1]
    assert c1.x == pytest.approx(-c2.x, abs=1e-12)
    assert c1.y == pytest.approx(c2.y, abs=1e-12)


def test_x478_closed_form_is_the_six_point_conic_center():
    a, b = Point2(0.5, 0.0), Point2(-0.5, 0.0)
    for theta in np.linspace(0.05, math.pi - 0.05, 401).tolist():
        c, cen = x478_center_for_theta(theta)
        assert distance(cen, classic_center(Triangle(a, b, c), "X478")) <= 1e-12


def test_x478_endpoint_limits():
    _, cen = x478_center_for_theta(1e-5)
    assert distance(cen, Point2(0.5, 1.0)) <= 1e-4
    _, cen = x478_center_for_theta(math.pi - 1e-5)
    assert distance(cen, Point2(-0.5, 1.0)) <= 1e-4


def test_isosceles_right_center_on_axis():
    _, cen = x478_center_for_theta(math.pi / 2)
    assert abs(cen.x) < 1e-12
    # Quartic on the axis: 2y^2 (2y^2 - 4y + 1) = 0 with the arc root above 1.
    assert cen.y == pytest.approx(1.0 + 1.0 / math.sqrt(2.0), abs=1e-12)


def test_ostar_locus(t_generic):
    samples, arcs = sample_locus_ostar(t_generic, 120)
    assert len(samples) >= 100
    assert max(s.implicit_residual for s in samples) <= 1e-8
    from triconic.geom import midpoint

    mids = (
        midpoint(t_generic.b, t_generic.c),
        midpoint(t_generic.c, t_generic.a),
        midpoint(t_generic.a, t_generic.b),
    )
    for con in arcs.values():
        for m in mids:
            assert residual(con, m) <= 1e-8


def _object_path_ostar(t, n, eps=0.03):
    """The O* sweep one P at a time through the object path: (theta,
    center) for every P whose six-point conic has a finite center."""
    cc = circumcircle(t)
    vertex_angles = [
        math.atan2(v.y - cc.center.y, v.x - cc.center.x) % (2 * math.pi) for v in t.vertices()
    ]
    out = []
    for k in range(n):
        theta = 2.0 * math.pi * k / n
        if any(min(abs(theta - va), 2 * math.pi - abs(theta - va)) < eps for va in vertex_angles):
            continue
        rep = six_point_conic(build_triad(t, "p_ellipse", point_at(cc, theta)))
        if rep.center is not None:
            out.append((theta, rep.center))
    return out


def _seeded_triangles(seed, n):
    rng = np.random.default_rng(seed)
    return [random_triangle(rng) for _ in range(n)] + [random_flat_triangle(rng) for _ in range(n)]


def test_ostar_sweep_matches_object_path():
    for t in _seeded_triangles(7, 4):
        samples, _ = sample_locus_ostar(t, 90)
        ref = _object_path_ostar(t, 90)
        assert [s.parameter for s in samples] == [theta for theta, _ in ref]
        r = circumcircle(t).radius
        for s, (_, center) in zip(samples, ref):
            assert distance(s.center, center) <= 1e-9 * r
            assert s.implicit_residual <= 1e-8


def _arc_distance(con, p):
    """|f| / |grad f| of the conic at p: its distance to the curve, to
    first order."""
    v = np.array([p.x, p.y, 1.0])
    return abs(v @ con.m @ v) / (2.0 * math.hypot(*(con.m @ v)[:2]))


@pytest.mark.parametrize(
    "scale, shift", [(1e-3, 0.0), (1.0, 0.0), (1e3, 0.0), (1.0, 10.0), (1e3, 10.0)]
)
def test_ostar_sweep_moves_with_the_triangle(scale, shift):
    # The finite-center test reads the conic in the frame of its fit
    # points, so scaling or moving the triangle keeps every sample.
    for t in _seeded_triangles(11, 1):
        base, _ = sample_locus_ostar(t, 60)
        moved = Triangle(
            *(Point2(scale * v.x + shift, scale * v.y + shift) for v in t.vertices())
        )
        samples, arcs = sample_locus_ostar(moved, 60)
        assert [s.parameter for s in samples] == [s.parameter for s in base]
        r = circumcircle(moved).radius
        for s, s0 in zip(samples, base):
            assert min(_arc_distance(con, s.center) for con in arcs.values()) <= 1e-8 * r
            expected = Point2(scale * s0.center.x + shift, scale * s0.center.y + shift)
            assert distance(s.center, expected) <= 1e-8 * r


def test_ostar_sweep_raises_on_a_degenerate_member(t_generic, monkeypatch):
    # A column whose triad member collapses raises, as build_triad does,
    # instead of dropping the sample.
    real = kernels.vertices

    def collapsed(*args):
        xs, ys, bad = real(*args)
        bad[3] = True
        return xs, ys, bad

    monkeypatch.setattr(kernels, "vertices", collapsed)
    with pytest.raises(DegenerateMember):
        sample_locus_ostar(t_generic, 60)


def test_x478_sweep_matches_scalar_calls():
    samples = sample_locus_x478(240)
    (cx, cy), (x, y) = x478_center_for_theta(np.array([s.parameter for s in samples]))
    for k, s in enumerate(samples):
        c, cen = x478_center_for_theta(s.parameter)
        assert (s.driver, s.center) == (c, cen)
        assert (cx[k], cy[k], x[k], y[k]) == (c.x, c.y, cen.x, cen.y)
        assert s.implicit_residual == abs(x478_quartic(cen.x, cen.y))


def _reference_x478(n):
    """The x478 sweep as a list of LocusSample, one built per angle."""
    theta = loci.X478_EPS + (math.pi - 2.0 * loci.X478_EPS) * np.arange(n) / (n - 1)
    (cx, cy), (x, y) = x478_center_for_theta(theta)
    return [
        LocusSample(th, Point2(px, py), Point2(ox, oy), r)
        for th, px, py, ox, oy, r in zip(
            *(v.tolist() for v in (theta, cx, cy, x, y, abs(x478_quartic(x, y))))
        )
    ]


def _reference_ostar(t, n):
    """The O* sweep as a list of LocusSample, one built per kept angle."""
    cc = circumcircle(t)
    arcs = ostar_arc_ellipses(t)
    vertex_angles = sorted(
        (math.atan2(v.y - cc.center.y, v.x - cc.center.x) % (2 * math.pi), k)
        for k, v in enumerate(t.vertices())
    )
    va = np.array([ang for ang, _ in vertex_angles])
    theta = 2.0 * math.pi * np.arange(n) / n
    gap = np.abs(theta[:, None] - va)
    theta = theta[(np.minimum(gap, 2 * math.pi - gap) >= loci.OSTAR_EPS).all(axis=1)]
    px = cc.center.x + cc.radius * np.cos(theta)
    py = cc.center.y + cc.radius * np.sin(theta)
    (ax, ay), (bx, by), (cx, cy) = (v.as_tuple() for v in t.vertices())
    with np.errstate(divide="ignore", invalid="ignore"):
        xs, ys, bad = kernels.vertices(ax, ay, bx, by, cx, cy, kernels.KIND_P_ELLIPSE, px, py)
        if bad.any():
            raise DegenerateMember(f"P-ellipse member collapses at P angle {theta[bad][0]}")
        co, frame, _ = kernels.fit_six(xs, ys)
        norm = kernels.frobenius(co)
        vanished = ~((norm > 0.0) & (norm < math.inf))
        if vanished.any():
            raise RankDeficient(f"no unique six-point conic at P angle {theta[vanished][0]}")
        x, y, has_center = kernels.frame_center(co, frame)
    theta, px, py, x, y = (w[has_center] for w in (theta, px, py, x, y))
    opposite = np.array([k for _, k in vertex_angles])[(np.searchsorted(va, theta) + 1) % 3]
    coeffs = np.array([arcs[arc].coeffs() for arc in "abc"])[opposite].T
    res = kernels.conic_residual(coeffs, x, y)
    return [
        LocusSample(th, Point2(p0, p1), Point2(c0, c1), r)
        for th, p0, p1, c0, c1, r in zip(*(w.tolist() for w in (theta, px, py, x, y, res)))
    ]


def _same_samples(sweep, ref):
    """astuple of every sample equal, bit for bit: Python floats of the
    same hex."""
    def bits(s):
        th, (px, py), (cx, cy), r = astuple(s)
        return tuple((type(v), v.hex()) for v in (th, px, py, cx, cy, r))

    return len(sweep) == len(ref) and [bits(s) for s in sweep] == [bits(s) for s in ref]


@pytest.mark.parametrize("n", [2, 120, 720])
def test_x478_sweep_samples_match_the_reference(n):
    sweep = sample_locus_x478(n)
    assert isinstance(sweep, LocusSweep)
    assert _same_samples(sweep, _reference_x478(n))


def test_ostar_sweep_samples_match_the_reference():
    for t in _seeded_triangles(7, 4):
        sweep, _ = sample_locus_ostar(t, 90)
        assert _same_samples(sweep, _reference_ostar(t, 90))


def test_ostar_centers_are_the_float_six_point_centers():
    # Each O* center is, bit for bit, the center of its driver's six-point
    # conic on floats (kernels.vertices, kernels.fit_six and
    # kernels.frame_center), and each arc the object path's fit
    # (conic.fit_conic_5pts of the side midpoints and two excircle
    # tangency points), on seeded random and flat triangles.
    from triconic.centers import excircle_tangency_points
    from triconic.conic import fit_conic_5pts
    from triconic.geom import midpoint

    rng = np.random.default_rng(4343)
    for t in [random_triangle(rng) for _ in range(12)] + [random_flat_triangle(rng) for _ in range(6)]:
        corners = _kernel_args(t, "p_ellipse", None)[:6]
        sweep, arcs = sample_locus_ostar(t, 240)
        assert len(sweep) >= 0.9 * 240
        for s in sweep:
            xs, ys, bad = kernels.vertices(*corners, kernels.KIND_P_ELLIPSE, s.driver.x, s.driver.y)
            co, frame, _ = kernels.fit_six(xs, ys)
            x, y, has_center = kernels.frame_center(co, frame)
            assert not bad and has_center
            assert (s.center.x.hex(), s.center.y.hex()) == (x.hex(), y.hex())
        A1, A2, B1, B2, C1, C2 = excircle_tangency_points(t)
        mids = [midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b)]
        for arc, p, q in (("a", B2, C1), ("b", C2, A1), ("c", A2, B1)):
            assert arcs[arc].m.tobytes() == fit_conic_5pts([*mids, p, q]).m.tobytes(), arc


def test_sweep_indexes_like_a_list():
    sweep, ref = sample_locus_x478(9), _reference_x478(9)
    assert len(sweep) == 9
    for i in range(-9, 9):
        assert sweep[i] == ref[i]
    for i in (9, 100, -10):
        with pytest.raises(IndexError):
            sweep[i]
    for sl in (slice(2, 5), slice(None, None, -1), slice(-3, None), slice(1, 8, 3), slice(7, 2)):
        part = sweep[sl]
        assert isinstance(part, LocusSweep)
        assert len(part) == len(ref[sl])
        assert list(part) == ref[sl]
    assert list(reversed(sweep)) == ref[::-1]
    assert sweep.index(ref[4]) == 4 and ref[4] in sweep


def test_sweep_builds_its_samples_on_every_loop():
    sweep, ref = sample_locus_x478(30), _reference_x478(30)
    first, second = list(sweep), list(sweep)
    assert first == ref and second == ref
    assert all(a is not b for a, b in zip(first, second))
    # Not a list: == is identity, so a sweep equals neither its samples'
    # list nor a sweep of the same columns; it hashes.
    assert sweep == sweep and sweep != ref and sweep != sample_locus_x478(30)
    assert hash(sweep) == hash(sweep)


def test_ostar_sweep_with_every_angle_left_out_is_empty():
    # The only angle, 0, falls on vertex A's angle about the circumcenter.
    t = Triangle(*(Point2(math.cos(a), math.sin(a)) for a in (0.0, 2.0, 4.0)))
    sweep, arcs = sample_locus_ostar(t, 1)
    assert len(sweep) == 0 and list(sweep) == [] and set(arcs) == {"a", "b", "c"}
    with pytest.raises(IndexError):
        sweep[0]


def _payload(samples):
    """The locus JSON of a list of LocusSample, as the CLI writes it."""
    return [
        {
            "parameter": s.parameter,
            "driver": [s.driver.x, s.driver.y],
            "center": [s.center.x, s.center.y],
            "implicit_residual": s.implicit_residual,
        }
        for s in samples
    ]


def test_in_package_consumers_build_no_samples(tmp_path, monkeypatch, capsys):
    built = []

    class Counted(LocusSample):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(loci, "LocusSample", Counted)
    tri = "0.1,0.2 1.3,0.15 0.5,1.1"
    assert cli.main(["locus", "--kind", "x478", "--samples", "120", "--out", "x.json"]) == 0
    assert cli.main(["locus", "--kind", "ostar", "--triangle", tri, "--samples", "90",
                     "--out", "o.json"]) == 0
    assert verify.run_proposition("P3.5-ostar-three-arcs", 42).passed
    assert built == []
    assert loci.sample_locus_x478(3)[0] and len(built) == 1  # the counter counts
    t = Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))
    for name, ref in (("x.json", _reference_x478(120)), ("o.json", _reference_ostar(t, 90))):
        with open(tmp_path / f"ref_{name}", "w") as fh:
            json.dump(_payload(ref), fh, indent=1)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()
    capsys.readouterr()


def test_ostar_endpoint_vertex_limit(t_generic):
    # As P approaches vertex A along the (c) arc side, O* approaches the
    # V-ellipse vertex that ends that arc.
    t = t_generic
    a, b, c = t.sides()
    L = a + b + c
    cc = circumcircle(t)
    ang_a = math.atan2(t.a.y - cc.center.y, t.a.x - cc.center.x)
    arcs = ostar_arc_ellipses(t)
    endpoint = bary_to_cartesian(t, BaryCoords(0.0, a - b - c, L))  # ends L_c
    best = math.inf
    for eps in (0.03, 0.01, 0.003):
        for sgn in (1.0, -1.0):
            p = point_at(cc, ang_a + sgn * eps)
            try:
                rep = six_point_conic(build_triad(t, "p_ellipse", p))
            except Exception:
                continue
            if rep.center is None:
                continue
            best = min(best, distance(rep.center, endpoint))
    assert best < 0.05 * t.scale()


def test_equilateral_ostar_corollary():
    # P3.6 on its construction, ostar_arc_ellipses, on the object path:
    # every arc has semi-axes sqrt(3)/2 and sqrt(3)/6 about its vertex and
    # passes through the side midpoints; arc c passes through the reflected
    # midpoints and touches the lines from A and B through them, whose
    # meeting point T has its midpoint with C on arc c and ATB three times
    # ABC's area.
    q = equilateral_arcs_reference()
    s3 = math.sqrt(3)
    for major, minor in q["semi_axes"]:
        assert major == pytest.approx(s3 / 2, abs=1e-8)
        assert minor == pytest.approx(s3 / 6, abs=1e-8)
    assert max(q["center_offsets"]) <= 1e-8
    assert max(q["midpoint_residuals"]) <= 1e-8
    assert max(q["endpoint_residuals"]) <= 1e-8
    assert max(q["tangency_discriminants"]) <= 1e-8
    assert q["top_vertex_residual"] <= 1e-8
    assert q["area_ratio"] == pytest.approx(3.0, abs=1e-8)
    # The verifier's check, on arrays, reads the worst of them, bit for bit.
    axes = [abs(v - w) for pair in q["semi_axes"] for v, w in zip(pair, (s3 / 2, s3 / 6))]
    worst = max(*axes, *q["center_offsets"], *q["midpoint_residuals"], *q["endpoint_residuals"],
                *q["tangency_discriminants"], q["top_vertex_residual"], abs(q["area_ratio"] - 3.0))
    assert verify._chk_equilateral_arcs() == worst


def test_find_pstar_equilateral(equilateral):
    p = Point2(*find_pstar_candidates(equilateral)[0][0])
    assert distance(p, Point2(0.0, math.sqrt(3) / 6)) < 1e-7


def test_find_pstar_unique_and_circular(t_generic):
    # For this well-conditioned triangle the validated zero is unique; the
    # candidates cluster to a single point across all converged starts.
    hits = find_pstar_candidates(t_generic)
    assert len(hits) == 1
    p = Point2(*hits[0][0])
    rep = six_point_conic(build_triad(t_generic, "p_ellipse", p))
    assert rep.conic_class is ConicClass.CIRCLE
    cc = circumcircle(t_generic)
    assert distance(rep.center, cc.center) <= 1e-6 * cc.radius


def test_anticevian_needle(t_generic):
    from reference_checks import anticevian_triangle
    from triconic.centers import center_bary

    tac = anticevian_triangle(t_generic, center_bary(t_generic, "X3"))
    x3 = classic_center(t_generic, "X3")
    fval = pstar_circle_functional(*tac.sides(), *deltas(tac, x3))
    assert fval <= 1e-12
    rep = six_point_conic(build_triad(tac, "p_ellipse", x3))
    cc = circumcircle(tac)
    assert rep.conic_class is ConicClass.CIRCLE
    assert distance(rep.center, cc.center) <= 1e-8 * cc.radius
    # Center on the X4-X6 line of the reference.
    from triconic.geom import line_through

    ln = line_through(
        classic_center(t_generic, "X4"), classic_center(t_generic, "X6")
    )
    assert ln.distance_to(rep.center) <= 1e-8 * t_generic.scale()


def test_find_phyp_circle_points(t_generic):
    p1, p2 = find_phyp_circle_points(t_generic)
    s = t_generic.scale()
    assert distance(p1, p2) > 1e-3 * s
    cc = circumcircle(t_generic)
    for p in (p1, p2):
        assert phyp_circle_functional(
            *t_generic.sides(), *lambdas(t_generic, p)
        ) <= 1e-12
        rep = six_point_conic(build_triad(t_generic, "p_hyperbola", p))
        assert rep.conic_class is ConicClass.CIRCLE
        assert distance(rep.center, cc.center) <= 1e-6 * cc.radius
    # The pair are common intersections of each other's triads.
    q = second_common_point(build_triad(t_generic, "p_hyperbola", p1))
    assert distance(q, p2) <= 1e-7 * s


def _search_triangle(draw):
    kind, i = draw
    if kind == "obtuse":
        # Angle at C about 165 degrees: a hard case for the pair search.
        return Triangle(
            Point2(0.7751131641779292, 0.29089325912672925),
            Point2(0.4204307459590436, 0.0042869212385614475),
            Point2(0.6259889257552741, 0.13306675605752827),
        )
    draw_fn = random_triangle if kind == "random" else random_flat_triangle
    return draw_fn(np.random.default_rng([2026, i]))


@pytest.mark.parametrize(
    "draw",
    [("random", i) for i in range(8)] + [("flat", i) for i in range(4)] + [("obtuse", 0)],
    ids=str,
)
def test_circle_searches_postconditions(draw):
    t = _search_triangle(draw)
    s = t.scale()
    cc = circumcircle(t)

    def check(kind, p, fval):
        assert fval <= 1e-16 * s**8
        rep = six_point_conic(build_triad(t, kind, p))
        assert rep.conic_class is ConicClass.CIRCLE
        assert distance(rep.center, cc.center) <= 1e-6 * cc.radius

    for xy, fval in find_pstar_candidates(t):
        check("p_ellipse", Point2(*xy), fval)
    p1, p2 = find_phyp_circle_points(t)
    for p in (p1, p2):
        check("p_hyperbola", p, phyp_circle_functional(*t.sides(), *lambdas(t, p)))
    assert distance(p1, p2) > 1e-6 * s
    q = second_common_point(build_triad(t, "p_hyperbola", p1))
    assert distance(q, p2) <= 1e-7 * s


def test_find_pstar_candidates_near_vertex_zeros():
    # A flat triangle, obtuse at C: besides the principal zero, the
    # P-ellipse circle functional has a genuine zero on each side of C along
    # its bisector.
    t = Triangle(
        Point2(0.0, 0.0),
        Point2(1.483727388938172, 0.0),
        Point2(0.7378315713690614, 0.09869291364934368),
    )
    s = t.scale()
    cc = circumcircle(t)
    cands = [Point2(*xy) for xy, _ in find_pstar_candidates(t)]
    assert len(cands) == 3
    for p in cands:
        rep = six_point_conic(build_triad(t, "p_ellipse", p))
        assert rep.conic_class is ConicClass.CIRCLE
        assert distance(rep.center, cc.center) <= 1e-6 * cc.radius
    assert distance(cands[0], t.c) > 0.5 * s
    below, above = sorted(cands[1:], key=lambda p: p.y)
    assert below.y < t.c.y < above.y
    assert max(distance(below, t.c), distance(above, t.c)) <= 0.05 * s


def test_circle_search_surfaces_programming_errors(t_generic, monkeypatch):
    # Only library errors mean "no circle here"; a bug inside the
    # validation must not turn into a failed search.
    def broken(*args):
        raise TypeError("injected")

    monkeypatch.setattr(loci, "_circle_test", broken)
    with pytest.raises(TypeError, match="injected"):
        find_pstar_candidates(t_generic)


def test_circle_searches_compute_each_quantity_once(t_generic, monkeypatch):
    # On one triangle each search computes no left-out vertex residual
    # (the circle test reads none), the sides once a circle test and, on
    # its float lanes, three times a Newton step (once for each point of
    # the forward differences), and the circumcircle once; six_point_conic
    # still reports residual6, the bits of kernels.residual6 of the
    # kernel's vertices and fit_six.
    calls = collections.Counter()
    for module, name in ((kernels, "residual6"), (kernels, "_sides_deltas"), (kernels, "circumcircle"),
                         (loci, "_circle_test"), (loci, "_polish")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    for search in (find_pstar_candidates, find_phyp_circle_points):
        calls.clear()
        search(t_generic)
        tests = calls["_circle_test"]
        assert tests >= 1 and calls == {"_circle_test": tests, "_polish": tests, "_sides_deltas": 4 * tests,
                                        "circumcircle": 1}, search
    (p, _), *_ = find_pstar_candidates(t_generic)
    calls.clear()
    rep = six_point_conic(build_triad(t_generic, "p_ellipse", Point2(*p)))
    assert calls["residual6"] == 1
    xs, ys, _ = kernels.vertices(*_kernel_args(t_generic, "p_ellipse", Point2(*p)))
    assert rep.residual6 == kernels.residual6(xs, ys, kernels.fit_six(xs, ys))


_KINDS = ("p_ellipse", "p_hyperbola")
# The public batch search of each kind.
_BATCH = {"p_ellipse": loci.pstar_candidates_batch, "p_hyperbola": loci.phyp_circle_points_batch}


def _outcome(r):
    if isinstance(r, Exception):
        return type(r).__name__, str(r), getattr(r, "best", None), getattr(r, "value", None)
    return r


def _candidates(ts, kind):
    """loci._candidates of the triangles ts in their frames (loci._framed),
    before their Newton steps: each candidate's triangle index and its
    (corners, x, y) row.  As in the searches, one triangle finds its
    candidates on floats, more find theirs on arrays."""
    with np.errstate(all="ignore"):
        if len(ts) == 1:
            found = loci._candidates(loci._framed(ts[0]), kind)
            return [0] * len(found), [[*args[:6], *args[7:]] for _, args in found]
        at, _, args = loci._candidates(np.array([loci._framed(t) for t in ts]).T, kind)
    return at.tolist(), np.array([*args[:6], *args[7:]]).T.tolist()


# Thin triangles whose searches fail: NotConverged where no candidate
# passes the circle test, and PointAtInfinity where the circumcenter is at
# infinity.
_FAILING = [
    Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.4, 1e-3)),
    Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(-0.5, 1e-3)),
    Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.4, 1e-5)),
]


def _stacked_triangles():
    """Seeded and flat triangles and every 5th shape of the shape grid."""
    rng = np.random.default_rng(2027)
    grid = _shape_grid()
    grid = grid.take(np.arange(0, grid.n, 5))
    return ([random_triangle(rng) for _ in range(30)] + [random_flat_triangle(rng) for _ in range(10)]
            + [Triangle(*(Point2(*v) for v in grid["triangle"][..., i].tolist())) for i in range(grid.n)])


@pytest.mark.parametrize("kind", _KINDS)
def test_stacked_searches_match_one_search_per_triangle(kind, monkeypatch):
    # Every triangle's candidates, and so its points or its failure, are
    # bit for bit those of a search of its own, on seeded triangles and
    # every 5th shape of the shape grid.  A search of its own finds its
    # candidates on floats (every trilateration after P*'s scan gets
    # floats) and tests each on floats, its own lane; a batch, of two
    # triangles as of all, finds its candidates on arrays and tests all of
    # them as one lane of arrays.
    # Either gives a failure's best point and worst as Python floats.
    ts = _stacked_triangles()
    at, rows = _candidates(ts, kind)
    for k, t in enumerate(ts):
        assert [row for i, row in zip(at, rows) if i == k] == _candidates([t], kind)[1]
    ts += _FAILING
    lanes, stages = [], []
    scanning = False

    def counted(args, *rest, _real=loci._circle_test):
        lanes.append(type(args[7]))
        return _real(args, *rest)

    def trilaterated(tri, da, db, dc, _real=loci._trilaterate):
        if not scanning:  # db: the closed form passes da = t as a float
            stages.append(type(db))
        return _real(tri, da, db, dc)

    def scan(*args, _real=loci.batch_sign_changes):
        nonlocal scanning
        scanning = True
        try:
            return _real(*args)
        finally:
            scanning = False

    monkeypatch.setattr(loci, "_circle_test", counted)
    monkeypatch.setattr(loci, "_trilaterate", trilaterated)
    monkeypatch.setattr(loci, "batch_sign_changes", scan)
    batch = _BATCH[kind](ts)
    assert 1 <= len(lanes) <= loci._POLISH_STEPS and set(lanes) == {np.ndarray}
    assert set(stages) == {np.ndarray}
    lanes.clear()
    stages.clear()
    _BATCH[kind](ts[:2])
    assert 1 <= len(lanes) <= loci._POLISH_STEPS and set(lanes) == {np.ndarray}
    assert set(stages) == {np.ndarray}
    lanes.clear()
    stages.clear()
    alone = [_BATCH[kind]([t])[0] for t in ts]
    assert [_outcome(r) for r in batch] == [_outcome(r) for r in alone]
    assert len(lanes) >= len(ts) and set(lanes) == {float}
    assert len(stages) >= len(ts) and set(stages) == {float}
    assert not any(isinstance(r, Exception) for r in batch[:40])
    assert [type(r) for r in batch[-3:]] == [NotConverged, NotConverged, PointAtInfinity]
    # The P-hyperbola searches of the thin triangles have a best, P*'s none.
    best = [(*r.best, r.value) for r in batch[-3:] + alone[-3:] if isinstance(r, NotConverged) and r.best]
    assert {type(v) for b in best for v in b} == ({float} if kind == "p_hyperbola" else set())


def test_phyp_closed_form_gives_one_k_and_one_point_per_sign():
    # On seeded triangles, a quarter of them flat, in their frames: of the
    # two roots of 3k^2 - 2k sum(s^2) + 16 area^2 = 0 exactly one is
    # admissible, 0 < k <= min s^2; the closed form gives two candidates,
    # which are P5.4's pair; and at each point of the pair u_i = s_i^2 -
    # x_i^2 is k for all three members, to 1e-12 s^2, and the signed focal
    # differences have one sign pattern at one point, the opposite at the
    # other.
    rng = np.random.default_rng(46)
    ts = [random_triangle(rng) for _ in range(150)] + [random_flat_triangle(rng) for _ in range(50)]
    at, rows = _candidates(ts, "p_hyperbola")
    for k, (t, pair) in enumerate(zip(ts, loci.phyp_circle_points_batch(ts))):
        (gx, gy, s), f = kernels.frame(*(c for v in t.vertices() for c in v.as_tuple()))
        s2 = [a * a for a in kernels.triangle_sides(*f)]
        area = kernels.signed_area(*f)
        roots = [(sum(s2) + sign * math.sqrt(sum(s2) ** 2 - 48.0 * area * area)) / 3.0 for sign in (1.0, -1.0)]
        (root,) = [r for r in roots if 0.0 < r <= min(s2)]
        plane = sorted((gx + s * row[6], gy + s * row[7]) for i, row in zip(at, rows) if i == k)
        assert len(plane) == 2
        assert max(math.dist(p.as_tuple(), q) for p, q in zip(pair, plane)) <= 1e-12 * t.scale()
        signs = set()
        for p in pair:
            x, y = kernels.frame(*(c for v in t.vertices() for c in v.as_tuple()), *p.as_tuple())[1][6:]
            delta = kernels._sides_deltas(*f, kernels.KIND_P_HYPERBOLA, x, y)[1]
            assert max(abs(a2 - d * d - root) for a2, d in zip(s2, delta)) <= 1e-12
            signs.add(np.sign(delta[int(np.argmax(s2))]))
        assert signs == {1.0, -1.0}


def test_pstar_scan_gives_points_of_one_negative_k():
    # On the same triangles, at every P* the scan in k finds, u_i = s_i^2 -
    # x_i^2 over the focal sums x takes one value for all three members, to
    # 1e-12 s^2, and that value k is negative.
    rng = np.random.default_rng(46)
    ts = [random_triangle(rng) for _ in range(150)] + [random_flat_triangle(rng) for _ in range(50)]
    found = 0
    for t, candidates in zip(ts, loci.pstar_candidates_batch(ts)):
        corners = [c for v in t.vertices() for c in v.as_tuple()]
        for xy, _ in candidates:
            f = kernels.frame(*corners, *xy)[1]
            s2 = [a * a for a in kernels.triangle_sides(*f[:6])]
            x = kernels._sides_deltas(*f[:6], kernels.KIND_P_ELLIPSE, *f[6:])[1]
            u = [a2 - d * d for a2, d in zip(s2, x)]
            assert max(u) - min(u) <= 1e-12 and max(u) < 0.0
            found += 1
    assert found >= len(ts)


def test_trilaterate_on_floats_is_its_array_column():
    # The trilateration gives the bits of its column in one array call, on
    # random and flat triangles in their frames and random distances.
    rng = np.random.default_rng(46)
    ts = [random_triangle(rng) for _ in range(30)] + [random_flat_triangle(rng) for _ in range(10)]
    tri = np.array([loci._framed(t) for t in ts]).T[9:16]
    d = np.abs(rng.normal(size=(3, len(ts))))
    columns = loci._trilaterate(tri, *d)
    for k in range(len(ts)):
        got = loci._trilaterate(tri[:, k].tolist(), *d[:, k].tolist())
        assert [_bits(v) for v in got] == [_bits(c[k]) for c in columns]


# Made-up framed triangles, columns of _trilaterate's tri, whose
# P-hyperbola candidates are not all finite: the quadratic in t has a = 0
# (one root's quotient is inf), k > min s^2 (inadmissible, NaN), and
# 3k^2 - 2k sum(s^2) + 16 area^2 = 0 has no real root (NaN).
_UNFIT_COLUMNS = [(1.0, 0.0, 0.0, 1.0, 2.75, 0.5, 1.5), (1.0, 0.0, 0.0, 0.1, 1.0, 1.0, 1e-3),
                  (1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1e-3)]


def _floats_are_array_columns(candidates):
    """Whether candidates (loci._pstar_candidates or _phyp_candidates) on
    each column's floats give Python floats with the bits of that column's
    candidates in one array call, on _stacked_triangles and _UNFIT_COLUMNS;
    returns the array call's distances.  A NaN counts as NaN: its sign bit
    follows the order in which numpy's loops take their operands."""
    ts = _stacked_triangles()
    tri = np.hstack([np.array([loci._framed(t) for t in ts]).T[9:16], np.transpose(_UNFIT_COLUMNS)])
    with np.errstate(all="ignore"):
        at, d = candidates(tri)
        d = np.asarray(d)
        for k, column in enumerate(tri.T.tolist()):
            got = candidates(column)
            assert {type(v) for row in got for v in row} <= {float}
            assert [[_bits_or_nan(v) for v in row] for row in got] == [
                [_bits_or_nan(v) for v in d[:, i]] for i in np.flatnonzero(at == k)]
    return d


def test_phyp_candidates_on_floats_is_its_array_column():
    # Dropped candidates included: besides the made-up columns' 5, 2 of the
    # 482 candidates of the 241 triangles are not finite.
    d = _floats_are_array_columns(loci._phyp_candidates)
    assert np.isinf(d).any() and (~np.isfinite(d).all(axis=0)).sum() == 7


def test_pstar_candidates_on_floats_is_its_array_column():
    # P*'s distances at each Brent root: 321 on the 241 triangles.
    d = _floats_are_array_columns(loci._pstar_candidates)
    assert d.shape[1] >= 321


@pytest.mark.parametrize("kind", _KINDS)
def test_polish_on_floats_is_its_array_column(kind):
    # The Newton step on one candidate's floats gives floats with the bits
    # of its column in one array call, on the same triangles in their
    # frames, at each candidate of the reduction, 1e-4 off it, and at a
    # NaN driver, whose step is not finite.
    rng = np.random.default_rng(46)
    ts = [random_triangle(rng) for _ in range(30)] + [random_flat_triangle(rng) for _ in range(10)]
    cols = np.array([loci._framed(t) for t in ts]).T
    with np.errstate(all="ignore"):
        at, _, args = loci._candidates(cols, kind)
        at = np.concatenate([at, at, [0]])
        px = np.concatenate([args[7], args[7] + 1e-4, [math.nan]])
        py = np.concatenate([args[8], args[8] - 1e-4, [math.nan]])
        columns = loci._polish((*cols[3:9, at], args[6], px, py), cols[13:16, at])
    for k, (row, s2) in enumerate(zip(np.array([*cols[3:9, at], px, py]).T.tolist(), cols[13:16, at].T.tolist())):
        got = loci._polish((*row[:6], args[6], *row[6:]), s2)
        assert [type(v) for v in got] == [float, float]
        assert [_bits(v) for v in got] == [_bits(c[k]) for c in columns]
    assert at.size >= 2 * len(ts) + 1


@pytest.mark.parametrize("kind", _KINDS)
def test_polish_step_lowers_the_brackets(kind):
    # From 1e-4 (frame units) off each candidate of the reduction, on random
    # and flat triangles, one Newton step brings the brackets u_b - u_a and
    # u_c - u_a at least tenfold closer to zero.
    rng = np.random.default_rng(46)
    ts = [random_triangle(rng) for _ in range(20)] + [random_flat_triangle(rng) for _ in range(5)]
    cols = np.array([loci._framed(t) for t in ts]).T
    at, _, args = loci._candidates(cols, kind)
    s2 = cols[13:16, at]

    def brackets(args):
        x = np.square(kernels._sides_deltas(*args)[1])
        return np.hypot(*(s2[i] - s2[0] - x[i] + x[0] for i in (1, 2)))

    off = (*args[:7], args[7] + 1e-4, args[8] - 1e-4)
    with np.errstate(all="ignore"):
        stepped = (*args[:7], *loci._polish(off, s2))
        assert at.size >= len(ts) and (brackets(stepped) <= 0.1 * brackets(off)).all()


def _is_circle_at(t, p, kind):
    """The search's former validation (reference): the (t, p) triad's
    six-point conic on the object path is a circle concentric with the
    circumcircle."""
    try:
        rep = six_point_conic(build_triad(t, kind, p))
    except TriconicError:
        return False
    if rep.conic_class is not ConicClass.CIRCLE or rep.center is None:
        return False
    cc = circumcircle(t)
    return distance(rep.center, cc.center) <= loci._CONCENTRIC_TOL * cc.radius


def _passes(args):
    """The search's rule: the circle test's worst at most _CONCENTRIC_TOL
    and no fault."""
    worst, faults, _ = loci._circle_conditions(args)
    return bool(worst <= loci._CONCENTRIC_TOL) and not any(mask for mask, _ in faults)


@pytest.mark.parametrize("kind", _KINDS)
def test_float_validation_matches_the_object_path(kind):
    # Every candidate of the reduction before its Newton steps, kept or
    # rejected, and every vertex of the first 30 triangles, gets the answer
    # of the object path's six-point conic from the circle test on floats,
    # each triangle in its frame.  (The functional also vanishes at the
    # vertices, where the conic is no circle.)
    rng = np.random.default_rng(7)
    ts = [random_triangle(rng) for _ in range(300)]
    points = [(row[:6], row[6:]) for row in _candidates(ts, kind)[1]]
    points += [(row[:6], row[k:k + 2]) for row in (loci._framed(t)[3:9] for t in ts[:30]) for k in (0, 2, 4)]
    answers = collections.Counter()
    for corners, xy in points:
        f, p = Triangle(*map(Point2, corners[0::2], corners[1::2])), Point2(*xy)
        got = _passes(_kernel_args(f, kind, p))
        assert got == _is_circle_at(f, p, kind)
        answers[got] += 1
    # 347 and 599 candidates pass, 5 and 1 fail, besides the 90 vertices.
    assert answers[True] >= {"p_ellipse": 340, "p_hyperbola": 590}[kind] and answers[False] > 90
    if kind == "p_ellipse":
        assert sum(len(h) == 3 for h in loci.pstar_candidates_batch(ts)) == 26


@pytest.mark.parametrize("kind", _KINDS)
def test_circle_points_refuse_collinear_framed_corners(kind):
    # The search builds no triangle of its framed corners, yet refuses
    # collinear ones as Triangle does, with Triangle's error.
    corners = (0.0, 0.0, 1.0, 0.0, 2.0, 0.0)
    flat = types.SimpleNamespace(vertices=lambda: tuple(Point2(*corners[k:k + 2]) for k in (0, 2, 4)))
    (got,) = loci._circle_points([flat], kind, 1)
    f = kernels.frame(*corners)[1]
    with pytest.raises(DegenerateTriangle) as want:
        Triangle(*(Point2(*f[k:k + 2]) for k in (0, 2, 4)))
    assert (type(got), str(got)) == (DegenerateTriangle, str(want.value))


def _bits(v):
    return np.float64(v).tobytes()


def _bits_or_nan(v):
    return "nan" if math.isnan(v) else _bits(v)


@pytest.mark.parametrize("kind", _KINDS)
def test_circle_test_on_floats_is_its_array_column_and_the_reference(kind):
    # The circle test on floats gives the bits of its column in one array
    # call, worst and faults, and the search's rule on it the answer of the
    # former float validation (reference_checks.is_circle), at the
    # reduction's candidates, kept and rejected, at points 1e-9 to 1e-2 off
    # each root and at points within 1e-3 of each vertex, on random and
    # flat triangles, each in its frame.
    rng = np.random.default_rng(41)
    ts = [random_triangle(rng) for _ in range(40)] + [random_flat_triangle(rng) for _ in range(20)]
    at, candidates = _candidates(ts, kind)
    code, rows = kernels.KIND_CODES[kind], []
    for k, t in enumerate(ts):
        corners = [c for v in t.vertices() for c in v.as_tuple()]
        roots = loci._circle_points([t], kind, 1)[0]
        roots = [] if isinstance(roots, Exception) else [xy for xy, _ in roots]
        f = kernels.frame(*corners, *(c for xy in roots for c in xy))[1]
        points = [tuple(row[6:]) for i, row in zip(at, candidates) if i == k]
        # Eight points about each root, 1e-9 to 1e-2 off, and about each
        # vertex, 1e-9 to 1e-3 off.
        about = [(xy, 2.0) for xy in zip(f[6::2], f[7::2])] + [(xy, 3.0) for xy in zip(f[0:6:2], f[1:6:2])]
        for (x, y), top in about:
            r, ang = 10.0 ** -rng.uniform(top, 9.0, 8), rng.uniform(0.0, 2.0 * math.pi, 8)
            points += zip((x + r * np.cos(ang)).tolist(), (y + r * np.sin(ang)).tolist())
        rows += [(*f[:6], x, y) for x, y in points]
    cols = np.array(rows).T
    with np.errstate(all="ignore"):
        worst, faults, _ = loci._circle_conditions((*cols[:6], code, *cols[6:]))
    answers = collections.Counter()
    for i, row in enumerate(rows):
        args = (*row[:6], code, *row[6:])
        w, fl, _ = loci._circle_conditions(args)
        assert _bits(w) == _bits(worst[i])
        assert [bool(m) for m, _ in fl] == [bool(m[i]) for m, _ in faults]
        assert [repr(e) for _, e in fl] == [repr(e) for _, e in faults]
        t = Triangle(*(Point2(*row[k:k + 2]) for k in (0, 2, 4)))
        got = _passes(args)
        assert got == is_circle(args, t.scale(), circumcircle(t)), (i, row)
        answers[got] += 1
    assert answers[True] > 100 and answers[False] > 1000


@pytest.mark.parametrize("kind", _KINDS)
def test_circle_test_names_a_degenerate_member_alone(kind):
    # P at the midpoint of BC (a P-ellipse member collapses onto BC) or on
    # its perpendicular bisector (a P-hyperbola member is the bisector):
    # of the circle test's faults only the member rule holds, on floats and
    # in P's array column.
    corners = (0.1, 0.2, 1.3, 0.15, 0.5, 1.1)
    _, _, bx, by, cx, cy = corners
    off = 0.0 if kind == "p_ellipse" else 0.3
    px, py = (bx + cx) / 2.0 + off * (cy - by), (by + cy) / 2.0 - off * (cx - bx)
    code = kernels.KIND_CODES[kind]
    worst, faults, _ = loci._circle_conditions((*corners, code, px, py))
    assert [bool(mask) for mask, _ in faults] == [True, False, False, False]
    assert isinstance(faults[0][1], DegenerateMember) and worst > loci._CONCENTRIC_TOL
    column = loci._circle_conditions((*corners, code, np.array([0.7, px]), np.array([0.5, py])))[1]
    # The circumcenter's rule reads the triangle's floats alone: a bool.
    assert [bool(np.broadcast_to(mask, 2)[1]) for mask, _ in column] == [True, False, False, False]


def test_region_map_circumcircle_boundary(t_generic):
    cc = circumcircle(t_generic)
    n = 41
    grid = region_map(
        t_generic,
        "p_ellipse_over_P",
        (n, n),
        (
            cc.center.x - 1.5 * cc.radius,
            cc.center.x + 1.5 * cc.radius,
            cc.center.y - 1.5 * cc.radius,
            cc.center.y + 1.5 * cc.radius,
        ),
    )
    # Along the middle row, the class flips from hyperbola-side to
    # ellipse-side within one cell of the analytic circle crossing.
    j = n // 2
    y = grid.cell_center(0, j)[1]
    half_chord = math.sqrt(max(cc.radius**2 - (y - cc.center.y) ** 2, 0.0))
    x_cross = cc.center.x + half_chord
    import triconic.kernels as kernels

    flips = []
    prev = None
    for i in range(n):
        x, _ = grid.cell_center(i, j)
        code, detn, _ = kernels.six_point(
            t_generic.a.x, t_generic.a.y, t_generic.b.x, t_generic.b.y,
            t_generic.c.x, t_generic.c.y, kernels.KIND_P_ELLIPSE, x, y,
        )
        if code == kernels.CLASS_FAILED:
            prev = None
            continue
        sgn = detn > 0
        if prev is not None and sgn != prev:
            flips.append(x)
        prev = sgn
    cell_w = (grid.bbox[1] - grid.bbox[0]) / n
    assert any(abs(f - x_cross) <= 1.5 * cell_w for f in flips)


def test_region_map_v_ellipse_deg8_boundary(t_generic):
    # Boundary cells between ellipse and hyperbola regions straddle zero
    # crossings of the degree-8 parabola condition.
    n = 31
    grid = region_map(t_generic, "v_ellipse_over_C", (n, n))
    found = 0
    for j in range(n):
        for i in range(n - 1):
            c1 = grid.cells[j][i]
            c2 = grid.cells[j][i + 1]
            kinds = {c1, c2}
            if not ({"ellipse", "circle"} & kinds and {"hyperbola", "rectangular_hyperbola"} & kinds):
                continue
            x1, y = grid.cell_center(i, j)
            x2, _ = grid.cell_center(i + 1, j)
            try:
                v1 = parabola_deg8_V(*Triangle(t_generic.a, t_generic.b, Point2(x1, y)).sides())
                v2 = parabola_deg8_V(*Triangle(t_generic.a, t_generic.b, Point2(x2, y)).sides())
            except Exception:
                continue
            assert (v1 < 0) != (v2 < 0)
            found += 1
    assert found > 0


def test_region_map_sideline_extension_cells(t_generic):
    # Cells whose centers land on a sideline extension fail construction and
    # are marked degenerate.
    from triconic.loci import RegionGrid

    b, c = t_generic.b, t_generic.c
    u = 1.3
    p = Point2(b.x + u * (c.x - b.x), b.y + u * (c.y - b.y))
    eps = 1e-9
    grid = region_map(
        t_generic, "p_hyperbola_over_P", (2, 2), (p.x - eps, p.x + eps, p.y - eps, p.y + eps)
    )
    # All four tiny cells hug the extension; at least the nearest ones fail.
    assert "degenerate" in {cls for row in grid.cells for cls in row}


def test_trace_zero_set_circle():
    polys = trace_zero_set(lambda x, y: x * x + y * y - 1.0, (-1.3, 1.3, -1.3, 1.3), 64)
    pts = [p for poly in polys for p in poly]
    assert len(pts) > 100
    for p in pts:
        assert abs(math.hypot(p.x, p.y) - 1.0) <= 1e-8
    # Chained into a closed loop: one polyline with matching ends.
    longest = max(polys, key=len)
    assert distance(longest[0], longest[-1]) < 0.1


def test_trace_zero_set_quartic():
    polys = trace_zero_set(
        lambda x, y: x478_quartic(x, y), (-1.2, 1.2, -1.2, 1.2), 96
    )
    pts = [p for poly in polys for p in poly]
    for p in pts:
        assert abs(x478_quartic(p.x, p.y)) <= 1e-9
    for target in (Point2(0.5, 1.0), Point2(-0.5, 1.0), Point2(0.0, 0.0)):
        assert min(distance(p, target) for p in pts) < 0.05
    # x -> -x symmetry of the traced set.
    for p in pts[::7]:
        assert min(abs(q.x + p.x) + abs(q.y - p.y) for q in pts) < 0.05


def test_trace_zero_set_sextic_axis_crossing():
    polys = trace_zero_set(
        lambda x, y: halftangent_sextic(x, y), (-1.0, 1.0, 0.3, 1.3), 96
    )
    pts = [p for poly in polys for p in poly]
    near_axis = [p for p in pts if abs(p.x) < 0.02]
    assert near_axis
    for p in near_axis:
        assert 0.7 < p.y < 0.9  # the single quintic root at y = 3/4


def test_trace_zero_set_counts_a_zero_grid_node_once():
    # y = x^2 is exactly 0 at the grid nodes (0, 0), (1, 1) and (-1, 1) of
    # this box: each is one crossing of its cells, and the curve one polyline.
    polys = trace_zero_set(lambda x, y: y - x * x, (-2, 2, -1, 3), 64)
    assert len(polys) == 1
    # Edge roots are polished by Brent's method, to about 1e-15 of the edge.
    assert max(abs(p.y - p.x * p.x) for p in polys[0]) <= 1e-9


def test_trace_zero_set_leaves_no_sliver_polyline():
    # On each of these x478_quartic grids the curve passes within about
    # 1e-12 of a grid node.  Segments chained by their ends rounded to 9
    # digits left polylines shorter than 1e-9 of the box there: one on each
    # of the first two grids, two on the third.  The first grid is the
    # CLI's `locus --kind zero-set:x478_quartic --samples 400
    # --bbox=-0.8,0.8,-0.3,1.3` (then polylines of 334 and 2 points).
    for bbox, n in (((-0.8, 0.8, -0.3, 1.3), 80), ((-0.8, 0.8, -0.3, 1.3), 160),
                    ((-1.2, 1.2, -1.2, 1.2), 120)):
        size = max(bbox[1] - bbox[0], bbox[3] - bbox[2])
        for poly in trace_zero_set(x478_quartic, bbox, n):
            assert sum(distance(p, q) for p, q in zip(poly, poly[1:])) >= 1e-9 * size, (bbox, n)


def test_trace_zero_set_follows_a_curve_along_a_grid_line():
    # x = 0.25 is the grid column i = 20, where fn is 0 along every edge:
    # both cells beside each edge give its segment, which is kept once.
    polys = trace_zero_set(lambda x, y: x - 0.25, (-1, 1, -1, 1), 32)
    assert [len(poly) for poly in polys] == [33]
    assert {p.x for p in polys[0]} == {0.25}
    ys = [p.y for p in polys[0]]
    assert ys in (sorted(ys), sorted(ys, reverse=True))


def test_trace_zero_set_skips_edges_with_a_non_finite_end():
    # fn is NaN left of x = 0, a grid column here, and 0 on x = 0.25, which
    # is not one: an edge with a NaN end is no crossing, so no polyline
    # runs along x = 0.
    with np.errstate(invalid="ignore"):
        polys = trace_zero_set(lambda x, y: np.sqrt(x) - 0.5, (-1.0, 1.0, -1.0, 1.0), 30)
    assert [len(poly) for poly in polys] == [31]
    assert max(abs(p.x - 0.25) for p in polys[0]) <= 1e-15


def test_covertex_check_v():
    rep = covertex_conic_check("v_ellipse")
    assert rep.residual6 <= 1e-7
    assert rep.conic_class in (ConicClass.HYPERBOLA, ConicClass.RECTANGULAR_HYPERBOLA)
    # Negative control: off the locus the sixth co-vertex misses the conic.
    val = covertex_conconic_V(rep.driver.x + 0.15, rep.driver.y + 0.1)
    assert abs(val) > 1e-6


def test_covertex_check_p_equilateral():
    rep = covertex_conic_check("p_equilateral")
    assert rep.residual6 <= 1e-7
    assert abs(rep.implicit_value) <= 1e-9
    assert rep.center_on_incircle_error <= 1e-7


def test_x55_conjecture(t_generic, equilateral):
    rep = x55_conjecture_check(t_generic)
    assert rep.circle_spread <= 1e-6 * rep.circumradius
    assert rep.concentricity_error <= 1e-6 * rep.circumradius
    assert rep.x7_match_error <= 1e-7 * rep.circumradius
    rep_eq = x55_conjecture_check(equilateral)
    assert rep_eq.circle_spread <= 1e-9


def test_x55_conjecture_solves_no_second_point(t_generic, monkeypatch):
    # P5.5's check (verify._chk_x55) reads the triad's vertices and fit,
    # and never runs the second-point solver.
    calls = collections.Counter()

    def counted(*args, _real=kernels.second_point):
        calls["second_point"] += 1
        return _real(*args)

    monkeypatch.setattr(kernels, "second_point", counted)
    cfg = {"triangle": [list(v.as_tuple()) for v in t_generic.vertices()]}
    verify._chk_x55(verify.ConfigTable.from_dicts([cfg]))
    assert calls == {}
    # The counter is live on the triad the check builds.
    q = classic_center(t_generic, "X55")
    second_common_point(build_triad(reflection_triangle(t_generic, q), "p_hyperbola", q))
    assert calls == {"second_point": 1}


def _cubic(s):
    return (s - 0.3) * (s - 1.1) * (s - 2.05)


def _by_scan(fns):
    # The f(s, k) of a batch scan whose scan k runs fns[k]: on arrays for
    # the grid, on a float s and an int k for the polish.
    def f(s, k):
        if isinstance(k, int):
            return fns[k](s)
        return np.array([fns[j](v) for v, j in zip(s.tolist(), k.tolist())])

    return f


def _scan_one(g, lo, hi, steps):
    # batch_sign_changes of the one scalar function g, as a batch of one.
    return loci.batch_sign_changes(_by_scan([g]), [lo], [hi], steps)[0]


def _reference_scan(g, lo, hi, steps):
    # g's sign changes on the scan grid, each bracketed cell polished by
    # scipy's brentq (the tolerances of loci._brent_cell) from the two end
    # values of the scan.
    optimize = pytest.importorskip("scipy.optimize")
    grid = [lo + (hi - lo) * k / steps for k in range(steps + 1)]
    values = [g(s) for s in grid]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if math.isfinite(fa) and math.isfinite(fb) and (fa < 0.0) != (fb < 0.0):
            held = {a: fa, b: fb}
            roots.append(optimize.brentq(
                lambda x: held[x] if x in held else g(x), a, b, xtol=1e-300, rtol=8.9e-16
            ))
    return roots


def test_bisect_sign_changes_brent_root_within_4_ulp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(mpmath.findroot(lambda x: x**3 - 2 * x - 5, 2.1))
    for lo, hi, steps in ((1.0, 3.0, 60), (0.0, 4.0, 7), (-3.0, 5.0, 13)):
        (got,) = _scan_one(lambda s: s * s * s - 2.0 * s - 5.0, lo, hi, steps)
        assert abs(got - want) <= 4 * math.ulp(want)


def test_bisect_sign_changes_exact_zero_and_nan_cells():
    # A grid zero ending a bracketed cell is the root itself, in either
    # direction of the crossing.
    assert _scan_one(lambda s: s - 0.5, 0.0, 1.0, 2) == [0.5]
    assert _scan_one(lambda s: 0.5 - s, 0.0, 1.0, 2) == [0.5]
    # Zero counts as positive: a grid zero touched from below is reported by
    # both of its cells, one touched from above by neither.
    assert _scan_one(lambda s: -(s - 0.5) ** 2, 0.0, 1.0, 2) == [0.5, 0.5]
    assert _scan_one(lambda s: (s - 0.5) ** 2, 0.0, 1.0, 2) == []

    # Cells with a NaN or infinite end are skipped: the crossing at 0.5
    # sits beside the NaN grid point, the one at 0.75 beside the infinite
    # one, and only the crossing at 0.25 is found.
    def f(s):
        if s == 0.5:
            return math.nan
        if s == 0.8:
            return math.inf
        return -(s - 0.25) * (s - 0.5) * (s - 0.75)

    (root,) = _scan_one(f, 0.0, 1.0, 10)
    assert root == pytest.approx(0.25, abs=1e-15)


def test_bisect_sign_changes_evaluates_no_grid_point_twice():
    # Brent reads each bracketed cell's end values from the scan, so every
    # grid point is evaluated once, in the scan's one call; the polish calls
    # f on a float s and an int k.
    steps = 47
    grid = [0.0 + (3.0 - 0.0) * k / steps for k in range(steps + 1)]
    calls = collections.Counter()
    polish = []

    def g(s):
        calls[s] += 1
        return _cubic(s)

    by_scan = _by_scan([g])

    def f(s, k):
        if not isinstance(s, np.ndarray):
            polish.append((type(s), type(k)))
        return by_scan(s, k)

    (roots,) = loci.batch_sign_changes(f, [0.0], [3.0], steps)
    assert len(roots) == 3
    assert [calls[s] for s in grid] == [1] * len(grid)
    assert len(polish) > 3 and set(polish) == {(float, int)}


def test_batch_sign_changes_match_the_scans_one_by_one():
    # Scans with three crossings, exact grid zeros touched from either side,
    # and NaN and infinite grid values, as one batch: each scan gets the
    # roots of its own reference scan, and with first the first root.
    def bumpy(s):
        if s == 0.5:
            return math.nan
        if s == 0.8:
            return math.inf
        return -(s - 0.25) * (s - 0.5) * (s - 0.75)

    scans = [
        (_cubic, 0.0, 3.0, 47),
        (lambda s: s - 0.5, 0.0, 1.0, 2),
        (lambda s: 0.5 - s, 0.0, 1.0, 2),
        (lambda s: -(s - 0.5) * (s - 0.5), 0.0, 1.0, 2),
        (lambda s: (s - 0.5) * (s - 0.5), 0.0, 1.0, 2),
        (bumpy, 0.0, 1.0, 10),
        (_cubic, 1.2, 1.9, 5),
    ]
    for steps in (2, 10, 47):
        batch = [sc for sc in scans if sc[3] == steps]
        lo, hi = (np.array([sc[k] for sc in batch]) for k in (1, 2))
        f = _by_scan([sc[0] for sc in batch])
        want = [_reference_scan(g, a, b, n) for g, a, b, n in batch]
        assert loci.batch_sign_changes(f, lo, hi, steps) == want
        assert loci.batch_sign_changes(f, lo, hi, steps, first=True) == [
            next(iter(w), None) for w in want
        ]


def test_batch_sign_changes_fail_only_their_own_scan():
    # The second bracketed cell of scan 0 meets a NaN inside: scan 0 fails
    # with _brent_cell's NotConverged on that cell, scan 1 keeps its roots,
    # and with first only each scan's first cell is polished, so scan 0
    # keeps its first root.  Scan 2's one cell runs out of iterations on a
    # ninefold root: it fails with _brent_cell's NotConverged, last iterate
    # and value, with first too.
    def f0(s):
        return math.nan if 1.09 < s < 1.14 else _cubic(s)

    def ninefold(s):
        return (s - 0.3) ** 9

    f = _by_scan([f0, _cubic, ninefold])
    lo, hi = np.array([0.0, 0.0, -1.0]), np.array([3.0, 3.0, 93.0])
    every = loci.batch_sign_changes(f, lo, hi, 47)
    grid = [3.0 * k / 47 for k in range(48)]
    k = next(k for k in range(47) if grid[k] < 1.1 < grid[k + 1])
    with pytest.raises(NotConverged) as err:
        loci._brent_cell(f0, grid[k], grid[k + 1], f0(grid[k]), f0(grid[k + 1]))
    assert isinstance(every[0], NotConverged) and str(every[0]) == str(err.value)
    assert every[1] == _reference_scan(_cubic, 0.0, 3.0, 47)
    first = loci.batch_sign_changes(f, lo, hi, 47, first=True)
    assert first[:2] == [_reference_scan(_cubic, 0.0, 3.0, 47)[0]] * 2
    # Scan 2's grid steps by 2: its cell is [-1, 1].
    with pytest.raises(NotConverged) as err:
        loci._brent_cell(ninefold, -1.0, 1.0, ninefold(-1.0), ninefold(1.0))
    for got in (every[2], first[2]):
        assert isinstance(got, NotConverged) and str(got) == str(err.value)
        assert (got.best, got.value) == (err.value.best, err.value.value)


def test_brent_raises_not_converged_with_its_last_iterate():
    # A ninefold root: Brent's interpolation creeps toward it, and 100
    # iterations do not reach its 4-ulp tolerance.
    f = lambda x: (x - 0.3) ** 9  # noqa: E731
    with pytest.raises(NotConverged) as err:
        loci._brent_cell(f, -1.0, 1.2, f(-1.0), f(1.2))
    assert -1.0 <= err.value.best <= 1.2 and err.value.value == f(err.value.best)
    # A NaN met inside the cell stops the polish the same way.
    g = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5  # noqa: E731
    with pytest.raises(NotConverged) as err:
        loci._brent_cell(g, 0.0, 1.0, -0.5, 0.5)
    assert math.isnan(err.value.value)


def _covertex_locus_V_reference(x, y):
    """covertex_locus_V with 2|CA| and 2|CB| by the package's one length
    rule (kernels._hypot), its powers written as products."""
    rho1, rho2 = 2.0 * kernels._hypot(x + 1.0, y), 2.0 * kernels._hypot(x - 1.0, y)
    x2, y2 = x * x, y * y
    x4, x6, y6 = x2 * x2, x2 * x2 * x2, y2 * y2 * y2
    t1 = (x6 - (2.0 * y2 + 3.0) * x4 - (3.0 * y2 * y2 - 8.0 * y2 - 3.0) * x2
          + 11.0 * y2 * y2 - 6.0 * y2 - 1.0)
    t2 = (-2.0 * x6 - (22.0 * y2 - 6.0) * x4 - (14.0 * y2 * y2 - 36.0 * y2 + 6.0) * x2
          + 6.0 * y6 + 22.0 * y2 * y2 - 14.0 * y2 + 2.0)
    t3 = (x6 + (3.0 * y2 - 3.0) * x4 + (3.0 * y2 * y2 - 2.0 * y2 + 3.0) * x2
          + y6 - 7.0 * y2 * y2 - y2 - 1.0)
    t4 = (2.0 * (x2 + y2 - 1.0) * (5.0 * x2 * x2 + 2.0 * (y2 - 5.0) * x2 - 3.0 * y2 * y2 - 14.0 * y2 + 5.0)
          * (x2 - 1.0))
    return t1 * rho1 * rho2 + t2 * (rho1 + rho2) + 2.0 * x * t3 * (rho1 - rho2) + t4


def test_covertex_locus_measures_with_the_length_rule():
    # 2|CA| and 2|CB| are kernels._hypot's lengths doubled, bit for bit,
    # on floats (as the zero-set tracer reads it) and on arrays (an
    # expanded x*x + y*y +- 2x + 1 differs in the last bits on about a
    # fifth of these points).
    x, y = np.random.default_rng(20).uniform(-2.0, 2.0, (2, 2000))
    assert covertex_locus_V(x, y).tolist() == _covertex_locus_V_reference(x, y).tolist()
    points = list(zip(x.tolist(), y.tolist()))
    want = [_covertex_locus_V_reference(a, b) for a, b in points]
    assert [covertex_locus_V(a, b) for a, b in points] == want


def test_covertex_locus_has_the_roots_of_the_covertex_determinant():
    # The displayed equation at rho = 2|CA|, 2|CB| vanishes where the 6x6
    # design determinant of the six co-vertices does (covertex_conconic_V,
    # on kernels.covertices): along five rays from the origin, s in [0.05,
    # 6], both have the same roots, 4, 3, 2, 2 and 4 of them, to 1e-12.  At
    # rho = |CA|, |CB| the roots part by up to 0.27.
    angles = [0.2, 0.9, 1.4, 2.0, 2.8]
    dx, dy = np.array([math.cos(a) for a in angles]), np.array([math.sin(a) for a in angles])

    def roots(fn):
        f = lambda s, k: fn(s * dx[k], s * dy[k])  # noqa: E731
        return loci.batch_sign_changes(f, [0.05] * 5, [6.0] * 5, 600)

    locus, det = roots(covertex_locus_V), roots(covertex_conconic_V)
    assert [len(r) for r in locus] == [len(r) for r in det] == [4, 3, 2, 2, 4]
    assert max(abs(a - b) for ra, rb in zip(locus, det) for a, b in zip(ra, rb)) <= 1e-12


def test_covertex_locus_gives_floats_the_bits_of_arrays():
    # Written with products, not powers: numpy's power and the float power
    # differ in the last bit on some inputs, so the zero-set tracer's floats
    # and an array scan would part.
    x, y = np.random.default_rng(21).uniform(-2.0, 2.0, (2, 2000))
    want = covertex_locus_V(x, y).tolist()
    assert [covertex_locus_V(a, b) for a, b in zip(x.tolist(), y.tolist())] == want
