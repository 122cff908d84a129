import math

import mpmath
import numpy as np
import pytest

from triconic import kernels
from triconic.centers import (
    circumcircle,
    classic_center,
    excircle_tangency_points,
    soddy_centers,
)
from triconic import triads
from triconic.conic import (
    Conic,
    ConicClass,
    conic_conic_intersections,
    conic_from_foci,
    pencil_degenerate_lines,
    residual,
)
from triconic.errors import DegenerateMember, PointOffSideline, TriconicError
from triconic.geom import (
    LineEq,
    Point2,
    Triangle,
    distance,
    line_through,
    midpoint,
)
from triconic.triads import (
    TRIAD_KINDS,
    build_triad,
    pairwise_intersections,
    six_point_conic,
    triad_vertices,
)
from triconic.verify import random_flat_triangle, random_point_near, random_triangle

import reference_checks
from reference_checks import (
    conic_bary_to_cartesian,
    equal_area_check,
    intouch_extouch,
    second_common_point,
    triad_covertices,
    two_branch_chords,
)


def test_axis_lengths_345(t345):
    tre = build_triad(t345, "v_ellipse")
    assert tre.deltas == pytest.approx((8.0, 9.0, 7.0))
    trh = build_triad(t345, "v_hyperbola")
    assert tuple(abs(l) for l in trh.deltas) == pytest.approx((2.0, 1.0, 1.0))


def test_equilateral_p_ellipse_symmetry(equilateral):
    centroid = Point2(0.0, math.sqrt(3) / 6)
    tr = build_triad(equilateral, "p_ellipse", centroid)
    assert tr.deltas == pytest.approx((2 / math.sqrt(3),) * 3)


def test_triad_centers_at_midpoints(t_generic):
    for kind in ("v_ellipse", "v_hyperbola"):
        tr = build_triad(t_generic, kind)
        mids = (
            midpoint(t_generic.b, t_generic.c),
            midpoint(t_generic.c, t_generic.a),
            midpoint(t_generic.a, t_generic.b),
        )
        for m, mid in zip(tr.members, mids):
            assert distance(m.center, mid) < 1e-12


def test_v_ellipse_vertices_are_tangency_points(t345):
    verts = triad_vertices(build_triad(t345, "v_ellipse"))
    tang = excircle_tangency_points(t345)
    for v, q in zip(verts, tang):
        assert distance(v, q) < 1e-12


def test_v_hyperbola_vertices_are_touch_points(t345):
    verts = triad_vertices(build_triad(t345, "v_hyperbola"))
    ins, exts = intouch_extouch(t345)
    assert distance(verts[0], exts[0]) < 1e-12
    assert distance(verts[1], ins[0]) < 1e-12
    assert distance(verts[0], Point2(3, 0)) < 1e-12
    assert distance(verts[1], Point2(1, 0)) < 1e-12


def test_equilateral_covertices(equilateral):
    tr = build_triad(equilateral, "v_ellipse")
    cov = triad_covertices(tr)
    mids = (
        midpoint(equilateral.b, equilateral.c),
        midpoint(equilateral.c, equilateral.a),
        midpoint(equilateral.a, equilateral.b),
    )
    # beta^2 = alpha^2 - c^2 with alpha = 1, c = 1/2.
    for i, mid in enumerate(mids):
        for j in (0, 1):
            assert distance(cov[2 * i + j], mid) == pytest.approx(
                math.sqrt(3) / 2, abs=1e-12
            )


def test_six_point_conic_examples(t345, equilateral):
    rep = six_point_conic(build_triad(t345, "v_ellipse"))
    assert rep.conic_class is ConicClass.DEGENERATE_TWO_LINES
    assert distance(rep.center, Point2(-3.6, -4.8)) < 1e-9
    assert rep.residual6 <= 1e-9
    rep_eq = six_point_conic(build_triad(equilateral, "v_ellipse"))
    assert rep_eq.conic_class is ConicClass.CIRCLE
    from triconic.centers import circumcircle

    assert distance(rep_eq.center, circumcircle(equilateral).center) < 1e-12


def test_privalov_formula_agreement(t345):
    rep = six_point_conic(build_triad(t345, "v_hyperbola"))
    m = np.array(kernels.privalov(*t345.sides()))
    pc = conic_bary_to_cartesian(m / np.linalg.norm(m), t345)
    for v in triad_vertices(build_triad(t345, "v_hyperbola")):
        assert residual(pc, v) <= 1e-9
    diff = min(
        float(np.abs(pc.m - rep.conic.m).max()), float(np.abs(pc.m + rep.conic.m).max())
    )
    assert diff < 1e-9


def test_carnot_product(t345, rng):
    # The product of the six unsigned sideline ratios, with (A1, A2) on
    # line BC, (B1, B2) on CA and (C1, C2) on AB.
    corners = [w for v in t345.vertices() for w in v.as_tuple()]

    def carnot_product(six):
        # The shared sideline rule: its product, and its fault where it holds.
        product, (off, fault) = triads._carnot_rule(corners, [p.x for p in six], [p.y for p in six])
        if off:
            raise fault(0)
        return product

    six = triad_vertices(build_triad(t345, "v_ellipse"))
    assert carnot_product(six) == pytest.approx(1.0, abs=1e-12)
    sixh = triad_vertices(build_triad(t345, "v_hyperbola"))
    assert carnot_product(sixh) == pytest.approx(1.0, abs=1e-12)
    # Perturbing one point along BC breaks the product.
    moved = list(six)
    moved[0] = Point2(moved[0].x + 0.1, moved[0].y)
    assert abs(carnot_product(moved) - 1.0) > 1e-3
    # Off-sideline points are rejected.
    bad = list(six)
    bad[0] = Point2(bad[0].x, bad[0].y + 0.5)
    with pytest.raises(PointOffSideline):
        carnot_product(bad)


def test_a_nan_vertex_is_off_its_sideline():
    # A NaN vertex cannot be shown on its sideline: the Carnot test raises
    # instead of reporting a NaN product.
    nan6 = [math.nan] * 6
    with pytest.raises(PointOffSideline, match=r"Point2\(x=nan, y=nan\) off its sideline"):
        off, fault = triads._carnot_rule((0.0, 0.0, 1.0, 0.0, 0.0, 1.0), nan6, nan6)[1]
        assert off
        raise fault(0)


def test_carnot_rule_names_the_first_vertex_off_its_sideline_in_each_column(t345):
    # On floats and in each column of an array call, the rule's fault names
    # the first vertex off its sideline, and holds only where one is.
    corners = [w for v in t345.vertices() for w in v.as_tuple()]
    six = triad_vertices(build_triad(t345, "v_ellipse"))
    cols = np.array([[p.x for p in six], [p.y for p in six]])[:, :, None].repeat(3, axis=2)
    cols[0, 3, 0] += 0.5  # B2 off CA (x = 0) in column 0
    cols[1, 5, 1] += 0.5  # C2 off AB in column 1, and
    cols[1, 4, 1] -= 0.5  # C1 before it
    off, fault = triads._carnot_rule(corners, cols[0], cols[1])[1]
    assert off.tolist() == [True, True, False]
    for i, k in ((0, 3), (1, 4)):
        x, y = float(cols[0, k, i]), float(cols[1, k, i])
        assert str(fault(i)) == f"Point2(x={x!r}, y={y!r}) off its sideline"
        floats = triads._carnot_rule(corners, cols[0, :, i].tolist(), cols[1, :, i].tolist())[1]
        assert floats[0] and str(floats[1](0)) == str(fault(i))


def test_member_that_degenerates_only_in_the_frame_fails_the_six_point_conic():
    # P 8.8e-7 off the midpoint of BC on its normal, where the a-member's
    # focal sum exceeds |BC| by the member guard to rounding: the guard
    # holds in the triangle's frame (kernels.frame) but not in the plane, so
    # only six_point_conic's framed member rule holds, on floats and in the
    # driver's array column.
    t = Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))
    p = Point2(0.9000006717388133, 0.62500056567479)
    args = triads._kernel_args(t, "p_ellipse", p)
    assert triads.driver_fault(t, "p_ellipse", p) is None
    rules = triads._six_point_rules(args)[-1]
    assert [bool(mask) for mask, _ in rules] == [False, False, False, True, False]
    column = triads._six_point_rules((*args[:7], np.array([0.0, p.x]), np.array([0.0, p.y])))[-1]
    assert [bool(mask[1]) for mask, _ in column] == [False, False, False, True, False]
    with pytest.raises(DegenerateMember, match="a triad member degenerates"):
        six_point_conic(build_triad(t, "p_ellipse", p))


def test_pairwise_intersections_residuals(t456):
    tr = build_triad(t456, "v_ellipse")
    inters = pairwise_intersections(tr)
    cs = [conic_from_foci(m) for m in tr.members]
    pairs = ((1, 2), (2, 0), (0, 1))
    for pts, (i, j) in zip(inters, pairs):
        assert len(pts) == 2
        for q in pts:
            assert residual(cs[i], q) <= 1e-9
            assert residual(cs[j], q) <= 1e-9


def test_chord_line_hand_values(t345):
    # Barycentric chord line of the (b,c) member pair evaluated at the
    # excenter [-a,b,c] and at X20 = [1,1,-1]: -1152 - 108 + 1260 = 0 and
    # 288 - 36 - 252 = 0.
    a, b, c = t345.sides()
    lco = (
        -(b - c) * (a + b + c) ** 2,
        -((a + b - c) ** 2) * (a + c),
        (a + b) * ((a - b + c) ** 2),
    )
    ia = (-a, b, c)
    assert lco[0] * ia[0] == pytest.approx(-1152.0)
    assert lco[1] * ia[1] == pytest.approx(-108.0)
    assert lco[2] * ia[2] == pytest.approx(1260.0)
    assert sum(l * u for l, u in zip(lco, ia)) == pytest.approx(0.0, abs=1e-9)
    x20 = (1, 1, -1)
    assert tuple(l * u for l, u in zip(lco, x20)) == pytest.approx((288.0, -36.0, -252.0))
    assert sum(l * u for l, u in zip(lco, x20)) == pytest.approx(0.0, abs=1e-9)


def test_concurrency_v_ellipse(t456):
    # The chords through the pair points pass through the excenters and X20.
    diam = 2.0 * circumcircle(t456).radius
    x20 = classic_center(t456, "X20")
    worst = 0.0
    for pts, label in zip(pairwise_intersections(build_triad(t456, "v_ellipse")), "ABC"):
        assert len(pts) >= 2
        chord = line_through(pts[0], pts[1])
        for q in (classic_center(t456, f"excenter{label}"), x20):
            worst = max(worst, chord.distance_to(q) / diam)
    assert worst <= 1e-9


def test_concurrency_v_hyperbola(t345):
    # The triad passes through both Soddy centers, and the two-branch
    # chords concur at X8.
    tr = build_triad(t345, "v_hyperbola")
    diam = 2.0 * circumcircle(t345).radius
    centers = [q for q in soddy_centers(t345) if q is not None]
    for member in tr.members:
        for q in centers:
            assert reference_checks.focal_diff_residual(q, member) / diam <= 1e-8
    x8 = classic_center(t345, "X8")
    for chord in two_branch_chords(tr):
        assert chord.distance_to(x8) / diam <= 1e-8
    # X8 chord for the (b,c) pair reduces to x - y + z = 0 for the 3-4-5:
    # contains X8 = [2,3,1].
    a, b, c = t345.sides()
    L = a + b + c
    lco = (
        -2 * a * a + a * b + b * b + a * c - 2 * b * c + c * c,
        (a - c) * (L - 2 * a),
        (a - b) * (L - 2 * a),
    )
    assert lco == pytest.approx((4.0, -4.0, 4.0))
    assert lco[0] * 2 + lco[1] * 3 + lco[2] * 1 == pytest.approx(0.0)


def test_x175_focal_difference(t345):
    x175, _ = soddy_centers(t345)
    # |X175 B| - |X175 C| has magnitude lambda_a = 2 for the a-member.
    assert abs(distance(x175, t345.b) - distance(x175, t345.c)) == pytest.approx(2.0, abs=1e-9)


def test_right_triangle_members_through_x20(t345):
    x20 = classic_center(t345, "X20")
    for m in build_triad(t345, "v_ellipse").members:
        assert residual(conic_from_foci(m), x20) <= 1e-9


def test_isosceles_v_hyperbola_marker():
    t = Triangle(Point2(0, 1.2), Point2(0.7, 0), Point2(-0.7, 0))
    tr = build_triad(t, "v_hyperbola")
    assert tr.members[0] is None
    line = tr.degenerate_lines[0]
    assert line.distance_to(Point2(0, 0)) < 1e-12
    assert line.distance_to(Point2(0, 5)) < 1e-12


def test_second_common_point(t_generic):
    p = Point2(0.62, 0.50)
    tr = build_triad(t_generic, "p_hyperbola", p)
    q = second_common_point(tr)
    for m in tr.members:
        assert (
            abs(abs(distance(q, m.focus1) - distance(q, m.focus2)) - m.axis_length)
            <= 1e-8
        )
    gaps = sorted((abs(l) for l in tr.deltas), reverse=True)
    assert gaps[0] == pytest.approx(gaps[1] + gaps[2], abs=1e-10)


def test_second_point_isosceles_axis_symmetry():
    # P exactly on the axis is excluded (lambda_a = 0 degenerates a member),
    # so the symmetry statement is checked in the off-axis limit: P' stays
    # near the axis, and mirroring P mirrors P'.
    t = Triangle(Point2(0, 1.3), Point2(0.8, 0), Point2(-0.8, 0))
    eps = 1e-6
    q_plus = second_common_point(build_triad(t, "p_hyperbola", Point2(eps, 0.45)))
    q_minus = second_common_point(build_triad(t, "p_hyperbola", Point2(-eps, 0.45)))
    assert abs(q_plus.x) < 1e-3
    assert q_plus.x == pytest.approx(-q_minus.x, abs=1e-9)
    assert q_plus.y == pytest.approx(q_minus.y, abs=1e-9)


def test_equal_areas(t_generic, rng):
    for _ in range(100):
        p = Point2(*rng.uniform(-0.2, 1.4, 2))
        try:
            tr = build_triad(t_generic, "p_hyperbola", p)
        except DegenerateMember:
            continue
        a1, a2 = equal_area_check(tr)
        assert a1 == pytest.approx(a2, rel=1e-9)


def test_equilateral_centroid_medial(equilateral):
    # Limit consistency: V-hyperbola touch triangles of the equilateral are
    # both the medial triangle; here every member degenerates.
    tr = build_triad(equilateral, "v_hyperbola")
    assert all(m is None for m in tr.members)
    verts = triad_vertices(tr)
    mids = (
        midpoint(equilateral.b, equilateral.c),
        midpoint(equilateral.c, equilateral.a),
        midpoint(equilateral.a, equilateral.b),
    )
    for i, mid in enumerate(mids):
        assert distance(verts[2 * i], mid) < 1e-12
        assert distance(verts[2 * i + 1], mid) < 1e-12


def test_incidence_all_kinds(rng):
    for _ in range(200):
        t = random_triangle(rng)
        for kind in ("v_ellipse", "v_hyperbola"):
            tr = build_triad(t, kind)
            if tr.has_degenerate_member():
                continue
            assert six_point_conic(tr).residual6 <= 1e-8
        p = Point2(*rng.uniform(-0.5, 1.5, 2))
        for kind in ("p_ellipse", "p_hyperbola"):
            try:
                tr = build_triad(t, kind, p)
            except DegenerateMember:
                continue
            assert six_point_conic(tr).residual6 <= 1e-8


def test_degenerate_member_errors(t_generic):
    with pytest.raises(DegenerateMember):
        build_triad(t_generic, "p_ellipse", midpoint(t_generic.b, t_generic.c))
    # P on a sideline extension kills a hyperbola member.
    far = Point2(
        t_generic.b.x + 1.6 * (t_generic.c.x - t_generic.b.x),
        t_generic.b.y + 1.6 * (t_generic.c.y - t_generic.b.y),
    )
    with pytest.raises(DegenerateMember):
        build_triad(t_generic, "p_hyperbola", far)
    with pytest.raises(DegenerateMember):
        build_triad(t_generic, "p_hyperbola", t_generic.a)


def _guard_points(t):
    """Drivers on and about the P-triad guards: the vertices, points of the
    sidelines inside and beyond the sides, the circumcenter and points of
    the perpendicular bisectors, each also moved along and across its
    side by 1e-13 and 1e-11 of the scale (either side of the 1e-12 guard),
    and across it by 1e-6 and 2e-6 (where a P-ellipse axis sum passes the
    side length by about the guard)."""
    s = t.scale()
    pts = [circumcircle(t).center]
    for u, v in ((t.b, t.c), (t.c, t.a), (t.a, t.b)):
        d = Point2(v.x - u.x, v.y - u.y)
        e = Point2(d.x / d.norm(), d.y / d.norm())
        n = Point2(-e.y, e.x)
        on_line = [Point2(u.x + k * d.x, u.y + k * d.y) for k in (0.0, 1.0, 0.3, 0.5, -0.6, 1.6)]
        mid = midpoint(u, v)
        on_bisector = [Point2(mid.x + k * s * n.x, mid.y + k * s * n.y) for k in (-0.7, 0.4, 1.3)]
        for q in on_line + on_bisector:
            pts.append(q)
            for off in (1e-13, 1e-11, -1e-13, -1e-11):
                pts.append(Point2(q.x + off * s * n.x, q.y + off * s * n.y))
                pts.append(Point2(q.x + off * s * e.x, q.y + off * s * e.y))
            for off in (1e-6, 2e-6, -1e-6, -2e-6):
                pts.append(Point2(q.x + off * s * n.x, q.y + off * s * n.y))
    return pts


def _guard_reference(t, kind, p):
    """The P-kind member guard written out: True when the triad of driver
    p has all three members.  Sides and distances are the kernel's
    sqrt(dx*dx + dy*dy); a driver on a vertex fails the sum or difference
    test of the two members with a focus there, so it needs no clause."""

    def dist(u, v):
        return math.sqrt((u.x - v.x) * (u.x - v.x) + (u.y - v.y) * (u.y - v.y))

    sides = (dist(t.b, t.c), dist(t.c, t.a), dist(t.a, t.b))
    g = 1e-12 * max(sides)
    pa, pb, pc = dist(p, t.a), dist(p, t.b), dist(p, t.c)
    if kind == "p_ellipse":
        return all(d > s + g for d, s in zip((pb + pc, pc + pa, pa + pb), sides))
    return all(g < abs(d) < s - g for d, s in zip((pb - pc, pc - pa, pa - pb), sides))


def _near_guard_drivers(t, rng):
    """Drivers 1e-14 to 1e-10 of the scale from the vertices, from points of
    the sidelines (inside and beyond the sides) and from points of the
    perpendicular bisectors, in random directions."""
    s = t.scale()
    bases = list(t.vertices()) * 40
    for u, v in ((t.b, t.c), (t.c, t.a), (t.a, t.b)):
        d = Point2(v.x - u.x, v.y - u.y)
        n = Point2(-d.y / d.norm(), d.x / d.norm())
        mid = midpoint(u, v)
        bases += [Point2(u.x + k * d.x, u.y + k * d.y) for k in (0.3, 0.5, -0.6, 1.6)]
        bases += [Point2(mid.x + k * s * n.x, mid.y + k * s * n.y) for k in (-0.7, 0.4, 1.3)]
    out = []
    for q in bases:
        r = s * 10.0 ** rng.uniform(-14.0, -10.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.append(Point2(q.x + r * math.cos(phi), q.y + r * math.sin(phi)))
    return out


def test_driver_fault_is_the_build_triad_guard(t_generic, rng):
    # driver_fault names a fault exactly where build_triad raises
    # DegenerateMember with that message, exactly where the kernel's triad
    # rule (kernels._sides_deltas) flags a member, and exactly where the
    # written-out guard fails; without a fault all three members are built.
    cases = [(t, p) for t in (t_generic, random_triangle(rng)) for p in _guard_points(t)]
    for t in [random_triangle(rng) for _ in range(10)] + [random_flat_triangle(rng)]:
        cases += [(t, p) for p in _near_guard_drivers(t, rng)]
    for _ in range(300):
        t = random_triangle(rng)
        cases.append((t, random_point_near(t, rng)))
        cases.append((t, Point2(*rng.uniform(-0.5, 1.5, 2))))
    faults = {"p_ellipse": 0, "p_hyperbola": 0}
    for t, p in cases:
        corners = (t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y)
        for kind in faults:
            fault = triads.driver_fault(t, kind, p)
            flagged = kernels._sides_deltas(*corners, kernels.KIND_CODES[kind], p.x, p.y)[2]
            assert (fault is None) == (not flagged) == _guard_reference(t, kind, p)
            try:
                tr = build_triad(t, kind, p)
            except DegenerateMember as exc:
                assert str(exc) == fault
                faults[kind] += 1
                continue
            assert fault is None
            assert not tr.has_degenerate_member()
    # The cases reach every guard, and not only from one side.
    assert 0 < faults["p_ellipse"] < len(cases)
    assert 0 < faults["p_hyperbola"] < len(cases)


def test_vhyp_contains_vell_intersections(t456):
    tre = build_triad(t456, "v_ellipse")
    trh = build_triad(t456, "v_hyperbola")
    for i, pts in enumerate(pairwise_intersections(tre)):
        m = trh.members[i]
        for q in pts:
            assert (
                abs(abs(distance(q, m.focus1) - distance(q, m.focus2)) - m.axis_length)
                <= 1e-8
            )


def test_vell_tangent_to_excentral_sides(rng):
    from triconic.conic import tangency_discriminant
    from triconic.centers import classic_center

    for _ in range(50):
        t = random_triangle(rng)
        tr = build_triad(t, "v_ellipse")
        exc = [
            classic_center(t, "excenterA"),
            classic_center(t, "excenterB"),
            classic_center(t, "excenterC"),
        ]
        for idx, vertex in enumerate(t.vertices()):
            others = [exc[k] for k in range(3) if k != idx]
            side = line_through(others[0], others[1])
            con = conic_from_foci(tr.members[idx])
            assert residual(con, vertex) <= 1e-9
            assert abs(tangency_discriminant(con, side)) <= 1e-8


def test_sidelines_are_fifteen_point_cubic(t456):
    sidelines = (
        line_through(t456.b, t456.c),
        line_through(t456.c, t456.a),
        line_through(t456.a, t456.b),
    )
    pts = list(t456.vertices())
    pts += triad_vertices(build_triad(t456, "v_ellipse"))
    pts += triad_vertices(build_triad(t456, "v_hyperbola"))
    assert len(pts) == 15
    for p in pts:
        assert min(ln.distance_to(p) for ln in sidelines) < 1e-9


@pytest.mark.slow
def test_statistical_never_rectangular(rng):
    # 100k random (triangle, P) samples: the P-ellipse six-point conic is
    # never classified as a rectangular hyperbola.
    n = 100_000
    count = 0
    hits = 0
    while count < n:
        # One kernels.six_point call a round of n - count candidates, each
        # read from rng as drawing it alone reads it: the corners
        # rng.uniform(0, 1, (3, 2)), then P rng.uniform(-0.5, 1.5, 2).
        u = rng.random((n - count, 8))
        ax, ay, bx, by, cx, cy = u[:, :6].T
        px, py = (-0.5 + 2.0 * u[:, 6:]).T
        code = kernels.six_point(ax, ay, bx, by, cx, cy, kernels.KIND_P_ELLIPSE, px, py)[0]
        kept = code != kernels.CLASS_FAILED
        count += int(kept.sum())
        hits += int((code[kept] == kernels.CLASS_RECTANGULAR_HYPERBOLA).sum())
    assert hits == 0


_PAIRS = ((1, 2), (2, 0), (0, 1))


def _on_member(q: Point2, m) -> float:
    """Focal residual of q: ||q-F1| +- |q-F2|| - axis length."""
    d1, d2 = distance(q, m.focus1), distance(q, m.focus2)
    return abs((d1 + d2 if m.kind == "ellipse" else abs(d1 - d2)) - m.axis_length)


def _assert_pairs_on_both(tr):
    s = tr.t.scale()
    for pts, (i, j) in zip(pairwise_intersections(tr), _PAIRS):
        assert len(pts) <= 4
        for q in pts:
            assert _on_member(q, tr.members[i]) <= 1e-10 * s
            assert _on_member(q, tr.members[j]) <= 1e-10 * s


def test_pairwise_intersections_phyp_witness_on_both_members():
    # The pencil route returned two points near (0.5668, 0.1361) for pair 1
    # that miss member 0 by 0.165.
    t = Triangle(
        Point2(0.04588513104194858, 0.9904255241620707),
        Point2(0.5791636290277997, 0.0544929731938405),
        Point2(0.5112554483711341, 0.5041045029913964),
    )
    tr = build_triad(t, "p_hyperbola", Point2(0.30616352544012293, 1.8538411955271195))
    assert not any(distance(q, Point2(0.5668, 0.1361)) < 1e-2 for q in pairwise_intersections(tr)[1])
    _assert_pairs_on_both(tr)


def test_pairwise_intersections_vhyp_witness_at_most_four():
    # The pencil route returned 5 points for pair 0, one a 3.7e-7
    # near-duplicate.
    t = Triangle(
        Point2(0.43860811490499096, 0.9763840936654541),
        Point2(0.6603247738173283, 0.9561890938401446),
        Point2(0.688224388368361, 0.6967863944637107),
    )
    tr = build_triad(t, "v_hyperbola")
    assert len(pairwise_intersections(tr)[0]) == 4
    _assert_pairs_on_both(tr)


def _seeded_triads(n: int, seed: int):
    """n triads, the four kinds in turn, on ordinary and flat triangles."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        k = len(out)
        t = random_triangle(rng) if k % 2 == 0 else random_flat_triangle(rng)
        kind = TRIAD_KINDS[(k // 2) % 4]
        p = random_point_near(t, rng) if kind.startswith("p_") else None
        try:
            tr = build_triad(t, kind, p)
            pairwise_intersections(tr)
        except TriconicError:
            continue
        out.append(tr)
    return out


@pytest.mark.parametrize(
    "scale, offset",
    [(1e-3, (0.0, 0.0)), (1e3, (0.0, 0.0)), (1.0, (100.0, 100.0)), (1.0, (1e4, -1e4))],
)
def test_pairwise_intersections_move_with_the_triangle(scale, offset):
    # Same count, and points moved with the triangle to 1e-9 * scale.  The
    # moved vertices and P carry a rounding of about 1e-16 * |offset|, and a
    # crossing at r scales from the centroid moves by O(r^2) times that
    # (a high-precision solve of the moved, rounded inputs lands as far from
    # the moved points), so the bound grows as max(1, r)^2.
    def move(q):
        return Point2(scale * q.x + offset[0], scale * q.y + offset[1])

    for tr in _seeded_triads(400, 8):
        t2 = Triangle(*(move(v) for v in tr.t.vertices()))
        tr2 = build_triad(t2, tr.kind, None if tr.p is None else move(tr.p))
        s = t2.scale()
        g = Point2(sum(v.x for v in t2.vertices()) / 3.0, sum(v.y for v in t2.vertices()) / 3.0)
        for want, got in zip(pairwise_intersections(tr), pairwise_intersections(tr2)):
            assert len(got) == len(want)
            for q in map(move, want):
                r = distance(q, g) / s
                assert min(distance(q, z) for z in got) <= 1e-9 * s * max(1.0, r) ** 2


def test_pairwise_intersections_keep_every_pencil_point():
    # Every point of the general pencil route lies on both members and has
    # a point of the focal route beside it.
    for tr in _seeded_triads(400, 9):
        s = tr.t.scale()
        cs = [conic_from_foci(m) for m in tr.members]
        for got, (i, j) in zip(pairwise_intersections(tr), _PAIRS):
            assert len(got) <= 4
            for q in got:
                assert max(_on_member(q, tr.members[i]), _on_member(q, tr.members[j])) <= 1e-10 * s
            for q in conic_conic_intersections(cs[i], cs[j]):
                assert max(_on_member(q, tr.members[i]), _on_member(q, tr.members[j])) <= 1e-9 * s
                tol = 1e-6 * max(s, math.hypot(q.x, q.y))
                assert min(distance(q, z) for z in got) <= tol


def _mp_unit(c) -> list:
    """The coefficients (xx, xy, yy, x, y, 1) of the conic c over their
    Frobenius norm, in the working precision of mpmath."""
    co = [mpmath.mpf(t) for t in c.coeffs()]
    A, B, C, D, E, F = co
    n = mpmath.sqrt(A * A + C * C + F * F + (B * B + D * D + E * E) / 2)
    return [t / n for t in co]


def _mp_value_grad(co, x, y) -> tuple:
    A, B, C, D, E, F = co
    return A * x * x + B * x * y + C * y * y + D * x + E * y + F, 2 * A * x + B * y + D, B * x + 2 * C * y + E


def test_pencil_points_hold_in_50_digits():
    # conic_conic_intersections meets its lines and polishes its points by
    # pair_points' own kernels, so comparing the two routes tests neither
    # step.  In 50 digits: every point of the pencil route, on 150 focal
    # pairs of the four kinds and on two circles, lies on both conics to
    # the polish's 1e-7, and where the conics cross at 1e-3 rad or more,
    # Newton on both moves it by at most 1e-9 * max(1, |q|).  Shallower
    # crossings (a few in a thousand points) are near-tangent pairs, where
    # a point is only as good as the crossing is steep.  Each focal pair
    # gets the focal route's count.
    pairs = [(Conic.from_coeffs([1, 0, 1, 0, 0, -1]), Conic.from_coeffs([1, 0, 1, -2, 0, 0]), 2)]
    for tr in _seeded_triads(50, 12):
        cs = [conic_from_foci(m) for m in tr.members]
        pairs.extend((cs[i], cs[j], len(got)) for got, (i, j) in zip(pairwise_intersections(tr), _PAIRS))
    points, shallow = 0, 0
    with mpmath.workdps(50):
        steep = mpmath.sin(mpmath.mpf("1e-3"))
        for c1, c2, count in pairs:
            m1, m2 = _mp_unit(c1), _mp_unit(c2)
            got = conic_conic_intersections(c1, c2)
            assert len(got) == count
            for q in got:
                points += 1
                x, y = mpmath.mpf(q.x), mpmath.mpf(q.y)
                (f1, gx1, gy1), (f2, gx2, gy2) = _mp_value_grad(m1, x, y), _mp_value_grad(m2, x, y)
                assert max(abs(f1), abs(f2)) / (x * x + y * y + 1) <= 1e-7
                det = gx1 * gy2 - gy1 * gx2
                if abs(det) < steep * mpmath.hypot(gx1, gy1) * mpmath.hypot(gx2, gy2):
                    shallow += 1
                    continue
                for _ in range(20):
                    x, y = x + (-f1 * gy2 + f2 * gy1) / det, y + (-f2 * gx1 + f1 * gx2) / det
                    (f1, gx1, gy1), (f2, gx2, gy2) = _mp_value_grad(m1, x, y), _mp_value_grad(m2, x, y)
                    det = gx1 * gy2 - gy1 * gx2
                assert max(abs(f1), abs(f2)) <= mpmath.mpf("1e-40") * (x * x + y * y + 1)
                assert mpmath.hypot(x - q.x, y - q.y) <= 1e-9 * max(1.0, math.hypot(q.x, q.y))
    print(f"{points} points, {shallow} crossing below 1e-3 rad")
    assert points >= 300 and shallow <= points // 100


@pytest.mark.parametrize("kind, corners, p, pair", [
    ("p_hyperbola", [(0.0, 0.0), (1.3867865697492672, 0.0), (0.8253134463038335, 0.055165720007032515)],
     (-0.29880478439533514, 0.05590602936548962), 1),
    ("p_ellipse", [(0.0, 0.0), (0.8809815392930875, 0.0), (0.49958690268620587, 0.04124973779983253)],
     (-0.4110257753552273, 0.020094525966322566), 1),
    ("v_hyperbola", [(0.06556315241841992, 0.9644613401603573), (0.6457213655596336, 0.9469066664934074),
                     (0.3493843588720956, 0.755221576661414)], None, 0),
], ids=["p_hyperbola", "p_ellipse", "v_hyperbola"])
def test_pencil_route_keeps_no_unpolished_point(kind, corners, p, pair):
    # Flat triangles whose pairs meet in close crossings.  Lines "split" off
    # the second conic, which is not degenerate, give the P-kinds a
    # candidate that three Newton steps leave 1e-6 of the scale short of P,
    # on both conics to 1e-7 and apart from P's own point: a third point
    # where the pair has two.  On the V-hyperbola pair the pencil's lines
    # are poor enough that three steps leave points 2.5e-9 of the scale
    # off, and six converge.
    tr = build_triad(Triangle(*(Point2(*v) for v in corners)), kind, None if p is None else Point2(*p))
    cs = [conic_from_foci(m) for m in tr.members]
    i, j = _PAIRS[pair]
    want = pairwise_intersections(tr)[pair]
    got = conic_conic_intersections(cs[i], cs[j])
    assert len(got) == len(want)
    assert all(min(distance(q, z) for z in want) <= 1e-11 * tr.t.scale() for q in got)


def _unit_line(line):
    h = math.hypot(line.l, line.m)
    v = np.array([line.l, line.m, line.n]) / h
    return v if v[np.argmax(np.abs(v))] > 0 else -v


def test_two_branch_chord_matches_pencil_chord():
    # The chord against the pencil route's: of the pencil's degenerate
    # members, the one with a line through X175/X176 has the chord as its
    # other line.  That route accepted the Soddy line to 1e-6 * scale and
    # raised NotFound otherwise (once here, on a nearly isosceles triangle
    # whose pencil chord misses X8 by 1e-3 * scale).  Every chord passes
    # through X8, and the discarded line of the focal pair is the Soddy line.
    rng = np.random.default_rng(10)
    n = compared = 0
    while n < 1000:
        t = random_triangle(rng) if n % 2 == 0 else random_flat_triangle(rng)
        tr = build_triad(t, "v_hyperbola")
        if tr.has_degenerate_member():
            continue
        n += 1
        centers = [q for q in soddy_centers(t) if q is not None]
        x8 = classic_center(t, "X8")
        args = triads._kernel_args(t, "v_hyperbola", None)
        (gx, gy, s), _, _, pairs, _ = kernels.focal_pairs(*args)
        framed = [Point2((q.x - gx) / s, (q.y - gy) / s) for q in centers]
        cs = [conic_from_foci(m) for m in tr.members]
        chords = two_branch_chords(tr)
        for idx, (i, j) in enumerate(_PAIRS):
            chord = chords[idx]
            assert chord.distance_to(x8) <= 1e-9 * s
            score, pencil_chord = min(
                ((max(a.distance_to(q) for q in centers), b)
                 for a, b in pencil_degenerate_lines(cs[i], cs[j])
                 for a, b in ((a, b), (b, a))),
                key=lambda sb: sb[0],
            )
            if score <= 1e-6 * s:
                compared += 1
                assert np.abs(_unit_line(chord) - _unit_line(pencil_chord)).max() <= 1e-9
            lines = [LineEq(*line) for line in pairs[idx][2]]
            soddy = min(lines, key=lambda line: max(line.distance_to(q) for q in framed))
            assert max(soddy.distance_to(q) for q in framed) <= 1e-9
    assert compared >= 2990


def test_two_branch_chords_solve_the_pairs_once(t345, monkeypatch):
    # All three chords come from one focal-pair solve and one Soddy-center
    # computation.
    calls = {"focal_pairs": 0, "soddy_centers": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kernels, "focal_pairs", counted("focal_pairs", kernels.focal_pairs))
    monkeypatch.setattr(reference_checks, "soddy_centers",
                        counted("soddy_centers", reference_checks.soddy_centers))
    rng = np.random.default_rng(11)
    for t in (t345, random_triangle(rng), random_flat_triangle(rng)):
        before = dict(calls)
        assert len(two_branch_chords(build_triad(t, "v_hyperbola"))) == 3
        assert {k: calls[k] - before[k] for k in calls} == {"focal_pairs": 1, "soddy_centers": 1}


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 9))
def test_pair_propositions_pass_at_seeds_1_to_8(seed):
    # The propositions that rest on the pair points, at their default
    # trials: every trial checked, none crashed, each below its bound.
    from triconic.verify import run_proposition

    for prop in (
        "P2.4-chords-x20",
        "P4.7-vhyp-through-vell-intersections",
        "P4.8-chords-x8",
        "P5.1-second-point",
        "P5.6-phyp-through-pell-intersections",
    ):
        r = run_proposition(prop, seed=seed)
        assert r.passed and r.crashed == 0, (prop, r.note)
