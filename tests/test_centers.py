import math
from dataclasses import replace

import numpy as np
import pytest

from triconic import kernels
from triconic.centers import (
    center_bary,
    circumcircle,
    classic_center,
    excircle_tangency_points,
    half_tangent_sum,
    incircle,
    kissing_circles,
    soddy,
    soddy_centers,
)
from triconic.errors import DegenerateResult
from triconic.geom import BaryCoords, Point2, Triangle, bary_to_cartesian, distance
from triconic.verify import random_triangle

import reference_checks
from reference_checks import (
    _sextic_triangles,
    anticevian_triangle,
    cevian_triangle,
    excircles,
    intouch_extouch,
    reflection_triangle,
)


def test_classic_centers_345(t345):
    assert distance(classic_center(t345, "X8"), Point2(2, 1)) < 1e-12
    assert distance(classic_center(t345, "X20"), Point2(4, 3)) < 1e-12
    assert reference_checks.proj_eq(center_bary(t345, "X20"), BaryCoords(1, 1, -1), tol=1e-12)


def test_equilateral_centers_coincide(equilateral):
    centroid = bary_to_cartesian(equilateral, BaryCoords(1, 1, 1))
    for cid in ("X3", "X4", "X6", "X7", "X8", "X20"):
        assert distance(classic_center(equilateral, cid), centroid) < 1e-12


def test_incircle_excircles_circumcircle(t345):
    inc = incircle(t345)
    assert distance(inc.center, Point2(1, 1)) < 1e-12
    assert inc.radius == pytest.approx(1.0)
    cc = circumcircle(t345)
    assert distance(cc.center, Point2(2, 1.5)) < 1e-12
    assert cc.radius == pytest.approx(2.5)
    ra, rb, rc = (c.radius for c in excircles(t345))
    # r_X = area / (s - side): 6/2, 6/3, 6/1
    assert (ra, rb, rc) == pytest.approx((3.0, 2.0, 6.0))


def test_equilateral_radii():
    t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0.5, math.sqrt(3) / 2))
    assert circumcircle(t).radius == pytest.approx(1 / math.sqrt(3))
    assert incircle(t).radius == pytest.approx(1 / (2 * math.sqrt(3)))


def test_excircle_tangency_points_345(t345):
    pts = excircle_tangency_points(t345)
    expect = [(6, 0), (-2, 0), (0, -3), (0, 6), (-0.8, 3.6), (4.8, -0.6)]
    for p, e in zip(pts, expect):
        assert distance(p, Point2(*e)) < 1e-12


def test_tangency_lengths_eq1(rng):
    # |C A1| = p, |B A1| = p - a, and the pair spans |A1 A2| = b + c.
    for _ in range(50):
        t = random_triangle(rng)
        a, b, c = t.sides()
        p = t.semiperimeter
        A1, A2, B1, B2, C1, C2 = excircle_tangency_points(t)
        assert distance(t.c, A1) == pytest.approx(p, abs=1e-10)
        assert distance(t.b, A1) == pytest.approx(p - a, abs=1e-10)
        assert distance(t.b, A2) == pytest.approx(p, abs=1e-10)
        assert distance(t.c, A2) == pytest.approx(p - a, abs=1e-10)
        assert distance(t.a, B1) == pytest.approx(p, abs=1e-10)
        assert distance(t.c, B1) == pytest.approx(p - b, abs=1e-10)
        assert distance(t.a, C1) == pytest.approx(p - c, abs=1e-10)
        assert distance(t.b, C1) == pytest.approx(p, abs=1e-10)
        assert distance(A1, A2) == pytest.approx(b + c, abs=1e-10)


def test_intouch_extouch_345(t345):
    ins, exts = intouch_extouch(t345)
    assert distance(ins[0], Point2(1, 0)) < 1e-12
    assert distance(exts[0], Point2(3, 0)) < 1e-12


def test_intouch_extouch_equal_area(rng):
    from triconic.geom import signed_area

    for _ in range(50):
        t = random_triangle(rng)
        ins, exts = intouch_extouch(t)
        a1 = abs(signed_area(*ins))
        a2 = abs(signed_area(*exts))
        assert a1 == pytest.approx(a2, rel=1e-9)


def test_kissing_circles(t345):
    ca, cb, cc = kissing_circles(t345)
    assert (ca.radius, cb.radius, cc.radius) == pytest.approx((2.0, 3.0, 1.0))
    # B and C circles touch at the intouch point on BC.
    touch = Point2(1, 0)
    assert distance(cb.center, touch) == pytest.approx(cb.radius)
    assert distance(cc.center, touch) == pytest.approx(cc.radius)


def test_kissing_tangency_is_intouch(rng):
    for _ in range(50):
        t = random_triangle(rng)
        ca, cb, cc = kissing_circles(t)
        ins, _ = intouch_extouch(t)
        # Pairwise tangency: center gap equals radius sum; touch point is
        # the intouch point of the shared side.
        for (c1, c2, touch) in ((cb, cc, ins[0]), (cc, ca, ins[1]), (ca, cb, ins[2])):
            gap = distance(c1.center, c2.center)
            assert gap == pytest.approx(c1.radius + c2.radius, rel=1e-12)
            on = Point2(
                c1.center.x + (c2.center.x - c1.center.x) * c1.radius / gap,
                c1.center.y + (c2.center.y - c1.center.y) * c1.radius / gap,
            )
            assert distance(on, touch) < 1e-10 * t.scale()


def test_soddy_345(t345):
    cfg = soddy(t345)
    assert cfg.inner.radius == pytest.approx(6 / 23, abs=1e-12)
    assert cfg.regime == "contains"
    assert cfg.half_tangent_sum == pytest.approx(11 / 6)
    assert cfg.outer_circle.radius == pytest.approx(6.0, abs=1e-10)
    assert distance(cfg.outer_circle.center, Point2(4, 3)) < 1e-10
    # Isoperimetric sums |XB|+|XC|+a agree at X175.
    x175 = cfg.outer_circle.center
    sums = [
        distance(x175, t345.b) + distance(x175, t345.c) + t345.side_a,
        distance(x175, t345.c) + distance(x175, t345.a) + t345.side_b,
        distance(x175, t345.a) + distance(x175, t345.b) + t345.side_c,
    ]
    assert max(sums) - min(sums) < 1e-9
    assert sums[0] == pytest.approx(12.0, abs=1e-9)


def test_soddy_centers_345(t345):
    x175, x176 = soddy_centers(t345)
    assert distance(x175, Point2(4, 3)) < 1e-10
    d = (distance(x176, t345.a), distance(x176, t345.b), distance(x176, t345.c))
    assert d == pytest.approx((52 / 23, 75 / 23, 29 / 23), abs=1e-10)


def test_soddy_centers_where_two_distance_circles_nearly_touch():
    # X175 lies about 1e-6 from line AB, where the distance circles about A
    # and B nearly touch: trilaterated from them it sat 1.1e-10 of the scale
    # from the point of its barycentrics a - area / (s - a), ...  The
    # centers now come from those barycentrics (kernels.soddy_centers).
    t = Triangle(Point2(0.7998428894682234, 0.13702166299284935),
                 Point2(0.021329773416469577, 0.41849140906435955),
                 Point2(0.5331585068509609, 0.8129296235405149))
    for sign, q in zip((-1.0, 1.0), soddy_centers(t)):
        bary = BaryCoords(*(v + sign * t.area / (t.semiperimeter - v) for v in t.sides()))
        assert distance(q, bary_to_cartesian(t, bary)) < 1e-14 * t.scale()


def test_equal_detour_at_x176(rng):
    for _ in range(100):
        t = random_triangle(rng)
        _, x176 = soddy_centers(t)
        a, b, c = t.sides()
        det = [
            distance(x176, t.b) + distance(x176, t.c) - a,
            distance(x176, t.c) + distance(x176, t.a) - b,
            distance(x176, t.a) + distance(x176, t.b) - c,
        ]
        assert max(det) - min(det) < 1e-8 * (a + b + c)


def test_inner_soddy_tangent_to_kissing(rng):
    for _ in range(500):
        t = random_triangle(rng)
        cfg = soddy(t)
        for kc in cfg.kissing:
            gap = distance(cfg.inner.center, kc.center)
            assert abs(gap - (cfg.inner.radius + kc.radius)) < 1e-8 * t.scale()


def test_regime_sign_matches_descartes(rng):
    for _ in range(1000):
        t = random_triangle(rng)
        k = [1.0 / c.radius for c in kissing_circles(t)]
        k_out = sum(k) - 2.0 * math.sqrt(k[0] * k[1] + k[1] * k[2] + k[2] * k[0])
        hts = half_tangent_sum(t)
        if abs(k_out) < 1e-9 * sum(k):
            continue
        assert (k_out < 0.0) == (hts < 2.0)


def test_soddy_external_regime():
    # Flat triangle: half-tangent sum over 2, outer circle externally tangent.
    t = Triangle(Point2(0, 0), Point2(1, 0), Point2(0.5, 0.05))
    cfg = soddy(t)
    assert cfg.half_tangent_sum > 2.0
    assert cfg.regime == "external"
    for kc in cfg.kissing:
        gap = distance(cfg.outer_circle.center, kc.center)
        assert abs(gap - (cfg.outer_circle.radius + kc.radius)) < 1e-8


@pytest.mark.parametrize("x", [-0.4, -0.1, 0.1, 0.35])
def test_one_soddy_regime_rule_on_and_near_the_sextic(x):
    # On the half-tangent sextic the outer Soddy circle is the Soddy line.
    # With C's height moved by a relative 3e-10, X175 is still at infinity
    # by kernels.bary_point's rule (under the default tolerance), and so
    # the regime is still "line" and classic_center finds no X175.
    (t,) = _sextic_triangles([x])
    moved = [Triangle(t.a, t.b, Point2(t.c.x, t.c.y * (1.0 + rel))) for rel in (0.0, 3e-10, -3e-10)]
    assert [soddy(m).regime for m in moved] == ["line"] * 3
    for m in moved:
        with pytest.raises(DegenerateResult):
            classic_center(m, "X175")
        corners = [c for v in m.vertices() for c in v.as_tuple()]
        _, (_, _, far), _ = kernels.soddy(corners, m.sides())
        assert far is True
    # Off the sextic X175 is finite, the outer circle back.
    assert soddy(Triangle(t.a, t.b, Point2(t.c.x, t.c.y * (1.0 + 1e-8)))).regime != "line"


def test_soddy_rule_on_arrays_gives_the_bits_of_its_float_calls():
    ts = _sextic_triangles(np.linspace(-0.45, 0.45, 19))
    corners = np.array([[c for v in t.vertices() for c in v.as_tuple()] for t in ts]).T
    with np.errstate(all="ignore"):  # X175's barycentrics may sum to 0
        inner, (_, _, far), line = kernels.soddy(tuple(corners), kernels.triangle_sides(*corners))
    for k, t in enumerate(ts):
        one_inner, (_, _, one_far), one_line = kernels.soddy(corners[:, k].tolist(), t.sides())
        assert [v[k].item() for v in (*inner, far, *line)] == [*one_inner, one_far, *one_line]


def test_cevian_anticevian(t_generic, rng):
    centroid = BaryCoords(1, 1, 1)
    med = cevian_triangle(t_generic, centroid)
    from triconic.geom import midpoint

    assert distance(med.a, midpoint(t_generic.b, t_generic.c)) < 1e-12
    q = BaryCoords(0.4, 1.2, 0.7)
    anti = anticevian_triangle(t_generic, q)
    # The reference is the q-cevian of its q-anticevian.
    q_cart = bary_to_cartesian(t_generic, q)
    q_in_anti = reference_checks.cartesian_to_bary(anti, q_cart)
    back = cevian_triangle(anti, q_in_anti)
    for v, w in zip(back.vertices(), t_generic.vertices()):
        assert distance(v, w) < 1e-9
    # A vertex has no cevian triangle, a sideline point a collinear one.
    for q in (BaryCoords(1.0, 0.0, 0.0), BaryCoords(0.3, 0.7, 0.0)):
        with pytest.raises(DegenerateResult):
            cevian_triangle(t_generic, q)


def test_reflection_triangle(t345):
    refl = reflection_triangle(t345, Point2(1, 1))
    assert distance(refl.a, Point2(1, -1)) < 1e-12  # over BC (y = 0)
    assert distance(refl.b, Point2(-1, 1)) < 1e-12  # over CA (x = 0)
    assert distance(refl.c, Point2(2.2, 2.6)) < 1e-12  # over AB (3x+4y=12)


def test_reflection_triangle_degenerate_vs_bug(t345, monkeypatch):
    # Reflections of a circumcircle point over the sidelines are collinear
    # (they lie on its Steiner line).
    cc = circumcircle(t345)
    on_circle = Point2(cc.center.x + cc.radius, cc.center.y)
    with pytest.raises(DegenerateResult):
        reflection_triangle(t345, on_circle)

    def broken(*args):
        raise TypeError("bug")

    monkeypatch.setattr(reference_checks, "Triangle", broken)
    with pytest.raises(TypeError):
        reflection_triangle(t345, Point2(1, 1))


def test_classic_center_constructed_ids(t456):
    from triconic.conic import center as conic_center
    from triconic.triads import build_triad, six_point_conic

    assert distance(classic_center(t456, "X1"), incircle(t456).center) < 1e-12
    x478 = classic_center(t456, "X478")
    rep = six_point_conic(build_triad(t456, "v_ellipse"))
    assert distance(x478, conic_center(rep.conic)) < 1e-12
    x5452 = classic_center(t456, "X5452")
    reph = six_point_conic(build_triad(t456, "v_hyperbola"))
    assert distance(x5452, conic_center(reph.conic)) < 1e-12
    x175, x176 = soddy_centers(t456)
    assert distance(classic_center(t456, "X175"), x175) < 1e-12
    assert distance(classic_center(t456, "X176"), x176) < 1e-12


@pytest.mark.parametrize("center_id", ["X478", "X5452"])
def test_six_point_centers_move_with_the_triangle(center_id):
    # The six-point conic's center comes from the frame of its fit, so it
    # survives scaling by 1e3 and translation by (1e4, 1e4).
    t = random_triangle(np.random.default_rng(5))
    base = classic_center(t, center_id)
    for move in (lambda p: Point2(1e3 * p.x, 1e3 * p.y), lambda p: Point2(p.x + 1e4, p.y + 1e4)):
        moved = Triangle(*(move(v) for v in t.vertices()))
        assert distance(classic_center(moved, center_id), move(base)) <= 1e-9 * moved.scale()


def test_six_point_center_without_finite_center_is_degenerate_result(t456, monkeypatch):
    from triconic import triads

    rep = triads.six_point_conic(triads.build_triad(t456, "v_ellipse"))
    monkeypatch.setattr(triads, "six_point_conic", lambda tr: replace(rep, center=None))
    with pytest.raises(DegenerateResult):
        classic_center(t456, "X478")
