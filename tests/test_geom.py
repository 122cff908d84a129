import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from triconic import config, kernels, verify
from triconic.errors import DegenerateTriangle, ParallelLines, PointAtInfinity
from triconic.geom import (
    BaryCoords,
    Point2,
    Triangle,
    bary_to_cartesian,
    collinear,
    distance,
    line_intersection,
    line_through,
    signed_area,
)

from reference_checks import cartesian_to_bary, proj_eq, reflect_about_line, reflect_about_point


def test_triangle_sides_and_semiperimeter(t345):
    assert t345.sides() == (4.0, 3.0, 5.0)
    assert t345.semiperimeter == 6.0


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))


def test_bary_to_cartesian_examples(t345):
    p = bary_to_cartesian(t345, BaryCoords(1, 1, -1))
    assert distance(p, Point2(4, 3)) < 1e-12
    assert distance(bary_to_cartesian(t345, BaryCoords(1, 0, 0)), t345.a) == 0.0
    p = bary_to_cartesian(t345, BaryCoords(0, 3, -1))
    assert distance(p, Point2(6, 0)) < 1e-12


def test_bary_to_cartesian_point_at_infinity(t345):
    with pytest.raises(PointAtInfinity):
        bary_to_cartesian(t345, BaryCoords(1.0, 1.0, -2.0))


def test_cartesian_to_bary_examples(t345):
    centroid = Point2(4 / 3, 1.0)
    b = cartesian_to_bary(t345, centroid).normalized()
    assert proj_eq(b, BaryCoords(1, 1, 1), tol=1e-12)
    assert proj_eq(cartesian_to_bary(t345, t345.b), BaryCoords(0, 1, 0), tol=1e-12)
    assert proj_eq(cartesian_to_bary(t345, Point2(4, 3)), BaryCoords(1, 1, -1), tol=1e-12)


def test_bary_round_trip(rng):
    for _ in range(200):
        pts = rng.uniform(-1, 1, (3, 2))
        try:
            t = Triangle(*(Point2(*q) for q in pts))
        except DegenerateTriangle:
            continue
        b = BaryCoords(*rng.uniform(-1, 1, 3))
        if abs(b.u + b.v + b.w) < 1e-3:
            continue
        p = bary_to_cartesian(t, b)
        assert proj_eq(cartesian_to_bary(t, p), b.normalized(), tol=1e-10)


def test_signed_area():
    assert signed_area(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 0.5
    assert signed_area(Point2(0, 0), Point2(1, 1), Point2(2, 2)) == 0.0
    assert signed_area(Point2(0, 3), Point2(4, 0), Point2(0, 0)) == -6.0


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
def test_signed_area_antisymmetric(px, py, qx, qy, rx, ry):
    p, q, r = Point2(px, py), Point2(qx, qy), Point2(rx, ry)
    # Exact up to roundoff: swapping changes the shoelace anchor point.
    assert signed_area(p, q, r) == pytest.approx(-signed_area(q, p, r), abs=1e-12)


def test_line_ops():
    p = line_intersection(
        line_through(Point2(0, 0), Point2(1, 1)),
        line_through(Point2(0, 1), Point2(1, 0)),
    )
    assert distance(p, Point2(0.5, 0.5)) < 1e-14
    with pytest.raises(ParallelLines):
        line_intersection(
            line_through(Point2(0, 0), Point2(1, 0)),
            line_through(Point2(0, 1), Point2(1, 1)),
        )


def test_reflect_about_point():
    assert distance(reflect_about_point(Point2(0, 0), Point2(2, 1.5)), Point2(4, 3)) == 0.0


def test_reflect_about_line():
    # Mirror of (1,1) over 3x+4y=12: midpoint on the line, offset parallel to
    # the normal; works out to (11/5, 13/5).
    line = line_through(Point2(4, 0), Point2(0, 3))
    q = reflect_about_line(Point2(1, 1), line)
    assert distance(q, Point2(2.2, 2.6)) < 1e-12
    mid = Point2((1 + q.x) / 2, (1 + q.y) / 2)
    assert abs(line.eval_point(mid)) < 1e-12


def test_collinearity_scale_invariant(rng):
    base = [Point2(0.1, 0.7), Point2(0.4, 0.2), Point2(0.9, 0.9)]
    for scale in (1e-3, 1.0, 1e3):
        pts = [Point2(p.x * scale, p.y * scale) for p in base]
        assert not collinear(*pts)
        on_line = [Point2(s * scale, (2 * s + 1) * scale) for s in (0.0, 0.3, 0.8)]
        assert collinear(*on_line)


def _corners(rows):
    return [Point2(x, y) for x, y in zip(rows[::2], rows[1::2])]


def test_object_lengths_are_the_kernel_rule():
    # geom measures every length with kernels._hypot, so Triangle's sides,
    # distance, norm and a line's distance are bit for bit the kernels'
    # (math.hypot differs from it in the last bit on about 1% of inputs).
    rng = np.random.default_rng(34)
    rows = rng.uniform(-1.0, 1.0, (10_000, 6)) * 10.0 ** rng.uniform(-6.0, 6.0, (10_000, 1))
    sides = kernels._sides_deltas(*rows.T, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[0]
    for row, abc in zip(rows.tolist(), np.transpose(sides).tolist()):
        a, b, c = _corners(row)
        assert Triangle(a, b, c).sides() == tuple(abc)
        assert (distance(b, c), (c - a).norm()) == (abc[0], abc[1])
        assert Point2(a.x - b.x, a.y - b.y).norm() == kernels._hypot(a.x - b.x, a.y - b.y) == abc[2]
        line = line_through(b, c)
        assert line.distance_to(a) == abs(line.eval_point(a)) / kernels._hypot(line.l, line.m)


def test_collinear_is_the_triangle_test():
    # kernels.collinear gives Triangle's verdict on floats and on arrays:
    # on random triangles, on ones within a factor 2 of the tolerance, with
    # a zero-length side or all corners at one point.  A corner that is not
    # finite Point2 refuses first; the verifier tests it apart
    # (verify._refused).
    rng = np.random.default_rng(35)
    a, b = rng.uniform(-1.0, 1.0, (2, 500, 2))
    d = b - a
    h = 2.0 * config.get_tol() * 10.0 ** rng.uniform(-0.3, 0.3, (500, 1))
    near = np.hstack((a, b, (a + b) / 2.0 + h * np.column_stack((-d[:, 1], d[:, 0]))))
    odd = [[0.0, 0.0, 0.0, 0.0, 1.0, 2.0], [0.5, 0.5] * 3, [0.0] * 6, [0.0, 0.0, 1.0, 1.0, 3.0, 3.0],
           [math.nan, 0.0, 1.0, 0.0, 0.0, 1.0], [math.inf, 0.0, 1.0, 0.0, 0.0, 1.0],
           [0.0, 0.0, math.inf, 1.0, math.inf, -1.0], [0.0, math.inf, 1.0, -math.inf, 0.0, 0.0]]
    rows = np.vstack((rng.uniform(-1.0, 1.0, (500, 6)), near, odd))
    with np.errstate(invalid="ignore"):
        sides = kernels._sides_deltas(*rows.T, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[0]
        on_arrays = kernels.collinear(*rows.T, sides).tolist()
        refused = verify._refused(tuple(rows.T), sides).tolist()
    verdicts = []
    for row, flat, ref in zip(rows.tolist(), on_arrays, refused):
        try:
            Triangle(*_corners(row))
            verdicts.append(False)
        except (DegenerateTriangle, ValueError):
            verdicts.append(True)
        assert ref == verdicts[-1], row
        if all(map(math.isfinite, row)):
            abc = kernels._sides_deltas(*row, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[0]
            assert kernels.collinear(*row, abc) == flat == verdicts[-1] == collinear(*_corners(row)), row
    assert 100 < sum(verdicts[500:1000]) < 400
    assert not any(verdicts[:500]) and all(verdicts[1000:])


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
@example(0.0, -5e-324, 2.0)
@example(0.0, 2.2250738585e-313, 5e-324)
def test_projective_normalization(u, v, w):
    if u == 0 and v == 0 and w == 0:
        return
    b = BaryCoords(u, v, w)
    n = b.normalized()
    assert max(abs(n.u), abs(n.v), abs(n.w)) == pytest.approx(1.0)
    for t in (n.u, n.v, n.w):
        if t != 0.0:
            assert t > 0.0
            break
    for k in (2.0, -3.5):
        scaled = (k * u, k * v, k * w)
        if any(abs(t) < sys.float_info.min and Fraction(t) != Fraction(k) * Fraction(f) for t, f in zip(scaled, (u, v, w))):
            continue  # a rounded subnormal product keeps too few bits to be k times its factor
        assert proj_eq(BaryCoords(*scaled).normalized(), n, tol=1e-12)
