"""Results that move with the triangle.

Region-map classes, six-point conic classes and centers, and the P3.2/P5.4
circle points must not change when the triangle is translated (up to 1e4),
rotated or scaled (1e-3 to 1e3).  Classes are judged against a 50-digit
mpmath fit outside a margin band around the class boundaries.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triconic.centers import circumcircle
from triconic.kernels import classify_code
from triconic.conic import ConicClass
from triconic.errors import TriconicError
from triconic.geom import Point2, Triangle, distance
from triconic.loci import (
    REGION_KINDS,
    find_phyp_circle_points,
    find_pstar_candidates,
    region_map,
)
from triconic.triads import TRIAD_KINDS, build_triad, six_point_conic
from triconic.verify import random_point_near, random_triangle

from reference_checks import point_at

# Cells within this of a class boundary are not judged (perfbench's
# REGION_MARGIN): normalized det or discriminant, or a member's relative
# distance from collapsing.
MARGIN = 1e-6

ELLIPTIC = ("circle", "ellipse")
HYPERBOLIC = ("hyperbola", "rectangular_hyperbola")

moves = st.tuples(
    st.floats(-1e4, 1e4),
    st.floats(-1e4, 1e4),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-3.0, 3.0),
)

invariance = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def _mover(move):
    """The similarity q -> s R q + (tx, ty) of a drawn move, on Point2s."""
    tx, ty, angle, log_scale = move
    s = 10.0**log_scale
    c, d = s * math.cos(angle), s * math.sin(angle)
    return lambda p: Point2(c * p.x - d * p.y + tx, d * p.x + c * p.y + ty), s


def _precision(move):
    """Relative precision of a moved triangle of unit size: one ulp of its
    position over its size."""
    tx, ty, _, log_scale = move
    return 2.0**-52 * max(1.0, max(abs(tx), abs(ty)) / 10.0**log_scale)


def _moved(t, f):
    return Triangle(*(f(v) for v in t.vertices()))


def _mp_elliptic(tri, kind, driver):
    """True or False for an ellipse- or hyperbola-type six-point conic of a
    region-map cell at 50 digits, None within MARGIN of a class boundary."""
    with mpmath.workdps(50):
        A, B, C = (tuple(mpmath.mpf(t) for t in v.as_tuple()) for v in tri.vertices())
        P = tuple(mpmath.mpf(t) for t in driver)
        if kind == "v_ellipse_over_C":
            C = P

        def dist(p, q):
            return mpmath.sqrt((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)

        a, b, c = dist(B, C), dist(C, A), dist(A, B)
        if kind == "v_ellipse_over_C":
            d = (b + c, c + a, a + b)
            cross = (B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0])
            clear = abs(cross) / max(a, b, c) ** 2 >= MARGIN
        else:
            pa, pb, pc = dist(P, A), dist(P, B), dist(P, C)
            if kind == "p_ellipse_over_P":
                d = (pb + pc, pc + pa, pa + pb)
                clear = min((x - s) / s for x, s in zip(d, (a, b, c))) >= MARGIN
            else:
                d = (pb - pc, pc - pa, pa - pb)
                rel = [abs(x) / s for x, s in zip(d, (a, b, c))]
                clear = min(rel) >= MARGIN and min(1 - r for r in rel) >= MARGIN
        if not clear:
            return None
        pts = []
        for (f1, f2), h, s in zip(((B, C), (C, A), (A, B)), d, (a, b, c)):
            ux, uy = (f1[0] - f2[0]) / s, (f1[1] - f2[1]) / s
            mx, my = (f1[0] + f2[0]) / 2, (f1[1] + f2[1]) / 2
            pts += [(mx + h / 2 * ux, my + h / 2 * uy), (mx - h / 2 * ux, my - h / 2 * uy)]
        pts = pts[:5]
        ox, oy = sum(p[0] for p in pts) / 5, sum(p[1] for p in pts) / 5
        size = mpmath.sqrt(sum((x - ox) ** 2 + (y - oy) ** 2 for x, y in pts) / 5)
        rows = []
        for x, y in pts:
            u, v = (x - ox) / size, (y - oy) / size
            rows.append([u * u, u * v, v * v, u, v, 1])
        qa, qb, qc, qd, qe, qf = (
            (-1) ** j * mpmath.det([[r[k] for k in range(6) if k != j] for r in rows])
            for j in range(6)
        )
        m = mpmath.matrix([[qa, qb / 2, qd / 2], [qb / 2, qc, qe / 2], [qd / 2, qe / 2, qf]])
        m /= mpmath.mnorm(m, "f")
        detn, disc = mpmath.det(m), m[0, 0] * m[1, 1] - m[0, 1] ** 2
        if abs(detn) < MARGIN or abs(disc) < MARGIN:
            return None
        return bool(disc > 0)


@invariance
@given(st.integers(0, 2**32 - 1), st.sampled_from(REGION_KINDS), moves)
def test_region_map_classes_move_with_the_triangle(seed, kind, move):
    f, _ = _mover(move)
    t = _moved(random_triangle(np.random.default_rng(seed)), f)
    corners = [f(Point2(x, y)) for x in (-0.5, 1.5) for y in (-0.5, 1.5)]
    xs, ys = [p.x for p in corners], [p.y for p in corners]
    grid = region_map(t, kind, (6, 6), (min(xs), max(xs), min(ys), max(ys)))
    for j in range(grid.ny):
        for i in range(grid.nx):
            want = _mp_elliptic(t, kind, grid.cell_center(i, j))
            if want is not None:
                assert grid.cells[j][i] in (ELLIPTIC if want else HYPERBOLIC), (i, j)


@invariance
@given(st.integers(0, 2**32 - 1), st.sampled_from(TRIAD_KINDS), moves)
def test_six_point_class_and_center_move_with_the_triangle(seed, kind, move):
    rng = np.random.default_rng(seed)
    t = random_triangle(rng)
    p = random_point_near(t, rng) if kind.startswith("p_") else None
    f, s = _mover(move)
    try:
        base = six_point_conic(build_triad(t, kind, p))
    except TriconicError:
        return
    det, disc = classify_code(base.conic.coeffs())[1:]
    if min(abs(det), abs(disc)) < MARGIN:
        return
    moved = six_point_conic(build_triad(_moved(t, f), kind, None if p is None else f(p)))
    assert moved.conic_class is base.conic_class
    assert (moved.center is None) == (base.center is None)
    if base.center is not None:
        # The center solves a 2x2 system: allow a millionfold amplification
        # of the coordinates' precision.
        reach = 1.0 + distance(base.center, t.a)
        assert distance(moved.center, f(base.center)) <= 1e6 * _precision(move) * s * reach


def test_carnot_product_of_a_small_triangle_far_from_the_origin():
    # A 1e-3 triangle at (0, 2048): one ulp of its coordinates is 4.5e-10
    # of its size, so plane-coordinate vertices miss the global 1e-9
    # sideline test; the Carnot product is taken in the triangle's frame.
    t = random_triangle(np.random.default_rng(1486))
    f, _ = _mover((0.0, 2048.0, 0.0, -3.0))
    base = six_point_conic(build_triad(t, "v_hyperbola"))
    rep = six_point_conic(build_triad(_moved(t, f), "v_hyperbola"))
    assert rep.conic_class is base.conic_class
    assert abs(rep.carnot_product - 1.0) <= 1e-10


def _same_points(got, want, tol):
    return all(min(distance(g, w) for w in want) <= tol for g in got) and len(got) == len(want)


@invariance
@given(st.integers(0, 2**32 - 1), moves)
def test_circle_points_move_with_the_triangle(seed, move):
    t = random_triangle(np.random.default_rng(seed))
    f, s = _mover(move)
    moved = _moved(t, f)
    tol = 1e6 * _precision(move) * s
    pstar = Point2(*find_pstar_candidates(t)[0][0])
    assert distance(Point2(*find_pstar_candidates(moved)[0][0]), f(pstar)) <= tol
    pair = [f(q) for q in find_phyp_circle_points(t)]
    assert _same_points(find_phyp_circle_points(moved), pair, tol)


def test_circle_pair_of_a_near_collinear_triangle():
    # verify --prop P5.4-circle-pair --seed 2 --trials 200: both drivers are
    # genuine circle points, which the fit classified as ellipses in plane
    # coordinates.
    t = Triangle(
        Point2(0.8126572649946658, 0.4167039548536412),
        Point2(0.7006018932508283, 0.4566088488389919),
        Point2(0.5677346905367343, 0.4878285597482809),
    )
    cc = circumcircle(t)
    for p in find_phyp_circle_points(t):
        rep = six_point_conic(build_triad(t, "p_hyperbola", p))
        assert rep.conic_class is ConicClass.CIRCLE
        assert distance(rep.center, cc.center) <= 1e-6 * cc.radius


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_circumcircle_drivers_keep_class_and_center_when_scaled(scale):
    # Drivers on the circumcircle give degenerate P-ellipse six-point
    # conics (P3.4); at scale 1e3 most lost their center, and read
    # degenerate_parallel_lines, when classified in plane coordinates.
    t = random_triangle(np.random.default_rng(11))
    big = Triangle(*(Point2(scale * v.x, scale * v.y) for v in t.vertices()))
    cc = circumcircle(t)
    for k in range(60):
        p = point_at(cc, 2.0 * math.pi * k / 60)
        base = six_point_conic(build_triad(t, "p_ellipse", p))
        rep = six_point_conic(build_triad(big, "p_ellipse", Point2(scale * p.x, scale * p.y)))
        assert base.conic_class is ConicClass.DEGENERATE_TWO_LINES
        assert rep.conic_class is ConicClass.DEGENERATE_TWO_LINES, k
        want = Point2(scale * base.center.x, scale * base.center.y)
        assert distance(rep.center, want) <= 1e-9 * scale * (1.0 + distance(base.center, t.a)), k
