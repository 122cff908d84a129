import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from triconic.centers import excircle_tangency_points
from triconic.conic import (
    Conic,
    ConicClass,
    FocalConic,
    center,
    classify,
    conic_conic_intersections,
    conic_from_foci,
    fit_conic_5pts,
    pencil_degenerate_lines,
    residual,
    split_degenerate,
)
from triconic.errors import InvalidAxisLength, LineOnConic, NoFiniteCenter, RankDeficient
from triconic.geom import Point2, Triangle, distance, line_through

from reference_checks import conic_bary_to_cartesian, covertices_of_focal_conic, vertices_of_focal_conic


def unit_circle():
    return Conic.from_coeffs([1, 0, 1, 0, 0, -1])


def test_conic_from_foci_textbook():
    fc = FocalConic(Point2(1, 0), Point2(-1, 0), 4.0, "ellipse")
    con = conic_from_foci(fc)
    # x^2/4 + y^2/3 = 1
    expect = Conic.from_coeffs([1 / 4, 0, 1 / 3, 0, 0, -1])
    assert np.allclose(con.m, expect.m) or np.allclose(con.m, -expect.m)


def test_conic_from_foci_offset_ellipse():
    fc = FocalConic(Point2(4, 0), Point2(0, 0), 8.0, "ellipse")
    con = conic_from_foci(fc)
    expect = Conic.from_coeffs([1 / 16, 0, 1 / 12, -4 / 16, 0, 4 / 16 - 1])
    assert np.allclose(con.m, expect.m) or np.allclose(con.m, -expect.m)
    assert distance(center(con), Point2(2, 0)) < 1e-12


def test_conic_from_foci_hyperbola():
    fc = FocalConic(Point2(4, 0), Point2(0, 0), 2.0, "hyperbola")
    con = conic_from_foci(fc)
    # (x-2)^2/1 - y^2/3 = 1
    expect = Conic.from_coeffs([1, 0, -1 / 3, -4, 0, 3])
    assert np.allclose(con.m, expect.m) or np.allclose(con.m, -expect.m)


def test_focal_conic_invariants():
    with pytest.raises(InvalidAxisLength):
        FocalConic(Point2(1, 0), Point2(-1, 0), 1.5, "ellipse")
    with pytest.raises(InvalidAxisLength):
        FocalConic(Point2(1, 0), Point2(-1, 0), 2.5, "hyperbola")


def test_classify_examples():
    assert classify(unit_circle()) is ConicClass.CIRCLE
    assert classify(Conic.from_coeffs([0, 1, 0, 0, 0, -1])) is ConicClass.RECTANGULAR_HYPERBOLA
    # (x+y-6)(x-2y-6) = x^2 - xy - 2y^2 - 12x + 6y + 36
    two_lines = Conic.from_coeffs([1, -1, -2, -12, 6, 36])
    assert classify(two_lines) is ConicClass.DEGENERATE_TWO_LINES
    # Parallel pair (x-1)(x-3)
    assert classify(Conic.from_coeffs([1, 0, 0, -4, 0, 3])) is ConicClass.DEGENERATE_PARALLEL_LINES
    # Parabola y = x^2
    assert classify(Conic.from_coeffs([1, 0, 0, 0, -1, 0])) is ConicClass.PARABOLA
    # Point conic x^2 + y^2 = 0
    assert classify(Conic.from_coeffs([1, 0, 1, 0, 0, 0])) is ConicClass.DEGENERATE_POINT


def test_center_examples():
    con = conic_from_foci(FocalConic(Point2(4, 0), Point2(0, 0), 8.0, "ellipse"))
    assert distance(center(con), Point2(2, 0)) < 1e-12
    crossing = Conic.from_coeffs([0, 1, 0, 0, 0, 0])  # xy = 0
    assert distance(center(crossing), Point2(0, 0)) < 1e-14
    parabola = Conic.from_coeffs([1, 0, 0, 0, -1, 0])
    with pytest.raises(NoFiniteCenter):
        center(parabola)


def test_center_of_degenerate_yiu_345(t345):
    pts = excircle_tangency_points(t345)
    con = fit_conic_5pts(pts[:5])
    assert classify(con) is ConicClass.DEGENERATE_TWO_LINES
    assert distance(center(con), Point2(-3.6, -4.8)) < 1e-9
    # The singular point lies on both component lines.
    g, h = split_degenerate(con)
    c = center(con)
    assert g.distance_to(c) < 1e-9
    assert h.distance_to(c) < 1e-9


@pytest.mark.parametrize(
    "coeffs, kind",
    [
        ([1 / 4, 0, 1 / 3, 0, 0, -1], ConicClass.ELLIPSE),
        ([1, 0, -1 / 3, -4, 0, 3], ConicClass.HYPERBOLA),
    ],
)
def test_split_degenerate_refuses_a_conic_that_is_not_degenerate(coeffs, kind):
    # Both have a negative largest diagonal entry of the adjugate, which
    # the split reads as a real line pair: without the rank test they gave
    # two "lines" that are not components of the conic.
    con = Conic.from_coeffs(coeffs)
    assert classify(con) is kind
    with pytest.raises(LineOnConic):
        split_degenerate(con)


def test_fit_unit_circle():
    pts = [Point2(math.cos(a), math.sin(a)) for a in (0.1, 1.1, 2.3, 3.8, 5.2)]
    con = fit_conic_5pts(pts)
    expect = unit_circle()
    assert np.allclose(con.m, expect.m, atol=1e-12) or np.allclose(
        con.m, -expect.m, atol=1e-12
    )


def test_fit_tangency_points_degenerate(t345):
    pts = excircle_tangency_points(t345)
    con = fit_conic_5pts(pts[:5])
    assert classify(con) is ConicClass.DEGENERATE_TWO_LINES
    assert residual(con, pts[5]) <= 1e-9


def _normalized_reference(m):
    """Conic's normalization in plain Python: the coefficients of the
    symmetrized matrix over kernels.frobenius's norm of them."""
    (a, b, d), (b2, c, e), (d2, e2, f) = m
    A, B, C, D, E, F = a, b + b2, c, d + d2, e + e2, f
    n = math.sqrt(A * A + C * C + F * F + (B * B + D * D + E * E) / 2.0)
    b, d, e = B / 2.0 / n, D / 2.0 / n, E / 2.0 / n
    return [[A / n, b, d], [b, C / n, e], [d, e, F / n]]


def test_conic_normalization_is_the_frobenius_rule_on_floats(rng):
    # Conic normalizes by kernels.frobenius, not by BLAS: every entry is
    # the bits of the plain-Python rule, on symmetric matrices of scales
    # 1e-8 to 1e8 and on matrices asymmetric within the symmetry check.
    def hexes(m):
        return [v.hex() for row in m for v in row]

    for k in range(600):
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-8.0, 8.0)
        m = m + m.T
        if k % 3 == 0:
            m[0, 1] += 1e-13 * np.abs(m).max()
        assert hexes(Conic(m).m.tolist()) == hexes(_normalized_reference(m.tolist())), k


def _plane_coeffs_exact(fit):
    """The plane coefficients of a FramedFit, unit Frobenius norm, from the
    exact substitution u = (x - ox) / s, v = (y - oy) / s (in Fractions,
    times s^2) normalized in 60-digit decimals, each rounded once."""
    A, B, C, D, E, F = map(Fraction, fit.coeffs)
    ox, oy, s = map(Fraction, fit.frame)
    plane = (A, B, C, D * s - 2 * A * ox - B * oy, E * s - B * ox - 2 * C * oy,
             A * ox * ox + B * ox * oy + C * oy * oy - s * (D * ox + E * oy) + F * s * s)
    n2 = plane[0] ** 2 + plane[2] ** 2 + plane[5] ** 2 + (plane[1] ** 2 + plane[3] ** 2 + plane[4] ** 2) / 2
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        n = Decimal(n2.numerator).sqrt() / Decimal(n2.denominator).sqrt()
        return [float(Decimal(p.numerator) / Decimal(p.denominator) / n) for p in plane]


def test_framed_fit_in_the_plane_is_the_exact_substitution():
    # FramedFit.conic substitutes the frame in closed form: within 4 ulp of
    # the largest coefficient of the exact substitution of the same
    # coefficients, for the six-point fits of seeded triads of the four
    # kinds and the O* arc fits, on random and flat triangles as drawn.
    # (Far from the origin the plane coefficients cancel: moved by
    # (10, -10) the worst of 700 such fits read 23 ulp, and 44 with the
    # former BLAS products.)
    from triconic.conic import fit_framed
    from triconic.errors import TriconicError
    from triconic.geom import midpoint
    from triconic.triads import TRIAD_KINDS, build_triad, six_point_conic
    from triconic.verify import random_flat_triangle, random_point_near, random_triangle

    rng = np.random.default_rng(4242)
    fits = []
    for k in range(120):
        t = random_triangle(rng) if k % 2 else random_flat_triangle(rng)
        A1, A2, B1, B2, C1, C2 = excircle_tangency_points(t)
        mids = [midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b)]
        fits += [fit_framed([*mids, p, q]) for p, q in ((B2, C1), (C2, A1), (A2, B1))]
        for kind in TRIAD_KINDS:
            p = random_point_near(t, rng) if kind.startswith("p_") else None
            try:
                fits.append(six_point_conic(build_triad(t, kind, p)).fit)
            except TriconicError:
                pass
    assert len(fits) > 700
    for i, fit in enumerate(fits):
        want = _plane_coeffs_exact(fit)
        got = fit.conic().coeffs()
        assert max(abs(g - w) for g, w in zip(got, want)) <= 4 * math.ulp(max(map(abs, want))), i


def test_fit_rank_deficient():
    pts = [Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(3, 0), Point2(0, 1)]
    with pytest.raises(RankDeficient):
        fit_conic_5pts(pts)


def test_residual_values():
    con = unit_circle()
    assert residual(con, Point2(1, 0)) == 0.0
    assert residual(con, Point2(2, 0)) == pytest.approx(3 / (math.sqrt(3) * 5))


def test_focal_vertices_and_covertices():
    fc = FocalConic(Point2(4, 0), Point2(0, 0), 8.0, "ellipse")
    v1, v2 = vertices_of_focal_conic(fc)
    assert {(round(v.x, 12), round(v.y, 12)) for v in (v1, v2)} == {(6.0, 0.0), (-2.0, 0.0)}
    c1, c2 = covertices_of_focal_conic(fc)
    assert abs(c1.x - 2.0) < 1e-12 and abs(abs(c1.y) - math.sqrt(12)) < 1e-12
    fch = FocalConic(Point2(4, 0), Point2(0, 0), 2.0, "hyperbola")
    v1, v2 = vertices_of_focal_conic(fch)
    assert {(round(v.x, 12), round(v.y, 12)) for v in (v1, v2)} == {(3.0, 0.0), (1.0, 0.0)}


def test_conic_bary_to_cartesian_circumcircle(t345):
    a, b, c = t345.sides()
    m = np.array(
        [
            [0.0, c * c / 2, b * b / 2],
            [c * c / 2, 0.0, a * a / 2],
            [b * b / 2, a * a / 2, 0.0],
        ]
    )
    con = conic_bary_to_cartesian(m, t345)
    assert classify(con) is ConicClass.CIRCLE
    assert distance(center(con), Point2(2, 1.5)) < 1e-12
    assert residual(con, Point2(0, 3)) < 1e-14


def test_bary_frame_vertex_check(t345):
    a, b, c = t345.sides()
    m = np.array(
        [
            [0.0, c * c / 2, b * b / 2],
            [c * c / 2, 0.0, a * a / 2],
            [b * b / 2, a * a / 2, 0.0],
        ]
    )
    cart = conic_bary_to_cartesian(m, t345)
    # Vertex A = [1,0,0]: both frames must agree the point is on the conic.
    v = np.array([1.0, 0.0, 0.0])
    assert abs(v @ m @ v) < 1e-15
    assert residual(cart, t345.a) < 1e-14


def test_conic_conic_intersections_circles():
    c1 = unit_circle()
    c2 = Conic.from_coeffs([1, 0, 1, -2, 0, 0])  # center (1,0) radius 1
    pts = conic_conic_intersections(c1, c2)
    assert len(pts) == 2
    for p in pts:
        assert abs(p.x - 0.5) < 1e-9
        assert abs(abs(p.y) - math.sqrt(3) / 2) < 1e-9


def _product(pair) -> np.ndarray:
    """The unit coefficients of the conic of the line pair."""
    g, h = (np.array([line.l, line.m, line.n]) for line in pair)
    return np.array(Conic((np.outer(g, h) + np.outer(h, g)) / 2.0).coeffs())


def _pencil_gap(c1, c2, pair) -> float:
    """How far the line pair's conic is from the pencil of c1 and c2: the
    least singular value of the three unit coefficient vectors."""
    return np.linalg.svd(np.array([c1.coeffs(), c2.coeffs(), _product(pair)]), compute_uv=False)[-1]


def test_pencil_lines_are_pencil_members():
    # Each line pair of pencil_degenerate_lines is a degenerate member of
    # the pencil: never "lines" split off a conic that is not degenerate.
    # A degenerate second conic is the member at lambda = inf, and its lines
    # meet the first conic in their common points.
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = [Point2(*rng.uniform(-1, 1, 2)) for _ in range(3)]
        c1 = conic_from_foci(FocalConic(f[0], f[1], 1.5 * distance(f[0], f[1]), "ellipse"))
        c2 = conic_from_foci(FocalConic(f[0], f[2], 0.5 * distance(f[0], f[2]), "hyperbola"))
        pairs = pencil_degenerate_lines(c1, c2)
        assert pairs and all(_pencil_gap(c1, c2, pair) <= 1e-9 for pair in pairs)
    axes = Conic.from_coeffs([0, 1, 0, 0, 0, 0])  # xy = 0
    pairs = pencil_degenerate_lines(unit_circle(), axes)
    assert all(_pencil_gap(unit_circle(), axes, pair) <= 1e-12 for pair in pairs)
    assert any(min(abs(_product(pair) - sign * np.array(axes.coeffs())).max() for sign in (1, -1)) <= 1e-12
               for pair in pairs)
    pts = sorted((round(p.x, 12) + 0.0, round(p.y, 12) + 0.0) for p in conic_conic_intersections(unit_circle(), axes))
    assert pts == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_classify_focal_random(rng):
    # 1000 random focal conics classify according to their kind.
    fails = 0
    for _ in range(1000):
        f1 = Point2(*rng.uniform(-1, 1, 2))
        f2 = Point2(*rng.uniform(-1, 1, 2))
        d = distance(f1, f2)
        if d < 1e-3:
            continue
        kind = "ellipse" if rng.uniform() < 0.5 else "hyperbola"
        axis = d * rng.uniform(1.05, 3.0) if kind == "ellipse" else d * rng.uniform(0.05, 0.95)
        con = conic_from_foci(FocalConic(f1, f2, axis, kind))
        got = classify(con)
        want = (
            (ConicClass.ELLIPSE, ConicClass.CIRCLE)
            if kind == "ellipse"
            else (ConicClass.HYPERBOLA, ConicClass.RECTANGULAR_HYPERBOLA)
        )
        if got not in want:
            fails += 1
    assert fails == 0


def test_focal_residuals_at_vertices_and_locus(rng):
    for _ in range(100):
        f1 = Point2(*rng.uniform(-1, 1, 2))
        f2 = Point2(*rng.uniform(-1, 1, 2))
        d = distance(f1, f2)
        if d < 0.1:
            continue
        kind = "ellipse" if rng.uniform() < 0.5 else "hyperbola"
        axis = d * 1.4 if kind == "ellipse" else d * 0.6
        fc = FocalConic(f1, f2, axis, kind)
        con = conic_from_foci(fc)
        for v in vertices_of_focal_conic(fc):
            assert residual(con, v) <= 1e-9
        # A sampled point of the metric locus.
        alpha, beta = fc.semi_axes()
        u = fc.axis_unit()
        w = u.perp()
        o = fc.center
        s = rng.uniform(0.2, 1.2)
        if kind == "ellipse":
            q = Point2(
                o.x + alpha * math.cos(s) * u.x + beta * math.sin(s) * w.x,
                o.y + alpha * math.cos(s) * u.y + beta * math.sin(s) * w.y,
            )
            assert abs(distance(q, f1) + distance(q, f2) - axis) < 1e-9
        else:
            q = Point2(
                o.x + alpha * math.cosh(s) * u.x + beta * math.sinh(s) * w.x,
                o.y + alpha * math.cosh(s) * u.y + beta * math.sinh(s) * w.y,
            )
            assert abs(abs(distance(q, f1) - distance(q, f2)) - axis) < 1e-9
        assert residual(con, q) <= 1e-9


def test_fit_residual_small(rng):
    for _ in range(100):
        pts = [Point2(*rng.uniform(-1, 1, 2)) for _ in range(5)]
        try:
            con = fit_conic_5pts(pts)
        except RankDeficient:
            continue
        assert max(residual(con, p) for p in pts) <= 1e-12


def test_classify_invariance(rng):
    # Kind is stable under rotations and scalings by 1e+-2 (500 trials).
    for _ in range(500):
        f1 = Point2(*rng.uniform(-1, 1, 2))
        f2 = Point2(*rng.uniform(-1, 1, 2))
        d = distance(f1, f2)
        if d < 0.1:
            continue
        kind = "ellipse" if rng.uniform() < 0.5 else "hyperbola"
        axis = d * 1.5 if kind == "ellipse" else d * 0.5
        base = classify(conic_from_foci(FocalConic(f1, f2, axis, kind)))
        ang = rng.uniform(0, 2 * math.pi)
        s = 10.0 ** rng.uniform(-2, 2)
        ca, sa = math.cos(ang), math.sin(ang)

        def xf(p):
            return Point2(s * (ca * p.x - sa * p.y), s * (ca * p.y + sa * p.x))

        got = classify(conic_from_foci(FocalConic(xf(f1), xf(f2), s * axis, kind)))
        assert got == base
