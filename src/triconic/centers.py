"""Triangle centers, incircle/excircles and their tangency points, kissing
and Soddy circles, and derived triangles.

Soddy circles are computed metrically (Descartes curvature + trilateration
from the vertices) rather than from catalog barycentrics: the defining
equal-detour / isoperimetric distance conditions then double as a built-in
consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import (
    DegenerateResult,
    DegenerateTriangle,
    PointAtInfinity,
    TrilaterationInconsistent,
)
from .geom import (
    BaryCoords,
    LineEq,
    Point2,
    Triangle,
    bary_to_cartesian,
    distance,
    line_through,
    reflect_about_line,
)


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"bad radius {self.radius}")

    def point_at(self, angle: float) -> Point2:
        return Point2(
            self.center.x + self.radius * math.cos(angle),
            self.center.y + self.radius * math.sin(angle),
        )


# Barycentric coordinate functions for the catalog centers.  Each entry maps
# (a, b, c) to the first coordinate; the other two follow by cycling both the
# arguments and the coordinate slots (kernels.cyclic).  Sources: standard ETC
# forms; X3, X4 and X20 are the kernels', which the verifier reads on arrays.
def _x2(a, b, c):
    return 1.0


def _x1(a, b, c):
    return a


def _x6(a, b, c):
    return a * a


def _x7(a, b, c):
    s = (a + b + c) / 2.0
    return (s - b) * (s - c)


def _x8(a, b, c):
    return b + c - a


def _x55(a, b, c):
    return a * a * (b + c - a)


_CYCLIC_CENTERS = {
    "X1": _x1,
    "incenter": _x1,
    "X2": _x2,
    "centroid": _x2,
    "X3": kernels.center_x3,
    "X4": kernels.center_x4,
    "X6": _x6,
    "X7": _x7,
    "X8": _x8,
    "X20": kernels.center_x20,
    "X55": _x55,
}

_EXCENTERS = ("excenterA", "excenterB", "excenterC")

CENTER_IDS = sorted(set(_CYCLIC_CENTERS) | set(_EXCENTERS) | {"X175", "X176", "X478", "X5452"})


def center_bary(t: Triangle, center_id: str) -> BaryCoords:
    a, b, c = t.sides()
    if center_id in _CYCLIC_CENTERS:
        return BaryCoords(*kernels.cyclic(_CYCLIC_CENTERS[center_id], a, b, c))
    if center_id in _EXCENTERS:
        return BaryCoords(*kernels.excenters(a, b, c)[_EXCENTERS.index(center_id)])
    raise KeyError(f"no barycentric formula for {center_id!r}")


def classic_center(t: Triangle, center_id: str) -> Point2:
    """Catalog center as a Cartesian point.

    X175/X176 route through the Soddy construction; X478/X5452 are the
    centers of the six-point conics of the two V-triads (constructed, no
    catalog coefficients involved).
    """
    if center_id in ("X175", "X176"):
        x175, x176 = soddy_centers(t)
        if center_id == "X176":
            return x176
        if x175 is None:
            raise DegenerateResult("X175 is at infinity (degenerate Soddy line)")
        return x175
    if center_id in ("X478", "X5452"):
        from .triads import build_triad, six_point_conic

        kind = "v_ellipse" if center_id == "X478" else "v_hyperbola"
        report = six_point_conic(build_triad(t, kind))
        if report.center is None:
            raise DegenerateResult(f"{center_id}: the six-point conic has no finite center")
        return report.center
    return bary_to_cartesian(t, center_bary(t, center_id))


def incircle(t: Triangle) -> Circle:
    a, b, c = t.sides()
    s = t.semiperimeter
    return Circle(bary_to_cartesian(t, BaryCoords(a, b, c)), t.area / s)


def excircles(t: Triangle) -> tuple[Circle, Circle, Circle]:
    """Excircles opposite A, B, C."""
    s = t.semiperimeter
    area = t.area
    return tuple(
        Circle(bary_to_cartesian(t, BaryCoords(*uvw)), area / (s - side))
        for uvw, side in zip(kernels.excenters(*t.sides()), t.sides())
    )


def circumcircle(t: Triangle) -> Circle:
    a, b, c = t.sides()
    center = classic_center(t, "X3")
    return Circle(center, a * b * c / (4.0 * t.area))


def excircle_tangency_points(t: Triangle):
    """The six external tangency points (A1, A2, B1, B2, C1, C2), from
    kernels.excircle_tangency."""
    return tuple(
        bary_to_cartesian(t, BaryCoords(*uvw)) for uvw in kernels.excircle_tangency(*t.sides())
    )


def intouch_extouch(t: Triangle):
    """((intouch points), (extouch points)), each ordered by opposite
    vertex, from kernels.intouch_extouch."""
    return tuple(
        tuple(bary_to_cartesian(t, BaryCoords(*uvw)) for uvw in points)
        for points in kernels.intouch_extouch(*t.sides())
    )


def kissing_circles(t: Triangle) -> tuple[Circle, Circle, Circle]:
    """Circles at A, B, C with radii s-a, s-b, s-c; pairwise tangent at the
    intouch points."""
    s = t.semiperimeter
    a, b, c = t.sides()
    return (
        Circle(t.a, s - a),
        Circle(t.b, s - b),
        Circle(t.c, s - c),
    )


@dataclass(frozen=True)
class SoddyConfig:
    kissing: tuple[Circle, Circle, Circle]
    inner: Circle
    regime: str  # "contains" | "line" | "external"
    outer_circle: Circle | None
    outer_line: LineEq | None
    half_tangent_sum: float


def half_tangent_sum(t: Triangle) -> float:
    """tan(A/2) + tan(B/2) + tan(C/2) = r/(s-a) + r/(s-b) + r/(s-c)."""
    a, b, c = t.sides()
    s = t.semiperimeter
    r = t.area / s
    return r / (s - a) + r / (s - b) + r / (s - c)


def _circle_circle_points(c1: Point2, r1: float, c2: Point2, r2: float) -> list[Point2]:
    d = distance(c1, c2)
    if d == 0.0:
        return []
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - x * x
    u = Point2((c2.x - c1.x) / d, (c2.y - c1.y) / d)
    base = Point2(c1.x + x * u.x, c1.y + x * u.y)
    if h2 < 0.0:
        if h2 > -1e-9 * r1 * r1:
            return [base]
        return []
    h = math.sqrt(h2)
    v = u.perp()
    return [
        Point2(base.x + h * v.x, base.y + h * v.y),
        Point2(base.x - h * v.x, base.y - h * v.y),
    ]


def _trilaterate(t: Triangle, d1: float, d2: float, d3: float) -> Point2:
    """Point at distances (d1, d2, d3) from (A, B, C); the first two circles
    give two candidates, the third disambiguates."""
    cands = _circle_circle_points(t.a, d1, t.b, d2)
    if not cands:
        raise TrilaterationInconsistent("first two distance circles do not meet")
    best = min(cands, key=lambda p: abs(distance(p, t.c) - d3))
    if abs(distance(best, t.c) - d3) > 1e-6 * t.scale():
        raise TrilaterationInconsistent(
            f"third distance off by {abs(distance(best, t.c) - d3):.3e}"
        )
    return best


def _tangent_line_to_kissing(t: Triangle, radii) -> LineEq:
    # Unit normal n with n.P_i - c = r_i for all three circle centers.
    r1, r2, r3 = radii
    p1, p2, p3 = t.a, t.b, t.c
    a11, a12 = p1.x - p2.x, p1.y - p2.y
    a21, a22 = p1.x - p3.x, p1.y - p3.y
    det = a11 * a22 - a12 * a21
    nx = ((r1 - r2) * a22 - (r1 - r3) * a12) / det
    ny = (-(r1 - r2) * a21 + (r1 - r3) * a11) / det
    nn = math.hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    csum = sum(n_dot - r for n_dot, r in zip(
        (nx * p.x + ny * p.y for p in (p1, p2, p3)), (r1, r2, r3)
    ))
    c = csum / 3.0
    return LineEq(nx, ny, -c)


def soddy(t: Triangle) -> SoddyConfig:
    """Inner and outer Soddy circles of the kissing-circle triple."""
    kiss = kissing_circles(t)
    k1, k2, k3 = (1.0 / c.radius for c in kiss)
    root = math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
    k_in = k1 + k2 + k3 + 2.0 * root
    k_out = k1 + k2 + k3 - 2.0 * root
    r_in = 1.0 / k_in
    radii = tuple(c.radius for c in kiss)
    inner = Circle(
        _trilaterate(t, radii[0] + r_in, radii[1] + r_in, radii[2] + r_in), r_in
    )
    hts = half_tangent_sum(t)
    if abs(k_out) < 1e-10 * (k1 + k2 + k3):
        return SoddyConfig(kiss, inner, "line", None, _tangent_line_to_kissing(t, radii), hts)
    if k_out < 0.0:
        r_out = -1.0 / k_out
        center = _trilaterate(
            t, r_out - radii[0], r_out - radii[1], r_out - radii[2]
        )
        return SoddyConfig(kiss, inner, "contains", Circle(center, r_out), None, hts)
    r_out = 1.0 / k_out
    center = _trilaterate(t, r_out + radii[0], r_out + radii[1], r_out + radii[2])
    return SoddyConfig(kiss, inner, "external", Circle(center, r_out), None, hts)


def soddy_centers(t: Triangle) -> tuple[Point2 | None, Point2]:
    """(X175, X176); X175 is None in the degenerate-line regime (the outer
    center then lies at infinity, perpendicular to the Soddy line)."""
    cfg = soddy(t)
    x176 = cfg.inner.center
    if cfg.regime == "line":
        return None, x176
    return cfg.outer_circle.center, x176


def cevian_triangle(t: Triangle, q: BaryCoords) -> Triangle:
    u, v, w = q.u, q.v, q.w
    if (u, v, w).count(0.0) == 2:
        raise DegenerateResult("cevian undefined at a vertex")
    try:
        return Triangle(
            bary_to_cartesian(t, BaryCoords(0.0, v, w)),
            bary_to_cartesian(t, BaryCoords(u, 0.0, w)),
            bary_to_cartesian(t, BaryCoords(u, v, 0.0)),
        )
    except (PointAtInfinity, DegenerateTriangle) as exc:
        raise DegenerateResult(f"cevian triangle of {q} degenerates") from exc


def anticevian_triangle(t: Triangle, q: BaryCoords) -> Triangle:
    u, v, w = q.u, q.v, q.w
    if u == 0.0 or v == 0.0 or w == 0.0:
        raise DegenerateResult("anticevian undefined for a point on a sideline")
    try:
        return Triangle(
            bary_to_cartesian(t, BaryCoords(-u, v, w)),
            bary_to_cartesian(t, BaryCoords(u, -v, w)),
            bary_to_cartesian(t, BaryCoords(u, v, -w)),
        )
    except (PointAtInfinity, DegenerateTriangle) as exc:
        raise DegenerateResult(f"anticevian triangle of {q} degenerates") from exc


def reflection_triangle(t: Triangle, q: Point2) -> Triangle:
    """Vertices are the reflections of q over the three sidelines."""
    lines = (
        line_through(t.b, t.c),
        line_through(t.c, t.a),
        line_through(t.a, t.b),
    )
    pts = tuple(reflect_about_line(q, ln) for ln in lines)
    try:
        return Triangle(*pts)
    except DegenerateTriangle as exc:
        raise DegenerateResult(f"reflection triangle of {q} degenerates") from exc
