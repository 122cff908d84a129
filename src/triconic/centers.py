"""Triangle centers, incircle/excircles and their tangency points, kissing
and Soddy circles.

Soddy circles take their radii from Descartes' curvatures and their
centers from the barycentrics of X176 and X175 (kernels.soddy_centers),
the rule the verifier's P4.5 and P4.8 read on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import DegenerateResult
from .geom import (
    BaryCoords,
    LineEq,
    Point2,
    Triangle,
    bary_to_cartesian,
)


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"bad radius {self.radius}")


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
    kernels.excircle_tangency, by kernels.bary_point on the triangle's
    floats (bary_to_cartesian's point; a tangency point of a triangle is
    never at infinity)."""
    corners = [c for v in t.vertices() for c in v.as_tuple()]
    return tuple(
        Point2(*kernels.bary_point(*corners, *uvw)[:2]) for uvw in kernels.excircle_tangency(*t.sides())
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
    """tan(A/2) + tan(B/2) + tan(C/2) of t (kernels.half_tangent_sum)."""
    return kernels.half_tangent_sum(*t.sides(), t.area)


def _tangent_line_to_kissing(t: Triangle, radii) -> LineEq:
    # Unit normal n with n.P_i - c = r_i for all three circle centers.
    r1, r2, r3 = radii
    p1, p2, p3 = t.a, t.b, t.c
    a11, a12 = p1.x - p2.x, p1.y - p2.y
    a21, a22 = p1.x - p3.x, p1.y - p3.y
    det = a11 * a22 - a12 * a21
    nx = ((r1 - r2) * a22 - (r1 - r3) * a12) / det
    ny = (-(r1 - r2) * a21 + (r1 - r3) * a11) / det
    nn = kernels._hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    csum = sum(n_dot - r for n_dot, r in zip(
        (nx * p.x + ny * p.y for p in (p1, p2, p3)), (r1, r2, r3)
    ))
    c = csum / 3.0
    return LineEq(nx, ny, -c)


def soddy(t: Triangle) -> SoddyConfig:
    """Inner and outer Soddy circles of the kissing-circle triple: radii
    by Descartes' theorem, centers X176 and X175 from their barycentrics
    (kernels.soddy_centers); the outer curvature decides the regime."""
    kiss = kissing_circles(t)
    k1, k2, k3 = (1.0 / c.radius for c in kiss)
    root = math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
    k_in = k1 + k2 + k3 + 2.0 * root
    k_out = k1 + k2 + k3 - 2.0 * root
    corners = [c for v in t.vertices() for c in v.as_tuple()]
    (xi, yi, _), (xo, yo, _) = kernels.soddy_centers(corners, t.sides())
    inner = Circle(Point2(xi, yi), 1.0 / k_in)
    hts = half_tangent_sum(t)
    if abs(k_out) < 1e-10 * (k1 + k2 + k3):
        radii = tuple(c.radius for c in kiss)
        return SoddyConfig(kiss, inner, "line", None, _tangent_line_to_kissing(t, radii), hts)
    regime = "contains" if k_out < 0.0 else "external"
    return SoddyConfig(kiss, inner, regime, Circle(Point2(xo, yo), 1.0 / abs(k_out)), None, hts)


def soddy_centers(t: Triangle) -> tuple[Point2 | None, Point2]:
    """(X175, X176); X175 is None in the degenerate-line regime (the outer
    center then lies at infinity, perpendicular to the Soddy line)."""
    cfg = soddy(t)
    x176 = cfg.inner.center
    if cfg.regime == "line":
        return None, x176
    return cfg.outer_circle.center, x176
