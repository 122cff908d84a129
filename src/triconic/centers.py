"""Triangle centers, the incircle, the circumcircle and the excircle
tangency points, kissing and Soddy circles.

Soddy circles take their radii from Descartes' curvatures, and their
centers, the Soddy line and the regime from kernels.soddy, the rule the
verifier's P4.5, P4.8 and P4.10 read on arrays: the outer circle is the
Soddy line where X175 is at infinity (kernels.bary_point's rule).
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


def soddy(t: Triangle) -> SoddyConfig:
    """Inner and outer Soddy circles of the kissing-circle triple: radii
    by Descartes' theorem, centers X176 and X175 and the Soddy line by
    kernels.soddy, whose rule decides the regime: "line" where X175 is at
    infinity, else "contains" or "external" by the sign of the outer
    curvature."""
    kiss = kissing_circles(t)
    k1, k2, k3 = (1.0 / c.radius for c in kiss)
    root = math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
    k_in = k1 + k2 + k3 + 2.0 * root
    k_out = k1 + k2 + k3 - 2.0 * root
    corners = [c for v in t.vertices() for c in v.as_tuple()]
    (xi, yi, _), (xo, yo, far), line = kernels.soddy(corners, t.sides())
    inner = Circle(Point2(xi, yi), 1.0 / k_in)
    hts = half_tangent_sum(t)
    if far:
        return SoddyConfig(kiss, inner, "line", None, LineEq(*line), hts)
    regime = "contains" if k_out < 0.0 else "external"
    return SoddyConfig(kiss, inner, regime, Circle(Point2(xo, yo), 1.0 / abs(k_out)), None, hts)


def soddy_centers(t: Triangle) -> tuple[Point2 | None, Point2]:
    """(X175, X176); X175 is None in the degenerate-line regime (the outer
    center then lies at infinity, perpendicular to the Soddy line)."""
    cfg = soddy(t)
    return None if cfg.regime == "line" else cfg.outer_circle.center, cfg.inner.center
