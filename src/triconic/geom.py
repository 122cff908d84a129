"""Points, lines, triangles and barycentric conversion.

All types are immutable values; all operations are pure functions.
Predicates use scale-aware tolerances so results are invariant under
uniform scaling of the input coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import get_tol
from .errors import (
    DegenerateTriangle,
    ParallelLines,
    PointAtInfinity,
)
from .kernels import bary_point


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point2":
        return Point2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def perp(self) -> "Point2":
        return Point2(-self.y, self.x)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def distance(p: Point2, q: Point2) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def midpoint(p: Point2, q: Point2) -> Point2:
    return Point2((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def signed_area(p: Point2, q: Point2, r: Point2) -> float:
    """Signed area of pqr; positive iff counterclockwise."""
    return 0.5 * ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


@dataclass(frozen=True)
class Triangle:
    """Cartesian vertices are the ground truth; side lengths are derived
    once at construction and cached."""

    a: Point2
    b: Point2
    c: Point2

    def __post_init__(self):
        sa = distance(self.b, self.c)
        sb = distance(self.c, self.a)
        sc = distance(self.a, self.b)
        object.__setattr__(self, "_sides", (sa, sb, sc))
        scale = max(sa, sb, sc)
        if scale == 0.0 or abs(signed_area(self.a, self.b, self.c)) <= get_tol() * scale * scale:
            raise DegenerateTriangle(f"collinear vertices {self.a}, {self.b}, {self.c}")

    @property
    def side_a(self) -> float:
        return self._sides[0]

    @property
    def side_b(self) -> float:
        return self._sides[1]

    @property
    def side_c(self) -> float:
        return self._sides[2]

    def sides(self) -> tuple[float, float, float]:
        return self._sides

    @property
    def semiperimeter(self) -> float:
        return sum(self._sides) / 2.0

    @property
    def area(self) -> float:
        """Unsigned area."""
        return abs(signed_area(self.a, self.b, self.c))

    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.a, self.b, self.c)

    def scale(self) -> float:
        return max(self.side_a, self.side_b, self.side_c)


@dataclass(frozen=True)
class BaryCoords:
    """Homogeneous barycentric triple; equality is projective."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "w", float(self.w))
        if self.u == 0.0 and self.v == 0.0 and self.w == 0.0:
            raise ValueError("barycentric triple must not be all zero")

    def normalized(self) -> "BaryCoords":
        """Scale to unit max-abs component, sign fixed by first nonzero entry."""
        m = max(abs(self.u), abs(self.v), abs(self.w))
        u, v, w = self.u / m, self.v / m, self.w / m
        for t in (u, v, w):
            if t != 0.0:
                if t < 0.0:
                    u, v, w = -u, -v, -w
                break
        return BaryCoords(u, v, w)

    def proj_eq(self, other: "BaryCoords", tol: float | None = None) -> bool:
        tol = get_tol() if tol is None else tol
        p, q = self.normalized(), other.normalized()
        return (
            abs(p.u - q.u) <= tol and abs(p.v - q.v) <= tol and abs(p.w - q.w) <= tol
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u, self.v, self.w)


@dataclass(frozen=True)
class LineEq:
    """Line l*x + m*y + n = 0."""

    l: float
    m: float
    n: float

    def __post_init__(self):
        if self.l == 0.0 and self.m == 0.0 and self.n == 0.0:
            raise ValueError("zero line")

    def eval_point(self, p: Point2) -> float:
        return self.l * p.x + self.m * p.y + self.n

    def distance_to(self, p: Point2) -> float:
        return abs(self.eval_point(p)) / math.hypot(self.l, self.m)


def bary_to_cartesian(t: Triangle, b: BaryCoords) -> Point2:
    """The point of b by kernels.bary_point; PointAtInfinity where
    |u + v + w| <= get_tol() * max(|u|, |v|, |w|)."""
    x, y, far = bary_point(t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, b.u, b.v, b.w)
    if far:
        raise PointAtInfinity(f"u+v+w ~ 0 for {b}")
    return Point2(x, y)


def cartesian_to_bary(t: Triangle, p: Point2) -> BaryCoords:
    # Components proportional to the signed areas of the sub-triangles.
    u = signed_area(p, t.b, t.c)
    v = signed_area(t.a, p, t.c)
    w = signed_area(t.a, t.b, p)
    return BaryCoords(u, v, w)


def line_through(p: Point2, q: Point2) -> LineEq:
    l = p.y - q.y
    m = q.x - p.x
    n = p.x * q.y - q.x * p.y
    if l == 0.0 and m == 0.0:
        raise ValueError(f"line through coincident points {p}")
    return LineEq(l, m, n)


def line_intersection(l1: LineEq, l2: LineEq) -> Point2:
    det = l1.l * l2.m - l2.l * l1.m
    scale = max(abs(l1.l), abs(l1.m)) * max(abs(l2.l), abs(l2.m))
    if abs(det) <= get_tol() * scale:
        raise ParallelLines(f"{l1} and {l2}")
    x = (l1.m * l2.n - l2.m * l1.n) / det
    y = (l2.l * l1.n - l1.l * l2.n) / det
    return Point2(x, y)


def collinear(p: Point2, q: Point2, r: Point2) -> bool:
    scale = max(distance(p, q), distance(q, r), distance(r, p))
    if scale == 0.0:
        return True
    return abs(signed_area(p, q, r)) <= get_tol() * scale * scale


def concurrent(l1: LineEq, l2: LineEq, l3: LineEq) -> bool:
    rows = []
    for ln in (l1, l2, l3):
        m = max(abs(ln.l), abs(ln.m), abs(ln.n))
        rows.append((ln.l / m, ln.m / m, ln.n / m))
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    return abs(det) <= get_tol()


def reflect_about_point(p: Point2, center: Point2) -> Point2:
    return Point2(2.0 * center.x - p.x, 2.0 * center.y - p.y)


def reflect_about_line(p: Point2, line: LineEq) -> Point2:
    d = line.eval_point(p) / (line.l * line.l + line.m * line.m)
    return Point2(p.x - 2.0 * d * line.l, p.y - 2.0 * d * line.m)

