"""Points, lines, triangles and barycentric conversion.

All types are immutable values; all operations are pure functions.
Predicates use scale-aware tolerances so results are invariant under
uniform scaling of the input coordinates.  Lengths, signed areas and the
degenerate-triangle test are the kernels' (`kernels._hypot`,
`kernels.signed_area`, `kernels.collinear`), so the object path and the
array checks share their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .config import get_tol
from .errors import (
    DegenerateTriangle,
    ParallelLines,
    PointAtInfinity,
)


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
        return kernels._hypot(self.x, self.y)

    def perp(self) -> "Point2":
        return Point2(-self.y, self.x)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def distance(p: Point2, q: Point2) -> float:
    return kernels._hypot(p.x - q.x, p.y - q.y)


def midpoint(p: Point2, q: Point2) -> Point2:
    return Point2((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def signed_area(p: Point2, q: Point2, r: Point2) -> float:
    """Signed area of pqr; positive iff counterclockwise."""
    return kernels.signed_area(p.x, p.y, q.x, q.y, r.x, r.y)


@dataclass(frozen=True)
class Triangle:
    """Cartesian vertices are the ground truth; side lengths are derived
    once at construction and cached."""

    a: Point2
    b: Point2
    c: Point2

    def __post_init__(self):
        sides = (distance(self.b, self.c), distance(self.c, self.a), distance(self.a, self.b))
        object.__setattr__(self, "_sides", sides)
        if kernels.collinear(self.a.x, self.a.y, self.b.x, self.b.y, self.c.x, self.c.y, sides):
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
    """Homogeneous barycentric triple, a point up to a nonzero factor.
    Equality is the dataclass's, field by field, not projective:
    BaryCoords(1, 1, 1) != BaryCoords(2, 2, 2).  Compare points by their
    normalized() triples, up to rounding and sign."""

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
        return abs(self.eval_point(p)) / kernels._hypot(self.l, self.m)


def bary_to_cartesian(t: Triangle, b: BaryCoords) -> Point2:
    """The point of b by kernels.bary_point; PointAtInfinity where
    |u + v + w| <= config.TOL * max(|u|, |v|, |w|)."""
    x, y, far = kernels.bary_point(t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, b.u, b.v, b.w)
    if far:
        raise PointAtInfinity(f"u+v+w ~ 0 for {b}")
    return Point2(x, y)


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
    return kernels.collinear(p.x, p.y, q.x, q.y, r.x, r.y,
                             (distance(q, r), distance(r, p), distance(p, q)))
