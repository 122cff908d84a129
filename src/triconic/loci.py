"""Implicit condition curves, degenerate-center loci, special points and
conic-type region maps.

Coordinate conventions for the plane curves follow the source constructions:
the quartic center locus uses A=(1/2,0), B=(-1/2,0); the co-vertex locus
and the half-tangent sextic use A=(-1,0), B=(1,0).  The functionals are
evaluated in (sidelengths, focal sums/differences) form, radicals on the
positive branch.  The co-vertex locus (covertex_locus_V) is the paper's
displayed radical equation with its lengths taken as rho = 2|CA| and
2|CB|, the convention under which its zero set is the locus where the six
co-vertices are conconic (the vanishing of their 6x6 design determinant);
the verifier's P2.9 scans it for its drivers, as P3.9 scans
covertex_condition_equilateral_P, and checks the co-vertex conics there
on kernels.covertices, on arrays.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .centers import circumcircle, excircle_tangency_points
from .conic import (
    Conic,
    center as conic_center,
    fit_framed,
    residual,
    tangency_discriminant,
)
from .errors import (
    DegenerateMember,
    NotConverged,
    PointAtInfinity,
    RankDeficient,
    TriconicError,
)
from .geom import (
    Point2,
    Triangle,
    distance,
    line_intersection,
    line_through,
    midpoint,
    signed_area,
)
from .triads import _six_point_fit


# ---------------------------------------------------------------------------
# Implicit curves and functionals
# ---------------------------------------------------------------------------

def x478_quartic(x, y):
    """Center locus of the degenerate V-ellipse six-point conic,
    A=(1/2,0), B=(-1/2,0); floats or arrays, bit for bit alike (powers
    as products)."""
    r2 = x * x + y * y
    return 4.0 * r2 * r2 - 8.0 * (y * y * y) - x * x + 2.0 * y * y


def parabola_deg8_V(a, b, c):
    """Degree-8 sidelength condition for the V-ellipse six-point conic to be
    a parabola; floats or arrays, bit for bit alike."""
    # Powers as products, not **: on floats ** goes through libm's pow,
    # which differs from numpy's power in the last bit.
    a2, b2, c2 = a * a, b * b, c * c
    a4, b4, c4 = a2 * a2, b2 * b2, c2 * c2
    return (
        a4 * a4 + b4 * b4 + c4 * c4
        - 2.0 * (a4 * b4 + a4 * c4 + b4 * c4)
        + 4.0 * a * b * c * (
            a4 * a + b4 * b + c4 * c
            - a4 * b - a * b4 - a4 * c - a * c4 - b * c4 - b4 * c
            + a2 * a * b * c + a * (b2 * b) * c + a * b * (c2 * c)
        )
    )


def covertex_locus_V(x: float, y: float) -> float:
    """Locus of C such that the six V-ellipse co-vertices are conconic,
    A=(-1,0), B=(1,0); floats or arrays, bit for bit alike (powers as
    products).

    The displayed equation t1 rho1 rho2 + t2 (rho1 + rho2) + 2x t3 (rho1 -
    rho2) + t4, evaluated at rho1 = 2|CA| and rho2 = 2|CB|: at that
    convention, and not at rho = |CA|, |CB|, its zero set is the locus
    where the 6x6 design determinant of the six co-vertices vanishes (it
    is 4 times t1 |CA||CB| + t2/2 (|CA| + |CB|) + x t3 (|CA| - |CB|) +
    t4/4).  The lengths are kernels._hypot's, and doubling is exact.
    """
    rho1 = 2.0 * kernels._hypot(x + 1.0, y)  # 2|CA|
    rho2 = 2.0 * kernels._hypot(x - 1.0, y)  # 2|CB|
    x2, y2 = x * x, y * y
    t1 = (
        x2 * x2 * x2
        - (2.0 * y2 + 3.0) * (x2 * x2)
        - (3.0 * y2 * y2 - 8.0 * y2 - 3.0) * x2
        + 11.0 * y2 * y2
        - 6.0 * y2
        - 1.0
    )
    t2 = (
        -2.0 * (x2 * x2 * x2)
        - (22.0 * y2 - 6.0) * (x2 * x2)
        - (14.0 * y2 * y2 - 36.0 * y2 + 6.0) * x2
        + 6.0 * (y2 * y2 * y2)
        + 22.0 * y2 * y2
        - 14.0 * y2
        + 2.0
    )
    t3 = (
        x2 * x2 * x2
        + (3.0 * y2 - 3.0) * (x2 * x2)
        + (3.0 * y2 * y2 - 2.0 * y2 + 3.0) * x2
        + y2 * y2 * y2
        - 7.0 * y2 * y2
        - y2
        - 1.0
    )
    t4 = (
        2.0
        * (x2 + y2 - 1.0)
        * (5.0 * x2 * x2 + 2.0 * (y2 - 5.0) * x2 - 3.0 * y2 * y2 - 14.0 * y2 + 5.0)
        * (x2 - 1.0)
    )
    return t1 * rho1 * rho2 + t2 * (rho1 + rho2) + 2.0 * x * t3 * (rho1 - rho2) + t4


def halftangent_sextic(x, y):
    """Locus of C with half-tangent sum 2 (outer Soddy circle degenerates to
    a line), A=(-1,0), B=(1,0); the stated component, its mirror is y -> -y.
    Floats or arrays, bit for bit alike (powers as products)."""
    x2, y2 = x * x, y * y
    x4, y4 = x2 * x2, y2 * y2
    return (
        -4.0 * (x4 * x2)
        - 4.0 * x4 * (2.0 * y * y + 2.0 * y + 1.0)
        - 4.0 * x * x * (y4 + y2 * y - 4.0 * y - 5.0)
        + 4.0 * (y4 * y) + 13.0 * y4 + 20.0 * (y2 * y) + 8.0 * y * y - 8.0 * y - 12.0
    )


def pstar_circle_functional(a, b, c, da, db, dc) -> float:
    """Sum of three squared brackets; zero iff the P-ellipse six-point conic
    is a circle."""
    f1 = (a * a - da * da) * (c * c - b * b + db * db - dc * dc)
    f2 = (b * b - db * db) * (a * a - c * c + dc * dc - da * da)
    f3 = (c * c - dc * dc) * (b * b - a * a + da * da - db * db)
    return f1 * f1 + f2 * f2 + f3 * f3


def covertex_condition_equilateral_P(da, db, dc) -> float:
    """Co-vertex conconic condition for the equilateral with circumradius 1
    (side sqrt(3))."""
    da2, db2, dc2 = da * da, db * db, dc * dc
    return (
        da2 * db2
        + da2 * dc2
        + db2 * dc2
        - 8.0 * (da2 + db2 + dc2)
        + 48.0
    )


def phyp_circle_functional(a, b, c, la, lb, lc) -> float:
    """Zero iff the P-hyperbola six-point conic is a circle."""
    f1 = (c * c - lc * lc) * (-(a * a) + b * b + la * la - lb * lb)
    f2 = (b * b - lb * lb) * (-(a * a) + c * c + la * la - lc * lc)
    f3 = (a * a - la * la) * (-(b * b) + c * c + lb * lb - lc * lc)
    return f1 * f1 + f2 * f2 + f3 * f3


def phyp_parabola_condition(a, b, c, la, lb, lc):
    """Zero iff the P-hyperbola six-point conic is a parabola; floats or
    arrays, bit for bit alike."""
    a2, b2, c2 = a * a, b * b, c * c
    la2, lb2, lc2 = la * la, lb * lb, lc * lc
    # Squares as products, not ** 2: on floats ** goes through libm's pow,
    # which differs from numpy's exact square in the last bit.
    abc = a * b * c
    q1, q2, q3 = c2 * la2 * lb2, b2 * la2 * lc2, a2 * lb2 * lc2
    mu = abc * abc
    t = (
        q1 * q1
        + q2 * q2
        + q3 * q3
        + mu
        * (
            mu * (-3.0 + 4.0 * (la2 / a2 + lb2 / b2 + lc2 / c2))
            + 2.0 * la2 * lb2 * lc2 * (6.0 - la2 / a2 - lb2 / b2 - lc2 / c2)
            - 6.0 * (q1 + q2 + q3)
        )
    )
    return t


# The plane curves by name, each a function of (x, y).
PLANE_CURVES = {
    "x478_quartic": x478_quartic,
    "covertex_locus_V": covertex_locus_V,
    "halftangent_sextic": halftangent_sextic,
}


# ---------------------------------------------------------------------------
# Degenerate-center loci
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocusSample:
    parameter: float
    driver: Point2
    center: Point2
    implicit_residual: float


@dataclass(frozen=True, eq=False)
class LocusSweep(Sequence[LocusSample]):
    """The samples of a sweep as columns, each the float list of one
    tolist().  An index or a loop builds its LocusSamples anew each time, a
    slice is a LocusSweep.  Not a list: no +, sort or append, and == is
    identity; list(sweep) is the list of samples."""

    parameter: list
    driver_x: list
    driver_y: list
    center_x: list
    center_y: list
    implicit_residual: list

    def __len__(self) -> int:
        return len(self.parameter)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LocusSweep(*(col[i] for col in vars(self).values()))
        th, px, py, cx, cy, r = (col[i] for col in vars(self).values())
        return LocusSample(th, Point2(px, py), Point2(cx, cy), r)

    def __iter__(self):
        for th, px, py, cx, cy, r in zip(*vars(self).values()):
            yield LocusSample(th, Point2(px, py), Point2(cx, cy), r)


def x478_center_for_theta(theta):
    """(C, degenerate-conic center) for C = (cos, sin)*(1/2) on the
    semicircle over AB, A=(1/2,0), B=(-1/2,0), theta in [0, pi].

    A float theta gives two Point2s; an array of angles gives two (x, y)
    pairs of arrays by the same arithmetic, each bit for bit the float call
    on its angle.  The six excircle tangency points of ABC fall on two
    lines, through {A1, B1, C2} and {A2, B2, C1} (right angle at C), and
    the center is where they meet: on C's altitude, (a + b)(a + b + c)/(2c)
    above AB.  With c = 1 and (a + b)^2 = 1 + 2ab = 1 + sin(theta) that is
    (1 + sin + sqrt(1 + sin))/2; the endpoints give the limits (+-1/2, 1).
    """
    cx, cy = 0.5 * np.cos(theta), 0.5 * np.sin(theta)
    y = 0.5 + cy + 0.5 * np.sqrt(1.0 + 2.0 * cy)
    if np.ndim(theta) == 0:
        return Point2(cx, cy), Point2(cx, y)
    return (cx, cy), (cx, y)


X478_EPS = 0.05  # radians left out at either end of the x478 sweep
OSTAR_EPS = 0.03  # radians about each vertex left out of the O* sweep


def sample_locus_x478(n: int) -> LocusSweep:
    """Sweep C over the open upper semicircle (minus X478_EPS at the ends):
    the columns of theta, C, its center and |quartic| as a LocusSweep,
    whose samples are built when indexed."""
    if n < 2:
        raise ValueError("need n >= 2")
    theta = X478_EPS + (math.pi - 2.0 * X478_EPS) * np.arange(n) / (n - 1)
    (cx, cy), (x, y) = x478_center_for_theta(theta)
    return LocusSweep(*(v.tolist() for v in (theta, cx, cy, x, y, abs(x478_quartic(x, y)))))


def ostar_arc_ellipses(t: Triangle) -> dict[str, Conic]:
    """The three locus ellipses, each through the three side midpoints and
    two V-ellipse vertices.

    Those vertices are excircle tangency points: arc a, between B and C,
    takes B2 and C1, the points past A on CA and on AB; arc b takes C2 and
    A1, arc c A2 and B1.
    """
    A1, A2, B1, B2, C1, C2 = excircle_tangency_points(t)
    mids = [midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b)]
    return {
        arc: fit_framed([*mids, p, q]).conic()
        for arc, p, q in (("a", B2, C1), ("b", C2, A1), ("c", A2, B1))
    }


def sample_locus_ostar(t: Triangle, n: int) -> tuple[LocusSweep, dict[str, Conic]]:
    """Sweep P over the circumcircle; report each degenerate center O*
    against the locus ellipse of P's arc: the columns of P's angle, P, O*
    and its residual as a LocusSweep, whose samples are built when indexed,
    and the arcs.

    The circumcircle is read on the triangle's floats (kernels.circumcircle,
    with centers.circumcircle's PointAtInfinity).  P runs over the angles
    2*pi*k/n, k < n,
    less those within OSTAR_EPS of a vertex, in one array pass.
    kernels.vertices gives every P's P-ellipse vertices; kernels.fit_six
    fits the conic through five of them by the package's fit rule, in the
    frame of those five points (no residual6 is computed), and
    kernels.frame_center finds its center there, skipping the sample where
    conic.center finds none.
    P's arc is the one between the two vertex angles around P's angle.  A
    degenerate triad member raises DegenerateMember, and a fit whose norm
    (kernels.frobenius) is 0 or not finite RankDeficient.  The object
    path's stricter rules, five kept vertices apart by more than 1e-9 of
    the triangle's scale and a norm above DET_DEGENERATE_TOL
    (triads._six_point_fit), are not applied.
    """
    corners = [c for v in t.vertices() for c in v.as_tuple()]
    ox, oy, far, radius = kernels.circumcircle(corners, t.sides())
    if far:
        raise PointAtInfinity("u+v+w ~ 0 for X3")
    arcs = ostar_arc_ellipses(t)
    # (angle about the circumcenter, index) per vertex, by angle; arcs
    # "abc" are indexed as their opposite vertices.
    vertex_angles = sorted(
        (math.atan2(v.y - oy, v.x - ox) % (2 * math.pi), k) for k, v in enumerate(t.vertices())
    )
    va = np.array([ang for ang, _ in vertex_angles])
    theta = 2.0 * math.pi * np.arange(n) / n
    gap = np.abs(theta[:, None] - va)
    theta = theta[(np.minimum(gap, 2 * math.pi - gap) >= OSTAR_EPS).all(axis=1)]
    px = ox + radius * np.cos(theta)
    py = oy + radius * np.sin(theta)
    # A zero spread or discriminant is caught by the tests below.
    with np.errstate(divide="ignore", invalid="ignore"):
        xs, ys, bad = kernels.vertices(*corners, kernels.KIND_P_ELLIPSE, px, py)
        if bad.any():
            raise DegenerateMember(f"P-ellipse member collapses at P angle {theta[bad][0]}")
        co, frame, _ = kernels.fit_six(xs, ys)
        norm = kernels.frobenius(co)
        vanished = ~((norm > 0.0) & (norm < math.inf))
        if vanished.any():
            raise RankDeficient(f"no unique six-point conic at P angle {theta[vanished][0]}")
        x, y, has_center = kernels.frame_center(co, frame)
    theta, px, py, x, y = (w[has_center] for w in (theta, px, py, x, y))
    # conic.residual against the ellipse of P's arc: the arc between sorted
    # angles k-1 and k is opposite vertex angle k+1.
    opposite = np.array([k for _, k in vertex_angles])[(np.searchsorted(va, theta) + 1) % 3]
    coeffs = np.array([arcs[arc].coeffs() for arc in "abc"])[opposite].T
    res = kernels.conic_residual(coeffs, x, y)
    return LocusSweep(*(w.tolist() for w in (theta, px, py, x, y, res))), arcs


@dataclass(frozen=True)
class EquilateralOstarReport:
    semi_axes: tuple[float, float]
    center_offsets: tuple[float, float, float]
    midpoint_residuals: tuple[float, ...]
    endpoint_set_error: float
    tangency_discriminants: tuple[float, float]
    top_vertex_error: float
    area_ratio: float


def equilateral_ostar_locus_check() -> EquilateralOstarReport:
    """Side-1 equilateral: locus ellipses centered on the vertices with
    semi-axes sqrt(3)/2 and sqrt(3)/6, plus the tangent-line construction."""
    A = Point2(-0.5, 0.0)
    B = Point2(0.5, 0.0)
    C = Point2(0.0, math.sqrt(3.0) / 2.0)
    t = Triangle(A, B, C)
    arcs = ostar_arc_ellipses(t)
    # Semi-axes and center from the quadratic form of each locus ellipse.
    axes = []
    offsets = []
    for arc, vertex in (("a", A), ("b", B), ("c", C)):
        con = arcs[arc]
        cen = conic_center(con)
        offsets.append(distance(cen, vertex))
        m = con.m
        Q = np.array([[m[0, 0], m[0, 1]], [m[0, 1], m[1, 1]]])
        # Centered form: (p-cen)^T Q (p-cen) = -f(cen)  ->  semi-axes sqrt(k/eig).
        k = -con(cen)
        eig = np.linalg.eigvalsh(Q)
        semi = sorted((math.sqrt(k / e) for e in eig), reverse=True)
        axes.append(tuple(semi))
    mid_res = tuple(
        residual(arcs[arc], midpoint(u, v))
        for arc in ("a", "b", "c")
        for (u, v) in ((t.b, t.c), (t.c, t.a), (t.a, t.b))
    )
    # Arc "c" endpoints: reflections of the midpoints of AC and BC about C.
    c_a = Point2(2 * C.x - (B.x + C.x) / 2, 2 * C.y - (B.y + C.y) / 2)
    c_b = Point2(2 * C.x - (A.x + C.x) / 2, 2 * C.y - (A.y + C.y) / 2)
    end_err = max(residual(arcs["c"], c_a), residual(arcs["c"], c_b))
    la = line_through(A, c_a)
    lb = line_through(B, c_b)
    disc = (
        abs(tangency_discriminant(arcs["c"], la)),
        abs(tangency_discriminant(arcs["c"], lb)),
    )
    c_ab = line_intersection(la, lb)
    top = midpoint(C, c_ab)
    top_err = residual(arcs["c"], top)
    area_ratio = abs(signed_area(A, c_ab, B)) / t.area
    return EquilateralOstarReport(
        semi_axes=axes[2],
        center_offsets=tuple(offsets),
        midpoint_residuals=mid_res,
        endpoint_set_error=end_err,
        tangency_discriminants=disc,
        top_vertex_error=top_err,
        area_ratio=area_ratio,
    )


# ---------------------------------------------------------------------------
# Circle points: the drivers whose six-point conic is a circle
# ---------------------------------------------------------------------------

# The circle test's bound (_circle_conditions): chiefly how far, relative
# to the circumradius, a circle's center may lie from the circumcenter and
# still count as concentric.
_CONCENTRIC_TOL = 1e-4


def _circle_conditions(args) -> tuple:
    """The circle test of the circle searches and of P3.2 and P5.4, for
    the P-ellipse or P-hyperbola triads of the kernel arguments args, on
    floats or elementwise on arrays, with the same bits: the worst of the
    circle functional over s**8 (1e-12 scaled to 1e-6), 1.0 unless the
    six-point conic is a circle, and its center's distance from the
    circumcenter (kernels.circumcircle) over the circumradius; and the
    faults as (mask, exception) pairs: six_point_conic's fit rules
    (triads._six_point_fit; not its sideline rules, which say nothing of
    the conic), then a circumcenter at infinity.  The triangle's sides are
    computed once a call (kernels._sides_deltas), for the functional, the
    circumcircle and the fit."""
    functional = {kernels.KIND_P_ELLIPSE: pstar_circle_functional,
                  kernels.KIND_P_HYPERBOLA: phyp_circle_functional}[args[6]]
    sides_deltas = kernels._sides_deltas(*args)
    sides, focal, _ = sides_deltas
    _, co, *_, (x, y, has_center), rules = _six_point_fit(args, sides_deltas)
    ox, oy, far, r = kernels.circumcircle(args[:6], sides)
    s = kernels._largest(sides)
    s4 = (s * s) * (s * s)
    worst = np.maximum(np.maximum(
        functional(*sides, *focal) / (s4 * s4) * 1e6,
        np.where(has_center, kernels._hypot(x - ox, y - oy) / r, 1.0)),
        (kernels.classify_code(co)[0] != kernels.CLASS_CIRCLE) * 1.0)
    return worst, [*rules, (far, PointAtInfinity("u+v+w ~ 0 for X3"))]


# P*'s scan in sigma = w / (1 + w), k = -w**2, over _PSTAR_CELLS cells of
# [0, _PSTAR_TOP]: w runs to 42, which puts P about 21 frame units out.
_PSTAR_CELLS = 200
_PSTAR_TOP = 42.0 / 43.0
# The forward difference of _polish's Jacobian, in frame units, and the
# most steps a candidate takes.
_POLISH_H = 1e-7
_POLISH_STEPS = 3


def _trilaterate(tri, da, db, dc):
    """The point Q = P - A at distances da, db and dc from the corners A,
    B and C of a framed triangle, where they agree, from tri (B - A, C -
    A, a^2, b^2, c^2): (qx, qy, |Q|^2 - da^2), the 2x2 linear solve of
    |Q|^2 - |Q - X|^2 = da^2 - dx^2 for X = B - A, C - A, and how far Q
    misses da, zero where the three agree.  Floats, or elementwise on
    arrays with the same bits."""
    ex, ey, fx, fy, _, b2, c2 = tri
    alpha, beta = c2 + da * da - db * db, b2 + da * da - dc * dc
    det = 2.0 * (ex * fy - ey * fx)
    qx, qy = (alpha * fy - beta * ey) / det, (beta * ex - alpha * fx) / det
    return qx, qy, qx * qx + qy * qy - da * da


def _pstar_distances(sigma, tri):
    """P*'s distances from A, B and C at k = -w**2, w = sigma / (1 -
    sigma): with the focal sums x_i = sqrt(s_i^2 + w^2), d_A = (x_b + x_c
    - x_a) / 2, and cyclically."""
    w = sigma / (1.0 - sigma)
    xa, xb, xc = (kernels._sqrt(s2 + w * w) for s2 in tri[4:])
    return (xb + xc - xa) / 2.0, (xc + xa - xb) / 2.0, (xa + xb - xc) / 2.0


def _pstar_candidates(tri) -> tuple:
    """P*'s candidates on the framed triangles of the columns tri
    (_trilaterate's): each sign change in sigma of how far the
    trilaterated point of _pstar_distances misses them, one
    batch_sign_changes scan a triangle (a scan whose polish fails gives
    none).  Returns their triangles' indices and distances."""
    rows = tri.T.tolist()

    def miss(sigma, k):
        t = rows[k] if isinstance(k, int) else tri[:, k]
        return _trilaterate(t, *_pstar_distances(sigma, t))[2]

    roots = batch_sign_changes(miss, np.zeros(len(rows)), np.full(len(rows), _PSTAR_TOP), _PSTAR_CELLS)
    roots = [r if isinstance(r, list) else [] for r in roots]
    at = np.repeat(np.arange(len(roots)), [len(r) for r in roots])
    return at, _pstar_distances(np.array(sum(roots, [])), tri[:, at])


def _phyp_candidates(tri) -> tuple:
    """The P-hyperbola circle points' candidates on the framed triangles of
    the columns tri (_trilaterate's), in closed form.  The signed focal
    differences sum to 0, so x_i = x_j + x_k, i opposite the largest side
    (x_i^2 = s_i^2 - k is largest there): the triangle of sides x is flat,
    and by Heron 3k^2 - 2k sum(s^2) + 16 area^2 = 0.  (Squared from x_i =
    x_j + x_k with m = s_i^2 - s_j^2 - s_k^2, it reads 3k^2 - (2m + 4(s_j^2
    + s_k^2))k + 4 s_j^2 s_k^2 - m^2 = 0.)  The larger root is at least the
    mean of the s^2, so only the smaller can be admissible, 0 < k <= min
    s^2.  With the differences (x_i, -x_j, -x_k) the distances are (t, t
    + cB, t + cC), and the trilateration's miss is a quadratic in t, read
    at t = -1, 0 and 1.  The opposite signs negate t and the distances,
    which trilaterate to the same point, so each root t gives a candidate,
    its distances times the sign of t.  Returns the candidates' triangle
    indices and distances."""
    s2, det = tri[4:], tri[0] * tri[3] - tri[1] * tri[2]
    k = 4.0 * det * det / (s2.sum(axis=0) + np.sqrt(s2.sum(axis=0) ** 2 - 12.0 * det * det))
    x = np.where(s2 == s2.max(axis=0), 1.0, -1.0) * np.sqrt(s2 - k)
    cb, cc = np.where(k <= s2.min(axis=0), (-x[2], x[1]), np.nan)
    r0, r1, r2 = (_trilaterate(tri, t, t + cb, t + cc)[2] for t in (-1.0, 0.0, 1.0))
    a, h = (r2 + r0) / 2.0 - r1, (r2 - r0) / 4.0
    r = -(h + np.copysign(np.sqrt(h * h - a * r1), h))
    t = np.array([r / a, r1 / r])
    return np.broadcast_to(np.arange(tri.shape[1]), t.shape), np.sign(t) * np.array([t, t + cb, t + cc])


def _polish(args, s2):
    """One Newton step from the driver (px, py) of each candidate's kernel
    arguments args toward a common zero of u_b - u_a and u_c - u_a, u_i =
    s_i^2 - x_i^2 over the squared sides s2 and the focal sums or
    differences x (kernels._sides_deltas), the Jacobian by forward
    differences of _POLISH_H.  On flat triangles the trilateration's two
    lines are near parallel, so the misses it gives, and the t that
    _phyp_candidates reads off them, lose digits; the step recovers them.
    A candidate whose step is not finite stays."""
    *corners, code, px, py = args
    x = np.square(kernels._sides_deltas(*corners, code, px + [[0.0], [_POLISH_H], [0.0]],
                                        py + [[0.0], [0.0], [_POLISH_H]])[1])
    (g1, p1, q1), (g2, p2, q2) = (s2[i] - s2[0] - x[i] + x[0] for i in (1, 2))
    step = np.array([q1 * g2 - q2 * g1, p2 * g1 - p1 * g2]) / ((p1 - g1) * (q2 - g2) - (q1 - g1) * (p2 - g2))
    return np.where(np.isfinite(step), _POLISH_H * step, 0.0) + (px, py)


def _framed(t) -> tuple:
    """(gx, gy, s, the framed corners, B - A, C - A and the squared sides)
    of t in its frame (kernels.frame); Triangle's error for collinear
    framed corners, and PointAtInfinity for a circumcenter at infinity,
    where no circle is concentric with the circumcircle."""
    (gx, gy, s), f = kernels.frame(*(c for v in t.vertices() for c in v.as_tuple()))
    Triangle(*map(Point2, f[0::2], f[1::2]))  # its refusal of collinear corners
    sides = kernels.triangle_sides(*f)
    if kernels.circumcircle(f, sides)[2]:
        raise PointAtInfinity("u+v+w ~ 0 for X3")
    return gx, gy, s, *f, f[2] - f[0], f[3] - f[1], f[4] - f[0], f[5] - f[1], *(a * a for a in sides)


def _candidates(cols, kind: str) -> tuple:
    """The `kind` circle points' candidates on the framed triangles of the
    columns cols (_framed's rows): those with finite distances, each
    trilaterated.  (P*'s distances are positive: the x_i, with the sides,
    make a triangle by Minkowski's inequality.)  Returns their triangles'
    indices, their distances from the corners and the kernel arguments of
    their triads, on arrays."""
    at, d = (_pstar_candidates if kind == "p_ellipse" else _phyp_candidates)(cols[9:])
    d = np.reshape(d, (3, -1))
    keep = np.isfinite(d).all(axis=0)
    at, d = np.ravel(at)[keep], d[:, keep]
    qx, qy, _ = _trilaterate(cols[9:, at], *d)
    return at, d, (*cols[3:9, at], kernels.KIND_CODES[kind], cols[3, at] + qx, cols[4, at] + qy)


def _circle_points(ts, kind: str, least: int) -> list:
    """For each triangle of ts: the points whose `kind` six-point conic is
    a circle concentric with its circumcircle, as (xy, functional value)
    pairs in the plane, by clearance from the corners, most first; or the
    search's library error, NotConverged with the candidate of least
    circle-test worst and that worst (none without a candidate) where
    fewer than `least` pass.

    Each member's vertices are symmetric about its side's midpoint, so
    such a circle is centered at the circumcenter, and it exists iff u_i =
    s_i^2 - x_i^2, over the sides s and the focal sums ("p_ellipse") or
    |differences| ("p_hyperbola") x, takes one value k for all three
    members: the circle lemma, which tests/test_certificates.py proves
    (the vertex distance |OV|^2 = R^2 + (x_i^2 - s_i^2) / 4, and the
    V-triads' factors of u_a - u_b).
    Given k, the x_i fix the distances from the corners, up to a common
    shift t for the differences, and P is their trilateration.  P*
    (k < 0) is each sign change of a scan in k (_pstar_candidates), the
    P-hyperbola points (0 < k <= min s^2) come in closed form
    (_phyp_candidates).  Every candidate of every triangle (_candidates)
    takes Newton steps (_polish), each followed by the circle test
    (_circle_conditions: worst at most _CONCENTRIC_TOL, no fault) in one
    array call, until it passes or has taken _POLISH_STEPS: on a
    near-degenerate triangle the fit decides "circle" on rounding, so a
    point that fails may pass one step on.  All of it runs in the frame of
    each triangle (kernels.frame); a triangle gets the same bits alone as
    in a batch.
    """
    out = [_attempt(_framed, t) for t in ts]
    live = [i for i, job in enumerate(out) if not isinstance(job, Exception)]
    cols = np.array([out[i] for i in live]).reshape(-1, 16).T
    with np.errstate(all="ignore"):
        at, d, args = _candidates(cols, kind)
        failed = np.ones(at.shape, bool)
        for _ in range(_POLISH_STEPS):
            args = (*args[:7], *np.where(failed, _polish(args, cols[13:, at]), args[7:]))
            worst, faults = _circle_conditions(args)
            failed = functools.reduce(np.logical_or, (m for m, _ in faults), ~(worst <= _CONCENTRIC_TOL))
            if not failed.any():
                break
        gx, gy, s = cols[:3, at]
        sides, focal, _ = kernels._sides_deltas(*args)
        found = np.array([at, -np.min(d, axis=0), gx + s * args[7], gy + s * args[8],
                          (pstar_circle_functional if kind == "p_ellipse" else phyp_circle_functional)(
                              *sides, *focal) * s**8, worst, failed])
    found = found.T.tolist()
    for k, i in enumerate(live):
        mine = sorted(h[1:] for h in found if h[0] == k)
        hits = [((x, y), v) for _, x, y, v, _, bad in mine if not bad]
        best = min(mine, key=lambda h: h[4], default=None)
        out[i] = hits if len(hits) >= least else NotConverged(
            f"{len(hits)} {kind} circle points pass the circle test, {least} wanted",
            *(((best[1], best[2]), best[4]) if best else ()))
    return out


def _attempt(fn, *args):
    """fn(*args), or the library error it raised."""
    try:
        return fn(*args)
    except TriconicError as exc:
        return exc


def _only(results):
    """The one result of a batch of one, raised if it is an exception."""
    (r,) = results
    if isinstance(r, Exception):
        raise r
    return r


def pstar_candidates_batch(ts) -> list:
    """find_pstar_candidates of each triangle of ts, from one search over
    them all: its candidates, or the library error of its search."""
    return _circle_points(ts, "p_ellipse", 1)


def find_pstar_candidates(t: Triangle):
    """The points P* whose P-ellipse six-point conic is a circle concentric
    with the circumcircle, as (xy, value) pairs, value the P-ellipse circle
    functional there, principal point first.

    With k = -w^2 < 0 and the focal sums x_i = sqrt(s_i^2 + w^2), the
    driver at distances d_A = (x_b + x_c - x_a) / 2 (and cyclically) from
    the corners is trilaterated; P* is each sign change of how far it
    misses them, scanned in sigma = w / (1 + w) over 0 <= w <= 42 in the
    triangle's frame (kernels.frame) and found by Brent.  The functional
    also vanishes at the vertices, and genuine secondary points can sit
    close to a vertex of a thin triangle, so every candidate must pass the
    circle test (_circle_conditions), and they are ordered by clearance
    from the vertices.  A batch of one of pstar_candidates_batch.
    """
    return _only(pstar_candidates_batch([t]))


def phyp_circle_points_batch(ts) -> list:
    """find_phyp_circle_points of each triangle of ts, from one search over
    them all: the pair, or the library error of a search that did not find
    two points."""
    return [
        h if isinstance(h, Exception) else tuple(Point2(*xy) for xy in sorted(xy for xy, _ in h[:2]))
        for h in _circle_points(ts, "p_hyperbola", 2)
    ]


def find_phyp_circle_points(t: Triangle) -> tuple[Point2, Point2]:
    """The pair of points whose P-hyperbola six-point conic is a circle
    concentric with the circumcircle, sorted by (x, y).

    In the triangle's frame (kernels.frame) the focal |differences| x_i =
    sqrt(s_i^2 - k), 0 < k <= min s^2, must satisfy x_i = x_j + x_k, i
    opposite the largest side: a quadratic in k, solved in closed form, as
    is each point of the pair, one for each sign of the differences,
    trilaterated from its distances (_phyp_candidates).  Each point must
    pass the circle test (_circle_conditions).  A batch of one of
    phyp_circle_points_batch.
    """
    return _only(phyp_circle_points_batch([t]))


# ---------------------------------------------------------------------------
# Region maps and zero-set tracing
# ---------------------------------------------------------------------------

REGION_KINDS = ("v_ellipse_over_C", "p_ellipse_over_P", "p_hyperbola_over_P")
# The class names, indexed by class code.
_CLASS_NAMES = np.array([kernels.CLASS_NAMES[c] for c in range(len(kernels.CLASS_NAMES))], dtype=object)


@dataclass(frozen=True)
class RegionGrid:
    bbox: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    nx: int
    ny: int
    cells: tuple[tuple[str, ...], ...]  # row-major, cells[j][i], j indexes y

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        xmin, xmax, ymin, ymax = self.bbox
        return (
            xmin + (i + 0.5) * (xmax - xmin) / self.nx,
            ymin + (j + 0.5) * (ymax - ymin) / self.ny,
        )


def region_map(t: Triangle, kind: str, grid: tuple[int, int], bbox=None) -> RegionGrid:
    """Classify the six-point conic per cell, driving C or P over the grid.

    The cells are classified by the three kernel stages a class reads,
    kernels.vertices, kernels.fit_six and kernels.classify_code, with the
    triangle's corners (all six on a P map, A and B on the V map) as
    floats, so that what depends on them alone is computed once a map, and
    the cell centres as a row of x and a column of y, so that what depends
    on one coordinate alone is computed once a column or a row.  The grid
    runs in tiles of at most kernels._BATCH_CHUNK cells: bands of whole
    rows, and a row wider than that in pieces of it.  A cell whose triad
    has a degenerate member or whose fit fails is CLASS_FAILED,
    six_point's rule, so each cell is bit for bit six_point's class on its
    floats; the class codes become names in one gather.  bbox defaults to
    the square of side four circumradii about the circumcenter.
    """
    if kind not in REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise ValueError("grid resolution must be at least 2x2")
    if bbox is None:
        cc = circumcircle(t)
        r = 2.0 * cc.radius
        bbox = (cc.center.x - r, cc.center.x + r, cc.center.y - r, cc.center.y + r)
    xmin, xmax, ymin, ymax = bbox
    ax, ay, bx, by, cx, cy = t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y
    # Cell centres by RegionGrid.cell_center's expression, x along a row.
    xs = (xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx)[None, :]
    ys = (ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny)[:, None]
    kcode = {
        "v_ellipse_over_C": kernels.KIND_V_ELLIPSE,
        "p_ellipse_over_P": kernels.KIND_P_ELLIPSE,
        "p_hyperbola_over_P": kernels.KIND_P_HYPERBOLA,
    }[kind]
    chunk = kernels._BATCH_CHUNK
    band = max(1, chunk // nx)
    tiles = [
        (slice(lo, lo + band), slice(left, left + chunk))
        for lo in range(0, ny, band)
        for left in range(0, nx, chunk)
    ]
    codes = np.empty((ny, nx), dtype=np.intp)
    with np.errstate(all="ignore"):
        for rows, cols in tiles:
            if kind == "v_ellipse_over_C":
                vx, vy, bad = kernels.vertices(ax, ay, bx, by, xs[:, cols], ys[rows], kcode, 0.0, 0.0)
            else:
                vx, vy, bad = kernels.vertices(ax, ay, bx, by, cx, cy, kcode, xs[:, cols], ys[rows])
            co = kernels.fit_six(vx.reshape(6, -1), vy.reshape(6, -1))[0]
            code = kernels.classify_code(co)[0].reshape(bad.shape)
            codes[rows, cols] = np.where(bad, kernels.CLASS_FAILED, code)
    cells = tuple(map(tuple, _CLASS_NAMES[codes].tolist()))
    return RegionGrid(tuple(bbox), nx, ny, cells)


def trace_zero_set(fn, bbox, n_seeds: int = 64) -> list[list[Point2]]:
    """The zero set of fn in bbox as chained polylines, by marching squares
    on an n x n grid, n = max(8, n_seeds).

    fn has the contract of batch_sign_changes: it is called once on arrays,
    elementwise, over the grid's (n + 1)^2 nodes, and on floats to polish
    the roots.  A grid edge is crossed where its end values are finite and
    of opposite sign, or exactly one of them is 0.  A zero end is the
    crossing itself; any other crossed edge has one root, found by
    _brent_cell on floats with the edge as s in [1, 2] (the point start +
    (end - start) * (s - 1); s - 1 is exact, so Brent's relative tolerance
    holds along the edge), which both cells beside the edge share.
    Crossings are keyed exactly, a zero end by its node and a root by its
    edge's two nodes, and segments chain by those keys.  A cell takes its
    crossings edge by edge and pairs the first with the second and the
    third with the fourth; a segment along an edge where fn is 0 is kept
    once.  Saddle cells and singular points carry no topology guarantee.
    A polish that meets NaN or runs out of iterations raises NotConverged.
    """
    xmin, xmax, ymin, ymax = bbox
    n = max(8, int(n_seeds))
    w = n + 1  # node j * w + i is (xs[i], ys[j])
    xs = xmin + (xmax - xmin) * np.arange(w) / n
    ys = ymin + (ymax - ymin) * np.arange(w) / n
    vals = np.asarray(fn(*np.meshgrid(xs, ys)), dtype=float)
    # An edge is crossed where its ends' signs differ and neither is NaN.
    sign = np.where(np.isfinite(vals), np.sign(vals), np.nan)
    row, col = (np.abs(np.diff(sign, axis=k)) > 0.0 for k in (1, 0))
    cells = np.argwhere(row[:-1] | row[1:] | col[:, :-1] | col[:, 1:]).tolist()
    xs, ys, v, sign = xs.tolist(), ys.tolist(), vals.ravel().tolist(), sign.ravel().tolist()

    def node(p):
        return xs[p % w], ys[p // w]

    def along(a, b, t):
        (x, y), (xe, ye) = node(a), node(b)
        return x + (xe - x) * t, y + (ye - y) * t

    def crossing(a, b):
        # The key of the crossing on the edge from node a to node b > a.
        if v[a] == 0.0 or v[b] == 0.0:
            key = a if v[a] == 0.0 else b
            points[key] = node(key)
            return key
        if (a, b) not in points:
            s = _brent_cell(lambda s: fn(*along(a, b, s - 1.0)), 1.0, 2.0, v[a], v[b])
            points[a, b] = along(a, b, s - 1.0)
        return a, b

    points, segments, seen = {}, [], set()  # points: crossing key -> (x, y)
    for j, i in cells:
        c = j * w + i
        found = []
        # The cell's edges in turn: bottom, right, top and left.
        for a, b in ((c, c + 1), (c + 1, c + 1 + w), (c + w, c + 1 + w), (c, c + w)):
            if abs(sign[a] - sign[b]) > 0.0:
                key = crossing(a, b)
                # A zero corner is reported by both edges that meet there.
                if not found or key != found[-1]:
                    found.append(key)
        if len(found) >= 2 and found[-1] == found[0]:
            found.pop()
        for k in range(0, len(found) - 1, 2):
            seg = (found[k], found[k + 1])
            if seg not in seen:
                seen.update((seg, seg[::-1]))
                segments.append(seg)

    adj = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            adj.setdefault(key, []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start, seg in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        chain = list(seg)
        # Walk on from the last crossing, then (reversed) from the first.
        for _ in range(2):
            while True:
                end = chain[-1]
                nxt = next((idx for idx in adj[end] if not used[idx]), None)
                if nxt is None:
                    break
                used[nxt] = True
                p, q = segments[nxt]
                chain.append(q if p == end else p)
            chain.reverse()
        polylines.append([Point2(*points[key]) for key in chain])
    return polylines


# ---------------------------------------------------------------------------
# The sign-change scans
# ---------------------------------------------------------------------------

_BRENT_XTOL = 1e-300
_BRENT_RTOL = 8.9e-16  # just above 4 * eps, the least the method can hold
_BRENT_MAXITER = 100


def _brent_cell(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in the cell [a, b] by Brent's method on floats, from the
    end values fa = f(a) and fb = f(b), which differ in sign or include a 0.

    R. P. Brent, Algorithms for Minimization without Derivatives (1973),
    ch. 4, step for step as scipy's brentq.c runs it (xtol 1e-300, rtol
    8.9e-16, at most 100 iterations): the same iterates and the same root
    to the last bit.  An end where f is 0 is the root itself.  Raises
    NotConverged, with the last iterate and its value, when f returns NaN or
    the iterations run out.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({a}) and f({b}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is taken
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # Secant.
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # Inverse quadratic interpolation.
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C divides to inf or NaN here, and bisects
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise NotConverged(f"Brent's method met NaN at {xcur}", xcur, fcur)
    raise NotConverged(
        f"Brent's method did not converge in {_BRENT_MAXITER} iterations", xcur, fcur
    )


def bracket_sign_changes(f, lo, hi, steps: int = 60, first: bool = False) -> tuple:
    """The grid step of batch_sign_changes: the cells where many functions
    change sign, one scan each.  Scan k runs on [lo[k], hi[k]], and f(s,
    k) evaluates function k[i] at s[i] on arrays.

    One f call reads every scan's grid lo + (hi - lo) * j / steps, j =
    0..steps, scan by scan (k holds each scan's index steps + 1 times, so
    f may read s as one row a scan); a cell is bracketed where its end
    values are finite and of opposite sign, a value of exactly 0 counting
    as positive (with first, only each scan's first bracketed cell).
    Returns (scan, a, b, fa, fb): for each bracketed cell, by scan and then
    by s, its scan's index, its ends and f's values there.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    grid = lo[:, None] + (hi - lo)[:, None] * np.arange(steps + 1) / steps
    values = np.asarray(f(grid.ravel(), np.repeat(np.arange(lo.size), steps + 1)))
    values = values.reshape(grid.shape)
    finite, neg = np.isfinite(values), values < 0.0
    bracketed = finite[:, :-1] & finite[:, 1:] & (neg[:, :-1] != neg[:, 1:])
    if first:
        bracketed &= np.cumsum(bracketed, axis=1) == 1
    scan, k = np.nonzero(bracketed)
    return scan, grid[scan, k], grid[scan, k + 1], values[scan, k], values[scan, k + 1]


def batch_sign_changes(f, lo, hi, steps: int = 60, first: bool = False) -> list:
    """The sign changes of many functions, one scan each: the cells of
    bracket_sign_changes (with first, only each scan's first bracketed
    cell), each polished by _brent_cell (to about 4 ulp) from its end
    values, so no grid point is evaluated twice.  f(s, k) evaluates
    function k: on arrays for the grid, and on a float s and the scan's
    int index k for the polish.  Brent returns a cell end where f is 0 as
    the root itself: a grid zero that f touches from below is reported by
    both of its cells, one it touches from above by neither.  Returns, for
    each scan, its roots in order (with first, its root or None), or the
    NotConverged of its first cell whose polish failed, after which the
    scan polishes no further cell.
    """
    scan, a, b, fa, fb = bracket_sign_changes(f, lo, hi, steps, first)
    out = [[] for _ in range(np.size(lo))]
    for k, *cell in zip(scan.tolist(), a.tolist(), b.tolist(), fa.tolist(), fb.tolist()):
        if isinstance(out[k], list):
            try:
                out[k].append(_brent_cell(lambda x, k=k: f(x, k), *cell))
            except NotConverged as exc:
                out[k] = exc
    if first:
        return [r if isinstance(r, NotConverged) else next(iter(r), None) for r in out]
    return out
