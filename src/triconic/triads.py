"""The four focal-conic triads and their six-point conics.

A triad attaches one conic to each side: foci at (B,C), (C,A), (A,B).
V-kinds pass through the opposite vertex, P-kinds through a chosen point P.
Each triad is centered at the side midpoints and its six vertices lie on a
conic.  The per-kind concurrency and incidence claims are checked in
verify, each in its proposition, from pairwise_intersections and
two_branch_chords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .centers import soddy_centers
from .config import DET_DEGENERATE_TOL
from .conic import (
    Conic,
    ConicClass,
    FocalConic,
    FramedFit,
    covertices_of_focal_conic,
)
from .errors import (
    DegenerateMember,
    NotFound,
    PointOffSideline,
    RankDeficient,
)
from .geom import (
    LineEq,
    Point2,
    Triangle,
    distance,
    midpoint,
    signed_area,
)

TRIAD_KINDS = ("v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola")

@dataclass(frozen=True)
class ConicTriad:
    kind: str
    t: Triangle
    p: Point2 | None
    # Signed per-side axis quantities: sums delta for ellipse kinds,
    # differences lambda for hyperbola kinds, as kernels._sides_deltas
    # computes them (the kernels' vertices follow from these bits).
    deltas: tuple[float, float, float]
    members: tuple[FocalConic | None, FocalConic | None, FocalConic | None]
    # Perpendicular-bisector line standing in for a degenerate member
    # (isosceles V-hyperbola).
    degenerate_lines: tuple[LineEq | None, LineEq | None, LineEq | None]

    def has_degenerate_member(self) -> bool:
        return any(m is None for m in self.members)


@dataclass(frozen=True)
class SixPointConicReport:
    fit: FramedFit
    conic_class: ConicClass
    residual6: float
    center: Point2 | None
    carnot_product: float

    @property
    def conic(self) -> Conic:
        """The fitted conic in plane coordinates, built when read."""
        return self.fit.conic()


# Why a member of a P-kind triad degenerates, by kind: kernels._sides_deltas
# flags it (a driver on a vertex collapses two members of either kind).
_FAULTS = {
    "p_ellipse": "P on a side segment: an ellipse member collapses",
    "p_hyperbola": "P on a sideline extension or a perpendicular bisector: "
    "a hyperbola member collapses",
}


def _kernel_args(t: Triangle, kind: str, p: Point2 | None) -> tuple:
    """The arguments (ax, ay, bx, by, cx, cy, kind code, px, py) of the
    kernels on floats for the triad of t with driver p (the origin without)."""
    p = p or Point2(0.0, 0.0)
    return (t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_CODES[kind], p.x, p.y)


def driver_fault(t: Triangle, kind: str, p: Point2) -> str | None:
    """Why the P-kind triad of t with driver p degenerates, or None when
    build_triad(t, kind, p) builds all three members: the kernel's member
    guard (kernels._sides_deltas), which build_triad raises
    DegenerateMember on, for callers that only need to know."""
    return _FAULTS[kind] if kernels._sides_deltas(*_kernel_args(t, kind, p))[2] else None


def build_triad(t: Triangle, kind: str, p: Point2 | None = None) -> ConicTriad:
    """The triad of t of the given kind, with driver p for the P-kinds.

    Sides, signed deltas and the member guard are kernels._sides_deltas';
    DegenerateMember where it flags a member.  An isosceles V-hyperbola
    member (|lambda| <= kernels.MEMBER_GUARD times the largest side) is
    None, with its perpendicular bisector in degenerate_lines.
    """
    if kind not in TRIAD_KINDS:
        raise ValueError(f"unknown triad kind {kind!r}")
    if kind.startswith("p_"):
        if p is None:
            raise ValueError(f"{kind} needs a point P")
    else:
        p = None
    sides, deltas, bad = kernels._sides_deltas(*_kernel_args(t, kind, p))
    if bad:
        raise DegenerateMember(_FAULTS[kind])
    guard = kernels.MEMBER_GUARD * max(sides)
    shape = "ellipse" if kind.endswith("ellipse") else "hyperbola"
    A, B, C = t.a, t.b, t.c
    members: list[FocalConic | None] = []
    deglines: list[LineEq | None] = []
    for (f1, f2), d in zip(((B, C), (C, A), (A, B)), deltas):
        if kind == "v_hyperbola" and abs(d) <= guard:
            members.append(None)
            deglines.append(_perp_bisector(f1, f2))
        else:
            members.append(FocalConic(f1, f2, abs(d), shape))
            deglines.append(None)
    return ConicTriad(kind, t, p, deltas, tuple(members), tuple(deglines))


def _perp_bisector(p: Point2, q: Point2) -> LineEq:
    d = q - p
    m = midpoint(p, q)
    return LineEq(d.x, d.y, -(d.x * m.x + d.y * m.y))


def triad_vertices(tr: ConicTriad) -> tuple[Point2, ...]:
    """(A1, A2, B1, B2, C1, C2), by kernels.vertex_coords from the kernel's
    sides and the triad's signed deltas: bit for bit the vertices
    six_point_conic fits.

    The signed delta makes (A1, B1, C1) the extouch triangle for
    V-hyperbolas and matches the excircle tangency labels for V-ellipses.
    A degenerate member (lambda = 0) contributes its midpoint twice.
    """
    args = _kernel_args(tr.t, tr.kind, tr.p)
    sides, _, _ = kernels._sides_deltas(*args)
    xs, ys = kernels.vertex_coords(*args[:6], sides, tr.deltas)
    return tuple(Point2(x, y) for x, y in zip(xs, ys))


def triad_covertices(tr: ConicTriad) -> tuple[Point2, ...]:
    """Co-vertices of the three members; for hyperbolas these are the
    conjugate-axis endpoints (rendering parity only)."""
    out: list[Point2] = []
    for member in tr.members:
        if member is None:
            raise DegenerateMember("degenerate member has no co-vertices")
        out.extend(covertices_of_focal_conic(member))
    return tuple(out)


def carnot_product(t: Triangle, six) -> float:
    """Product of the six unsigned sideline ratios (Carnot's criterion).

    Expects (A1, A2) on line BC, (B1, B2) on CA, (C1, C2) on AB.
    """
    corners = [w for v in t.vertices() for w in v.as_tuple()]
    return _carnot(corners, [p.x for p in six], [p.y for p in six])


def _carnot(corners, xs, ys) -> float:
    """kernels.carnot's product for the corners (ax, ay, bx, by, cx, cy)
    and the vertices' floats; PointOffSideline for the first vertex off its
    sideline."""
    product, off = kernels.carnot(*corners, xs, ys)
    if any(off):
        k = off.index(True)
        raise PointOffSideline(f"{Point2(xs[k], ys[k])} off its sideline")
    return product


def six_point_conic(tr: ConicTriad) -> SixPointConicReport:
    """The conic through the triad's six vertices, on the kernel's floats:
    kernels.vertices, then kernels.fit_six, which leaves out the later
    vertex of the closest vertex pair and fits the other five.

    Class (kernels.classify_code), center (kernels.frame_center) and
    residual6 (the left-out vertex's residual) are all taken in the frame of
    the fit; class and residual6 are bit for bit kernels.six_point's.  The
    Carnot product and its sideline test run on vertices built in the frame
    of the triangle (centroid, scale).  RankDeficient when the five kept
    vertices are not distinct (within 1e-9 of the triangle's scale) or their
    fit vanishes.
    """
    t = tr.t
    xs, ys, bad = kernels.vertices(*_kernel_args(t, tr.kind, tr.p))
    if bad:
        raise DegenerateMember("a triad member degenerates")
    co, frame, out, res6 = kernels.fit_six(xs, ys)
    if kernels.kept_gap(xs, ys, out) <= 1e-9 * t.scale():
        raise RankDeficient("fewer than 5 distinct triad vertices")
    if not kernels.frobenius(co) > DET_DEGENERATE_TOL:
        raise RankDeficient("five points do not determine a unique conic")
    code = kernels.classify_code(co)[0]
    x, y, has_center = kernels.frame_center(co, frame)
    return SixPointConicReport(
        fit=FramedFit(co, frame),
        conic_class=ConicClass(kernels.CLASS_NAMES[code]),
        residual6=res6,
        center=Point2(x, y) if has_center else None,
        carnot_product=_framed_carnot(tr),
    )


def _framed_carnot(tr: ConicTriad) -> float:
    """carnot_product of the triad's vertices, triangle and vertices both
    in the frame q' = (q - g) / s of the triangle: the sideline test then
    sees the triangle's shape to its own precision wherever it lies."""
    g, s = _triangle_frame(tr.t)
    framed = [
        ((q.x - g.x) / s, (q.y - g.y) / s)
        for q in (*tr.t.vertices(), tr.p or g)
    ]
    (ax, ay), (bx, by), (cx, cy), (px, py) = framed
    xs, ys, bad = kernels.vertices(ax, ay, bx, by, cx, cy, kernels.KIND_CODES[tr.kind], px, py)
    if bad:
        raise DegenerateMember("a triad member degenerates")
    return _carnot((ax, ay, bx, by, cx, cy), xs, ys)


def _triangle_frame(t: Triangle) -> tuple[Point2, float]:
    """Centroid g and scale s of the frame q' = (q - g) / s."""
    return Point2((t.a.x + t.b.x + t.c.x) / 3.0, (t.a.y + t.b.y + t.c.y) / 3.0), t.scale()


def pairwise_intersections(tr: ConicTriad) -> list[list[Point2]]:
    """Real intersections for the pairs (b,c), (c,a), (a,b), by
    kernels.pair_points on the triad's floats: at most 4 a pair.

    Index 0 is the "A" pair (members with foci (C,A) and (A,B)), matching
    the naming A', A'' for the intersections of the b- and c-members.
    """
    xs, ys, keep, bad = kernels.pair_points(*_kernel_args(tr.t, tr.kind, tr.p))
    if bad:
        raise DegenerateMember("pairwise intersections need nondegenerate members")
    return [[Point2(x, y) for x, y, ok in zip(*row) if ok] for row in zip(xs, ys, keep)]


def _focal_diff_residual(p: Point2, member: FocalConic) -> float:
    return abs(
        abs(distance(p, member.focus1) - distance(p, member.focus2))
        - member.axis_length
    )


def two_branch_chords(tr: ConicTriad) -> tuple[LineEq, LineEq, LineEq]:
    """Chords through the opposite-branch intersections of the hyperbola
    pairs (b,c), (c,a), (a,b), from one kernels.focal_pairs call.

    Of each pair's two lines, the one through the Soddy centers X175/X176
    is the Soddy line; the other is the sought chord.  Works even when a
    chord's endpoints are complex.
    """
    if tr.kind != "v_hyperbola":
        raise ValueError("two_branch_chords applies to V-hyperbola triads")
    (gx, gy, s), pairs, bad = kernels.focal_pairs(*_kernel_args(tr.t, tr.kind, tr.p))
    if bad:
        raise DegenerateMember("two-branch chords need nondegenerate members")
    framed = [((q.x - gx) / s, (q.y - gy) / s) for q in soddy_centers(tr.t) if q is not None]
    chords = []
    for _, _, lines in pairs:
        scores = [max(abs(l * x + m * y + n) for x, y in framed) / math.hypot(l, m)
                  for l, m, n in lines]
        soddy = 0 if scores[0] <= scores[1] else 1
        if scores[soddy] > 1e-6:
            raise NotFound("neither line of the pair is the Soddy line")
        l, m, n = lines[1 - soddy]
        chords.append(LineEq(l, m, n * s - l * gx - m * gy))
    return tuple(chords)


def second_common_point(tr: ConicTriad) -> Point2:
    """Second common point P' of a P-hyperbola triad, by
    kernels.second_point on the triad's floats; NotFound without one."""
    if tr.kind != "p_hyperbola":
        raise ValueError("second_common_point applies to P-hyperbola triads")
    args = _kernel_args(tr.t, tr.kind, tr.p)
    x, y, found = kernels.second_point(*args[:6], *args[7:])
    if not found:
        raise NotFound("no second triple-common point found")
    return Point2(x, y)


def equal_area_check(tr: ConicTriad) -> tuple[float, float]:
    """Areas of the two vertex triangles (A1,B1,C1) and (A2,B2,C2)."""
    A1, A2, B1, B2, C1, C2 = triad_vertices(tr)
    s1 = abs(signed_area(A1, B1, C1))
    s2 = abs(signed_area(A2, B2, C2))
    return s1, s2
