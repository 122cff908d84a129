"""The four focal-conic triads and their six-point conics.

A triad attaches one conic to each side: foci at (B,C), (C,A), (A,B).
V-kinds pass through the opposite vertex, P-kinds through a chosen point P.
Each triad is centered at the side midpoints and its six vertices lie on a
conic.  The per-kind concurrency and incidence claims are checked in
verify, each in its proposition, on the kernels' arrays: the pair points
pairwise_intersections reads (kernels.pair_points), and the line pairs of
kernels.focal_pairs, the pair chords: a V-ellipse pair's is its first line,
and the two-branch chords are the lines not through the Soddy centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import DET_DEGENERATE_TOL
from .conic import (
    Conic,
    ConicClass,
    FocalConic,
    FramedFit,
)
from .errors import (
    DegenerateMember,
    PointOffSideline,
    RankDeficient,
)
from .geom import (
    LineEq,
    Point2,
    Triangle,
    midpoint,
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
    """(A1, A2, B1, B2, C1, C2), by kernels.vertices on the triad's floats
    (the triad's signed deltas): bit for bit the vertices six_point_conic
    fits.

    The signed delta makes (A1, B1, C1) the extouch triangle for
    V-hyperbolas and matches the excircle tangency labels for V-ellipses.
    A degenerate member (lambda = 0) contributes its midpoint twice.
    """
    xs, ys, _ = kernels.vertices(*_kernel_args(tr.t, tr.kind, tr.p))
    return tuple(Point2(x, y) for x, y in zip(xs, ys))


def six_point_conic(tr: ConicTriad) -> SixPointConicReport:
    """The conic through the triad's six vertices, on the kernel's floats
    (_six_point_rules): kernels.vertices, then kernels.fit_six, which leaves
    out the later vertex of the closest vertex pair and fits the other five.

    Class (kernels.classify_code), center (kernels.frame_center) and
    residual6 (the left-out vertex's residual) are all taken in the frame of
    the fit; class and residual6 are bit for bit kernels.six_point's.  The
    Carnot product and its sideline test run on vertices built in the frame
    of the triangle (kernels.frame).  The first of the rules that holds is
    raised.
    """
    _, co, frame, res6, (x, y, has_center), product, rules = _six_point_rules(
        _kernel_args(tr.t, tr.kind, tr.p))
    for mask, exc in rules:
        if mask:
            raise exc(0) if callable(exc) else exc
    return SixPointConicReport(
        fit=FramedFit(co, frame),
        conic_class=ConicClass(kernels.CLASS_NAMES[kernels.classify_code(co)[0]]),
        residual6=res6,
        center=Point2(x, y) if has_center else None,
        carnot_product=product,
    )


def _six_point_fit(args, sides_deltas) -> tuple:
    """The six-point conic of the triads of the kernel arguments args
    (_kernel_args), given their kernels._sides_deltas, on floats or
    elementwise on arrays, with the same bits: the vertices and member flag
    (kernels.vertex_rows), kernels.fit_six's fit (coefficients, frame,
    left-out vertex), the center (kernels.frame_center: x, y,
    has_center), and six_point_conic's fit rules as (mask, exception)
    pairs, in its order: DegenerateMember where a member degenerates,
    RankDeficient where two of the five kept vertices are within 1e-9 of
    the largest side or their fit's norm is not above DET_DEGENERATE_TOL."""
    xs, ys, bad = kernels.vertex_rows(args[:6], sides_deltas)
    fit = kernels.fit_six(xs, ys)
    co, frame, out = fit
    s = kernels._largest(sides_deltas[0])
    return (xs, ys, bad), fit, kernels.frame_center(co, frame), [
        (bad, DegenerateMember("a triad member degenerates")),
        (kernels.kept_gap(xs, ys, out) <= 1e-9 * s,
         RankDeficient("fewer than 5 distinct triad vertices")),
        (np.logical_not(kernels.frobenius(co) > DET_DEGENERATE_TOL),
         RankDeficient("five points do not determine a unique conic")),
    ]


def _six_point_rules(args) -> tuple:
    """_six_point_fit of args, as the vertices, coefficients, frame,
    kernels.residual6 (the left-out vertex's residual) and center, with
    the Carnot product (_carnot_rule) and all of six_point_conic's rules:
    the fit rules, then the sideline rules, on the triangle and vertices
    both in the triangle's frame (kernels.frame), so that they see the
    triangle's shape to its own precision wherever it lies:
    DegenerateMember where a member degenerates there, and _carnot_rule's.
    Floats, or elementwise on arrays."""
    vertices, fit, center, rules = _six_point_fit(args, kernels._sides_deltas(*args))
    _, framed = kernels.frame(*args[:6], *args[7:])
    xs, ys, bad = kernels.vertices(*framed[:6], args[6], *framed[6:])
    product, sideline = _carnot_rule(framed[:6], xs, ys)
    return (vertices, *fit[:2], kernels.residual6(*vertices[:2], fit), center, product,
            [*rules, (bad, DegenerateMember("a triad member degenerates")), sideline])


def _carnot_rule(corners, xs, ys) -> tuple:
    """kernels.carnot's product of the vertices (xs, ys) on the sidelines
    of the corners (ax, ay, bx, by, cx, cy), and its rule (mask,
    exception): PointOffSideline for the first vertex off its sideline,
    as a function of the trial's index.  Floats, or elementwise on (6, n)
    arrays."""
    product, off = kernels.carnot(*corners, xs, ys)

    def fault(i):
        # Column i of the (6, n) arrays, or the floats as one column; the
        # vertex named as Point2's repr names it, though a NaN vertex
        # builds no Point2.
        k = np.reshape(off, (6, -1))[:, i].argmax()
        x, y = (float(np.reshape(v, (6, -1))[k, i]) for v in (xs, ys))
        return PointOffSideline(f"Point2(x={x!r}, y={y!r}) off its sideline")

    return product, (np.logical_or.reduce(off), fault)


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
