"""Checks of one configuration on the object path, and the constructions
they use that the package no longer needs.

The appendix blocks' checks (A1-A6) ran trial by trial before the
verifier ran them on arrays, every trial at once; they are kept as the
references its batched checks are tested against.  The X55 conjecture's
(P5.5, x55_conjecture_check) measured the six vertices' spread about the
reflection triangle's circumcenter in the plane, and is kept for the
spread tests; since the verifier reads the circle test of P3.2 and P5.4
in the triangle's frame, its reference is that test (x55_reference, on
circle_residual) applied to the framed triangle.  Each appendix check
builds the block's object geometrically (the metric construction is the
oracle), samples it, and evaluates the polynomial at the samples'
reference-triangle barycentrics.  The
constructions are the object-path versions of what the batched checks
compute on arrays: the anticevian and reflection triangles, reflection
in a line, a focal conic's vertices, a barycentric conic in the plane
(P4.3, P4.4) and the two-branch chords (P4.8); with them the cevian
triangle and reflection in a point, which no package code used.

The tails of P2.8 and P5.7 (type_regions_residual, parabola_residual and
sideline_extension_residual) finished each trial on floats after the
batch scans, with one float kernels.six_point call a point, before the
verifier made one array call of every trial's points; P3.4's and P5.7's
rays came from each triangle's circumcircle (circumcircle_ray, cfg_ray).

kernels.pair_points and kernels.second_point kept a plain-Python branch
on floats (pair_points_on_floats, second_point_on_floats, with the float
arms of kernels' _where, _line_roots and _polish they took) before a
float call became a batch of one; their float calls are tested against
it bit for bit, Python types included.

P3.2 and P5.4 checked each trial's circle points on floats in the plane
(circle_residual, pstar_residual, circle_pair_residual) before the
verifier checked every trial's points at once on arrays, in each
triangle's frame; applied to the framed triangle and points (framed),
they are the references of its column checks.

The circle searches validated each candidate on floats against the
framed triangle's circumcircle (is_circle, with circle_center and its
copy of six_point_conic's fit rules) before they read the circle test
that P3.2 and P5.4 read (loci._circle_conditions).

BaryCoords.proj_eq (projective equality) and Circle.point_at were
methods that only tests called (proj_eq, point_at).

triads.second_common_point (second_common_point), P' of one P-hyperbola
triad on floats, lost its last package caller when the circle searches
dropped their partner pass; the verifier's P5.1 reads kernels.second_point
on arrays.

P2.9 and P3.9 ran trial by trial on the object path
(covertex_conic_check: a Triangle, a ConicTriad and its FocalConics a
trial, the co-vertices from covertices_of_focal_conic and
triad_covertices), and P4.6 finished each trial on a Triangle, before the
verifier ran them on arrays; covertex_locus_reference,
covertex_equilateral_reference and halftangent_reference are those
checks of one configuration.

loci.equilateral_ostar_locus_check computed P3.6's quantities on the
object path, in a report that only the verifier read, before the
verifier's check computed them on arrays; equilateral_arcs_reference
computes them as it did.

P3.5 (ostar_arcs_reference) and P4.10 (soddy_line_reference) finished
each trial on floats, on the object path, before the verifier ran them
on arrays; P3.5-P3.7 ran trial by trial on each row's dict (_per_trial,
with _split), which the crash tests still use to inject a crash into one
trial.  verify._sextic_triangles (_sextic_triangles), the Triangles of
P4.10's sextic roots, lost its last package caller then.
centers.excircles and centers.intouch_extouch (excircles,
intouch_extouch) were functions that only tests called.

loci.covertex_conconic_V (covertex_conconic_V), the 6x6 design
determinant of the six V-ellipse co-vertices, was the condition P2.9
scanned until the displayed co-vertex equation (loci.covertex_locus_V)
took its lengths at rho = 2|CA|, 2|CB| and became the one co-vertex
locus rule; it is kept as that equation's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from triconic import kernels
from triconic.appendix import eval_terms, load_block
from triconic.centers import (
    Circle,
    center_bary,
    circumcircle,
    classic_center,
    half_tangent_sum,
    incircle,
    soddy,
    soddy_centers,
)
from triconic.conic import (
    Conic,
    ConicClass,
    FocalConic,
    FramedFit,
    center as conic_center,
    residual,
    tangency_discriminant,
)
from triconic.config import DET_DEGENERATE_TOL, get_tol
from triconic.errors import (
    ConstructionFailed,
    DegenerateMember,
    DegenerateResult,
    DegenerateTriangle,
    DriverNotOnLocus,
    NoFiniteCenter,
    NotConverged,
    NotFound,
    PointAtInfinity,
    RankDeficient,
    TriconicError,
)
from triconic.geom import (
    BaryCoords,
    LineEq,
    Point2,
    Triangle,
    bary_to_cartesian,
    distance,
    line_intersection,
    line_through,
    midpoint,
    signed_area,
)
from triconic.loci import (
    _CONCENTRIC_TOL,
    batch_sign_changes,
    covertex_condition_equilateral_P,
    covertex_locus_V,
    ostar_arc_ellipses,
    phyp_circle_functional,
    pstar_circle_functional,
    sample_locus_ostar,
)
from triconic.triads import (
    ConicTriad,
    _kernel_args,
    build_triad,
    driver_fault,
    six_point_conic,
    triad_vertices,
)
from triconic.verify import (
    _cfg_tri,
    _detn_v_ellipse,
    _each,
    _half_tangent_gap,
    _on_ray,
    _p_hyperbola_disc,
    _scan_rays,
    _sextic_roots,
)


def cartesian_to_bary(t: Triangle, p: Point2) -> BaryCoords:
    # Components proportional to the signed areas of the sub-triangles.
    u = signed_area(p, t.b, t.c)
    v = signed_area(t.a, p, t.c)
    w = signed_area(t.a, t.b, p)
    return BaryCoords(u, v, w)


def equal_area_check(tr: ConicTriad) -> tuple[float, float]:
    """Areas of the two vertex triangles (A1,B1,C1) and (A2,B2,C2)."""
    A1, A2, B1, B2, C1, C2 = triad_vertices(tr)
    s1 = abs(signed_area(A1, B1, C1))
    s2 = abs(signed_area(A2, B2, C2))
    return s1, s2


def focal_triad_bad(ax, ay, bx, by, cx, cy, kind, px, py) -> bool:
    """kernels.focal_pairs' bad flag on floats, without its divisions:
    _sides_deltas' flag or an axis within MEMBER_GUARD of the largest side."""
    sides, deltas, bad = kernels._sides_deltas(ax, ay, bx, by, cx, cy, kind, px, py)
    s = kernels._largest(sides)
    return bad or any(abs(d) <= kernels.MEMBER_GUARD * s for d in deltas)


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


def reflect_about_point(p: Point2, center: Point2) -> Point2:
    return Point2(2.0 * center.x - p.x, 2.0 * center.y - p.y)


def reflect_about_line(p: Point2, line: LineEq) -> Point2:
    d = line.eval_point(p) / (line.l * line.l + line.m * line.m)
    return Point2(p.x - 2.0 * d * line.l, p.y - 2.0 * d * line.m)


def vertices_of_focal_conic(fc: FocalConic) -> tuple[Point2, Point2]:
    alpha, _ = fc.semi_axes()
    o, u = fc.center, fc.axis_unit()
    return (o + alpha * u, o + (-alpha) * u)


def conic_bary_to_cartesian(m: np.ndarray, t: Triangle) -> Conic:
    """The Cartesian conic of the barycentric matrix m relative to t, by
    the linear change of coordinates."""
    # Rows of T give barycentric coordinates (up to common scale) of (x, y, 1).
    ax, ay = t.a.x, t.a.y
    bx, by = t.b.x, t.b.y
    cx, cy = t.c.x, t.c.y
    T = np.array(
        [
            [by - cy, cx - bx, bx * cy - cx * by],
            [cy - ay, ax - cx, cx * ay - ax * cy],
            [ay - by, bx - ax, ax * by - bx * ay],
        ]
    )
    return Conic(T.T @ m @ T)


def two_branch_lines(tr: ConicTriad) -> tuple:
    """((gx, gy, s), lines): the chords through the opposite-branch
    intersections of the hyperbola pairs (b,c), (c,a), (a,b), each (l, m, n)
    in the triangle's frame, from one kernels.focal_pairs call.

    Of each pair's two lines, the one through the Soddy centers X175/X176
    is the Soddy line; the other is the sought chord.  Works even when a
    chord's endpoints are complex.
    """
    if tr.kind != "v_hyperbola":
        raise ValueError("two-branch chords apply to V-hyperbola triads")
    args = _kernel_args(tr.t, tr.kind, tr.p)
    if focal_triad_bad(*args):
        raise DegenerateMember("two-branch chords need nondegenerate members")
    (gx, gy, s), _, _, pairs, _ = kernels.focal_pairs(*args)
    framed = [((q.x - gx) / s, (q.y - gy) / s) for q in soddy_centers(tr.t) if q is not None]
    chords = []
    for _, _, lines in pairs:
        scores = [max(abs(l * x + m * y + n) for x, y in framed) / kernels._hypot(l, m)
                  for l, m, n in lines]
        soddy_line = 0 if scores[0] <= scores[1] else 1
        if scores[soddy_line] > 1e-6:
            raise NotFound("neither line of the pair is the Soddy line")
        chords.append(lines[1 - soddy_line])
    return (gx, gy, s), tuple(chords)


def two_branch_chords(tr: ConicTriad) -> tuple[LineEq, LineEq, LineEq]:
    """two_branch_lines' chords in the plane."""
    (gx, gy, s), lines = two_branch_lines(tr)
    return tuple(LineEq(l, m, n * s - l * gx - m * gy) for l, m, n in lines)


def normalized_residual(name: str, poly: str, values: dict) -> float:
    block = load_block(name)
    total, biggest = eval_terms(block["polys"][poly], block["variables"], values)
    if biggest == 0.0:
        return abs(total)
    return abs(total) / biggest


def _proj_error(u, v) -> float:
    """Projective mismatch of two 3-vectors: |u x v| / (|u| |v|)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(np.cross(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _norm_bary(t: Triangle, p: Point2):
    b = cartesian_to_bary(t, p).normalized()
    return (b.u, b.v, b.w)


def anticevian_a_ellipse(t: Triangle) -> FocalConic:
    """The a-member of the anticevian needle construction: foci at B', C' of
    the X3-anticevian, passing through X3 of the reference.

    (The construction through the cevian foot A instead would degenerate
    whenever A falls inside the focal segment; the polynomial block vanishes
    on the through-X3 ellipse.)
    """
    tac = anticevian_triangle(t, center_bary(t, "X3"))
    x3 = classic_center(t, "X3")
    return FocalConic(
        tac.b, tac.c, distance(x3, tac.b) + distance(x3, tac.c), "ellipse"
    )


A_ELLIPSE_SAMPLES = 12  # points of the A-ellipse at which the polynomial is checked


def check_a_ellipse(t: Triangle) -> float:
    """Max normalized residual of sampled ellipse points on the polynomial:
    o + cos t (v - o) + sin t (w - o), with o the center, v = o + alpha u
    a vertex and w = o + beta u' a co-vertex, u' the axis unit u turned a
    quarter."""
    fc = anticevian_a_ellipse(t)
    alpha, beta = fc.semi_axes()
    u = fc.axis_unit()
    o = fc.center
    v, w = o + alpha * u, o + beta * u.perp()
    a, b, c = t.sides()
    worst = 0.0
    for k in range(A_ELLIPSE_SAMPLES):
        ang = 2.0 * math.pi * (k + 0.37) / A_ELLIPSE_SAMPLES
        p = o + math.cos(ang) * (v - o) + math.sin(ang) * (w - o)
        x, y, z = _norm_bary(t, p)
        r = normalized_residual(
            "a_ellipse", "main", {"a": a, "b": b, "c": c, "x": x, "y": y, "z": z}
        )
        worst = max(worst, r)
    return worst


def check_major_vertices(t: Triangle) -> float:
    """Projective mismatch of the closed-form vertices vs the construction."""
    block = load_block("major_vertices")
    a, b, c = t.sides()
    rad, _ = eval_terms(
        block["polys"]["rt_radicand"], block["variables"],
        {"a": a, "b": b, "c": c, "S": 0.0, "rt": 0.0},
    )
    if rad < 0.0:
        raise ConstructionFailed("vertex radical is negative for this triangle")
    values = {"a": a, "b": b, "c": c, "S": 2.0 * t.area, "rt": math.sqrt(rad)}
    fc = anticevian_a_ellipse(t)
    numeric = [_norm_bary(t, p) for p in vertices_of_focal_conic(fc)]
    errs = []
    for sgn in ("plus", "minus"):
        num, _ = eval_terms(block["polys"][f"num_{sgn}"], block["variables"], values)
        den, _ = eval_terms(block["polys"][f"den_{sgn}"], block["variables"], values)
        second, _ = eval_terms(block["polys"]["second"], block["variables"], values)
        third, _ = eval_terms(block["polys"]["third"], block["variables"], values)
        triple = (num, den * second, den * third)
        errs.append(min(_proj_error(triple, nv) for nv in numeric))
    return max(errs)


def check_x3prime_center(t: Triangle) -> float:
    """Anticevian six-point circle center vs the closed-form barycentrics."""
    tac = anticevian_triangle(t, center_bary(t, "X3"))
    p = classic_center(t, "X3")
    rep = six_point_conic(build_triad(tac, "p_ellipse", p))
    if rep.center is None:
        raise ConstructionFailed("six-point conic has no center")
    block = load_block("x3prime_center")
    a, b, c = t.sides()
    f = lambda aa, bb, cc: eval_terms(
        block["polys"]["f"], block["variables"], {"a": aa, "b": bb, "c": cc}
    )[0]
    formula = (f(a, b, c), f(b, c, a), f(c, a, b))
    return _proj_error(formula, _norm_bary(t, rep.center))


def check_phyp_member(t: Triangle, p: Point2) -> float:
    """P and both vertices of the a-member satisfy the member polynomial."""
    tr = build_triad(t, "p_hyperbola", p)
    a, b, c = t.sides()
    la = tr.deltas[0]
    pb = cartesian_to_bary(t, p).normalized()
    six = triad_vertices(tr)
    worst = 0.0
    for q in (p, six[0], six[1]):
        x, y, z = _norm_bary(t, q)
        r = normalized_residual(
            "phyp_member",
            "main",
            {
                "a": a, "b": b, "c": c, "La": la,
                "p": pb.u, "q": pb.v, "r": pb.w,
                "x": x, "y": y, "z": z,
            },
        )
        worst = max(worst, r)
    return worst


def check_pstar_conic(t: Triangle, p: Point2) -> float:
    """All six P-hyperbola vertices satisfy the cleared conic polynomial."""
    tr = build_triad(t, "p_hyperbola", p)
    a, b, c = t.sides()
    la, lb, lc = tr.deltas
    worst = 0.0
    for q in triad_vertices(tr):
        x, y, z = _norm_bary(t, q)
        r = normalized_residual(
            "pstar_conic",
            "main",
            {
                "a": a, "b": b, "c": c,
                "La": la, "Lb": lb, "Lc": lc,
                "x": x, "y": y, "z": z,
            },
        )
        worst = max(worst, r)
    return worst


def check_x5452_coordinate(t: Triangle) -> float:
    """Cleared center coordinates vs the V-hyperbola six-point conic center,
    fitted in the triangle's frame (framed): barycentrics do not change
    under a similarity."""
    tr = build_triad(t, "v_hyperbola")
    ft = framed(t)[0]
    rep = six_point_conic(build_triad(ft, "v_hyperbola"))
    if rep.center is None:
        raise ConstructionFailed("six-point conic has no center")
    a, b, c = t.sides()
    la, lb, lc = tr.deltas
    block = load_block("x5452_coordinate")
    g = lambda vals: eval_terms(block["polys"]["g"], block["variables"], vals)[0]
    formula = (
        g({"a": a, "b": b, "c": c, "La": la, "Lb": lb, "Lc": lc}),
        g({"a": b, "b": c, "c": a, "La": lb, "Lb": lc, "Lc": la}),
        g({"a": c, "b": a, "c": b, "La": lc, "Lb": la, "Lc": lb}),
    )
    return _proj_error(formula, _norm_bary(ft, rep.center))


def check_appendix(name: str, t: Triangle, extra_point: Point2 | None = None) -> float:
    """Dispatch one appendix block check; returns its normalized residual."""
    if name == "a_ellipse":
        return check_a_ellipse(t)
    if name == "major_vertices":
        return check_major_vertices(t)
    if name == "x3prime_center":
        return check_x3prime_center(t)
    if name == "phyp_member":
        if extra_point is None:
            raise ValueError("phyp_member needs the point P")
        return check_phyp_member(t, extra_point)
    if name == "pstar_conic":
        if extra_point is None:
            raise ValueError("pstar_conic needs the point P")
        return check_pstar_conic(t, extra_point)
    if name == "x5452_coordinate":
        return check_x5452_coordinate(t)
    raise KeyError(f"unknown appendix block {name!r}")


@dataclass(frozen=True)
class X55Report:
    circle_spread: float
    concentricity_error: float
    x7_match_error: float
    circumradius: float


def x55_conjecture_check(t: Triangle) -> X55Report:
    """Numerical evidence for the reflection-triangle circle conjecture.

    Build Q = X55 of t, the Q-reflection triangle T', and the P-hyperbola
    triad of T' through Q; report how circular the six-point conic is, how
    concentric it is with T''s circumcircle, and how close T''s circumcenter
    is to X7 of t.  Vertices are computed directly from the signed focal
    differences (kernels.vertex_coords) so the fully symmetric
    (equilateral) limit, where the triad members degenerate, still reports.
    """
    q = classic_center(t, "X55")
    tprime = reflection_triangle(t, q)
    cc = circumcircle(tprime)
    args = _kernel_args(tprime, "p_hyperbola", q)
    xs, ys = kernels.vertex_coords(*args[:6], *kernels._sides_deltas(*args)[:2])
    dists = [distance(Point2(x, y), cc.center) for x, y in zip(xs, ys)]
    rmean = sum(dists) / 6.0
    spread = max(abs(d - rmean) for d in dists)
    x7 = classic_center(t, "X7")
    try:
        rep = six_point_conic(build_triad(tprime, "p_hyperbola", q))
        conc = distance(rep.center, cc.center) if rep.center is not None else math.inf
    except DegenerateMember:
        # Symmetric limit: the six vertices collapse to the side midpoints.
        conc = spread
    return X55Report(
        circle_spread=spread,
        concentricity_error=conc,
        x7_match_error=distance(cc.center, x7),
        circumradius=cc.radius,
    )


def x55_reference(cfg) -> float:
    """P5.5's check of one configuration, in the triangle's frame (framed):
    the circle test (circle_residual) of the P-hyperbola six-point conic
    through Q = X55 of Q's reflection triangle T', a collapsed member
    fitted as it is, and |O' X7| over the circumradius of T'."""
    (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
    t, _ = framed(Triangle(Point2(ax, ay), Point2(bx, by), Point2(cx, cy)))
    q = classic_center(t, "X55")
    tprime = reflection_triangle(t, q)
    worst = circle_residual(tprime, q, "p_hyperbola", collapsed=True)
    cc = circumcircle(tprime)
    return max(worst, distance(cc.center, classic_center(t, "X7")) / cc.radius)


def covertices_of_focal_conic(fc: FocalConic) -> tuple[Point2, Point2]:
    """For a hyperbola these are the conjugate-axis endpoints (rendering only)."""
    _, beta = fc.semi_axes()
    o, v = fc.center, fc.axis_unit().perp()
    return (o + beta * v, o + (-beta) * v)


def triad_covertices(tr: ConicTriad) -> tuple[Point2, ...]:
    """Co-vertices of the three members; for hyperbolas these are the
    conjugate-axis endpoints (rendering parity only)."""
    out: list[Point2] = []
    for member in tr.members:
        if member is None:
            raise DegenerateMember("degenerate member has no co-vertices")
        out.extend(covertices_of_focal_conic(member))
    return tuple(out)


def _first_root(g, lo: float, hi: float) -> float:
    """The first root of g on [lo, hi], by a 400-cell batch scan of one."""
    (r,) = batch_sign_changes(lambda s, k: g(s), [lo], [hi], steps=400, first=True)
    if isinstance(r, NotConverged):
        raise r
    if r is None:
        raise DriverNotOnLocus("no sign change along the scan ray")
    return r


@dataclass(frozen=True)
class CovertexReport:
    driver: Point2
    implicit_value: float
    residual6: float
    conic_class: ConicClass
    center_on_incircle_error: float | None


def _covertex_fit(cov) -> tuple[FramedFit, float]:
    """kernels.fit_six of the six co-vertices: the fit in its frame and
    residual6, the left-out co-vertex's residual in that frame.
    RankDeficient when the fit vanishes, as in conic.fit_framed."""
    xs, ys = [p.x for p in cov], [p.y for p in cov]
    fit = kernels.fit_six(xs, ys)
    if not kernels.frobenius(fit[0]) > DET_DEGENERATE_TOL:
        raise RankDeficient("the co-vertices do not determine a unique conic")
    return FramedFit(*fit[:2]), kernels.residual6(xs, ys, fit)


def covertex_conic_check(kind: str, ray_angle: float = 1.25) -> CovertexReport:
    """Locate a driver point on the co-vertex conconic locus and verify the
    six co-vertices lie on one conic: kernels.fit_six fits five of them,
    and the report's residual6 is the left-out one's residual in the frame
    of the fit.

    kind "v_ellipse": C on the locus, A=(-1,0), B=(1,0); the driver is
    located on the displayed equation (covertex_locus_V, at rho = 2|CA|
    and 2|CB|), and the report carries its value at the driver.
    kind "p_equilateral": P on the equilateral condition (circumradius 1);
    additionally checks that the co-vertex conic center lies on the incircle.
    """
    if kind == "v_ellipse":
        A, B = Point2(-1.0, 0.0), Point2(1.0, 0.0)
        dx, dy = math.cos(ray_angle), math.sin(ray_angle)
        g = lambda r: covertex_locus_V(r * dx, r * dy)
        r = _first_root(g, 0.35, 3.0)
        C = Point2(r * dx, r * dy)
        t = Triangle(A, B, C)
        cov = triad_covertices(build_triad(t, "v_ellipse"))
        fit, res = _covertex_fit(cov)
        return CovertexReport(C, covertex_locus_V(C.x, C.y), res, fit.conic_class(), None)
    if kind == "p_equilateral":
        verts = [
            Point2(math.cos(a), math.sin(a))
            for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
        ]
        t = Triangle(*verts)
        corners = _kernel_args(t, "p_ellipse", None)[:6]
        dx, dy = math.cos(ray_angle), math.sin(ray_angle)

        def g(r):
            # The P-ellipse focal sums at P = r * (dx, dy), on floats or arrays.
            deltas = kernels._sides_deltas(*corners, kernels.KIND_P_ELLIPSE, r * dx, r * dy)[1]
            return covertex_condition_equilateral_P(*deltas)

        r = _first_root(g, 0.05, 1.4)
        P = Point2(r * dx, r * dy)
        cov = triad_covertices(build_triad(t, "p_ellipse", P))
        fit, res = _covertex_fit(cov)
        odag = fit.center()
        if odag is None:
            raise NoFiniteCenter("co-vertex conic has no finite center")
        inc = incircle(t)
        err = abs(distance(odag, inc.center) - inc.radius)
        return CovertexReport(P, g(r), res, fit.conic_class(), err)
    raise ValueError(f"unknown covertex check kind {kind!r}")


def covertex_locus_reference(cfg) -> float:
    """P2.9's check of one configuration, as the verifier ran it trial by
    trial before its batch."""
    rep = covertex_conic_check("v_ellipse", ray_angle=cfg["angle"])
    ok_class = rep.conic_class in (
        ConicClass.HYPERBOLA,
        ConicClass.RECTANGULAR_HYPERBOLA,
    )
    return rep.residual6 if ok_class else 1.0


def covertex_equilateral_reference(cfg) -> float:
    """P3.9's check of one configuration, as the verifier ran it trial by
    trial before its batch."""
    rep = covertex_conic_check("p_equilateral", ray_angle=cfg["angle"])
    return max(rep.residual6, rep.center_on_incircle_error)


def halftangent_reference(cfg) -> float:
    """P4.6's check of one configuration, as the verifier ran it before
    its tail went to arrays: the triangle at the sextic's root
    (_sextic_triangles) and the converse scan's root, each a batch
    of one, then the half-tangent sum of the Triangle."""
    (t,) = _sextic_triangles([cfg["x"]])
    (y,) = _scan_rays(_half_tangent_gap, np.array([[cfg["x"]]]), 0.25, 1.4, steps=1, first=True)
    if isinstance(t, Exception):
        raise t
    if t is None:
        return 1.0
    worst = abs(half_tangent_sum(t) - 2.0)
    if isinstance(y, Exception):
        raise y
    if y is None:
        return 1.0
    return max(worst, abs(y - t.c.y))


def circumcircle_ray(t: Triangle, ang: float) -> tuple:
    """The corners of t, then the ray O + s*R*(cos ang, sin ang) from its
    circumcenter O, R the circumradius."""
    cc = circumcircle(t)
    corners = (w for v in t.vertices() for w in v.as_tuple())
    return (*corners, cc.center.x, cc.center.y, cc.radius, math.cos(ang), math.sin(ang))


def cfg_ray(cfg) -> tuple:
    return circumcircle_ray(_cfg_tri(cfg), cfg["angle"])


def type_regions_residual(item) -> float:
    """P2.8's tail of one trial, from its (configuration, ray, degree-8
    root) as the verifier ran it trial by trial."""
    cfg, (ax, ay, bx, by, *ray), found = item
    cx, cy = _cfg_tri(cfg).c.as_tuple()
    r, u = ray[2], 0.5 + cfg["u"]
    # (i) C on the circle with diameter AB, and (i') on the perpendicular
    # to AB at A (tangent line) -> degenerate.
    tangent = (ax + u * (-(by - ay) / (2 * r)), ay + u * ((bx - ax) / (2 * r)))
    worst = max(
        0.0,
        abs(_detn_v_ellipse(ax, ay, bx, by, *_on_ray(1.0, *ray))),
        abs(_detn_v_ellipse(ax, ay, bx, by, *tangent)),
    )
    # (ii) C on the degree-8 root along the ray -> parabola.
    if isinstance(found, Exception):
        raise found
    if found is None:
        return 1.0
    code, _, disc = kernels.six_point(
        ax, ay, bx, by, *_on_ray(found, *ray), kernels.KIND_V_ELLIPSE, 0.0, 0.0
    )
    if code == kernels.CLASS_FAILED:
        return 1.0
    worst = max(worst, abs(disc))
    # (iii) generic interior C -> ellipse or hyperbola.
    code = kernels.six_point(ax, ay, bx, by, cx, cy, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[0]
    if code not in (
        kernels.CLASS_ELLIPSE,
        kernels.CLASS_HYPERBOLA,
        kernels.CLASS_RECTANGULAR_HYPERBOLA,
        kernels.CLASS_CIRCLE,
        kernels.CLASS_DEGENERATE_TWO_LINES,
    ):
        worst = max(worst, 1.0)
    return worst


def parabola_residual(item) -> float:
    """P5.7's tail of one trial, from its (configuration, ray, condition
    root, disc root) as the verifier ran it trial by trial."""
    cfg, ray, found, s_disc = item
    for r in (found, s_disc):
        if isinstance(r, Exception):
            raise r
    if found is None or s_disc is None:
        return 1.0
    # offset tolerance 1e-6 scaled into the 1e-9 threshold
    worst = max(abs(s_disc - found) * 1e-3, abs(_p_hyperbola_disc(s_disc, *ray)))
    return max(worst, sideline_extension_residual(_cfg_tri(cfg), cfg["u"]))


def sideline_extension_residual(t: Triangle, u01: float) -> float:
    """Degeneracy residual at a sideline extension: the fitted conic's det
    vanishes to second order approaching the line (no sign change exists),
    so shrink the transversal offset until it does, and require the member
    to collapse on the line itself."""
    u = 1.0 + 0.45 * u01
    dvec = Point2(t.c.x - t.b.x, t.c.y - t.b.y)
    nvec = Point2(-dvec.y, dvec.x)
    nn = nvec.norm()
    nvec = Point2(nvec.x / nn, nvec.y / nn)
    base = Point2(t.b.x + u * dvec.x, t.b.y + u * dvec.y)
    if driver_fault(t, "p_hyperbola", base) is None:
        return 1.0
    w = 3e-6 * t.scale()
    floor = 1e-9 * t.scale()
    best = 1.0
    while w > floor:
        cur = 0.0
        ok = True
        for sgn in (1.0, -1.0):
            code, detn, _ = kernels.six_point(
                t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y,
                kernels.KIND_P_HYPERBOLA,
                base.x + sgn * w * nvec.x, base.y + sgn * w * nvec.y,
            )
            if code == kernels.CLASS_FAILED:
                ok = False
                break
            cur = max(cur, abs(detn))
        if ok:
            best = min(best, cur)
            if best <= 1e-10:
                break
        w /= 4.0
    return best


def deltas(t: Triangle, p: Point2):
    """The focal sums of the P-ellipse triad of t with driver p."""
    return kernels._sides_deltas(*_kernel_args(t, "p_ellipse", p))[1]


def lambdas(t: Triangle, p: Point2):
    """The signed focal differences of the P-hyperbola triad of t with driver p."""
    return kernels._sides_deltas(*_kernel_args(t, "p_hyperbola", p))[1]


def focal_diff_residual(p: Point2, member: FocalConic) -> float:
    """||p - F1| - |p - F2|| - L| of a hyperbola member with foci F1, F2
    and axis L."""
    return abs(abs(distance(p, member.focus1) - distance(p, member.focus2)) - member.axis_length)


def framed(t: Triangle, *points: Point2) -> tuple:
    """t and the points in t's frame (kernels.frame): the framed triangle
    and the framed points."""
    _, f = kernels.frame(*(c for q in (*t.vertices(), *points) for c in q.as_tuple()))
    return Triangle(Point2(*f[0:2]), Point2(*f[2:4]), Point2(*f[4:6])), [
        Point2(*f[k:k + 2]) for k in range(6, len(f), 2)]


def circle_center(args, scale, collapsed=False) -> tuple:
    """Class code and center (x, y, has_center) of the six-point conic of
    the kernel arguments args, on floats: six_point_conic's kernels and fit
    rules, not its Carnot sideline test, which says nothing of the conic;
    DegenerateMember or RankDeficient where a rule holds, scale the
    triangle's largest side.  With collapsed, a collapsed member's vertices
    are fitted as the vertex formula gives them (P5.5), not refused."""
    xs, ys, bad = kernels.vertices(*args)
    if bad and not collapsed:
        raise DegenerateMember("a triad member degenerates")
    co, frame, out = kernels.fit_six(xs, ys)
    if kernels.kept_gap(xs, ys, out) <= 1e-9 * scale:
        raise RankDeficient("fewer than 5 distinct triad vertices")
    if not kernels.frobenius(co) > DET_DEGENERATE_TOL:
        raise RankDeficient("five points do not determine a unique conic")
    return kernels.classify_code(co)[0], *kernels.frame_center(co, frame)


def is_circle(args, scale, cc) -> bool:
    """Is the six-point conic of args (circle_center) a circle concentric
    with the circle cc (within loci._CONCENTRIC_TOL)?"""
    try:
        code, x, y, has_center = circle_center(args, scale)
    except TriconicError:
        return False
    return (
        code == kernels.CLASS_CIRCLE
        and has_center
        and kernels._hypot(x - cc.center.x, y - cc.center.y) <= _CONCENTRIC_TOL * cc.radius
    )


def proj_eq(p: BaryCoords, q: BaryCoords, tol: float | None = None) -> bool:
    """Whether p and q are the same point projectively, to tol (get_tol()
    by default), on their normalized coordinates."""
    tol = get_tol() if tol is None else tol
    # The sign convention of normalized() flips on the first entry that
    # is nonzero, so two nearby points can normalize to opposite signs
    # when that entry is within rounding of zero: compare up to sign.
    p, q = p.normalized(), q.normalized()
    return any(
        abs(p.u - s * q.u) <= tol
        and abs(p.v - s * q.v) <= tol
        and abs(p.w - s * q.w) <= tol
        for s in (1.0, -1.0)
    )


def point_at(c: Circle, angle: float) -> Point2:
    """The point of the circle c at the angle."""
    return Point2(c.center.x + c.radius * math.cos(angle), c.center.y + c.radius * math.sin(angle))


def circle_residual(t: Triangle, p: Point2, kind: str, collapsed=False) -> float:
    """The worst of the circle functional at p over s**8 (1e-12 scaled to
    1e-6), 1.0 unless t's `kind` six-point conic at p is a circle, and its
    center's distance from the circumcenter over the circumradius; a
    collapsed member as circle_center takes it."""
    functional, focal = {
        "p_ellipse": (pstar_circle_functional, deltas),
        "p_hyperbola": (phyp_circle_functional, lambdas),
    }[kind]
    s = t.scale()
    code, x, y, has_center = circle_center(_kernel_args(t, kind, p), s, collapsed)
    cc = circumcircle(t)
    conc = kernels._hypot(x - cc.center.x, y - cc.center.y) / cc.radius if has_center else 1.0
    fval = functional(*t.sides(), *focal(t, p)) / s**8 * 1e6
    return max(fval, conc, 0.0 if code == kernels.CLASS_CIRCLE else 1.0)


def pstar_residual(t: Triangle, hits) -> float:
    """P3.2's check of the principal candidate of the search's hits."""
    return circle_residual(t, Point2(*hits[0][0]), "p_ellipse")


def circle_pair_residual(t: Triangle, pair) -> float:
    """P5.4's check of the pair: both points, and the second on the
    members of the first's triad."""
    worst = max(circle_residual(t, p, "p_hyperbola") for p in pair)
    for m in build_triad(t, "p_hyperbola", pair[0]).members:
        worst = max(worst, focal_diff_residual(pair[1], m) / t.scale() * 1e2)
    return worst


def _where(cond, a, b):
    return a if cond else b


def _line_roots(co, l, m, n):
    """kernels._line_roots on floats."""
    x0, y0, dx, dy, qa, qb, qc = kernels._on_line(co, l, m, n)
    disc = qb * qb - 4.0 * qa * qc
    q = -(qb + _where(qb < 0.0, -1.0, 1.0) * kernels._sqrt(_where(disc > 0.0, disc, 0.0))) / 2.0
    double = kernels._div(-qb, 2.0 * qa)
    t0 = _where(abs(qa) <= kernels._TINY, kernels._div(-qc, qb),
                _where(disc < 0.0, double, kernels._div(q, qa)))
    t1 = _where(q != 0.0, kernels._div(qc, q), double)
    ok0 = ((abs(qa) <= kernels._TINY) & (abs(qb) > kernels._TINY)) | (
        (abs(qa) > kernels._TINY) & (disc > -kernels._DOUBLE_ROOT))
    ok1 = (abs(qa) > kernels._TINY) & (disc >= 0.0)
    return (x0 + t0 * dx, y0 + t0 * dy, ok0), (x0 + t1 * dx, y0 + t1 * dy, ok1)


def _polish(mi, mj, x, y, ok):
    """kernels._polish on floats: it stops at the first step that leaves
    no live start."""
    live = ok
    for _ in range(kernels._POLISH_STEPS):
        fi, ix, iy = kernels._value_grad(mi, x, y)
        fj, jx, jy = kernels._value_grad(mj, x, y)
        det = ix * jy - iy * jx
        live = live & (abs(det) >= kernels._TINY)
        if live is False:
            break
        x = _where(live, x + (-fi * jy + fj * iy) / det, x)
        y = _where(live, y + (-fj * ix + fi * jx) / det, y)
    n2 = x * x + y * y + 1.0
    on_i = abs(kernels._value_grad(mi, x, y)[0]) / n2 <= kernels._ON_BOTH
    on_j = abs(kernels._value_grad(mj, x, y)[0]) / n2 <= kernels._ON_BOTH
    return x, y, ok & on_i & on_j & (abs(x) < math.inf) & (abs(y) < math.inf)


def pair_points_on_floats(ax, ay, bx, by, cx, cy, kind, px, py):
    """kernels.pair_points on floats, one pair and one candidate at a time:
    3 x 4 nested lists, (None, None, None, True) for a bad triad."""
    if focal_triad_bad(ax, ay, bx, by, cx, cy, kind, px, py):
        return None, None, None, True
    (gx, gy, s), _, _, pairs, bad = kernels.focal_pairs(ax, ay, bx, by, cx, cy, kind, px, py)
    xs, ys, keep = [], [], []
    for mi, mj, lines in pairs:
        cands = [root for line in lines for root in _line_roots(mi, *line)]
        big = 0.0
        for x, y, ok in cands:
            size = _where(abs(x) > abs(y), abs(x), abs(y))
            big = _where(ok & (size > big), size, big)
        near, kept = kernels._ON_BOTH * (1.0 + big), []
        for x, y, ok in cands:
            x, y, ok = _polish(mi, mj, x, y, ok)
            for x2, y2, ok2 in kept:
                ok = _where(ok2 & (kernels._hypot(x - x2, y - y2) <= near), False, ok)
            kept.append((x, y, ok))
        xs.append([gx + s * x for x, _, _ in kept])
        ys.append([gy + s * y for _, y, _ in kept])
        keep.append([ok for _, _, ok in kept])
    return xs, ys, keep, bad


def second_point_on_floats(ax, ay, bx, by, cx, cy, px, py):
    """kernels.second_point on floats: the least-off kept pair point by
    min, (x, y, True), or (nan, nan, False)."""
    kind = kernels.KIND_P_HYPERBOLA
    xs, ys, keep, bad = pair_points_on_floats(ax, ay, bx, by, cx, cy, kind, px, py)
    if keep is None:
        return math.nan, math.nan, False
    sides, lam, _ = kernels._sides_deltas(ax, ay, bx, by, cx, cy, kind, px, py)
    s = kernels._largest(sides)

    def off(x, y):
        got = kernels._sides_deltas(ax, ay, bx, by, cx, cy, kind, x, y)[1]
        same = kernels._largest([abs(g - l) for g, l in zip(got, lam)])
        opposite = kernels._largest([abs(g + l) for g, l in zip(got, lam)])
        return _where(opposite < same, opposite, same)

    cands = [(off(x, y), x, y) for row in zip(xs, ys, keep) for x, y, ok in zip(*row)
             if ok and kernels._hypot(x - px, y - py) > 1e-7 * s]
    best, x, y = min((q for q in cands if q[0] < math.inf), key=lambda q: q[0],
                     default=(math.inf, math.nan, math.nan))
    return (x, y, True) if best <= 1e-6 * s else (math.nan, math.nan, False)


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


def _split(out) -> tuple:
    """Per-trial results, a residual or the exception that crashed the
    trial each, as a run's (residuals, exceptions)."""
    errs = {i: r for i, r in enumerate(out) if isinstance(r, Exception)}
    return np.array([math.inf if i in errs else r for i, r in enumerate(out)], dtype=float), errs


def _per_trial(check):
    """A proposition's run from a check of one configuration, given as its
    dict (ConfigTable.row)."""
    return lambda cfgs: _split(_each(check, map(cfgs.row, range(cfgs.n))))


def _sextic_triangles(xs) -> list:
    """A=(-1,0), B=(1,0) and C=(x, y) at the sextic's root y over each x
    (_sextic_roots): None without a root, the NotConverged of a failed
    scan."""
    xs = np.asarray(xs, dtype=float)
    return [Triangle(Point2(-1.0, 0.0), Point2(1.0, 0.0), Point2(x, y)) if isinstance(y, float) else y
            for x, y in zip(xs.tolist(), _sextic_roots(xs))]


def excircles(t: Triangle) -> tuple[Circle, Circle, Circle]:
    """Excircles opposite A, B, C."""
    s = t.semiperimeter
    area = t.area
    return tuple(
        Circle(bary_to_cartesian(t, BaryCoords(*uvw)), area / (s - side))
        for uvw, side in zip(kernels.excenters(*t.sides()), t.sides())
    )


def intouch_extouch(t: Triangle):
    """((intouch points), (extouch points)), each ordered by opposite
    vertex, from kernels.intouch_extouch."""
    return tuple(
        tuple(bary_to_cartesian(t, BaryCoords(*uvw)) for uvw in points)
        for points in kernels.intouch_extouch(*t.sides())
    )


def ostar_arcs_reference(cfg) -> float:
    """P3.5's check of one configuration, as the verifier ran it trial by
    trial."""
    t = _cfg_tri(cfg)
    samples, arcs = sample_locus_ostar(t, 40)
    if len(samples) < 20:
        return 1.0
    worst = max(samples.implicit_residual)
    mids = (midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b))
    for con in arcs.values():
        worst = max(worst, max(residual(con, m) for m in mids))
    return worst


def equilateral_arcs_reference() -> dict:
    """P3.6's quantities on the object path, as loci computed them before
    the verifier's check took them on arrays: for the side-1 equilateral's
    arcs (ostar_arc_ellipses), each arc's semi-axes (major first), from its
    quadratic form about its center, the center's offset from its vertex
    and its residuals at the side midpoints; arc c's residuals at the
    midpoints of BC and CA reflected about C, the tangency discriminants of
    the lines from A and B through those, its residual at the midpoint of
    C and their meeting point T, and the area of ATB over ABC's."""
    A, B, C = Point2(-0.5, 0.0), Point2(0.5, 0.0), Point2(0.0, math.sqrt(3.0) / 2.0)
    t = Triangle(A, B, C)
    arcs = ostar_arc_ellipses(t)
    mids = (midpoint(B, C), midpoint(C, A), midpoint(A, B))
    out = {"semi_axes": [], "center_offsets": [], "midpoint_residuals": []}
    for con, vertex in zip(arcs.values(), (A, B, C)):
        cen = conic_center(con)
        # Centered form (p - cen)^T Q (p - cen) = -f(cen): semi-axes sqrt(k / eig).
        k = -con(cen)
        out["semi_axes"].append(sorted((math.sqrt(k / e) for e in np.linalg.eigvalsh(con.m[:2, :2])),
                                       reverse=True))
        out["center_offsets"].append(distance(cen, vertex))
        out["midpoint_residuals"] += [residual(con, m) for m in mids]
    ends = [Point2(2 * C.x - m.x, 2 * C.y - m.y) for m in mids[:2]]
    lines = [line_through(A, ends[0]), line_through(B, ends[1])]
    top = line_intersection(*lines)
    out["endpoint_residuals"] = [residual(arcs["c"], e) for e in ends]
    out["tangency_discriminants"] = [abs(tangency_discriminant(arcs["c"], ln)) for ln in lines]
    out["top_vertex_residual"] = residual(arcs["c"], midpoint(C, top))
    out["area_ratio"] = abs(signed_area(A, top, B)) / t.area
    return out


def soddy_line_reference(cfg) -> float:
    """P4.10's check of one configuration, as the verifier ran it trial by
    trial: the Triangle at the sextic's root (_sextic_triangles), a batch
    of one, then its Soddy configuration (centers.soddy)."""
    (t,) = _sextic_triangles([cfg["x"]])
    if isinstance(t, Exception):
        raise t
    if t is None:
        return 1.0
    cfg_s = soddy(t)
    if cfg_s.regime != "line":
        return 1.0
    line = cfg_s.outer_line
    worst = 0.0
    for (u, v) in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
        center = midpoint(u, v)
        radius = distance(u, v) / 2.0
        worst = max(worst, abs(line.distance_to(center) - radius))
    return worst


def covertex_conconic_V(x, y):
    """Determinant form of the V-ellipse co-vertex conconic condition,
    A=(-1,0), B=(1,0): the 6x6 design determinant of the six co-vertices
    of C = (x, y) (kernels.covertices, from the sides and axes of
    kernels._sides_deltas), on floats or arrays.

    This is the independent oracle for the co-vertex locus: the displayed
    radical equation (covertex_locus_V) has its zero set at rho = 2|CA|
    and 2|CB|, and not at rho = |CA| and |CB|.
    """
    corners = (-1.0, 0.0, 1.0, 0.0, x, y)
    sides, axes, _ = kernels._sides_deltas(*corners, kernels.KIND_V_ELLIPSE, 0.0, 0.0)
    rows = [(px * px, px * py, py * py, px, py, np.ones_like(px))
            for px, py in zip(*kernels.covertices(corners, sides, axes))]
    # rows[r][col] -> one 6x6 matrix per C.
    det = np.linalg.det(np.moveaxis(np.array(rows, dtype=float), (0, 1), (-2, -1)))
    return float(det) if np.ndim(det) == 0 else det
