"""Proposition regression suite.

Every theorem-like statement of the four triad sections plus the six
appendix polynomial blocks has exactly one named check here.  A check is a
pure function from JSON-serializable configurations to residuals.  The
runner first draws all of a proposition's seeded random configurations in
one call of its `draw`, then checks them in one call of its `run`; it
reports the worst residual and its witness configuration, the number of
crashed trials by exception type, and the margin of the worst residual
against the bound.  Replaying the witness (`run` on that one
configuration) reproduces the residual.

The draws run on floats (`_tri_floats`, `_near_floats`) with the
arithmetic of the object path and numpy's `uniform` formula, so every
stream and configuration is that of `random_triangle` and
`random_point_near`; the `_gen_tri` propositions, A1, A2 and A6 among
them, and the `_gen_tri_point` ones, A4 and A5 among them, read their rng
in blocks.  Only the draws of A3, P2.8 and P5.7 run a search, as only it
decides their family: A3's runs its check, P2.8's and P5.7's the root scan
their checks repeat.

Most checks take one configuration and run trial by trial through
`_per_trial`, which turns a crash into a failed trial.  Ten run as one
batch on arrays, bit for bit the kernels' float paths: P2.2, P3.1, P3.8
and P5.2 in one `kernels.six_point` call, P4.7 and P5.6 in one
`kernels.pair_points` call, P5.1 in one `kernels.second_point` call, and
the sign scans of P2.6, P3.4 and P5.7 (both of its scans) in one
`loci.batch_sign_changes` each: one `kernels.six_point` (or parabola
condition) call on every trial's grid, then one array Brent over every
bracketed cell.  A crash there still fails only its own trial.  The
scans of P2.8, P4.6 and P4.10 run trial by trial through
`bisect_sign_changes` on floats: their functions take powers with `**`,
whose last bits differ on numpy arrays.

Each claim of the paper is checked in its one proposition, on the
triads' own constructions: P2.4 draws its chords through
`triads.pairwise_intersections`, P4.8 reads `triads.two_branch_chords`,
and P4.3 and P4.4 take the closed-form six-point conic as a barycentric
matrix (`privalov_conic`).

Residuals are normalized so that one threshold per proposition applies;
where a statement mixes tolerances, the secondary components are rescaled
into the primary one (noted inline).  Conjecture checks are marked as
evidence and never fail the suite below the evidence bound.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .appendix import check_appendix
from .centers import (
    anticevian_triangle,
    center_bary,
    circumcircle,
    classic_center,
    excircle_tangency_points,
    half_tangent_sum,
    intouch_extouch,
    soddy,
    soddy_centers,
)
from .config import get_tol
from .conic import (
    ConicClass,
    conic_bary_to_cartesian,
    conic_from_foci,
    residual,
    residual_bary,
    tangency_discriminant,
)
from .errors import (
    ConstructionFailed,
    DegenerateTriangle,
    NotFound,
    RankDeficient,
    UnknownProposition,
)
from .geom import (
    BaryCoords,
    Point2,
    Triangle,
    bary_to_cartesian,
    cartesian_to_bary,
    distance,
    line_through,
    midpoint,
    reflect_about_point,
    signed_area,
)
from .loci import (
    batch_sign_changes,
    bisect_sign_changes,
    covertex_conic_check,
    equilateral_ostar_locus_check,
    find_phyp_circle_points,
    find_pstar_candidates,
    halftangent_sextic,
    parabola_deg8_V,
    phyp_circle_functional,
    phyp_parabola_condition,
    pstar_circle_functional,
    region_map,
    sample_locus_ostar,
    x478_quartic,
    _deltas,
    _lambdas,
)
from .triads import (
    _focal_diff_residual,
    build_triad,
    driver_fault,
    equal_area_check,
    pairwise_intersections,
    six_point_conic,
    triad_vertices,
    two_branch_chords,
)


# ---------------------------------------------------------------------------
# Seeded configuration sampling
# ---------------------------------------------------------------------------

MIN_ANGLE = 0.05  # radians
MAX_ASPECT = 50.0
# random_point_near draws from the triangle's bounding box scaled by
# NEAR_EXPAND about its center, and gives up after NEAR_DRAWS draws all
# rejected.  On random_triangle and random_flat_triangle draws at least
# about 40% of the box is accepted, so the cap is never reached there.
NEAR_EXPAND = 2.0
NEAR_DRAWS = 1000
# Doubles a block draw reads from the rng at a time.
_BLOCK = 512

# The draws run on floats: u is a source of doubles in [0, 1), such as
# rng.random or _doubles(rng).__next__, and rng.uniform(lo, hi) is
# lo + (hi - lo) * u(), numpy's own formula, so either source gives the
# stream and the bits of the rng.uniform calls.


def _tri_floats(u) -> tuple:
    """random_triangle's vertices (ax, ay, bx, by, cx, cy) from u: uniform
    in the unit square, drawn again while collinear (Triangle's test), more
    than MAX_ASPECT thin or with an angle below MIN_ANGLE."""
    tol = get_tol()
    while True:
        ax, ay, bx, by, cx, cy = u(), u(), u(), u(), u(), u()
        a = math.hypot(bx - cx, by - cy)
        b = math.hypot(cx - ax, cy - ay)
        c = math.hypot(ax - bx, ay - by)
        hi = max(a, b, c)
        area = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        if hi == 0.0 or abs(area) <= tol * hi * hi:
            continue
        if hi / min(a, b, c) > MAX_ASPECT or _min_angle(a, b, c) < MIN_ANGLE:
            continue
        return ax, ay, bx, by, cx, cy


def _min_angle(a, b, c):
    def ang(u, v, w):
        return math.acos(max(-1.0, min(1.0, (v * v + w * w - u * u) / (2 * v * w))))

    return min(ang(a, b, c), ang(b, c, a), ang(c, a, b))


def _near_floats(ax, ay, bx, by, cx, cy, u) -> tuple:
    """random_point_near's driver (px, py) for the triangle of these
    vertices, from u; the same tests in the same arithmetic (sidelines as
    line_through's LineEq, the guard from the math.hypot sides)."""
    x0, x1 = min(ax, bx, cx), max(ax, bx, cx)
    y0, y1 = min(ay, by, cy), max(ay, by, cy)
    mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    hx = (x1 - x0) / 2.0 * NEAR_EXPAND
    hy = (y1 - y0) / 2.0 * NEAR_EXPAND
    xlo, ylo = mx - hx, my - hy
    xw, yw = (mx + hx) - xlo, (my + hy) - ylo
    guard = 1e-2 * max(
        math.hypot(bx - cx, by - cy), math.hypot(cx - ax, cy - ay), math.hypot(ax - bx, ay - by)
    )
    # line_through(p, q) is l x + m y + n = 0 with these coefficients.
    (l1, m1, n1), (l2, m2, n2), (l3, m3, n3) = (
        (py - qy, qx - px, px * qy - qx * py)
        for px, py, qx, qy in ((bx, by, cx, cy), (cx, cy, ax, ay), (ax, ay, bx, by))
    )
    h1, h2, h3 = math.hypot(l1, m1), math.hypot(l2, m2), math.hypot(l3, m3)
    for _ in range(NEAR_DRAWS):
        px = xlo + xw * u()
        py = ylo + yw * u()
        if min(
            abs(l1 * px + m1 * py + n1) / h1,
            abs(l2 * px + m2 * py + n2) / h2,
            abs(l3 * px + m3 * py + n3) / h3,
        ) >= guard:
            return px, py
    t = Triangle(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))
    raise ConstructionFailed(f"no driver point clears the sidelines of {t} in {NEAR_DRAWS} draws")


def _doubles(rng):
    """The doubles of rng.random() calls, read from rng in blocks."""
    while True:
        yield from rng.random(_BLOCK).tolist()


def random_triangle(rng: np.random.Generator) -> Triangle:
    """Vertices uniform in the unit square, rejecting thin/sliver shapes."""
    ax, ay, bx, by, cx, cy = _tri_floats(rng.random)
    return Triangle(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))


def random_flat_triangle(rng: np.random.Generator) -> Triangle:
    """Obtuse triangle with half-tangent sum > 2 (external Soddy regime)."""
    while True:
        th1 = rng.uniform(MIN_ANGLE, 0.14)
        th2 = rng.uniform(MIN_ANGLE, 0.14)
        base = rng.uniform(0.5, 1.5)
        apex_x = base * math.tan(th2) / (math.tan(th1) + math.tan(th2))
        apex_y = apex_x * math.tan(th1)
        t = Triangle(Point2(0.0, 0.0), Point2(base, 0.0), Point2(apex_x, apex_y))
        if half_tangent_sum(t) > 2.0:
            return t


def random_point_near(t: Triangle, rng: np.random.Generator) -> Point2:
    """Uniform driver point in the bounding box of the triangle expanded by
    NEAR_EXPAND.

    Points within 1e-2 * scale of a sideline are rejected: two triad
    vertices then approach a triangle vertex quadratically in that distance
    and the unsigned sideline-ratio products lose double precision (the
    boundary behavior itself is covered by the dedicated degeneracy sweeps).
    ConstructionFailed when NEAR_DRAWS draws are all rejected, as on a
    triangle too thin for any point of the box to clear its sidelines.
    """
    return Point2(*_near_floats(t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, rng.random))


def _corners_cfg(ax, ay, bx, by, cx, cy) -> list:
    return [[ax, ay], [bx, by], [cx, cy]]


def _tri_cfg(t: Triangle) -> list:
    return _corners_cfg(t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y)


def _cfg_tri(cfg) -> Triangle:
    (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
    return Triangle(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))


def _gen_tri(rng, n) -> list:
    """n random_triangle configurations, read from rng in blocks."""
    u = _doubles(rng).__next__
    return [{"triangle": _corners_cfg(*_tri_floats(u))} for _ in range(n)]


def _gen_tri_point(rng, n) -> list:
    """n configurations of a triangle and a driver P for which both
    P-triads have all members, read from rng in blocks; a driver draw that
    gives up is its trial's ConstructionFailed.

    One configuration is the first of a run of (triangle, P) candidates
    that passes the member guard of both P-triads (kernels._sides_deltas).
    The guard never touches the rng, so the configurations are the passing
    members of a fixed candidate sequence: the candidates are drawn in
    rounds, the guard runs on arrays over a round, and the passing ones
    are kept in order until there are n.
    """
    u = _doubles(rng).__next__
    out = []
    while len(out) < n:
        cands = []
        for _ in range(n - len(out)):
            tri = _tri_floats(u)
            try:
                cands.append((*tri, *_near_floats(*tri, u)))
            except ConstructionFailed as exc:
                cands.append(exc)
        drawn = [c for c in cands if not isinstance(c, Exception)]
        cols = np.array(drawn, dtype=float).reshape(-1, 8).T
        bad = (
            kernels._sides_deltas(*cols[:6], kernels.KIND_P_ELLIPSE, *cols[6:])[2]
            | kernels._sides_deltas(*cols[:6], kernels.KIND_P_HYPERBOLA, *cols[6:])[2]
        )
        passed = iter((~bad).tolist())
        for c in cands:
            if isinstance(c, Exception):
                out.append(c)
            elif next(passed):
                out.append({"triangle": _corners_cfg(*c[:6]), "p": [c[6], c[7]]})
    return out


# ---------------------------------------------------------------------------
# Check implementations (cfg -> residual; the batch checks take all cfgs)
# ---------------------------------------------------------------------------

def _chk_yiu_vertices(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_ellipse")
    verts = triad_vertices(tr)
    tang = excircle_tangency_points(t)
    s = t.scale()
    res = max(distance(v, q) / s for v, q in zip(verts, tang))
    mids = (midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b))
    res = max(res, max(distance(m.center, q) / s for m, q in zip(tr.members, mids)))
    rep = six_point_conic(tr)
    return max(res, rep.residual6)


def _cfg_args(cfgs, kind: int) -> tuple:
    """The configurations' kernel arguments for a kind, as arrays: the six
    triangle coordinates, the kind, and P (zeros for the V-kinds)."""
    tri = np.array([cfg["triangle"] for cfg in cfgs], dtype=float).reshape(-1, 6)
    if kind in (kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA):
        p = np.array([cfg["p"] for cfg in cfgs], dtype=float).reshape(-1, 2)
    else:
        p = np.zeros((len(cfgs), 2))
    return (*tri.T, kind, *p.T)


def _member_residuals(args, xs, ys) -> tuple:
    """||q - F1| - |q - F2|| - L| / s of each member i of the triads of
    args (axis L, s the largest side) at (xs[i], ys[i]) on arrays, with
    the focal differences at q of the P-hyperbola rule: (residuals, axes,
    s, _sides_deltas' flag)."""
    sides, lam, bad = kernels._sides_deltas(*args)
    at = [kernels._sides_deltas(*args[:6], kernels.KIND_P_HYPERBOLA, x, y)[1][i]
          for i, (x, y) in enumerate(zip(xs, ys))]
    s = kernels._largest(sides)
    return np.array([abs(abs(d) - abs(l)) / s for d, l in zip(at, lam)]), np.abs(lam), s, bad


def _fail_or(failed, values, exc=ConstructionFailed("a triad member degenerates")) -> list:
    return [exc if f else v for f, v in zip(failed.tolist(), values.tolist())]


def _batch_check(kind: int, score):
    """A proposition's run from score(class code, residual6), all its
    configurations in one kernels.six_point call; a configuration the kernel
    fails on crashes its trial with ConstructionFailed."""

    def run(cfgs) -> list:
        codes, _, _, res6 = kernels.six_point(*_cfg_args(cfgs, kind))
        return [
            ConstructionFailed("a triad member degenerates or the fit vanishes")
            if code == kernels.CLASS_FAILED
            else score(code, r)
            for code, r in zip(codes.tolist(), res6.tolist())
        ]

    return run


def _not_circle(code: int, res6: float) -> float:
    return 1.0 if code == kernels.CLASS_CIRCLE else 0.0


def _incidence(code: int, res6: float) -> float:
    return res6


def _chk_tangent_excentral(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_ellipse")
    exc = [
        classic_center(t, "excenterA"),
        classic_center(t, "excenterB"),
        classic_center(t, "excenterC"),
    ]
    worst = 0.0
    for idx, vertex in enumerate(t.vertices()):
        others = [exc[k] for k in range(3) if k != idx]
        side = line_through(others[0], others[1])
        con = conic_from_foci(tr.members[idx])
        worst = max(worst, residual(con, vertex), abs(tangency_discriminant(con, side)))
    return worst


def _vell_chord_line_bary(a, b, c):
    # Chord through the pairwise intersections of the b- and c-members,
    # barycentric coefficients.
    return (
        -(b - c) * (a + b + c) ** 2,
        -((a + b - c) ** 2) * (a + c),
        (a + b) * ((a - b + c) ** 2),
    )


def _chk_chords_x20(cfg) -> float:
    """The chords through the V-ellipse pair points pass through the
    excenters and X20: the worst distance over the circumdiameter, inf
    where a pair has fewer than two points."""
    t = _cfg_tri(cfg)
    inters = pairwise_intersections(build_triad(t, "v_ellipse"))
    diam = 2.0 * (t.side_a * t.side_b * t.side_c) / (4.0 * t.area)
    x20 = classic_center(t, "X20")
    worst = 0.0
    for pts, label in zip(inters, "ABC"):
        if len(pts) < 2:
            return math.inf
        chord = line_through(pts[0], pts[1])
        for q in (classic_center(t, f"excenter{label}"), x20):
            worst = max(worst, chord.distance_to(q) / diam)
    # Cross-check the first chord, through its pair points, against its
    # closed-form line.
    if len(inters[0]) != 2:
        return max(worst, 1.0)
    lco = _vell_chord_line_bary(*t.sides())
    m = max(abs(v) for v in lco)
    for q in inters[0]:
        u = cartesian_to_bary(t, q).normalized()
        worst = max(worst, abs(lco[0] * u.u + lco[1] * u.v + lco[2] * u.w) / m)
    return worst


def _chk_right_triangle_x20(cfg) -> float:
    t = _cfg_tri(cfg)
    x20 = classic_center(t, "X20")
    x4 = classic_center(t, "X4")
    x3 = classic_center(t, "X3")
    s = t.scale()
    worst = distance(x20, reflect_about_point(x4, x3)) / s
    for m in build_triad(t, "v_ellipse").members:
        worst = max(worst, residual(conic_from_foci(m), x20))
    return worst


def _detn_v_ellipse(ax, ay, bx, by, cx, cy):
    """The V-ellipse six-point det, NaN where the kernel fails: a float, or
    an array for an array C."""
    return kernels.six_point(ax, ay, bx, by, cx, cy, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[1]


def _on_ray(s, ox, oy, r, dx, dy):
    """The point O + s*r*(dx, dy) of a ray, on floats or arrays."""
    return ox + s * r * dx, oy + s * r * dy


def _scan_rays(fn, rays, lo, hi, steps: int = 60, first: bool = False) -> list:
    """loci.batch_sign_changes of fn(s, *ray) along each ray of rays, a
    list of tuples of floats; lo and hi are floats or one per ray."""
    if not rays:
        return []
    cols = np.array(rays).T
    n = len(rays)
    return batch_sign_changes(
        lambda s, k: fn(s, *(c[k] for c in cols)),
        np.broadcast_to(lo, n), np.broadcast_to(hi, n), steps, first,
    )


def _at_rays(fn, rays, s) -> list:
    """fn(s, *ray) on every ray of rays in one array call, as floats."""
    return fn(np.full(len(rays), s), *np.array(rays).T).tolist()


def _ab_ray(cfg) -> tuple:
    """P2.6's A and B, then the ray M + s*r*(cos, sin) of its angle from
    the midpoint M of AB, r = |AB| / 2."""
    (ax, ay), (bx, by) = cfg["ab"]
    A = Point2(ax, ay)
    B = Point2(bx, by)
    m = midpoint(A, B)
    ang = cfg["angle"]
    return (A.x, A.y, B.x, B.y, m.x, m.y, distance(A, B) / 2.0, math.cos(ang), math.sin(ang))


def _ab_ray_det(s, ax, ay, bx, by, *ray):
    return _detn_v_ellipse(ax, ay, bx, by, *_on_ray(s, *ray))


def _chk_degenerate_iff_right(rays) -> list:
    """P2.6 on all rays (_ab_ray) at once: one batch scan for the first
    sign change of the V-ellipse det as C runs along each ray."""
    roots = _scan_rays(_ab_ray_det, rays, 0.8, 1.2, first=True)
    at_one = _at_rays(_ab_ray_det, rays, 1.0)
    return _each(_right_angle_residual, zip(rays, roots, at_one))


def _right_angle_residual(item) -> float:
    (ax, ay, bx, by, *ray), s, det_right = item
    if isinstance(s, Exception):
        raise s
    if s is None:
        return 1.0
    t = Triangle(Point2(ax, ay), Point2(bx, by), Point2(*_on_ray(s, *ray)))
    # Some angle is right at any det-sign crossing (the degenerate locus in C
    # is the diameter circle plus the two tangent lines at A and B).
    aa, bb, cc = t.sides()
    pyth = min(
        abs(aa * aa + bb * bb - cc * cc),
        abs(bb * bb + cc * cc - aa * aa),
        abs(cc * cc + aa * aa - bb * bb),
    ) / max(aa, bb, cc) ** 2
    return max(pyth, abs(det_right) * 100.0)


def _chk_x478_quartic(cfg) -> float:
    # The quartic at the center of the six-point conic itself, not at the
    # closed form loci.x478_center_for_theta.
    th = cfg["theta"]
    c = Point2(0.5 * math.cos(th), 0.5 * math.sin(th))
    cen = classic_center(Triangle(Point2(0.5, 0.0), Point2(-0.5, 0.0), c), "X478")
    return abs(x478_quartic(cen.x, cen.y))


def _deg8_root_on_ray(A: Point2, B: Point2, ang: float) -> float | None:
    m = midpoint(A, B)
    r = distance(A, B) / 2.0
    d = Point2(math.cos(ang), math.sin(ang))

    def deg8(s):
        c = Point2(m.x + s * r * d.x, m.y + s * r * d.y)
        try:
            return parabola_deg8_V(*Triangle(A, B, c).sides())
        except DegenerateTriangle:
            return math.nan

    return next(bisect_sign_changes(deg8, 1.05, 6.0, steps=240), None)


def _chk_type_regions_V(cfg) -> float:
    t = _cfg_tri(cfg)
    A, B = t.a, t.b
    rngval = cfg["u"]
    m = midpoint(A, B)
    r = distance(A, B) / 2.0
    ang = cfg["angle"]
    d = Point2(math.cos(ang), math.sin(ang))
    worst = 0.0
    # (i) C on the circle with diameter AB -> degenerate.
    c_on = Point2(m.x + r * d.x, m.y + r * d.y)
    worst = max(worst, abs(_detn_v_ellipse(A.x, A.y, B.x, B.y, c_on.x, c_on.y)))
    # (i') C on the perpendicular to AB at A (tangent line) -> degenerate.
    u = Point2(B.x - A.x, B.y - A.y)
    n = Point2(-u.y / (2 * r), u.x / (2 * r))
    c_t = Point2(A.x + (0.5 + rngval) * n.x, A.y + (0.5 + rngval) * n.y)
    worst = max(worst, abs(_detn_v_ellipse(A.x, A.y, B.x, B.y, c_t.x, c_t.y)))
    # (ii) C on the degree-8 root along the ray -> parabola.
    found = _deg8_root_on_ray(A, B, ang)
    if found is None:
        return 1.0
    c_p = Point2(m.x + found * r * d.x, m.y + found * r * d.y)
    code, _, disc, _ = kernels.six_point(
        A.x, A.y, B.x, B.y, c_p.x, c_p.y, kernels.KIND_V_ELLIPSE, 0.0, 0.0
    )
    if code == kernels.CLASS_FAILED:
        return 1.0
    worst = max(worst, abs(disc))
    # (iii) generic interior C -> ellipse or hyperbola.
    code = kernels.six_point(
        A.x, A.y, B.x, B.y, t.c.x, t.c.y, kernels.KIND_V_ELLIPSE, 0.0, 0.0
    )[0]
    if code not in (
        kernels.CLASS_ELLIPSE,
        kernels.CLASS_HYPERBOLA,
        kernels.CLASS_RECTANGULAR_HYPERBOLA,
        kernels.CLASS_CIRCLE,
        kernels.CLASS_DEGENERATE_TWO_LINES,
    ):
        worst = max(worst, 1.0)
    return worst


def _chk_covertex_locus_V(cfg) -> float:
    rep = covertex_conic_check("v_ellipse", ray_angle=cfg["angle"])
    ok_class = rep.conic_class in (
        ConicClass.HYPERBOLA,
        ConicClass.RECTANGULAR_HYPERBOLA,
    )
    return rep.residual6 if ok_class else 1.0


def _chk_pstar(cfg) -> float:
    # Existence plus the circle/concentricity postconditions are the hard
    # claims.  Strict uniqueness is an open question and genuine secondary
    # zeros near a vertex exist (verified counterexample); only the principal
    # candidate, the one farthest from the vertices, is checked.
    t = _cfg_tri(cfg)
    hits = find_pstar_candidates(t)
    p = Point2(*hits[0][0])
    rep = six_point_conic(build_triad(t, "p_ellipse", p))
    cc = circumcircle(t)
    conc = distance(rep.center, cc.center) / cc.radius if rep.center else 1.0
    ok_class = rep.conic_class == ConicClass.CIRCLE
    # functional tolerance 1e-12 scaled into the 1e-6 threshold.
    fnorm = hits[0][1] / t.scale() ** 8 * 1e6
    return max(fnorm, conc, 0.0 if ok_class else 1.0)


def _chk_anticevian_needle(cfg) -> float:
    t = _cfg_tri(cfg)
    tac = anticevian_triangle(t, center_bary(t, "X3"))
    p = classic_center(t, "X3")
    s = max(t.scale(), tac.scale())
    fval = pstar_circle_functional(*tac.sides(), *_deltas(tac, p))
    triad = build_triad(tac, "p_ellipse", p)
    rep = six_point_conic(triad)
    cc = circumcircle(tac)
    verts = triad_vertices(triad)
    rmean = sum(distance(v, cc.center) for v in verts) / 6.0
    spread = max(abs(distance(v, cc.center) - rmean) for v in verts) / cc.radius
    conc = distance(rep.center, cc.center) / cc.radius if rep.center else 1.0
    x4 = classic_center(t, "X4")
    x6 = classic_center(t, "X6")
    lin = abs(signed_area(x4, x6, rep.center)) / (distance(x4, x6) ** 2 + s * s)
    # functional tolerance 1e-12 scaled into the 1e-6 threshold
    return max(fval / s**8 * 1e6, spread, conc * 1e2, lin * 1e2)


def _circumcircle_ray(t: Triangle, ang: float) -> tuple:
    """The corners of t, then the ray O + s*R*(cos ang, sin ang) from its
    circumcenter O, R the circumradius."""
    cc = circumcircle(t)
    corners = (w for v in t.vertices() for w in v.as_tuple())
    return (*corners, cc.center.x, cc.center.y, cc.radius, math.cos(ang), math.sin(ang))


def _cfg_ray(cfg) -> tuple:
    return _circumcircle_ray(_cfg_tri(cfg), cfg["angle"])


def _p_ellipse_det(s, ax, ay, bx, by, cx, cy, *ray):
    return kernels.six_point(
        ax, ay, bx, by, cx, cy, kernels.KIND_P_ELLIPSE, *_on_ray(s, *ray)
    )[1]


def _p_hyperbola_disc(s, ax, ay, bx, by, cx, cy, *ray):
    return kernels.six_point(
        ax, ay, bx, by, cx, cy, kernels.KIND_P_HYPERBOLA, *_on_ray(s, *ray)
    )[2]


def _chk_degenerate_on_circumcircle(rays) -> list:
    """P3.4 on all rays (_cfg_ray) at once: one batch scan for every sign
    change of the P-ellipse det as P runs along each ray from the
    circumcenter."""
    on = _at_rays(_p_ellipse_det, rays, 1.0)
    crossings = _scan_rays(_p_ellipse_det, rays, 0.97, 1.03)
    return _each(_circumcircle_residual, zip(on, crossings))


def _circumcircle_residual(item) -> float:
    # The degeneracy locus of the driver P contains the circumcircle plus
    # interior branches (a deltoid for the equilateral), so the sweep can
    # cross several sign changes; the one nearest the circle must localize
    # the circle itself.
    on, crossings = item
    if isinstance(crossings, Exception):
        raise crossings
    if not crossings:
        return 1.0
    nearest = min(abs(s - 1.0) for s in crossings)
    # bracket offset tolerance 1e-6 scaled into the 1e-9 threshold
    return max(abs(on), nearest * 1e-3)


def _chk_ostar_arcs(cfg) -> float:
    t = _cfg_tri(cfg)
    samples, arcs = sample_locus_ostar(t, 40)
    if len(samples) < 20:
        return 1.0
    worst = max(s.implicit_residual for s in samples)
    mids = (midpoint(t.b, t.c), midpoint(t.c, t.a), midpoint(t.a, t.b))
    for con in arcs.values():
        worst = max(worst, max(residual(con, m) for m in mids))
    return worst


def _chk_equilateral_arcs(cfg) -> float:
    rep = equilateral_ostar_locus_check()
    worst = abs(rep.semi_axes[0] - math.sqrt(3.0) / 2.0)
    worst = max(worst, abs(rep.semi_axes[1] - math.sqrt(3.0) / 6.0))
    worst = max(worst, max(rep.center_offsets))
    worst = max(worst, max(rep.midpoint_residuals))
    worst = max(worst, rep.endpoint_set_error)
    worst = max(worst, max(rep.tangency_discriminants))
    worst = max(worst, rep.top_vertex_error)
    worst = max(worst, abs(rep.area_ratio - 3.0))
    return worst


def _chk_equilateral_regions(cfg) -> float:
    s3 = math.sqrt(3.0)
    t = Triangle(Point2(-0.5, 0.0), Point2(0.5, 0.0), Point2(0.0, s3 / 2.0))
    grid = region_map(t, "p_ellipse_over_P", (30, 30))
    seen = {cls for row in grid.cells for cls in row}
    wanted_any_ellipse = {"ellipse", "circle"} & seen
    wanted_any_hyp = {"hyperbola", "rectangular_hyperbola"} & seen
    return 0.0 if (wanted_any_ellipse and wanted_any_hyp) else 1.0


def _chk_never_rectangular(cfgs) -> list[float]:
    """All trials in one kernels.six_point call: 1.0 where the P-ellipse
    six-point conic is a rectangular hyperbola, else 0.0 (a failed
    construction included)."""
    codes = kernels.six_point(*_cfg_args(cfgs, kernels.KIND_P_ELLIPSE))[0]
    return np.where(codes == kernels.CLASS_RECTANGULAR_HYPERBOLA, 1.0, 0.0).tolist()


def _chk_covertex_equilateral_P(cfg) -> float:
    rep = covertex_conic_check("p_equilateral", ray_angle=cfg["angle"])
    return max(rep.residual6, rep.center_on_incircle_error)


def _chk_vhyp_vertex_barys(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    a, b, c = t.sides()
    lams = tr.deltas
    verts = triad_vertices(tr)
    sides = (a, b, c)
    s = t.scale()
    worst = 0.0
    for i in range(3):
        lam = lams[i]
        side = sides[i]
        b1 = [0.0, 0.0, 0.0]
        b2 = [0.0, 0.0, 0.0]
        j, k = (i + 1) % 3, (i + 2) % 3
        b1[j], b1[k] = side + lam, side - lam
        b2[j], b2[k] = side - lam, side + lam
        p1 = bary_to_cartesian(t, BaryCoords(*b1))
        p2 = bary_to_cartesian(t, BaryCoords(*b2))
        worst = max(
            worst,
            distance(p1, verts[2 * i]) / s,
            distance(p2, verts[2 * i + 1]) / s,
        )
    return worst


def _chk_intouch_extouch(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    verts = triad_vertices(tr)
    ins, exts = intouch_extouch(t)
    s = t.scale()
    worst = 0.0
    for i in range(3):
        worst = max(worst, distance(verts[2 * i], exts[i]) / s)
        worst = max(worst, distance(verts[2 * i + 1], ins[i]) / s)
    a1, a2 = equal_area_check(tr)
    return max(worst, abs(a1 - a2) / max(a1, a2))


def privalov_conic(t: Triangle) -> np.ndarray:
    """Barycentric matrix, of unit Frobenius norm, of the six-point conic of
    the V-hyperbola triad (closed form)."""
    a, b, c = t.sides()
    k1, k2, k3 = a - b - c, a + b - c, a - b + c
    k4 = a * a + b * b + c * c
    d = k1 * k2 * k3
    m = np.array(
        [
            [d, k2 * (k4 - 2 * a * b), k3 * (k4 - 2 * a * c)],
            [k2 * (k4 - 2 * a * b), d, -k1 * (k4 - 2 * b * c)],
            [k3 * (k4 - 2 * a * c), -k1 * (k4 - 2 * b * c), d],
        ]
    )
    return m / np.linalg.norm(m)


def _chk_privalov(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    mb = privalov_conic(t)
    worst = max(
        residual_bary(mb, cartesian_to_bary(t, v).normalized())
        for v in triad_vertices(tr)
    )
    fitted = six_point_conic(tr).conic
    mc = conic_bary_to_cartesian(mb, t).m
    mf = fitted.m
    diff = min(float(np.abs(mc - mf).max()), float(np.abs(mc + mf).max()))
    return max(worst, diff)


def _chk_isosceles_degenerate(cfg) -> float:
    apex = cfg["apex"]
    half = cfg["half_base"]
    t = Triangle(Point2(0.0, apex), Point2(half, 0.0), Point2(-half, 0.0))
    tr = build_triad(t, "v_hyperbola")
    if tr.members[0] is not None or tr.degenerate_lines[0] is None:
        return 1.0
    line = tr.degenerate_lines[0]
    base_mid = midpoint(t.b, t.c)
    worst = line.distance_to(base_mid) / t.scale()
    worst = max(worst, line.distance_to(Point2(0.0, apex)) / t.scale())
    con = conic_bary_to_cartesian(privalov_conic(t), t)
    base = line_through(t.b, t.c)
    worst = max(worst, residual(con, base_mid))
    worst = max(worst, abs(tangency_discriminant(con, base)))
    return worst


def _chk_soddy_intersections(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    diam = 2.0 * circumcircle(t).radius
    x175, x176 = soddy_centers(t)
    worst = 0.0
    for m in tr.members:
        worst = max(worst, _focal_diff_residual(x176, m) / diam)
        if x175 is not None:
            worst = max(worst, _focal_diff_residual(x175, m) / diam)
    return worst


def _sextic_root_on_vertical(x: float) -> Point2 | None:
    y = next(bisect_sign_changes(lambda y: halftangent_sextic(x, y), 0.25, 1.4, steps=280), None)
    return None if y is None else Point2(x, y)


def _chk_halftangent_sextic(cfg) -> float:
    x = cfg["x"]
    c = _sextic_root_on_vertical(x)
    if c is None:
        return 1.0
    t = Triangle(Point2(-1.0, 0.0), Point2(1.0, 0.0), c)
    worst = abs(half_tangent_sum(t) - 2.0)
    # Converse: bisect the half-tangent condition itself; roots must agree.
    g = lambda y: half_tangent_sum(
        Triangle(Point2(-1.0, 0.0), Point2(1.0, 0.0), Point2(x, y))
    ) - 2.0
    y = next(bisect_sign_changes(g, 0.25, 1.4, steps=1), None)
    if y is None:
        return 1.0
    return max(worst, abs(y - c.y))


def _through_pair_points(ellipse: int, hyperbola: int):
    """P4.7 (V-triads) or P5.6 (P-triads) on all configurations at once:
    the hyperbola members' focal residuals at the ellipse pair points
    (kernels.pair_points on arrays), other than the driver P; 1 where a
    pair has fewer than two such points (P4.7) or none (P5.6), 0 where a
    V-hyperbola member is a perpendicular bisector."""
    driver = ellipse == kernels.KIND_P_ELLIPSE

    def run(cfgs) -> list:
        args = _cfg_args(cfgs, hyperbola)
        xs, ys, keep, bad = kernels.pair_points(*args[:6], ellipse, *args[7:])
        res, lengths, s, bad_h = _member_residuals(args, xs, ys)
        if driver:
            keep &= kernels._hypot(xs - args[7], ys - args[8]) > 1e-7 * s
        short = (keep.sum(axis=1) < (1 if driver else 2)).any(axis=0)
        worst = np.where(short, 1.0, np.where(keep, res, 0.0).max(axis=(0, 1)))
        bisector = lengths.min(axis=0) <= kernels.MEMBER_GUARD * s
        return _fail_or(bad | bad_h, np.where(bisector, 0.0, worst))

    return run


def _vhyp_chord_line_bary(a, b, c):
    L = a + b + c
    return (
        -2 * a * a + a * b + b * b + a * c - 2 * b * c + c * c,
        (a - c) * (L - 2 * a),
        (a - b) * (L - 2 * a),
    )


def _chk_chords_x8(cfg) -> float:
    t = _cfg_tri(cfg)
    tr = build_triad(t, "v_hyperbola")
    if tr.has_degenerate_member():
        return 0.0
    diam = 2.0 * circumcircle(t).radius
    x8 = classic_center(t, "X8")
    worst = max(chord.distance_to(x8) / diam for chord in two_branch_chords(tr))
    # Closed-form cross-check: the bary line for the A-chord contains X8.
    a, b, c = t.sides()
    lco = _vhyp_chord_line_bary(a, b, c)
    u = center_bary(t, "X8")
    worst = max(
        worst,
        abs(lco[0] * u.u + lco[1] * u.v + lco[2] * u.w)
        / (max(abs(v) for v in lco) * max(abs(u.u), abs(u.v), abs(u.w))),
    )
    return worst


def _chk_fifteen_point_cubic(cfg) -> float:
    t = _cfg_tri(cfg)
    sidelines = (
        line_through(t.b, t.c),
        line_through(t.c, t.a),
        line_through(t.a, t.b),
    )
    pts = list(t.vertices())
    pts += list(triad_vertices(build_triad(t, "v_ellipse")))
    trh = build_triad(t, "v_hyperbola")
    if not trh.has_degenerate_member():
        pts += list(triad_vertices(trh))
    s = t.scale()
    return max(min(ln.distance_to(p) for ln in sidelines) / s for p in pts)


def _chk_soddy_line_tangent(cfg) -> float:
    x = cfg["x"]
    c = _sextic_root_on_vertical(x)
    if c is None:
        return 1.0
    t = Triangle(Point2(-1.0, 0.0), Point2(1.0, 0.0), c)
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


def _chk_second_point(cfgs) -> list:
    """P5.1 on all configurations at once: P' (kernels.second_point) on all
    three members, and the vertex-gap identity; NotFound without a P'."""
    args = _cfg_args(cfgs, kernels.KIND_P_HYPERBOLA)
    x, y, found = kernels.second_point(*args[:6], *args[7:])
    res, lengths, s, _ = _member_residuals(args, [x] * 3, [y] * 3)
    gaps = np.sort(lengths, axis=0)
    # Gap identity tolerance 1e-10 scaled into the 1e-8 threshold.
    worst = np.maximum(res.max(axis=0), abs(gaps[2] - gaps[1] - gaps[0]) / s * 100.0)
    return _fail_or(~found, worst, NotFound("no second triple-common point found"))


def _chk_equal_areas(cfg) -> float:
    t = _cfg_tri(cfg)
    p = Point2(*cfg["p"])
    a1, a2 = equal_area_check(build_triad(t, "p_hyperbola", p))
    return abs(a1 - a2) / max(a1, a2)


def _chk_circle_pair(cfg) -> float:
    t = _cfg_tri(cfg)
    p1, p2 = find_phyp_circle_points(t)
    s = t.scale()
    cc = circumcircle(t)
    worst = 0.0
    for p in (p1, p2):
        fval = phyp_circle_functional(*t.sides(), *_lambdas(t, p))
        # functional tolerance 1e-12 scaled into the 1e-6 threshold
        worst = max(worst, fval / s**8 * 1e6)
        rep = six_point_conic(build_triad(t, "p_hyperbola", p))
        worst = max(worst, 0.0 if rep.conic_class == ConicClass.CIRCLE else 1.0)
        worst = max(worst, distance(rep.center, cc.center) / cc.radius if rep.center else 1.0)
    # Mutual membership: each point on the other's triad members
    tr1 = build_triad(t, "p_hyperbola", p1)
    for m in tr1.members:
        worst = max(worst, _focal_diff_residual(p2, m) / s * 1e2)
    return worst


def _chk_x55(cfg) -> float:
    from .loci import x55_conjecture_check

    t = _cfg_tri(cfg)
    rep = x55_conjecture_check(t)
    r = rep.circumradius
    return max(rep.circle_spread / r, rep.concentricity_error / r, rep.x7_match_error / r)


def _phyp_condition(s, ax, ay, bx, by, cx, cy, *ray):
    """phyp_parabola_condition with P at the ray point, the sides and
    focal differences kernels._sides_deltas', as loci._lambdas reads them."""
    sides, lams, _ = kernels._sides_deltas(
        ax, ay, bx, by, cx, cy, kernels.KIND_P_HYPERBOLA, *_on_ray(s, *ray)
    )
    return phyp_parabola_condition(*sides, *lams)


def _phyp_parabola_on_ray(t: Triangle, ang: float):
    """phyp_parabola_condition at P = O + s*R*(cos ang, sin ang), O and R
    the circumcenter and circumradius, as a function of s: a float, or an
    array such as a whole scan grid, bit for bit alike."""
    ray = _circumcircle_ray(t, ang)
    return lambda s: _phyp_condition(s, *ray)


def _phyp_parabola_root(t: Triangle, ang: float) -> float | None:
    cond = _phyp_parabola_on_ray(t, ang)
    return next(bisect_sign_changes(cond, 0.08, 2.4, steps=300, f_grid=cond), None)


def _cfg_and_ray(cfg) -> tuple:
    return cfg, _cfg_ray(cfg)


def _chk_phyp_parabola(items) -> list:
    """P5.7 on all (configuration, ray) pairs at once: one batch scan for
    the root of the parabola condition along each ray, then one for the
    fitted conic's disc around each root found."""
    cfgs, rays = zip(*items)
    found = _scan_rays(_phyp_condition, rays, 0.08, 2.4, steps=300, first=True)
    hit = [i for i, s in enumerate(found) if isinstance(s, float)]
    s_disc = [None] * len(found)
    lo = [found[i] - 2e-3 for i in hit]
    hi = [found[i] + 2e-3 for i in hit]
    discs = _scan_rays(_p_hyperbola_disc, [rays[i] for i in hit], lo, hi, steps=40, first=True)
    for i, s in zip(hit, discs):
        s_disc[i] = s
    return _each(_parabola_residual, zip(cfgs, rays, found, s_disc))


def _parabola_residual(item) -> float:
    # The printed parabola condition reaches its evaluation noise floor well
    # before the geometric boundary is resolved, so the check verifies that
    # the fitted conic's own quadratic discriminant changes sign within
    # 1e-6 of the condition root (scaled into the 1e-9 threshold), and that
    # the conic at the disc root classifies as a parabola.
    cfg, ray, found, s_disc = item
    for r in (found, s_disc):
        if isinstance(r, Exception):
            raise r
    if found is None or s_disc is None:
        return 1.0
    # offset tolerance 1e-6 scaled into the 1e-9 threshold
    worst = max(abs(s_disc - found) * 1e-3, abs(_p_hyperbola_disc(s_disc, *ray)))
    return max(worst, _sideline_extension_residual(_cfg_tri(cfg), cfg["u"]))


def _sideline_extension_residual(t: Triangle, u01: float) -> float:
    """Degeneracy residual at a sideline extension: the fitted conic's det
    vanishes to second order approaching the line (no sign change exists),
    so shrink the transversal offset until it does, and require the member
    to collapse on the line itself."""
    u = 1.0 + 0.45 * u01
    dvec = Point2(t.c.x - t.b.x, t.c.y - t.b.y)
    nvec = Point2(-dvec.y, dvec.x)
    nn = math.hypot(nvec.x, nvec.y)
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
            code, detn, _, _ = kernels.six_point(
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


def _mk_appendix_check(name):
    def chk(cfg):
        return check_appendix(name, _cfg_tri(cfg), Point2(*cfg["p"]) if cfg.get("p") else None)

    return chk


def _gen_x3prime_center(rng) -> dict:
    """A random_triangle whose X3-anticevian six-point conic has a center:
    near-right triangles make its fit rank deficient, and only the check can tell."""
    while True:
        cfg = {"triangle": _corners_cfg(*_tri_floats(rng.random))}
        try:
            _mk_appendix_check("x3prime_center")(cfg)
        except (ConstructionFailed, RankDeficient):
            continue
        return cfg


# ---------------------------------------------------------------------------
# Generators for special configuration families
# ---------------------------------------------------------------------------

def _gen_right_triangle(rng) -> dict:
    p = rng.uniform(0.3, 1.5)
    q = rng.uniform(0.3, 1.5)
    phi = rng.uniform(0.0, 2 * math.pi)
    tx, ty = rng.uniform(-1, 1, 2)
    cphi, sphi = math.cos(phi), math.sin(phi)

    def rot(x, y):
        return [x * cphi - y * sphi + tx, x * sphi + y * cphi + ty]

    return {"triangle": [rot(0.0, p), rot(q, 0.0), rot(0.0, 0.0)]}


def _gen_ab_angle(rng) -> dict:
    ax, ay, bx, by, _, _ = _tri_floats(rng.random)
    ang0 = math.atan2(by - ay, bx - ax)
    ang = ang0 + rng.uniform(0.35, math.pi - 0.35)
    return {"ab": [[ax, ay], [bx, by]], "angle": ang}


def _gen_theta(rng) -> dict:
    return {"theta": rng.uniform(0.05, math.pi - 0.05)}


def _gen_tri_angle(rng) -> dict:
    # The ray from the circumcenter must stay clear of the vertices (they
    # sit on the circumcircle and break P-driven constructions).
    while True:
        t = random_triangle(rng)
        ang = rng.uniform(0.0, 2 * math.pi)
        cc = circumcircle(t)
        vangs = [
            math.atan2(v.y - cc.center.y, v.x - cc.center.x) for v in t.vertices()
        ]
        if min(
            abs((ang - va + math.pi) % (2 * math.pi) - math.pi) for va in vangs
        ) < 0.15:
            continue
        return {
            "triangle": _tri_cfg(t),
            "angle": ang,
            "u": rng.uniform(0.1, 1.2),
        }


def _gen_ray_angle_v(rng) -> dict:
    # Rays that actually cross the co-vertex locus branch.
    return {"angle": rng.uniform(0.9, math.pi - 0.9)}


def _gen_ray_angle_p(rng) -> dict:
    # Avoid the vertex directions of the reference equilateral.
    while True:
        ang = rng.uniform(0.0, 2.0 * math.pi)
        if min(
            abs((ang - v + math.pi) % (2 * math.pi) - math.pi)
            for v in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
        ) > 0.25:
            return {"angle": ang}


def _gen_isosceles(rng) -> dict:
    return {"apex": rng.uniform(0.4, 1.6), "half_base": rng.uniform(0.3, 1.2)}


def _gen_soddy_regimes(rng) -> dict:
    # Alternate the containment and external regimes.
    if rng.uniform() < 0.5:
        return {"triangle": _corners_cfg(*_tri_floats(rng.random))}
    return {"triangle": _tri_cfg(random_flat_triangle(rng))}


def _gen_sextic_abscissa(rng) -> dict:
    # _sextic_root_on_vertical finds a root for every |x| <= 0.45.
    return {"x": rng.uniform(-0.45, 0.45)}


def _gen_needle(rng) -> dict:
    # Reject triangles whose X3-anticevian is ill conditioned.
    while True:
        t = random_triangle(rng)
        q = center_bary(t, "X3")
        u, v, w = q.u, q.v, q.w
        norms = (abs(-u + v + w), abs(u - v + w), abs(u + v - w))
        if min(norms) > 0.05 * (abs(u) + abs(v) + abs(w)):
            return {"triangle": _tri_cfg(t)}


def _gen_deg8_ray(rng) -> dict:
    while True:
        ax, ay, bx, by, cx, cy = _tri_floats(rng.random)
        ang = rng.uniform(0.0, 2 * math.pi)
        if _deg8_root_on_ray(Point2(ax, ay), Point2(bx, by), ang) is None:
            continue
        return {
            "triangle": _corners_cfg(ax, ay, bx, by, cx, cy),
            "angle": ang,
            "u": rng.uniform(0.1, 1.2),
        }


def _gen_tri_phyp_angle(rng) -> dict:
    while True:
        t = random_triangle(rng)
        u = rng.uniform(0.1, 0.9)
        if abs(u - 0.5) < 0.05:
            continue
        ang = rng.uniform(0.0, 2 * math.pi)
        if _phyp_parabola_root(t, ang) is None:
            continue
        return {"triangle": _tri_cfg(t), "angle": ang, "u": u}


def _gen_fixed(rng) -> dict:
    return {}


# ---------------------------------------------------------------------------
# The manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Proposition:
    prop_id: str
    title: str
    # draw(rng, n) -> n configurations, or for a trial whose draw crashed
    # its exception.  A block draw reads rng ahead of what it returns.
    draw: callable
    # run(cfgs) -> one residual per configuration, or the exception that
    # crashed its trial.
    run: callable
    threshold: float
    default_trials: int
    evidence: bool = False


def _per_draw(gen):
    """A proposition's draw from a generator of one configuration."""

    def draw(rng, n) -> list:
        out = []
        for _ in range(n):
            try:
                out.append(gen(rng))
            except Exception as exc:  # a crashed draw is a failed trial
                out.append(exc)
        return out

    return draw


def _each(fn, items) -> list:
    """fn of each item, or the exception it raised: a crashed trial.  An
    item that is already an exception is kept."""
    out = []
    for item in items:
        if isinstance(item, Exception):
            out.append(item)
            continue
        try:
            out.append(fn(item))
        except Exception as exc:  # a crashed check is a failed trial
            out.append(exc)
    return out


def _batch_run(setup, check):
    """A proposition's run from setup(cfg), run on each configuration, and
    check(every setup that did not crash), one residual or exception each;
    a crashed setup fails its own trial."""

    def run(cfgs) -> list:
        out = _each(setup, cfgs)
        live = [i for i, item in enumerate(out) if not isinstance(item, Exception)]
        for i, r in zip(live, check([out[i] for i in live]) if live else ()):
            out[i] = r
        return out

    return run


def _per_trial(check):
    """A proposition's run from a check of one configuration."""
    return functools.partial(_each, check)


MANIFEST: tuple[Proposition, ...] = (
    # -- V-ellipses --------------------------------------------------------
    Proposition("P2.1-yiu-vertices", "vertices at excircle tangency points, on one conic", _gen_tri, _per_trial(_chk_yiu_vertices), 1e-8, 200),
    Proposition("P2.2-yiu-never-circle", "six-point conic is never a circle (non-equilateral)", _gen_tri, _batch_check(kernels.KIND_V_ELLIPSE, _not_circle), 0.5, 200),
    Proposition("P2.3-tangent-excentral", "members tangent to the excentral sides at the vertices", _gen_tri, _per_trial(_chk_tangent_excentral), 1e-8, 100),
    Proposition("P2.4-chords-x20", "pair chords pass through the excenters and concur at X20", _gen_tri, _per_trial(_chk_chords_x20), 1e-8, 100),
    Proposition("P2.5-right-triangle-x20", "right triangle: members pass through X20", _per_draw(_gen_right_triangle), _per_trial(_chk_right_triangle_x20), 1e-8, 200),
    Proposition("P2.6-degenerate-iff-right", "degeneracy boundary is the right-angle condition", _per_draw(_gen_ab_angle), _batch_run(_ab_ray, _chk_degenerate_iff_right), 1e-6, 40),
    Proposition("P2.7-x478-quartic", "degenerate-center locus satisfies the quartic", _per_draw(_gen_theta), _per_trial(_chk_x478_quartic), 1e-8, 120),
    Proposition("P2.8-type-regions", "type regions: circle/tangents degenerate, degree-8 parabola", _per_draw(_gen_deg8_ray), _per_trial(_chk_type_regions_V), 1e-9, 25),
    Proposition("P2.9-covertex-locus", "co-vertices conconic on the located locus", _per_draw(_gen_ray_angle_v), _per_trial(_chk_covertex_locus_V), 1e-7, 4),
    # -- P-ellipses --------------------------------------------------------
    Proposition("P3.1-six-point-conic", "six vertices on one conic", _gen_tri_point, _batch_check(kernels.KIND_P_ELLIPSE, _incidence), 1e-8, 300),
    Proposition("P3.2-pstar-unique-circle", "unique P* gives a circle concentric with the circumcircle", _gen_tri, _per_trial(_chk_pstar), 1e-6, 6),
    Proposition("P3.3-anticevian-needle", "X3 is the P* of the X3-anticevian", _per_draw(_gen_needle), _per_trial(_chk_anticevian_needle), 1e-6, 60),
    Proposition("P3.4-degenerate-on-circumcircle", "degenerate exactly on the circumcircle", _per_draw(_gen_tri_angle), _batch_run(_cfg_ray, _chk_degenerate_on_circumcircle), 1e-9, 60),
    Proposition("P3.5-ostar-three-arcs", "degenerate centers trace three ellipse arcs through the midpoints", _gen_tri, _per_trial(_chk_ostar_arcs), 1e-8, 3),
    Proposition("P3.6-equilateral-arcs", "equilateral arc ellipses: axes, tangents, area ratio", _per_draw(_gen_fixed), _per_trial(_chk_equilateral_arcs), 1e-8, 1),
    Proposition("P3.7-equilateral-regions", "equilateral type regions contain both conic families", _per_draw(_gen_fixed), _per_trial(_chk_equilateral_regions), 0.5, 1),
    Proposition("P3.8-never-rectangular", "hyperbolic six-point conic is never rectangular", _gen_tri_point, _chk_never_rectangular, 0.5, 2000),
    Proposition("P3.9-covertex-equilateral-P", "equilateral co-vertex conic center on the incircle", _per_draw(_gen_ray_angle_p), _per_trial(_chk_covertex_equilateral_P), 1e-7, 3),
    # -- V-hyperbolas ------------------------------------------------------
    Proposition("P4.1-vhyp-vertex-barycentrics", "vertex barycentrics (symmetric corrected form)", _gen_tri, _per_trial(_chk_vhyp_vertex_barys), 1e-9, 200),
    Proposition("P4.2-intouch-extouch", "vertex triangles are the extouch and intouch triangles", _gen_tri, _per_trial(_chk_intouch_extouch), 1e-9, 200),
    Proposition("P4.3-privalov-conic", "six vertices on the closed-form conic", _gen_tri, _per_trial(_chk_privalov), 1e-8, 100),
    Proposition("P4.4-isosceles-degenerate", "isosceles: one member is the perpendicular bisector", _per_draw(_gen_isosceles), _per_trial(_chk_isosceles_degenerate), 1e-8, 50),
    Proposition("P4.5-soddy-intersections", "triad passes through both Soddy centers", _per_draw(_gen_soddy_regimes), _per_trial(_chk_soddy_intersections), 1e-8, 100),
    Proposition("P4.6-halftangent-sextic", "half-tangent-sum-2 locus matches the sextic", _per_draw(_gen_sextic_abscissa), _per_trial(_chk_halftangent_sextic), 1e-9, 30),
    Proposition("P4.7-vhyp-through-vell-intersections", "members pass through the V-ellipse pair intersections", _gen_tri, _through_pair_points(kernels.KIND_V_ELLIPSE, kernels.KIND_V_HYPERBOLA), 1e-8, 60),
    Proposition("P4.8-chords-x8", "two-branch chords concur at the Nagel point", _gen_tri, _per_trial(_chk_chords_x8), 1e-8, 60),
    Proposition("P4.9-fifteen-point-cubic", "sideline union carries all fifteen marked points", _gen_tri, _per_trial(_chk_fifteen_point_cubic), 1e-9, 100),
    Proposition("P4.10-soddy-line-tangent", "degenerate Soddy line touches the side-diameter circles", _per_draw(_gen_sextic_abscissa), _per_trial(_chk_soddy_line_tangent), 1e-7, 12),
    # -- P-hyperbolas ------------------------------------------------------
    Proposition("P5.1-second-point", "second common point with the vertex-gap identity", _gen_tri_point, _chk_second_point, 1e-8, 100),
    Proposition("P5.2-six-point-conic", "six vertices on one conic", _gen_tri_point, _batch_check(kernels.KIND_P_HYPERBOLA, _incidence), 1e-8, 300),
    Proposition("P5.3-equal-areas", "the two vertex triangles have equal areas", _gen_tri_point, _per_trial(_chk_equal_areas), 1e-9, 300),
    Proposition("P5.4-circle-pair", "a unique pair of drivers gives concentric circles", _gen_tri, _per_trial(_chk_circle_pair), 1e-6, 6),
    Proposition("P5.5-x55-conjecture", "reflection-triangle circle conjecture (evidence)", _gen_tri, _per_trial(_chk_x55), 1e-6, 40, evidence=True),
    Proposition("P5.6-phyp-through-pell-intersections", "members pass through the non-P ellipse intersections", _gen_tri_point, _through_pair_points(kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA), 1e-8, 60),
    Proposition("P5.7-parabola-condition", "parabola condition and sideline degeneracy", _per_draw(_gen_tri_phyp_angle), _batch_run(_cfg_and_ray, _chk_phyp_parabola), 1e-9, 25),
    # -- Appendix ----------------------------------------------------------
    Proposition("A1-aellipse-polynomial", "anticevian A-ellipse polynomial", _gen_tri, _per_trial(_mk_appendix_check("a_ellipse")), 1e-6, 10),
    Proposition("A2-major-vertices", "closed-form major vertices", _gen_tri, _per_trial(_mk_appendix_check("major_vertices")), 1e-7, 10),
    Proposition("A3-x3prime-center", "anticevian circle center barycentrics", _per_draw(_gen_x3prime_center), _per_trial(_mk_appendix_check("x3prime_center")), 1e-7, 10),
    Proposition("A4-phyp-member", "P-hyperbola member polynomial", _gen_tri_point, _per_trial(_mk_appendix_check("phyp_member")), 1e-6, 10),
    Proposition("A5-pstar-conic", "P-hyperbola six-point conic polynomial", _gen_tri_point, _per_trial(_mk_appendix_check("pstar_conic")), 1e-6, 10),
    Proposition("A6-x5452-coordinate", "six-point conic center coordinate", _gen_tri, _per_trial(_mk_appendix_check("x5452_coordinate")), 1e-7, 10),
)

_BY_ID = {p.prop_id: p for p in MANIFEST}

PROPOSITION_IDS = tuple(p.prop_id for p in MANIFEST)

# Evidence checks never fail the suite while under this bound.
EVIDENCE_BOUND = 1e-5


@dataclass
class CheckResult:
    prop_id: str
    title: str
    passed: bool
    max_residual: float
    threshold: float
    trials: int
    evidence: bool
    witness: dict | None
    note: str = ""
    crashed: int = 0
    # exception type name -> number of trials it crashed, sorted by name
    errors: dict = field(default_factory=dict)
    margin: float = 0.0  # max_residual over the bound it passes below

    def to_json(self) -> dict:
        return {
            "id": self.prop_id,
            "title": self.title,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "trials": self.trials,
            "evidence": self.evidence,
            "witness": self.witness,
            "note": self.note,
            "crashed": self.crashed,
            "errors": self.errors,
            "margin": self.margin,
        }


def _prop_rng(prop_id: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(prop_id.encode())])


def run_proposition(prop_id: str, seed: int = 42, trials: int | None = None) -> CheckResult:
    if prop_id not in _BY_ID:
        raise UnknownProposition(prop_id)
    prop = _BY_ID[prop_id]
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    n = prop.default_trials if trials is None else trials
    rng = _prop_rng(prop_id, seed)
    # Draw every configuration in one call, then check them all in one
    # call.  No check touches the rng, so the stream is that of drawing and
    # checking in turn.  The block draws (_gen_tri, _gen_tri_point) read the
    # rng ahead of the configurations they return; the rng is this
    # proposition's own and dropped after drawing, so that changes nothing.
    # A crashed draw is a failed trial without a witness.
    try:
        drawn = prop.draw(rng, n)
    except Exception as exc:  # a crashed batch draw fails all its trials
        drawn = [exc] * n
    cfgs = [d for d in drawn if not isinstance(d, Exception)]
    try:
        checked = prop.run(cfgs)
    except Exception as exc:  # a crashed batch check fails all its trials
        checked = [exc] * len(cfgs)
    results = iter(checked)
    worst = -1.0
    witness = None
    note = ""
    errors = Counter()
    for d in drawn:
        cfg, r = (None, d) if isinstance(d, Exception) else (d, next(results))
        if isinstance(r, Exception):
            errors[type(r).__name__] += 1
            note = f"{type(r).__name__}: {r}"
            r = math.inf
        if r > worst:
            worst = r
            witness = cfg
    bound = EVIDENCE_BOUND if prop.evidence else prop.threshold
    return CheckResult(
        prop_id=prop.prop_id,
        title=prop.title,
        passed=bool(worst <= bound),
        max_residual=float(worst),
        threshold=prop.threshold,
        trials=n,
        evidence=prop.evidence,
        witness=witness,
        note=note,
        crashed=sum(errors.values()),
        errors=dict(sorted(errors.items())),
        margin=float(worst) / bound,
    )


def replay_witness(prop_id: str, witness: dict) -> float:
    if prop_id not in _BY_ID:
        raise UnknownProposition(prop_id)
    (r,) = _BY_ID[prop_id].run([witness])
    if isinstance(r, Exception):
        raise r
    return r


def run_all(seed: int = 42, trials: int | None = None, threads: int = 1) -> dict:
    """Run the whole manifest; deterministic for a fixed seed regardless of
    thread count."""
    if threads <= 1:
        results = [run_proposition(p.prop_id, seed, trials) for p in MANIFEST]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            futures = [
                ex.submit(run_proposition, p.prop_id, seed, trials) for p in MANIFEST
            ]
            results = [f.result() for f in futures]
    return {
        "seed": seed,
        "kernel_backend": kernels.BACKEND,
        "all_pass": all(r.passed for r in results),
        "results": [r.to_json() for r in results],
    }


def format_report(report: dict) -> str:
    lines = [
        f"proposition suite: seed={report['seed']} backend={report['kernel_backend']}"
    ]
    for r in report["results"]:
        status = "PASS" if r["pass"] else "FAIL"
        tag = " (evidence)" if r["evidence"] else ""
        lines.append(
            f"  [{status}] {r['id']:38s} max_residual={r['max_residual']:.3e} "
            f"thr={r['threshold']:.1e} trials={r['trials']}{tag}"
        )
    lines.append("all propositions pass" if report["all_pass"] else "FAILURES present")
    return "\n".join(lines)
