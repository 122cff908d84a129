"""Proposition regression suite.

Every theorem-like statement of the four triad sections plus the six
appendix polynomial blocks has exactly one named check here.  A
proposition's configurations travel as one table of float columns
(`ConfigTable`) from the draw through the check to the report.  The runner
first draws all of a proposition's seeded random configurations in one
call of its `draw`, which gives the table and the exceptions of the trials
whose draw failed, by trial; then it checks the table in one call of its
`run`, which gives a float array of residuals and the exceptions of the
trials that crashed, by row.  The runner's one floating-point policy:
the draw and the check (and the replay's check) run with numpy's
warnings off, as rows that are NaN or inf by design (a degenerate
member, a point at infinity, a scan with no root) are expected, and a
NaN residual fails its trial as `NonFiniteResidual` (`_check`).  No
check, draw or helper sets a policy of its own, but `_tri_mask`, which
the public draws reach outside the runner.  It reduces the residuals
with numpy (a crash, or a NaN residual, counts as inf) and reports the
worst residual, the first trial that reaches it as the witness (its row
as a dict of plain floats, `ConfigTable.row`), the number of crashed
trials by exception type, and the margin of the worst residual against
the bound.  Replaying the witness (`run` on its one-row table,
`ConfigTable.from_dicts`) reproduces the residual.

Each proposition's draw is an array sampler on its own rng (`_prop_rng`),
so no proposition's trials move another's configurations.  It draws a
block of candidates as columns, tests them as one mask (`_tri_mask`, the
driver guard of `_drivers`, `_member_guard` and its family's rules), keeps
the first n accepted in order and draws again only when short (`_sample`);
it builds no object and no dict.  Only the draws of A3, P2.8 and P5.7 run
part of their check, as only it decides their family: A3's its fit
(`_x3prime_fit`, not the block's polynomial), P2.8's and P5.7's the grid
step of their root scans (`loci.bracket_sign_changes`), a block in one
call.  The public draws `random_triangle`, `random_flat_triangle` and
`random_point_near`, for callers that draw one shape at a time, are blocks
of one of these samplers (`_tri_rows`, `_flat_rows`, `_drivers` with one
try a round), drawn until the mask keeps a candidate.

Every check takes the table and runs as one batch on its columns, each
trial's bits those of a batch of one.  P3.5 runs one O* sweep a triangle
(`loci.sample_locus_ostar`, which does not batch), then its arcs at the
side midpoints on arrays; P3.6 and P3.7 check one fixed configuration,
once a table, for every trial (`_fixed`).
P3.2 and P5.4 run one circle-point search each
(`loci.pstar_candidates_batch`, `loci.phyp_circle_points_batch`: a
one-variable reduction in k, the value of s_i^2 - x_i^2 the three members
share, in each triangle's frame; a scan in k < 0 for P*, a closed form
for the pair at 0 < k <= min s^2), then every trial's postconditions at
once on arrays, in each triangle's frame (`kernels.frame`): class,
center and circumcircle of the six-point conic at its points, by the
searches' own circle test
(`loci._circle_conditions`), and P5.4's mutual membership
(`_member_residuals`).  On arrays: P2.2, P3.1, P3.8 and P5.2 in one
`kernels.six_point` call; P2.1, P2.7, P3.3, P4.3, A3, A6 and P5.5 on the
fit and rules that `six_point_conic` reads (`triads._six_point_rules`);
P2.3, P2.4, P2.5 and P4.8 on one `kernels.focal_pairs` call (P2.4 and P4.8
on its pair chords, through their one helper `_chord_gaps`); P4.7 and P5.6
in one `kernels.pair_points` call; P4.1-P4.5 and P4.9
on `kernels.vertex_coords` (`_v_hyperbola`); P5.3, A4 and A5 on
`kernels.vertices`; P5.1 in one `kernels.second_point` call; the catalog
points from `kernels.bary_point`, the Soddy centers and the Soddy line
by `kernels.soddy`; A1-A6's polynomials in one `appendix.eval_terms`
call over every trial's points; and the root scans of P2.6, P2.9, P3.4,
P3.9, P2.8, P4.6 (two), P4.10 and P5.7 in one `loci.batch_sign_changes`
each: one call of the scanned function (written with products, not
powers, so floats and arrays give the same bits) on every trial's grid,
then Brent on floats in each bracketed cell.  At the roots, on arrays:
P2.6's triangles; P2.9's and P3.9's co-vertex conics (`_covertex_fits`:
`kernels.covertices`, `fit_six` and `residual6`); P4.6's half-tangent
sums; P3.4's crossing nearest the circumcircle; P4.10's Soddy line
(`kernels.soddy`); and P2.8's and P5.7's other points, in one
`kernels.six_point` call each, every trial's early exits replayed on the
values.  A crash still fails only its own trial (`_fail_or` gives each
trial the exception of the first fault that holds there).

Each claim of the paper is checked in its one proposition, on the
triads' own constructions: P2.4 and P4.8 take their chords from the line
pairs of `kernels.focal_pairs` (P2.4 each pair's line ell_i = ell_j, P4.8
of each pair's two the one that is not the Soddy line), and P4.3 and
P4.4 take the closed-form six-point conic as a barycentric matrix
(`kernels.privalov`).

Residuals are normalized so that one threshold per proposition applies;
where a statement mixes tolerances, the secondary components are rescaled
into the primary one (noted inline).  Conjecture checks are marked as
evidence and never fail the suite below the evidence bound.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .appendix import eval_terms, load_block
from .centers import (
    _x7,
    _x8,
    _x55,
    circumcircle,
    incircle,
)
from .config import DET_DEGENERATE_TOL, get_tol
from .errors import (
    ConstructionFailed,
    DegenerateMember,
    DegenerateResult,
    DriverNotOnLocus,
    InvalidAxisLength,
    NoFiniteCenter,
    NonFiniteResidual,
    NotFound,
    PointAtInfinity,
    RankDeficient,
    UnknownProposition,
)
from .geom import (
    BaryCoords,
    Point2,
    Triangle,
)
from .loci import (
    _circle_conditions,
    batch_sign_changes,
    bracket_sign_changes,
    covertex_condition_equilateral_P,
    covertex_locus_V,
    equilateral_ostar_locus_check,
    halftangent_sextic,
    parabola_deg8_V,
    phyp_circle_points_batch,
    phyp_parabola_condition,
    pstar_candidates_batch,
    pstar_circle_functional,
    region_map,
    sample_locus_ostar,
    x478_quartic,
)
from .triads import (
    _FAULTS as _TRIAD_FAULTS,
    _six_point_rules,
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


def _no_driver(*corners) -> ConstructionFailed:
    return ConstructionFailed(
        f"no driver point clears the sidelines of {_triangle(*corners)} in {NEAR_DRAWS} draws")


# The public draws are blocks of one of the manifest's samplers: they draw
# one candidate at a time until the sampler's mask keeps one.

def random_triangle(rng: np.random.Generator) -> Triangle:
    """Vertices uniform in the unit square, rejecting thin/sliver shapes
    (_tri_rows)."""
    return _cfg_tri(_rows_table(functools.partial(_tri_rows, rng), 1).row(0))


def random_flat_triangle(rng: np.random.Generator) -> Triangle:
    """Obtuse triangle with half-tangent sum > 2 (external Soddy regime,
    _flat_rows)."""
    return _cfg_tri(_rows_table(functools.partial(_flat_rows, rng), 1).row(0))


def random_point_near(t: Triangle, rng: np.random.Generator) -> Point2:
    """Uniform driver point in the bounding box of the triangle expanded by
    NEAR_EXPAND (_drivers, one try a round).

    Points within 1e-2 * scale of a sideline are rejected: two triad
    vertices then approach a triangle vertex quadratically in that distance
    and the unsigned sideline-ratio products lose double precision (the
    boundary behavior itself is covered by the dedicated degeneracy sweeps).
    ConstructionFailed when NEAR_DRAWS draws are all rejected, as on a
    triangle too thin for any point of the box to clear its sidelines.
    """
    corners = [v.as_tuple() for v in t.vertices()]
    p, gave_up = _drivers(rng, np.array(corners)[..., None], 1)
    if gave_up[0]:
        raise _no_driver(*(v for xy in corners for v in xy))
    return Point2(*p[:, 0].tolist())


def _triangle(ax, ay, bx, by, cx, cy) -> Triangle:
    return Triangle(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))


def _cfg_tri(cfg) -> Triangle:
    (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
    return _triangle(ax, ay, bx, by, cx, cy)


@dataclass(frozen=True)
class ConfigTable:
    """A proposition's configurations as one table of float columns, the
    last axis of each running over the trials: `triangle` (3, 2, n), the
    corners (x, y) of A, B and C; `p` (2, n); `ab` (2, 2, n); `angle`, `u`,
    `x`, `theta`, `apex` and `half_base` (n,).  A row is the configuration
    dict of one trial (`row`), the report's witness; `from_dicts` builds
    the table back from such dicts."""

    n: int
    cols: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.cols[key]

    @classmethod
    def from_dicts(cls, cfgs) -> ConfigTable:
        """The table of the configuration dicts cfgs (at least one), each
        with the keys of the first."""
        return cls(len(cfgs), {k: np.ascontiguousarray(np.moveaxis(
            np.array([cfg[k] for cfg in cfgs], dtype=float), 0, -1)) for k in cfgs[0]})

    def row(self, i: int) -> dict:
        """Trial i's configuration: plain floats, nested as its columns."""
        return {k: v[..., i].tolist() for k, v in self.cols.items()}

    def take(self, rows) -> ConfigTable:
        """The trials rows (indices, or a mask), in their order."""
        rows = np.flatnonzero(rows) if rows.dtype == bool else rows
        return ConfigTable(len(rows), {k: v[..., rows] for k, v in self.cols.items()})

    def with_cols(self, **cols) -> ConfigTable:
        return ConfigTable(self.n, {**self.cols, **cols})


def _corners(cfgs) -> tuple:
    """The corners (ax, ay, bx, by, cx, cy) of the table's triangles, as
    arrays."""
    return tuple(cfgs["triangle"].reshape(6, cfgs.n))


def _sample(n, block) -> tuple:
    """The first n trials block(k) accepts, in order, as (table, draw
    failures by trial): block(k) draws candidates for k missing trials and
    returns those it accepts as (table, {trial of the block: exception}),
    as often as it is short."""
    tabs, failed, have = [], {}, 0
    while have < n or not tabs:  # a block even for n = 0, as the streams have always read
        tab, bad = block(n - have)
        failed.update((have + i, exc) for i, exc in bad.items())
        tabs.append(tab)
        have += tab.n + len(bad)
    failed = {i: exc for i, exc in failed.items() if i < n}
    m = n - len(failed)
    return ConfigTable(m, {k: np.concatenate([t[k] for t in tabs], axis=-1)[..., :m].copy()
                           for k in tabs[0].cols}), failed


def _accepted(tab, keep, fails) -> tuple:
    """The candidates of tab where keep holds, in order, as _sample's
    (table, draw failures): those of fails (candidate -> exception) are
    failed trials."""
    kept, failed = np.flatnonzero(keep), np.zeros(tab.n, dtype=bool)
    failed[list(fails)] = True
    bad = failed[kept]
    return tab.take(kept[~bad]), dict(zip(np.flatnonzero(bad).tolist(), map(fails.get, kept[bad].tolist())))


def _uniform(rng, m, *ranges) -> list:
    """A column of m draws uniform on each range (lo, hi)."""
    return [lo + (hi - lo) * u for (lo, hi), u in zip(ranges, rng.random((len(ranges), m)))]


def _rows_table(rows, n) -> ConfigTable:
    """n triangles of _sample's blocks of rows (ax, ay, bx, by, cx, cy)."""

    def block(k):
        kept = rows(k)
        return ConfigTable(len(kept), {"triangle": kept.T.reshape(3, 2, -1)}), {}

    return _sample(n, block)[0]


def _tri_rows(rng, m):
    """The rows (ax, ay, bx, by, cx, cy) kept of m random triangles, corners
    uniform in the unit square: not collinear, at most MAX_ASPECT thin and
    no angle below MIN_ANGLE (_tri_mask)."""
    rows = rng.random((m, 6))
    return rows[_tri_mask(rows.T, get_tol())]


def _tri_table(rng, n) -> ConfigTable:
    """n random triangles (_tri_rows)."""
    return _rows_table(lambda k: _tri_rows(rng, k * 9 // 8 + 8), n)  # about 92% are kept


def _tri_mask(corners, tol):
    """Whether each triangle of the corners (ax, ay, bx, by, cx, cy), on
    arrays, is kept, with the sides from their squares: not collinear
    (kernels.collinear's test, to rounding), at most MAX_ASPECT thin, and
    its least angle, opposite the shortest side, not below MIN_ANGLE (its
    cosine at most cos(MIN_ANGLE))."""
    ax, ay, bx, by, cx, cy = corners
    lo, mid, hi = np.sort([x * x + y * y for x, y in ((bx - cx, by - cy), (cx - ax, cy - ay),
                                                      (ax - bx, ay - by))], axis=0)
    area = abs(kernels.signed_area(ax, ay, bx, by, cx, cy))
    with np.errstate(invalid="ignore"):
        cos = (mid + hi - lo) / (2.0 * np.sqrt(mid * hi))
    return (area > tol * hi) & (hi <= MAX_ASPECT * MAX_ASPECT * lo) & (cos <= math.cos(MIN_ANGLE))


def _gen_tri(rng, n) -> tuple:
    """n random triangle configurations (_tri_table)."""
    return _tri_table(rng, n), {}


def _drivers(rng, tri, tries) -> tuple:
    """random_point_near's driver (px, py) for each triangle of tri, the
    table's (3, 2, n) column, on arrays: uniform in the box, in rounds of
    up to tries a triangle until one clears the guard; NaN, and True in the
    give-up mask, where NEAR_DRAWS tries do not."""
    lo, hi = tri.min(axis=0), tri.max(axis=0)  # x and y
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0 * NEAR_EXPAND
    base, width = mid - half, (mid + half) - (mid - half)
    # The sidelines BC, CA, AB as l x + m y + n = 0, with norms h.
    ax, ay, bx, by, cx, cy = tri.reshape(6, -1)
    lines = [(py - qy, qx - px, px * qy - qx * py, kernels._hypot(py - qy, qx - px))
             for px, py, qx, qy in ((bx, by, cx, cy), (cx, cy, ax, ay), (ax, ay, bx, by))]
    guard = 1e-2 * kernels._largest([h for *_, h in lines])
    out, todo, done = np.full((2, ax.size), math.nan), np.arange(ax.size), 0
    while todo.size and done < NEAR_DRAWS:
        k = min(tries, NEAR_DRAWS - done)
        px, py = base[:, todo, None] + width[:, todo, None] * rng.random((2, todo.size, k))
        dist = functools.reduce(np.minimum, [
            abs(l[todo, None] * px + m[todo, None] * py + n[todo, None]) / h[todo, None]
            for l, m, n, h in lines])
        hit = dist >= guard[todo, None]
        got, first = hit.any(axis=1), hit.argmax(axis=1)
        out[:, todo[got]] = px[got, first[got]], py[got, first[got]]
        todo, done = todo[~got], done + k
    return out, np.isnan(out[0])


def _distances(corners, *p) -> tuple:
    """The sides (a, b, c) of the triangle of the corners (ax, ay, bx, by,
    cx, cy) (kernels.triangle_sides), on floats or arrays; given a point
    (px, py) too, (sides, its distances (pa, pb, pc))."""
    sides = kernels.triangle_sides(*corners)
    if not p:
        return sides
    px, py = p
    return sides, tuple(kernels._hypot(px - x, py - y) for x, y in zip(corners[::2], corners[1::2]))


def _member_guard(ax, ay, bx, by, cx, cy, px, py):
    """Where a member of P's P-ellipse or P-hyperbola triad degenerates:
    kernels._sides_deltas' flag of KIND_P_ELLIPSE or of KIND_P_HYPERBOLA."""
    corners = (ax, ay, bx, by, cx, cy)
    return (kernels._sides_deltas(*corners, kernels.KIND_P_ELLIPSE, px, py)[2]
            | kernels._sides_deltas(*corners, kernels.KIND_P_HYPERBOLA, px, py)[2])


def _gen_tri_point(rng, n) -> tuple:
    """n configurations of a random triangle and a driver P near it
    (_drivers) for which both P-triads have all their members
    (_member_guard); a driver draw that gives up is its trial's
    ConstructionFailed."""

    def block(k) -> tuple:
        tab = _tri_table(rng, k)
        (px, py), gave_up = _drivers(rng, tab["triangle"], 4)
        keep = gave_up | ~_member_guard(*_corners(tab), px, py)
        fails = {i: _no_driver(*tab["triangle"][..., i].ravel().tolist())
                 for i in np.flatnonzero(gave_up).tolist()}
        return _accepted(tab.with_cols(p=np.array((px, py))), keep, fails)

    return _sample(n, block)


# ---------------------------------------------------------------------------
# Check implementations (a ConfigTable -> residuals and exceptions; the
# per-trial checks take one configuration dict)
# ---------------------------------------------------------------------------

def _refused(corners, sides):
    """Where Triangle refuses the corners (ax, ay, bx, by, cx, cy), given
    their sides (_distances): a corner not finite, or collinear
    (kernels.collinear)."""
    return ~np.isfinite(np.array(corners)).all(axis=0) | kernels.collinear(*corners, sides)


def _raised(corners, rows, fn=None) -> dict:
    """The exception that the Triangle of the corners (ax, ay, bx, by, cx,
    cy) of each trial of rows (indices), or fn of it, raises, by trial,
    where one does."""
    got = _each(lambda c: fn(_triangle(*c)) if fn else _triangle(*c), np.array(corners)[:, rows].T.tolist())
    return {i: r for i, r in zip(rows.tolist(), got) if isinstance(r, Exception)}


def _cfg_args(cfgs, kind: int) -> tuple:
    """The configurations' kernel arguments for a kind, as arrays: the six
    triangle coordinates, the kind, and P (zeros for the V-kinds)."""
    p = cfgs["p"] if kind in (kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA) else np.zeros((2, cfgs.n))
    return (*_corners(cfgs), kind, *p)


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


_DEGENERATE = ConstructionFailed("a triad member degenerates")


def _fail_or(values, *faults) -> tuple:
    """A batch check's (residuals, exceptions by trial): values, but where
    faults, pairs (mask, exception), hold, the exception of the first that
    does; an exception may be given as a function of the trial's index."""
    errs, taken = {}, False
    for mask, exc in faults:
        for i in np.flatnonzero(mask & np.logical_not(taken)).tolist():
            errs[i] = exc(i) if callable(exc) else exc
        taken = taken | mask
    return values, errs


def _at_infinity(what: str) -> PointAtInfinity:
    return PointAtInfinity(f"u+v+w ~ 0 for {what}")


def _bary_gaps(corners, xs, ys, barys, s) -> tuple:
    """The worst distance of each vertex (xs[k], ys[k]) from the point of
    barycentrics barys[k] (kernels.bary_point), over s, and where one of
    those points is at infinity."""
    worst, far = 0.0, False
    for x, y, uvw in zip(xs, ys, barys):
        qx, qy, f = kernels.bary_point(*corners, *uvw)
        worst, far = np.maximum(worst, kernels._hypot(x - qx, y - qy) / s), far | f
    return worst, far


def _unit_bary(corners, x, y) -> list:
    """The barycentrics of (x, y) in the triangle of the corners, on
    arrays: the signed areas of its sub-triangles over the largest, the
    scaling of geom.BaryCoords.normalized up to sign.
    (The sign changes no residual it feeds: projective gaps, and forms even
    in the barycentrics.)"""
    ax, ay, bx, by, cx, cy = corners
    u = (kernels.signed_area(x, y, bx, by, cx, cy), kernels.signed_area(ax, ay, x, y, cx, cy),
         kernels.signed_area(ax, ay, bx, by, x, y))
    top = kernels._largest([abs(v) for v in u])
    return [v / top for v in u]


def _proj_errors(u, v):
    """|u x v| / (|u| |v|) of the 3-vectors (u[0], u[1], u[2]) and v, their
    projective mismatch, entry by entry; each norm the root of its squares
    summed in order, so an entry's bits do not hang on the others."""
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    norm = lambda w: np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    return norm(cross) / (norm(u) * norm(v))


def _chk_excircle_tangency_vertices(cfgs) -> tuple:
    """P2.1 on all configurations at once: the V-ellipse vertices
    (kernels.vertices) at the excircle tangency points, their worst
    distance over the largest side, and kernels.fit_six's residual6, with
    six_point_conic's rules (triads._six_point_rules)."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    sides, _, bad = kernels._sides_deltas(*args)
    s = kernels._largest(sides)
    (xs, ys, _), _, _, res6, *_, rules = _six_point_rules(args)
    worst, far = _bary_gaps(args[:6], xs, ys, kernels.excircle_tangency(*sides), s)
    return _fail_or(
        np.maximum(worst, res6),
        (bad, _DEGENERATE),
        (far, _at_infinity("an excircle tangency point")),
        *rules,
    )


def _batch_check(kind: int, score):
    """A proposition's run from score(class codes, residual6s), all its
    configurations in one kernels.six_point call; a configuration the kernel
    fails on crashes its trial with ConstructionFailed."""

    def run(cfgs) -> tuple:
        codes, _, _, res6 = kernels.six_point(*_cfg_args(cfgs, kind))
        return _fail_or(score(codes, res6), (codes == kernels.CLASS_FAILED, ConstructionFailed(
            "a triad member degenerates or the fit vanishes")))

    return run


def _not_circle(codes, res6):
    return np.where(codes == kernels.CLASS_CIRCLE, 1.0, 0.0)


def _incidence(codes, res6):
    return res6


def _chk_excentral_tangents(cfgs) -> tuple:
    """P2.3 on all configurations at once, in kernels.focal_pairs' frame:
    each V-ellipse member passes through its vertex (kernels.conic_residual)
    and touches there the excentral side, the line through the other two
    excenters (kernels.tangency_disc)."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    sides = kernels._sides_deltas(*args)[0]
    _, pairs, bad = kernels.focal_pairs(*args)
    _, framed = kernels.frame(*args[:6])
    exc = [kernels.bary_point(*framed, *uvw) for uvw in kernels.excenters(*sides)]
    worst = 0.0
    for m, co in enumerate(kernels.members(pairs)):
        (x1, y1, _), (x2, y2, _) = (q for k, q in enumerate(exc) if k != m)
        side = (y1 - y2, x2 - x1, x1 * y2 - x2 * y1)  # geom.line_through
        on = kernels.conic_residual(co, framed[2 * m], framed[2 * m + 1])
        worst = np.maximum(worst, np.maximum(on, abs(kernels.tangency_disc(co, *side))))
    far = exc[0][2] | exc[1][2] | exc[2][2]
    return _fail_or(worst, (bad, _DEGENERATE), (far, _at_infinity("an excenter")))


def _vell_chord_line_bary(a, b, c):
    # Chord through the pairwise intersections of the b- and c-members,
    # barycentric coefficients.
    return (
        -(b - c) * (a + b + c) ** 2,
        -((a + b - c) ** 2) * (a + c),
        (a + b) * ((a - b + c) ** 2),
    )


def _chord_gaps(g, chords, points, line, corners, diam) -> tuple:
    """What P2.4 and P4.8 claim of a triad's pair chords, each a line
    (l, m, n) of kernels.focal_pairs in its frame g = (gx, gy, s), on
    arrays: the worst distance of each chord's points (x, y) from it, in
    the plane, over the circumdiameter diam; and pair A's chord against
    its closed form, the barycentric line `line`, projectively
    (_proj_errors), in the frame.  A barycentric line is sum_i line_i s_i
    there, s_i the framed triangle's sidelines (_sidelines): s_i(q) is
    twice the signed area opposite corner i."""
    gx, gy, s = g
    worst = 0.0
    for (l, m, n), pts in zip(chords, points):
        h = kernels._hypot(l, m)
        for x, y in pts:
            # In the plane, the chord is l x + m y + (n s - l gx - m gy) = 0.
            worst = np.maximum(worst, abs(l * x + m * y + (n * s - l * gx - m * gy)) / h / diam)
    s0, s1, s2 = _sidelines(kernels.frame(*corners)[1])
    closed = [line[0] * s0[k] + line[1] * s1[k] + line[2] * s2[k] for k in range(3)]
    return worst, _proj_errors(chords[0], closed)


def _chk_pair_chords_x20(cfgs) -> tuple:
    """P2.4 on all configurations at once: each V-ellipse pair's chord
    passes through its excenter and X20, and pair A's chord is the closed
    form _vell_chord_line_bary (_chord_gaps).  The chord is the pair's
    line ell_i = ell_j of kernels.focal_pairs (its first).  Two members
    sharing the focus F are |q - F| = ell_i(q) and |q - F| = ell_j(q), each
    ell positive on its ellipse (the focus-directrix form), so a common
    point has ell_i = ell_j, and none has ell_i + ell_j = 0.  And they
    meet twice: in pair A, member b passes through B, a focus of member c,
    which passes through C, a focus of member b, so neither lies inside
    the other."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    corners = args[:6]
    sides = kernels._sides_deltas(*args)[0]
    g, pairs, bad = kernels.focal_pairs(*args)
    x20 = kernels.bary_point(*corners, *kernels.cyclic(kernels.center_x20, *sides))
    exc = [kernels.bary_point(*corners, *uvw) for uvw in kernels.excenters(*sides)]
    far, closed = _chord_gaps(g, [lines[0] for *_, lines in pairs], [(q[:2], x20[:2]) for q in exc],
                              _vell_chord_line_bary(*sides), corners,
                              2.0 * kernels.circumcircle(corners, sides)[3])
    return _fail_or(
        np.maximum(far, closed),
        (bad, _DEGENERATE),
        (x20[2], _at_infinity("X20")),
        (exc[0][2] | exc[1][2] | exc[2][2], _at_infinity("an excenter")),
    )


def _chk_x20_on_members(cfgs) -> tuple:
    """P2.5 on all configurations at once, in kernels.focal_pairs' frame:
    X20 is the reflection of X4 about X3 (their distance), and each
    V-ellipse member passes through it (kernels.conic_residual)."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    sides = kernels._sides_deltas(*args)[0]
    _, pairs, bad = kernels.focal_pairs(*args)
    _, framed = kernels.frame(*args[:6])
    (x20, y20, f20), (x4, y4, f4), (x3, y3, f3) = (
        kernels.bary_point(*framed, *kernels.cyclic(f, *sides))
        for f in (kernels.center_x20, kernels.center_x4, kernels.center_x3)
    )
    worst = kernels._hypot(x20 - (2.0 * x3 - x4), y20 - (2.0 * y3 - y4))
    for co in kernels.members(pairs):
        worst = np.maximum(worst, kernels.conic_residual(co, x20, y20))
    return _fail_or(worst, (f20 | f4 | f3, _at_infinity("X20, X4 or X3")), (bad, _DEGENERATE))


def _detn_v_ellipse(ax, ay, bx, by, cx, cy):
    """The V-ellipse six-point det, NaN where the kernel fails: a float, or
    an array for an array C."""
    return kernels.six_point(ax, ay, bx, by, cx, cy, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[1]


def _on_ray(s, ox, oy, r, dx, dy):
    """The point O + s*r*(dx, dy) of a ray, on floats or arrays."""
    return ox + s * r * dx, oy + s * r * dy


def _ray_scans(fn, rays, lo, hi) -> tuple:
    """The (f, lo, hi) of a batch scan of fn(s, *ray) along each ray of
    rays, an (m, n) array of n rays' m floats; lo and hi are floats or one
    per ray.  f reads the grid as one row a ray against the rays' columns
    (so what depends on the ray alone is computed once a ray), and ray k's
    own floats for the polish's int k."""
    n = rays.shape[1]
    cols, floats = rays[:, :, None], rays.T.tolist()
    return (lambda s, k: fn(s, *floats[k]) if isinstance(k, int) else np.ravel(fn(s.reshape(n, -1), *cols)),
            np.broadcast_to(lo, n), np.broadcast_to(hi, n))


def _scan_rays(fn, rays, lo, hi, steps: int = 60, first: bool = False) -> list:
    """loci.batch_sign_changes of fn(s, *ray) along each ray of rays."""
    if not rays.shape[1]:
        return []
    return batch_sign_changes(*_ray_scans(fn, rays, lo, hi), steps, first)


def _crossed(rays, fn, lo, hi, steps: int):
    """Whether fn(s, *ray) changes sign on the scan grid along each ray of
    rays, a bool array: loci.bracket_sign_changes, no polish."""
    hit = np.zeros(rays.shape[1], dtype=bool)
    hit[bracket_sign_changes(*_ray_scans(fn, rays, lo, hi), steps, first=True)[0]] = True
    return hit


def _at_rays(fn, rays, s):
    """fn(s, *ray) on every ray of rays in one array call."""
    return fn(np.full(rays.shape[1], s), *rays)


def _floatwise(fn, x):
    """fn of each entry of the array x on floats, as an array: the bits of
    the float path, which numpy's cos, sin and powers need not give."""
    return np.array(list(map(fn, x.tolist())))


def _midpoint_rays(ax, ay, bx, by, ang):
    """The rays of A, B (arrays) and the angles ang: an (9, n) array of A
    and B, then M + s*r*(cos ang, sin ang) from the midpoint M of AB, r =
    |AB| / 2 (geom.midpoint's and geom.distance's bits)."""
    return np.array((ax, ay, bx, by, (ax + bx) / 2.0, (ay + by) / 2.0, kernels._hypot(ax - bx, ay - by) / 2.0,
                     _floatwise(math.cos, ang), _floatwise(math.sin, ang)))


def _ab_ray_det(s, ax, ay, bx, by, *ray):
    return _detn_v_ellipse(ax, ay, bx, by, *_on_ray(s, *ray))


def _roots(found) -> tuple:
    """One root a scan (a first-root scan's results, loci.batch_sign_changes)
    as (roots, exceptions): NaN where a scan found no root or failed, and
    its NotConverged by scan."""
    errs = {i: s for i, s in enumerate(found) if isinstance(s, Exception)}
    return np.array([s if isinstance(s, float) else math.nan for s in found]), errs


def _pymax(first, *rest):
    """Python's max of floats, elementwise on arrays: a NaN after the first
    value is passed over."""
    return functools.reduce(lambda m, v: np.where(v > m, v, m), rest, first)


def _chk_degenerate_iff_right(cfgs) -> tuple:
    """P2.6 on all configurations at once: one batch scan for the first
    sign change of the V-ellipse det as C runs along each ray from the
    midpoint of AB (_midpoint_rays); there some angle of ABC is right (the
    degenerate locus in C is the diameter circle plus the two tangent lines
    at A and B), and the det vanishes at s = 1; 1.0 without a root, the
    exception of a triangle that Triangle refuses."""
    rays = _midpoint_rays(*cfgs["ab"].reshape(4, cfgs.n), cfgs["angle"])
    root, errs = _roots(_scan_rays(_ab_ray_det, rays, 0.8, 1.2, first=True))
    ax, ay, bx, by, *ray = rays
    corners = (ax, ay, bx, by, *_on_ray(root, *ray))
    (aa, bb, cc) = sides = _distances(corners)
    odd = _refused(corners, sides) & ~np.isnan(root)
    pyth = functools.reduce(np.minimum, (
        abs(aa * aa + bb * bb - cc * cc), abs(bb * bb + cc * cc - aa * aa),
        abs(cc * cc + aa * aa - bb * bb))) / _floatwise(lambda v: v ** 2, kernels._largest(sides))
    errs.update(_raised(corners, np.flatnonzero(odd)))
    worst = _pymax(pyth, abs(_at_rays(_ab_ray_det, rays, 1.0)) * 100.0)
    return np.where(np.isnan(root), 1.0, worst), errs


def _chk_x478_quartic(cfgs) -> tuple:
    """P2.7 on all configurations at once: the quartic at X478, the center
    (kernels.frame_center) of the V-ellipse six-point conic of A=(1/2,0),
    B=(-1/2,0) and C=(cos theta, sin theta)/2, with six_point_conic's
    rules (_six_point_rules), not at the closed form
    loci.x478_center_for_theta; DegenerateResult without a center."""
    n = cfgs.n
    cx, cy = 0.5 * _floatwise(math.cos, cfgs["theta"]), 0.5 * _floatwise(math.sin, cfgs["theta"])
    zero = np.zeros(n)
    args = (np.full(n, 0.5), zero, np.full(n, -0.5), zero, cx, cy,
            kernels.KIND_V_ELLIPSE, zero, zero)
    (_, _, bad), *_, (x, y, has_center), _, rules = _six_point_rules(args)
    res = abs(x478_quartic(x, y))
    return _fail_or(
        res,
        (bad, _DEGENERATE),
        *rules,
        (~has_center, DegenerateResult("X478: the six-point conic has no finite center")),
    )


def _deg8_on_ray(s, ax, ay, bx, by, *ray):
    """parabola_deg8_V of ABC, C the ray point, on arrays, NaN where
    Triangle refuses ABC as collinear (kernels.collinear)."""
    corners = (ax, ay, bx, by, *_on_ray(s, *ray))
    sides = _distances(corners)
    return np.where(kernels.collinear(*corners, sides), math.nan, parabola_deg8_V(*sides))


# The degree-8 condition's scan: s in [1.05, 6] in 240 cells.
_DEG8_SCAN = (_deg8_on_ray, 1.05, 6.0, 240)


def _deg8_roots(rays) -> list:
    """The degree-8 condition's first root on each ray."""
    fn, lo, hi, steps = _DEG8_SCAN
    return _scan_rays(fn, rays, lo, hi, steps, first=True)


def _ab_rays(cfgs) -> tuple:
    """P2.8's rays (_midpoint_rays) from the sides AB of the triangles, and
    the exception of each triangle that Triangle refuses (_refused), by
    trial."""
    corners = _corners(cfgs)
    odd = _refused(corners, _distances(corners))
    return _midpoint_rays(*corners[:4], cfgs["angle"]), _raised(corners, np.flatnonzero(odd))


# The classes of an interior C: a conic through the six vertices.
_INTERIOR = [kernels.CLASS_ELLIPSE, kernels.CLASS_HYPERBOLA, kernels.CLASS_CIRCLE,
             kernels.CLASS_RECTANGULAR_HYPERBOLA, kernels.CLASS_DEGENERATE_TWO_LINES]


def _chk_type_regions_V(cfgs, rays) -> tuple:
    """P2.8 on all configurations and their rays (_ab_rays) at once: one
    batch scan for the degree-8 root along each ray, then one
    kernels.six_point call of the V-ellipse conic with C on the circle with
    diameter AB (s = 1) and on its tangent at A (degenerate), at the root
    (a parabola; 1.0 where the kernel fails or no root is found) and at the
    triangle's own C (an ellipse or a hyperbola)."""
    root, errs = _roots(_deg8_roots(rays))
    ax, ay, bx, by, *ray = rays
    r, u = ray[2], 0.5 + cfgs["u"]
    tangent = (ax + u * (-(by - ay) / (2 * r)), ay + u * ((bx - ax) / (2 * r)))
    at = [_on_ray(1.0, *ray), tangent, _on_ray(root, *ray), _corners(cfgs)[4:]]
    code, det, disc, _ = kernels.six_point(
        ax, ay, bx, by, *np.array(at).transpose(1, 0, 2), kernels.KIND_V_ELLIPSE, 0.0, 0.0)
    worst = _pymax(np.zeros(cfgs.n), abs(det[0]), abs(det[1]), abs(disc[2]))
    worst = np.where(np.isin(code[3], _INTERIOR), worst, _pymax(worst, 1.0))
    return np.where(np.isnan(root) | (code[2] == kernels.CLASS_FAILED), 1.0, worst), errs


def _covertex_fits(angles, condition, lo, hi, triad, faults) -> tuple:
    """The co-vertex conics of P2.9 and P3.9 on all configurations at
    once: one batch scan for the first root s of condition(s, dx, dy),
    s in [lo, hi] in 400 cells, along each ray (dx, dy) = (cos, sin) of
    the angles (math.cos's and math.sin's bits); at the roots' points
    s (dx, dy), triad(x, y), the kernel arguments of a triad, and
    kernels.fit_six of its co-vertices (kernels.covertices) on arrays.
    Returns (sides, fit, residual6, faults): the faults as _fail_or pairs
    in the object path's order: the scan's NotConverged or, without a
    root, DriverNotOnLocus; faults(args, sides, member flag); and
    RankDeficient where the fit vanishes."""
    rays = np.array((_floatwise(math.cos, angles), _floatwise(math.sin, angles)))
    root, errs = _roots(_scan_rays(condition, rays, lo, hi, steps=400, first=True))
    args = triad(root * rays[0], root * rays[1])
    sides, axes, bad = kernels._sides_deltas(*args)
    xs, ys = map(np.array, kernels.covertices(args[:6], sides, axes))
    fit = kernels.fit_six(xs, ys)
    return sides, fit, kernels.residual6(xs, ys, fit), [
        (np.isnan(root), lambda i: errs.get(i, DriverNotOnLocus("no sign change along the scan ray"))),
        *faults(args, sides, bad),
        (~(kernels.frobenius(fit[0]) > DET_DEGENERATE_TOL),
         RankDeficient("the co-vertices do not determine a unique conic")),
    ]


def _covertex_locus_on_ray(s, dx, dy):
    return covertex_locus_V(s * dx, s * dy)


def _refusal(args, sides, bad) -> list:
    """Triangle's refusal of the collinear corners of args, arrays, as a
    _fail_or pair."""
    odd = kernels.collinear(*args[:6], sides)
    return [(odd, _raised(args[:6], np.flatnonzero(odd)).get)]


def _chk_covertex_locus_V(cfgs) -> tuple:
    """P2.9 on all configurations at once: C on the co-vertex locus of
    A=(-1,0), B=(1,0), located on the paper's displayed equation
    (covertex_locus_V, at rho = 2|CA| and 2|CB|) along each ray from the
    origin, s in [0.35, 3] (_covertex_fits); there the six V-ellipse
    co-vertices of kernels.covertices, a rule the scan does not read,
    must be conconic (residual6), the conic a hyperbola, else 1.0."""
    _, fit, res6, faults = _covertex_fits(
        cfgs["angle"], _covertex_locus_on_ray, 0.35, 3.0,
        lambda x, y: (*np.broadcast_arrays(-1.0, 0.0, 1.0, 0.0, x, y), kernels.KIND_V_ELLIPSE, 0.0, 0.0),
        _refusal)
    code = kernels.classify_code(fit[0])[0]
    hyperbola = np.isin(code, (kernels.CLASS_HYPERBOLA, kernels.CLASS_RECTANGULAR_HYPERBOLA))
    return _fail_or(np.where(hyperbola, res6, 1.0), *faults)


def _searched(search, points, check):
    """A proposition's run from search(triangles), one circle-point search
    over every configuration's triangle, then check(corners, xs, ys) on
    arrays, one call for every trial whose search found its points
    (points(result): (x, y) pairs, xs[k] and ys[k] the k-th of each
    trial's), giving residuals and faults as _fail_or pairs; a crash
    fails only its own trial."""

    def run(cfgs) -> tuple:
        corners = np.array(_corners(cfgs))
        ts = _each(lambda c: _triangle(*c), corners.T.tolist())
        errs = {i: t for i, t in enumerate(ts) if isinstance(t, Exception)}
        live = [i for i in range(cfgs.n) if i not in errs]
        found = dict(zip(live, search([ts[i] for i in live]) if live else ()))
        errs.update((i, h) for i, h in found.items() if isinstance(h, Exception))
        rows = np.array([i for i in live if i not in errs], dtype=int)
        res = np.full(cfgs.n, math.inf)
        if rows.size:
            xs, ys = np.array([points(found[i]) for i in rows]).T
            values, faults = check(corners[:, rows], xs, ys)
            res[rows], more = _fail_or(values, *faults)
            errs.update((int(rows[i]), exc) for i, exc in more.items())
        return res, errs

    return run


def _chk_pstar(corners, xs, ys) -> tuple:
    """P3.2's postconditions (_circle_conditions) at each trial's principal
    candidate.  Existence plus the circle and concentricity postconditions
    are the hard claims.  Strict uniqueness is an open question and
    genuine secondary zeros near a vertex exist (verified counterexample);
    only the principal candidate, the one farthest from the vertices, is
    checked."""
    _, framed = kernels.frame(*corners, xs[0], ys[0])
    return _circle_conditions((*framed[:6], kernels.KIND_P_ELLIPSE, *framed[6:]))


def _chk_circle_pair(corners, xs, ys) -> tuple:
    """P5.4's postconditions at each trial's pair (p1, p2): both points'
    (_circle_conditions), and p2 on the members of p1's triad (its focal
    residuals over the largest side, _member_residuals, times 1e2)."""
    _, framed = kernels.frame(*corners, xs[0], ys[0], xs[1], ys[1])
    args = [(*framed[:6], kernels.KIND_P_HYPERBOLA, *framed[k:k + 2]) for k in (6, 8)]
    (w1, f1), (w2, f2) = map(_circle_conditions, args)
    res = _member_residuals(args[0], [framed[8]] * 3, [framed[9]] * 3)[0]
    return functools.reduce(np.maximum, (w1, w2, res.max(axis=0) * 1e2)), [*f1, *f2]


def _x3_anticevian(corners) -> tuple:
    """The X3-anticevian of each triangle of the corners, the triangle of
    X3's barycentrics (u, v, w) with one sign flipped in turn: (sides, the
    kernel arguments of its P-ellipse triad with driver X3, its sides, and
    the faults as _fail_or pairs in the object path's order)."""
    sides = _distances(corners)
    x3 = u, v, w = kernels.cyclic(kernels.center_x3, *sides)
    anti = [kernels.bary_point(*corners, *(-q if k == i else q for k, q in enumerate(x3)))
            for i in range(3)]
    tcorners = tuple(c for x, y, _ in anti for c in (x, y))
    tsides = _distances(tcorners)
    px, py, far = kernels.bary_point(*corners, *x3)
    return sides, (*tcorners, kernels.KIND_P_ELLIPSE, px, py), tsides, [
        ((u == 0.0) | (v == 0.0) | (w == 0.0),
         DegenerateResult("anticevian undefined for a point on a sideline")),
        # Triangle's refusal of collinear corners.
        (anti[0][2] | anti[1][2] | anti[2][2] | kernels.collinear(*tcorners, tsides),
         lambda i: DegenerateResult(
             f"anticevian triangle of {BaryCoords(u[i], v[i], w[i])} degenerates")),
        (far, _at_infinity("X3")),
    ]


def _chk_anticevian_needle(cfgs) -> tuple:
    """P3.3 on all configurations at once: with P = X3 of ABC, the
    P-ellipse six-point conic of the X3-anticevian (corners and P from
    kernels.bary_point) is a circle: the circle functional
    (pstar_circle_functional), the spread of the six vertices' distances
    from the anticevian's circumcenter, and the conic's center
    (_six_point_rules, kernels.frame_center) on that circumcenter and on the
    line X4 X6 of ABC.  DegenerateResult where X3 is on a sideline or
    Triangle refuses the X3-anticevian (_x3_anticevian).  The catalog
    points, the circle functional and the scales take the sides of
    _distances, as on the object path: the residual is rounding noise of
    the conic's center, which moves by up to 60 times when a side's last
    bit does."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    sides, targs, tsides, faults = _x3_anticevian(args[:6])
    corners = targs[:6]
    _, deltas, bad = kernels._sides_deltas(*targs)
    ts = kernels._largest(tsides)
    s = np.maximum(kernels._largest(sides), ts)
    s4 = (s * s) * (s * s)
    # functional tolerance 1e-12 scaled into the 1e-6 threshold
    fval = pstar_circle_functional(*tsides, *deltas) / (s4 * s4) * 1e6
    (xs, ys, _), *_, (x, y, has_center), _, rules = _six_point_rules(targs)
    ox, oy, far_o, radius = kernels.circumcircle(corners, tsides)
    dist = [kernels._hypot(vx - ox, vy - oy) for vx, vy in zip(xs, ys)]
    rmean = sum(dist) / 6.0
    spread = functools.reduce(np.maximum, [abs(d - rmean) for d in dist]) / radius
    conc = np.where(has_center, kernels._hypot(x - ox, y - oy) / radius, 1.0)
    x4, y4, far4 = kernels.bary_point(*args[:6], *kernels.cyclic(kernels.center_x4, *sides))
    x6, y6, far6 = kernels.bary_point(*args[:6], *(v * v for v in sides))
    dx, dy = x6 - x4, y6 - y4
    area = abs(kernels.signed_area(x4, y4, x6, y6, x, y))
    lin = np.where(has_center, area / (dx * dx + dy * dy + s * s), 0.0)
    worst = functools.reduce(np.maximum, (fval, spread, conc * 1e2, lin * 1e2))
    return _fail_or(
        worst,
        *faults,
        (bad, DegenerateMember(_TRIAD_FAULTS["p_ellipse"])),
        *rules,
        (far_o, _at_infinity("the anticevian's X3")),
        (far4 | far6, _at_infinity("X4 or X6")),
    )


def _cfg_rays(cfgs) -> tuple:
    """Each configuration's ray, the corners of its triangle, then O +
    s*R*(cos angle, sin angle) from its circumcenter O, R the circumradius
    (_circumcircle_rays), and where that flags the triangle, the exception
    its Triangle or centers.circumcircle raises, if any, by trial."""
    corners = _corners(cfgs)
    rays, odd = _circumcircle_rays(corners, cfgs["angle"])
    return rays, _raised(corners, np.flatnonzero(odd), circumcircle)


def _p_ellipse_det(s, ax, ay, bx, by, cx, cy, *ray):
    return kernels.six_point(
        ax, ay, bx, by, cx, cy, kernels.KIND_P_ELLIPSE, *_on_ray(s, *ray)
    )[1]


def _p_hyperbola_disc(s, ax, ay, bx, by, cx, cy, *ray):
    return kernels.six_point(
        ax, ay, bx, by, cx, cy, kernels.KIND_P_HYPERBOLA, *_on_ray(s, *ray)
    )[2]


def _chk_degenerate_on_circumcircle(cfgs, rays) -> tuple:
    """P3.4 on all configurations and their rays (_cfg_rays) at once: one
    batch scan for every sign change of the P-ellipse det as P runs along
    each ray from the circumcenter.  The degeneracy locus of the driver P
    holds the circumcircle plus interior branches (a deltoid for the
    equilateral), so a ray can cross several sign changes; the one nearest
    s = 1 must localize the circle itself.  1.0 without a crossing; a
    scan's NotConverged is its trial's exception."""
    on = abs(_at_rays(_p_ellipse_det, rays, 1.0))
    nearest, errs = _roots([c if isinstance(c, Exception) else min(c, key=lambda s: abs(s - 1.0), default=None)
                            for c in _scan_rays(_p_ellipse_det, rays, 0.97, 1.03)])
    # bracket offset tolerance 1e-6 scaled into the 1e-9 threshold
    return np.where(np.isnan(nearest), 1.0, _pymax(on, abs(nearest - 1.0) * 1e-3)), errs


def _chk_ostar_arcs(cfgs) -> tuple:
    """P3.5: one O* sweep of 40 angles a triangle (sample_locus_ostar; a
    sweep does not batch), a crash failing only its own trial; 1.0 where
    fewer than 20 samples are left, else the worst sample residual and
    each arc ellipse's residual at the three side midpoints
    (kernels.conic_residual), every trial's at once."""
    corners = np.array(_corners(cfgs))
    sweeps = _each(lambda c: sample_locus_ostar(_triangle(*c), 40), corners.T.tolist())
    errs = {i: s for i, s in enumerate(sweeps) if isinstance(s, Exception)}
    rows = [i for i, s in enumerate(sweeps) if i not in errs and len(s[0]) >= 20]
    res = np.ones(cfgs.n)
    if rows:
        px, py, qx, qy = _side_ends(corners[:, rows])
        # (coefficient, arc, 1, trial): each arc at each side's midpoint.
        arcs = np.array([[con.coeffs() for con in sweeps[i][1].values()] for i in rows]).T[:, :, None]
        near = kernels.conic_residual(arcs, (px + qx) / 2.0, (py + qy) / 2.0)
        worst = np.array([max(sweeps[i][0].implicit_residual) for i in rows])
        res[rows] = _pymax(worst, *near.reshape(-1, len(rows)))
    return res, errs


def _chk_equilateral_arcs() -> float:
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


def _chk_equilateral_regions() -> float:
    s3 = math.sqrt(3.0)
    t = Triangle(Point2(-0.5, 0.0), Point2(0.5, 0.0), Point2(0.0, s3 / 2.0))
    grid = region_map(t, "p_ellipse_over_P", (30, 30))
    seen = {cls for row in grid.cells for cls in row}
    wanted_any_ellipse = {"ellipse", "circle"} & seen
    wanted_any_hyp = {"hyperbola", "rectangular_hyperbola"} & seen
    return 0.0 if (wanted_any_ellipse and wanted_any_hyp) else 1.0


def _chk_never_rectangular(cfgs) -> tuple:
    """All trials in one kernels.six_point call: 1.0 where the P-ellipse
    six-point conic is a rectangular hyperbola, else 0.0 (a failed
    construction included)."""
    codes = kernels.six_point(*_cfg_args(cfgs, kernels.KIND_P_ELLIPSE))[0]
    return np.where(codes == kernels.CLASS_RECTANGULAR_HYPERBOLA, 1.0, 0.0), {}


def _covertex_condition_on_ray(s, dx, dy):
    """The equilateral's co-vertex condition at P = s (dx, dy), from the
    P-ellipse focal sums."""
    return covertex_condition_equilateral_P(
        *kernels._sides_deltas(*_EQUILATERAL, kernels.KIND_P_ELLIPSE, s * dx, s * dy)[1])


def _chk_covertex_equilateral_P(cfgs) -> tuple:
    """P3.9 on all configurations at once: P on the co-vertex condition of
    the reference equilateral along each ray from its center, s in [0.05,
    1.4] (_covertex_fits); the six P-ellipse co-vertices must be conconic
    (residual6) and the conic's center (kernels.frame_center) on the
    incircle (centers.incircle, once a run)."""
    _, fit, res6, faults = _covertex_fits(
        cfgs["angle"], _covertex_condition_on_ray, 0.05, 1.4,
        lambda x, y: (*_EQUILATERAL, kernels.KIND_P_ELLIPSE, x, y),
        lambda args, sides, bad: [(bad, DegenerateMember(_TRIAD_FAULTS["p_ellipse"]))])
    inc = incircle(_triangle(*_EQUILATERAL))
    x, y, has_center = kernels.frame_center(*fit[:2])
    err = abs(kernels._hypot(x - inc.center.x, y - inc.center.y) - inc.radius)
    return _fail_or(_pymax(res6, err), *faults,
                    (~has_center, NoFiniteCenter("co-vertex conic has no finite center")))


def _v_hyperbola(cfgs) -> tuple:
    """The V-hyperbola triads of cfgs on arrays: (args, sides, lambdas,
    largest side, vertex xs, vertex ys, bad, bisector), args _cfg_args',
    the vertices (6, n) arrays, bisector where a member is a perpendicular
    bisector (build_triad's None member)."""
    args = _cfg_args(cfgs, kernels.KIND_V_HYPERBOLA)
    sides, lams, bad = kernels._sides_deltas(*args)
    s = kernels._largest(sides)
    xs, ys = (np.stack(v) for v in kernels.vertex_coords(*args[:6], sides, lams))
    bisector = (np.abs(lams) <= kernels.MEMBER_GUARD * s).any(axis=0)
    return args, sides, lams, s, xs, ys, bad, bisector


def _chk_vhyp_vertex_barys(cfgs) -> tuple:
    """P4.1 on all configurations at once: vertices A1 and A2 of the
    V-hyperbola triad at the barycentrics (0, a + lambda, a - lambda) and
    (0, a - lambda, a + lambda), and their cycles, the worst distance over
    the largest side; 0.0 where a member is a perpendicular bisector."""
    args, sides, lams, s, xs, ys, bad, bisector = _v_hyperbola(cfgs)
    barys = []
    for i, (side, lam) in enumerate(zip(sides, lams)):
        for uj, uk in ((side + lam, side - lam), (side - lam, side + lam)):
            uvw = [0.0, 0.0, 0.0]
            uvw[(i + 1) % 3], uvw[(i + 2) % 3] = uj, uk
            barys.append(uvw)
    worst, far = _bary_gaps(args[:6], xs, ys, barys, s)
    return _fail_or(
        np.where(bisector, 0.0, worst),
        (bad, _DEGENERATE),
        (far & ~bisector, _at_infinity("a vertex")),
    )


def _chk_intouch_extouch(cfgs) -> tuple:
    """P4.2 on all configurations at once: vertices A1 B1 C1 of the
    V-hyperbola triad at the extouch points and A2 B2 C2 at the intouch
    points, the worst distance over the largest side, and the two vertex
    triangles' equal areas; 0.0 where a member is a perpendicular
    bisector."""
    args, sides, _, s, xs, ys, bad, bisector = _v_hyperbola(cfgs)
    ins, exts = kernels.intouch_extouch(*sides)
    barys = [uvw for pair in zip(exts, ins) for uvw in pair]
    worst, far = _bary_gaps(args[:6], xs, ys, barys, s)
    worst = np.maximum(worst, _area_gap(xs, ys))
    return _fail_or(
        np.where(bisector, 0.0, worst),
        (bad, _DEGENERATE),
        (far & ~bisector, _at_infinity("an intouch or extouch point")),
    )


def _entries(m) -> list:
    """The nine entries of a 3x3 matrix given as rows."""
    return [v for row in m for v in row]


def _unit(m) -> list:
    """The 3x3 matrix m, as rows, over its Frobenius norm, on floats or
    arrays."""
    n = kernels._sqrt(sum(v * v for v in _entries(m)))
    return [[v / n for v in row] for row in m]


def _congruent(m, t) -> list:
    """t^T m t of 3x3 matrices given as rows, entry by entry on floats or
    arrays."""
    mt = [[m[i][0] * t[0][j] + m[i][1] * t[1][j] + m[i][2] * t[2][j] for j in range(3)]
          for i in range(3)]
    return [[t[0][i] * mt[0][j] + t[1][i] * mt[1][j] + t[2][i] * mt[2][j] for j in range(3)]
            for i in range(3)]


def _sidelines(corners) -> tuple:
    """The sidelines BC, CA and AB of the triangle of the corners, each
    (l, m, n) of l x + m y + n = 0 as geom.line_through gives it."""
    ax, ay, bx, by, cx, cy = corners
    return ((by - cy, cx - bx, bx * cy - cx * by), (cy - ay, ax - cx, cx * ay - ax * cy),
            (ay - by, bx - ax, ax * by - bx * ay))


def _side_ends(corners) -> tuple:
    """The sides BC, CA and AB of the triangles of the corners (floats or
    arrays) by their ends (px, py) and (qx, qy): (px, py, qx, qy), each of
    three rows, one a side."""
    v = np.array(np.broadcast_arrays(*corners)).reshape(3, 2, -1)
    return (*np.roll(v, -1, axis=0).transpose(1, 0, 2), *np.roll(v, -2, axis=0).transpose(1, 0, 2))


def _bary_to_plane(m, corners) -> list:
    """The barycentric matrix m, given as rows, of a conic relative to the
    triangle of the corners in the plane: T^T m T of unit norm, T's rows
    (the sidelines) the barycentrics of (x, y, 1), on floats or arrays."""
    return _unit(_congruent(m, _sidelines(corners)))


def _chk_privalov(cfgs) -> tuple:
    """P4.3 on all configurations at once: the V-hyperbola vertices
    (_v_hyperbola) on Privalov's conic (kernels.privalov), each vertex's
    barycentrics (_unit_bary's signed areas, over the largest)
    in its unit-norm matrix, and the fitted six-point conic
    (_six_point_rules, with its rules) in the plane against the closed form
    there (_bary_to_plane), both of unit norm, up to sign; 0.0 where a
    member is a perpendicular bisector."""
    args, sides, _, _, xs, ys, bad, bisector = _v_hyperbola(cfgs)
    mb = _unit(kernels.privalov(*sides))
    worst = 0.0
    for x, y in zip(xs, ys):
        u = _unit_bary(args[:6], x, y)
        form = sum(u[i] * mb[i][j] * u[j] for i in range(3) for j in range(3))
        worst = np.maximum(worst, abs(form) / (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]))
    _, co, (ox, oy, fs), *_, rules = _six_point_rules(args)
    # n maps (x, y, 1) to the fit's frame.
    A, B, C, D, E, F = co
    n = ((1.0 / fs, 0.0, -ox / fs), (0.0, 1.0 / fs, -oy / fs), (0.0, 0.0, 1.0))
    mc = _entries(_bary_to_plane(mb, args[:6]))
    mf = _entries(_unit(_congruent(((A, B / 2.0, D / 2.0), (B / 2.0, C, E / 2.0),
                                    (D / 2.0, E / 2.0, F)), n)))
    diff = np.minimum(functools.reduce(np.maximum, [abs(p - q) for p, q in zip(mc, mf)]),
                      functools.reduce(np.maximum, [abs(p + q) for p, q in zip(mc, mf)]))
    return _fail_or(
        np.where(bisector, 0.0, np.maximum(worst, diff)),
        (bad, _DEGENERATE),
        *((mask & ~bisector, exc) for mask, exc in rules),
    )


def _chk_isosceles_degenerate(cfgs) -> tuple:
    """P4.4 on all configurations at once: for A=(0, apex), B=(h, 0),
    C=(-h, 0), the V-hyperbola a-member is BC's perpendicular bisector (else
    1.0), the line x = 0 through A and BC's midpoint M (exactly, in this
    frame), and Privalov's conic (_bary_to_plane) passes through M and
    touches BC there (kernels.conic_residual, kernels.tangency_disc)."""
    apex, h = cfgs["apex"], cfgs["half_base"]
    zero = np.zeros(cfgs.n)
    corners = (zero, apex, h, zero, -h, zero)
    sides, lams, bad = kernels._sides_deltas(*corners, kernels.KIND_V_HYPERBOLA, zero, zero)
    (A, B, D), (_, C, E), (_, _, F) = _bary_to_plane(
        _unit(kernels.privalov(*sides)), corners)
    co = (A, 2.0 * B, C, 2.0 * D, 2.0 * E, F)
    # BC's midpoint is the origin.
    worst = np.maximum(kernels.conic_residual(co, zero, zero),
                       abs(kernels.tangency_disc(co, *_sidelines(corners)[0])))
    bisector = abs(lams[0]) <= kernels.MEMBER_GUARD * kernels._largest(sides)
    return _fail_or(np.where(bisector, worst, 1.0), (bad, _DEGENERATE))


def _v_hyperbola_circle(cfgs) -> tuple:
    """_v_hyperbola's args, lambdas, flag and bisector, then the sides
    and the circumdiameter, as centers.circumcircle takes them."""
    args, sides, lams, _, _, _, bad, bisector = _v_hyperbola(cfgs)
    return args, lams, bad, bisector, sides, 2.0 * kernels.circumcircle(args[:6], sides)[3]


def _chk_soddy_intersections(cfgs) -> tuple:
    """P4.5 on all configurations at once: each V-hyperbola member passes
    through the Soddy centers (kernels.soddy, X175 where finite), its
    focal-difference residual there over the circumdiameter; 0.0 where a
    member is a perpendicular bisector."""
    args, lams, bad, bisector, sides, diam = _v_hyperbola_circle(cfgs)
    worst = 0.0
    for x, y, far in kernels.soddy(args[:6], sides)[:2]:
        at = kernels._sides_deltas(*args[:6], kernels.KIND_P_HYPERBOLA, x, y)[1]
        res = functools.reduce(np.maximum, [abs(abs(d) - abs(l)) for d, l in zip(at, lams)])
        worst = np.maximum(worst, np.where(far, 0.0, res / diam))
    return _fail_or(np.where(bisector, 0.0, worst), (bad, _DEGENERATE))


def _sextic_roots(xs) -> list:
    """The half-tangent sextic's first root y in [0.25, 1.4] over each x
    of the array xs, A=(-1,0), B=(1,0), by one batch scan of 280 cells: a
    float, None without a root, or the NotConverged of a failed scan."""
    return _scan_rays(lambda y, x: halftangent_sextic(x, y), xs[None], 0.25, 1.4, steps=280, first=True)


def _half_tangent_gap(y, x):
    """The half-tangent sum of A=(-1,0), B=(1,0), C=(x, y) less 2, on
    arrays (the sides of kernels._sides_deltas)."""
    corners = (-1.0, 0.0, 1.0, 0.0, x, y)
    sides = kernels._sides_deltas(*corners, kernels.KIND_V_ELLIPSE, 0.0, 0.0)[0]
    return kernels.half_tangent_sum(*sides, abs(kernels.signed_area(*corners))) - 2.0


def _chk_halftangent_sextic(cfgs) -> tuple:
    """P4.6 on all configurations at once: one batch scan for the sextic
    root on each vertical (_sextic_roots), where the half-tangent sum must
    be 2 (_half_tangent_gap), and one for the root of the half-tangent
    condition itself, [0.25, 1.4] as one cell; the roots must agree.  1.0
    where either scan finds no root; the second scan's NotConverged counts
    only where the sextic has a root."""
    xs = cfgs["x"]
    y, errs = _roots(_sextic_roots(xs))
    converse, more = _roots(_scan_rays(_half_tangent_gap, xs[None], 0.25, 1.4, steps=1, first=True))
    errs.update((i, exc) for i, exc in more.items() if not math.isnan(y[i]))
    worst = _pymax(abs(_half_tangent_gap(y, xs)), abs(converse - y))
    return np.where(np.isnan(y - converse), 1.0, worst), errs


def _through_pair_points(ellipse: int, hyperbola: int):
    """P4.7 (V-triads) or P5.6 (P-triads) on all configurations at once:
    the hyperbola members' focal residuals at the ellipse pair points
    (kernels.pair_points on arrays), other than the driver P; 1 where a
    pair has fewer than two such points (P4.7) or none (P5.6), 0 where a
    V-hyperbola member is a perpendicular bisector."""
    driver = ellipse == kernels.KIND_P_ELLIPSE

    def run(cfgs) -> tuple:
        args = _cfg_args(cfgs, hyperbola)
        xs, ys, keep, bad = kernels.pair_points(*args[:6], ellipse, *args[7:])
        res, lengths, s, bad_h = _member_residuals(args, xs, ys)
        if driver:
            keep &= kernels._hypot(xs - args[7], ys - args[8]) > 1e-7 * s
        short = (keep.sum(axis=1) < (1 if driver else 2)).any(axis=0)
        worst = np.where(short, 1.0, np.where(keep, res, 0.0).max(axis=(0, 1)))
        bisector = lengths.min(axis=0) <= kernels.MEMBER_GUARD * s
        return _fail_or(np.where(bisector, 0.0, worst), (bad | bad_h, _DEGENERATE))

    return run


def _vhyp_chord_line_bary(a, b, c):
    # The two-branch chord of the b- and c-members (not the Soddy line),
    # barycentric coefficients.
    L = a + b + c
    return (
        -2 * a * a + a * b + b * b + a * c - 2 * b * c + c * c,
        (a - c) * (L - 2 * a),
        (a - b) * (L - 2 * a),
    )


def _chk_chords_x8(cfgs) -> tuple:
    """P4.8 on all configurations at once: of each focal pair's two lines
    (kernels.focal_pairs), the chord, the one farther from the inner Soddy
    center X176 (the other is the Soddy line; NotFound if neither passes
    within 1e-6), passes through X8, and pair A's chord is the closed form
    _vhyp_chord_line_bary (_chord_gaps), so X8 lies on that line too; 0.0
    where a member is a perpendicular bisector.  Which line is the chord
    varies from pair to pair, as the branches do."""
    args, _, bad, bisector, sides, diam = _v_hyperbola_circle(cfgs)
    g, pairs, _ = kernels.focal_pairs(*args)
    gx, gy, s = g
    (qx, qy, _), *_ = kernels.soddy(args[:6], sides)
    qx, qy = (qx - gx) / s, (qy - gy) / s
    x8, y8, _ = kernels.bary_point(*args[:6], *kernels.cyclic(_x8, *sides))
    chords, missed = [], False
    for _, _, lines in pairs:
        d = [abs(l * qx + m * qy + n) / kernels._hypot(l, m) for l, m, n in lines]
        missed = missed | (np.minimum(*d) > 1e-6)
        chords.append(np.where(d[0] <= d[1], lines[1], lines[0]))
    far, closed = _chord_gaps(g, chords, [[(x8, y8)]] * 3, _vhyp_chord_line_bary(*sides), args[:6], diam)
    return _fail_or(
        np.where(bisector, 0.0, np.maximum(far, closed)),
        (bad, _DEGENERATE),
        (missed & ~bisector, NotFound("neither line of the pair is the Soddy line")),
    )


def _chk_fifteen_point_cubic(cfgs) -> tuple:
    """P4.9 on all configurations at once: the corners and the vertices of
    the V-ellipse and V-hyperbola triads (kernels.vertices, _v_hyperbola),
    each one's distance to its nearest sideline, the worst over the largest
    side; without the V-hyperbola vertices where a member is a
    perpendicular bisector."""
    args, _, _, s, hxs, hys, bad, bisector = _v_hyperbola(cfgs)
    exs, eys, _ = kernels.vertices(*args[:6], kernels.KIND_V_ELLIPSE, *args[7:])
    lines = _sidelines(args[:6])

    def gaps(x, y):
        return functools.reduce(
            np.minimum, [abs(l * x + m * y + n) / kernels._hypot(l, m) for l, m, n in lines]
        ).max(axis=0) / s

    worst = np.maximum(gaps(np.stack(args[:6:2]), np.stack(args[1:6:2])), gaps(exs, eys))
    worst = np.maximum(worst, np.where(bisector, 0.0, gaps(hxs, hys)))
    return _fail_or(worst, (bad, _DEGENERATE))


def _chk_soddy_line_tangent(cfgs) -> tuple:
    """P4.10 on all configurations at once: one batch scan for the sextic
    root on each vertical (_sextic_roots), then at A=(-1,0), B=(1,0),
    C=(x, y) the Soddy line (kernels.soddy) touches the circle on each
    side as diameter: the worst |distance of the side's midpoint from the
    line - half the side|.  1.0 without a root (where far is false too)
    or where X175 is finite, the outer Soddy circle no line."""
    xs = cfgs["x"]
    y, errs = _roots(_sextic_roots(xs))
    corners = (-1.0, 0.0, 1.0, 0.0, xs, y)
    _, (_, _, far), (l, m, n) = kernels.soddy(corners, kernels.triangle_sides(*corners))
    px, py, qx, qy = _side_ends(corners)
    gaps = abs(abs(l * ((px + qx) / 2.0) + m * ((py + qy) / 2.0) + n) / kernels._hypot(l, m)
               - kernels._hypot(px - qx, py - qy) / 2.0)
    return np.where(far, _pymax(0.0, *gaps), 1.0), errs


def _chk_second_point(cfgs) -> tuple:
    """P5.1 on all configurations at once: P' (kernels.second_point) on all
    three members, and the vertex-gap identity; NotFound without a P'."""
    args = _cfg_args(cfgs, kernels.KIND_P_HYPERBOLA)
    x, y, found = kernels.second_point(*args[:6], *args[7:])
    res, lengths, s, _ = _member_residuals(args, [x] * 3, [y] * 3)
    gaps = np.sort(lengths, axis=0)
    # Gap identity tolerance 1e-10 scaled into the 1e-8 threshold.
    worst = np.maximum(res.max(axis=0), abs(gaps[2] - gaps[1] - gaps[0]) / s * 100.0)
    return _fail_or(worst, (~found, NotFound("no second triple-common point found")))


def _area_gap(xs, ys):
    """|a1 - a2| / max(a1, a2), a1 and a2 the areas of the vertex triangles
    (A1, B1, C1) and (A2, B2, C2), on arrays."""
    a1, a2 = (abs(kernels.signed_area(xs[k], ys[k], xs[k + 2], ys[k + 2], xs[k + 4], ys[k + 4]))
              for k in (0, 1))
    return abs(a1 - a2) / np.maximum(a1, a2)


def _chk_equal_areas(cfgs) -> tuple:
    """P5.3 on all configurations at once: the vertex triangles of the
    P-hyperbola triad (kernels.vertices) have equal areas."""
    xs, ys, bad = kernels.vertices(*_cfg_args(cfgs, kernels.KIND_P_HYPERBOLA))
    gap = _area_gap(xs, ys)
    return _fail_or(gap, (bad, DegenerateMember(_TRIAD_FAULTS["p_hyperbola"])))


def _chk_x55(cfgs) -> tuple:
    """P5.5 on all configurations at once: the evidence that, with Q = X55
    and T' its reflection triangle, the six-point conic of T''s P-hyperbola
    triad through Q is a circle about T''s circumcenter O', which is X7.
    The spread of the six vertices about O', the distance of their conic's
    center from O' (inf without one; the spread where a member degenerates,
    as in the equilateral limit) and |O' X7|, over the circumradius of T'."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    corners = args[:6]
    sides = _distances(corners)
    qx, qy, _ = kernels.bary_point(*corners, *kernels.cyclic(_x55, *sides))
    refl = []
    for l, m, n in _sidelines(corners):
        d = (l * qx + m * qy + n) / (l * l + m * m)  # Q reflected in the line
        refl += [qx - 2.0 * d * l, qy - 2.0 * d * m]
    tsides = _distances(refl)
    ts = kernels._largest(tsides)
    ox, oy, far_o, r = kernels.circumcircle(refl, tsides)
    (xs, ys, bad), *_, (x, y, has_center), _, rules = _six_point_rules(
        (*refl, kernels.KIND_P_HYPERBOLA, qx, qy))
    dists = kernels._hypot(xs - ox, ys - oy)
    spread = abs(dists - sum(dists) / 6.0).max(axis=0)
    conc = np.where(bad, spread, np.where(has_center, kernels._hypot(x - ox, y - oy), math.inf))
    x7, y7, _ = kernels.bary_point(*corners, *kernels.cyclic(_x7, *sides))
    worst = functools.reduce(np.maximum, (spread, conc, kernels._hypot(ox - x7, oy - y7))) / r
    # X55 and X7 are never at infinity: their barycentrics are all positive.
    return _fail_or(
        worst,
        # Triangle's refusal of collinear corners, and of corners not finite.
        (kernels.collinear(*refl, tsides) | ~np.isfinite(ts),
         DegenerateResult("the reflection triangle of X55 degenerates")),
        (far_o, _at_infinity("the reflection triangle's X3")),
        *((mask & ~bad, exc) for mask, exc in rules),
    )


def _phyp_condition(s, ax, ay, bx, by, cx, cy, *ray):
    """phyp_parabola_condition with P at the ray point, the sides and
    focal differences by kernels._sides_deltas' expressions (_distances),
    as loci._lambdas reads them: on a scan's grid (_ray_scans), the sides
    once a ray."""
    sides, (pa, pb, pc) = _distances((ax, ay, bx, by, cx, cy), *_on_ray(s, *ray))
    return phyp_parabola_condition(*sides, pb - pc, pc - pa, pa - pb)


# The parabola condition's scan: s in [0.08, 2.4] in 300 cells.
_PHYP_SCAN = (_phyp_condition, 0.08, 2.4, 300)


def _phyp_roots(rays) -> list:
    """The parabola condition's first root on each ray."""
    fn, lo, hi, steps = _PHYP_SCAN
    return _scan_rays(fn, rays, lo, hi, steps, first=True)


def _parabola_roots(rays) -> tuple:
    """The parabola condition's first root on each ray, and the fitted
    conic's disc root nearest it, from one batch scan within 2e-3 of every
    root found: None without a root, or the NotConverged of a failed scan."""
    found = _phyp_roots(rays)
    hit = [i for i, s in enumerate(found) if isinstance(s, float)]
    s_disc = [None] * len(found)
    lo = [found[i] - 2e-3 for i in hit]
    hi = [found[i] + 2e-3 for i in hit]
    # The cell can hold more than one root of both: keep the disc's root
    # nearest the condition's, so that the two compared are the same root.
    discs = _scan_rays(_p_hyperbola_disc, rays[:, hit], lo, hi, steps=40)
    for i, roots in zip(hit, discs):
        s_disc[i] = roots if isinstance(roots, Exception) else min(
            roots, key=lambda s: abs(s - found[i]), default=None)
    return found, s_disc


def _chk_phyp_parabola(cfgs, rays) -> tuple:
    """P5.7 on all configurations and their rays (_cfg_rays) at once.  The
    printed parabola condition reaches its evaluation noise floor well
    before the geometric boundary is resolved, so the fitted conic's own
    disc must change sign within 1e-6 of the condition root
    (_parabola_roots; scaled into the 1e-9 threshold) and vanish there, and
    the triad degenerate at a sideline extension (_sideline_residuals): one
    kernels.six_point call."""
    (found, errs), (at, disc_errs) = (_roots(v) for v in _parabola_roots(rays))
    fault, live, px, py = _sideline_points(rays[:6], cfgs["u"])
    dx, dy = _on_ray(at, *rays[6:])
    codes, dets, discs, _ = kernels.six_point(
        *rays[:6], kernels.KIND_P_HYPERBOLA, np.vstack((px, dx)), np.vstack((py, dy)))
    worst = _pymax(abs(at - found) * 1e-3, abs(discs[-1]), _sideline_residuals(fault, live, codes, dets))
    return np.where(np.isnan(found) | np.isnan(at), 1.0, worst), {**disc_errs, **errs}


def _sideline_points(tri, u01) -> tuple:
    """P5.7's sideline drivers X +- w n on arrays: X = B + u (C - B), u =
    1 + 0.45 u01, n the unit normal of BC, w = 3e-6 s, w / 4, ... while w
    > 1e-9 s (s the largest side).  Returns the member guard's flag at X,
    the mask of those w, and the xs and ys, the + side's rows first."""
    ax, ay, bx, by, cx, cy = tri
    u = 1.0 + 0.45 * u01
    dx, dy = cx - bx, cy - by
    nn = kernels._hypot(-dy, dx)
    nx, ny = -dy / nn, dx / nn
    x, y = bx + u * dx, by + u * dy
    sides, _, fault = kernels._sides_deltas(*tri, kernels.KIND_P_HYPERBOLA, x, y)
    scale = kernels._largest(sides)
    w = [3e-6 * scale]
    while (w[-1] / 4.0 > 1e-9 * scale).any():
        w.append(w[-1] / 4.0)
    w, sgn = np.array(w), np.array([1.0, -1.0])[:, None, None]
    offsets = (x + sgn * w * nx, y + sgn * w * ny)
    return fault, w > 1e-9 * scale, *(v.reshape(-1, len(u)) for v in offsets)


def _sideline_residuals(fault, live, codes, dets):
    """Degeneracy residual at a sideline extension, from the values at
    _sideline_points: the det vanishes to second order towards the line
    (no sign change exists), so shrink the offset until it does, and
    require the member to collapse on the line itself.  Offset by offset,
    for every trial at once: an offset where the kernel fails is passed
    over, and a trial stops at its first that is not live or brings its
    best to 1e-10."""
    m = len(live)  # the offsets; the + side's rows first, then the - side's
    best, going = np.ones(fault.shape), np.ones(fault.shape, dtype=bool)
    for k in range(m):
        going &= live[k]
        ok = going & (codes[k] != kernels.CLASS_FAILED) & (codes[m + k] != kernels.CLASS_FAILED)
        cur = _pymax(np.zeros(fault.shape), abs(dets[k]), abs(dets[m + k]))
        best = np.where(ok & (cur < best), cur, best)
        going &= ~(ok & (best <= 1e-10))
    return np.where(fault, best, 1.0)


# ---------------------------------------------------------------------------
# Appendix blocks (A1-A6): each block's object built on arrays, its
# polynomial evaluated at every trial's points in one eval_terms call
# ---------------------------------------------------------------------------

def _block(name: str, poly: str, values: dict, normalized: bool = False):
    """A block's polynomial at the columns of values: its sums, or with
    normalized |sum| / max |term| (|sum| where every term is 0)."""
    block = load_block(name)
    total, biggest = eval_terms(block["polys"][poly], block["variables"], values)
    return abs(total) / np.where(biggest == 0.0, 1.0, biggest) if normalized else total


def _a_ellipse(corners) -> tuple:
    """The A-ellipse of each triangle of the corners: foci B', C' of the
    X3-anticevian, through X3 (through the cevian foot A it would
    degenerate when A falls inside the focal segment).  (sides, center,
    axis unit, semi axes, faults), as conic.FocalConic computes them."""
    sides, targs, _, faults = _x3_anticevian(corners)
    bx, by, cx, cy, _, px, py = targs[2:]
    axis = kernels._hypot(px - bx, py - by) + kernels._hypot(px - cx, py - cy)
    dx, dy = bx - cx, by - cy
    f = kernels._hypot(dx, dy)
    alpha, chalf = axis / 2.0, f / 2.0
    faults.append((~(axis > f), InvalidAxisLength("ellipse needs axis_length > focal distance")))
    return (sides, ((bx + cx) / 2.0, (by + cy) / 2.0), (dx / f, dy / f),
            (alpha, np.sqrt(abs(alpha * alpha - chalf * chalf))), faults)


def _chk_a_ellipse(cfgs) -> tuple:
    """A1 on all configurations at once: the block's worst normalized
    residual at 12 points of each A-ellipse (_a_ellipse)."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    (a, b, c), (ox, oy), (ux, uy), (alpha, beta), faults = _a_ellipse(args[:6])
    cos, sin = (np.array([[f(2.0 * math.pi * (k + 0.37) / 12)] for k in range(12)])
                for f in (math.cos, math.sin))
    x, y, z = _unit_bary(args[:6], ox + alpha * cos * ux + beta * sin * -uy,
                         oy + alpha * cos * uy + beta * sin * ux)
    res = _block("a_ellipse", "main", {"a": a, "b": b, "c": c, "x": x, "y": y, "z": z}, True)
    return _fail_or(np.fmax.reduce(res, axis=0, initial=0.0), *faults)


def _chk_major_vertices(cfgs) -> tuple:
    """A2 on all configurations at once: the block's major vertices (num,
    den * second, den * third) against the nearer A-ellipse vertex,
    projectively, the worse; ConstructionFailed for a negative radicand."""
    args = _cfg_args(cfgs, kernels.KIND_V_ELLIPSE)
    corners = args[:6]
    (a, b, c), (ox, oy), (ux, uy), (alpha, _), faults = _a_ellipse(corners)
    values = {"a": a, "b": b, "c": c, "S": 0.0, "rt": 0.0}
    rad = _block("major_vertices", "rt_radicand", values)
    values.update(S=2.0 * abs(kernels.signed_area(*corners)), rt=np.sqrt(rad))
    second, third = (_block("major_vertices", poly, values) for poly in ("second", "third"))
    alpha = np.stack((alpha, -alpha))  # the two vertices o +- alpha u
    ends = _unit_bary(corners, ox + ux * alpha, oy + uy * alpha)
    worst = 0.0
    for sign in ("plus", "minus"):
        num, den = (_block("major_vertices", f"{poly}_{sign}", values) for poly in ("num", "den"))
        worst = np.maximum(worst, _proj_errors((num, den * second, den * third), ends).min(axis=0))
    return _fail_or(
        worst, (rad < 0.0, ConstructionFailed("vertex radical is negative for this triangle")), *faults
    )


_NO_CENTER = ConstructionFailed("six-point conic has no center")


def _x3prime_fit(corners) -> tuple:
    """The center of P3.3's circle (the P-ellipse six-point conic of the
    X3-anticevian with driver X3) for the triangles of the corners: (sides,
    center x and y, and the faults as _fail_or pairs)."""
    sides, targs, tsides, faults = _x3_anticevian(corners)
    (_, _, bad), *_, (x, y, has_center), _, rules = _six_point_rules(targs)
    return sides, x, y, [*faults, (bad, DegenerateMember(_TRIAD_FAULTS["p_ellipse"])), *rules,
                         (~has_center, _NO_CENTER)]


def _chk_x3prime_center(cfgs) -> tuple:
    """A3 on all configurations at once: the center of P3.3's circle
    (_x3prime_fit) against the block's f(a, b, c), f(b, c, a), f(c, a, b),
    projectively."""
    corners = _corners(cfgs)
    (a, b, c), x, y, faults = _x3prime_fit(corners)
    f = _block("x3prime_center", "f", {"a": [a, b, c], "b": [b, c, a], "c": [c, a, b]})
    gap = _proj_errors(f, _unit_bary(corners, x, y))
    return _fail_or(gap, *faults)


def _phyp_block(name: str):
    """A4 (phyp_member: P and the a-member's vertices A1, A2) or A5
    (pstar_conic: all six vertices) on all configurations at once: the
    block's worst normalized residual at those points of the triad."""

    def run(cfgs) -> tuple:
        args = _cfg_args(cfgs, kernels.KIND_P_HYPERBOLA)
        corners, (px, py) = args[:6], args[7:]
        xs, ys, bad = kernels.vertices(*args)
        (a, b, c), (la, lb, lc), _ = kernels._sides_deltas(*args)
        values = {"a": a, "b": b, "c": c, "La": la, "Lb": lb, "Lc": lc}
        if name == "phyp_member":
            values.update(zip("pqr", _unit_bary(corners, px, py)))
            xs, ys = np.vstack((px, xs[:2])), np.vstack((py, ys[:2]))
        values.update(zip("xyz", _unit_bary(corners, xs, ys)))
        res = _block(name, "main", values, True)
        return _fail_or(np.fmax.reduce(res, axis=0, initial=0.0),
                        (bad, DegenerateMember(_TRIAD_FAULTS["p_hyperbola"])))

    return run


def _chk_x5452_coordinate(cfgs) -> tuple:
    """A6 on all configurations at once: the center of the V-hyperbola
    six-point conic, fitted in the triangle's frame (kernels.frame), whose
    similarity leaves barycentrics as they are, against the block's g at
    the plane sides and focal differences, cycled, projectively."""
    args = _cfg_args(cfgs, kernels.KIND_V_HYPERBOLA)
    sides, (la, lb, lc), _ = kernels._sides_deltas(*args)
    a, b, c = sides
    framed = kernels.frame(*args[:6])[1]
    (_, _, bad), *_, (x, y, has_center), _, rules = _six_point_rules((*framed, *args[6:]))
    g = _block("x5452_coordinate", "g", {"a": [a, b, c], "b": [b, c, a], "c": [c, a, b],
                                          "La": [la, lb, lc], "Lb": [lb, lc, la], "Lc": [lc, la, lb]})
    gap = _proj_errors(g, _unit_bary(framed, x, y))
    return _fail_or(gap, (bad, _DEGENERATE), *rules, (~has_center, _NO_CENTER))


def _gen_x3prime_center(rng, n) -> tuple:
    """n random triangle configurations whose X3-anticevian six-point conic
    has a center, as only its fit can tell (near-right triangles make it
    rank deficient): a block's candidates judged in one _x3prime_fit call,
    by the first fault that holds; one the check would crash on for
    another fault is a failed trial."""

    def block(k) -> tuple:
        tab = _tri_table(rng, k + k // 4 + 1)
        errs = _fail_or(None, *_x3prime_fit(_corners(tab))[3])[1]
        drop = [i for i, exc in errs.items() if isinstance(exc, (ConstructionFailed, RankDeficient))]
        return _accepted(tab, ~np.isin(np.arange(tab.n), drop), errs)

    return _sample(n, block)


# ---------------------------------------------------------------------------
# Samplers of the special configuration families
# ---------------------------------------------------------------------------

def _uniforms(**ranges):
    """The draw of configurations of values uniform on ranges (lo, hi), by
    key."""

    def draw(rng, n) -> tuple:
        return ConfigTable(n, dict(zip(ranges, _uniform(rng, n, *ranges.values())))), {}

    return draw


_gen_theta = _uniforms(theta=(0.05, math.pi - 0.05))
# Rays that actually cross the co-vertex locus branch.
_gen_ray_angle_v = _uniforms(angle=(0.9, math.pi - 0.9))
_gen_isosceles = _uniforms(apex=(0.4, 1.6), half_base=(0.3, 1.2))
# _sextic_roots finds a root for every |x| <= 0.45.
_gen_sextic_abscissa = _uniforms(x=(-0.45, 0.45))


def _gen_right_triangle(rng, n) -> tuple:
    """n right triangles: legs p and q in [0.3, 1.5] from the right angle
    at C, turned by phi and moved by (tx, ty) in [-1, 1]^2."""
    p, q, phi, tx, ty = _uniform(rng, n, (0.3, 1.5), (0.3, 1.5), (0.0, 2 * math.pi),
                                 (-1.0, 1.0), (-1.0, 1.0))
    c, s = np.cos(phi), np.sin(phi)
    tri = np.array(((tx - p * s, ty + p * c), (tx + q * c, ty + q * s), (tx, ty)))
    return ConfigTable(n, {"triangle": tri}), {}


def _gen_ab_angle(rng, n) -> tuple:
    """n sides AB of random triangles, each with a ray angle 0.35 to
    pi - 0.35 from AB."""
    ab = _tri_table(rng, n)["triangle"][:2].copy()
    (ax, ay), (bx, by) = ab
    ang = np.arctan2(by - ay, bx - ax) + _uniform(rng, n, (0.35, math.pi - 0.35))[0]
    return ConfigTable(n, {"ab": ab, "angle": ang}), {}


def _gen_deg8_ray(rng, n) -> tuple:
    """n random triangles, each with a ray from the midpoint of AB that
    crosses the degree-8 locus, as the grid step of the check's scan tells
    (the check polishes the root), and u: a block's rays in one scan."""

    def block(k) -> tuple:
        m = k * 4 // 3 + 3  # about 3 rays in 4 cross
        tab = _tri_table(rng, m)
        ang, u = _uniform(rng, m, (0.0, 2 * math.pi), (0.1, 1.2))
        hit = _crossed(_midpoint_rays(*_corners(tab)[:4], ang), *_DEG8_SCAN)
        return tab.with_cols(angle=ang, u=u).take(hit), {}

    return _sample(n, block)


def _angle_gap(ang, dirs):
    """The least angle between ang and each direction of dirs, on arrays."""
    return functools.reduce(
        np.minimum, [abs((ang - d + math.pi) % (2 * math.pi) - math.pi) for d in dirs])


def _gen_needle(rng, n) -> tuple:
    """n random triangles whose X3-anticevian is well conditioned: with
    (u, v, w) X3's barycentrics, each of |-u + v + w|, |u - v + w| and
    |u + v - w| above 0.05 (|u| + |v| + |w|)."""

    def block(k) -> tuple:
        tab = _tri_table(rng, k * 5 // 4 + 4)
        u, v, w = kernels.cyclic(kernels.center_x3, *_distances(_corners(tab)))
        spread = np.minimum(np.minimum(abs(-u + v + w), abs(u - v + w)), abs(u + v - w))
        return tab.take(spread > 0.05 * (abs(u) + abs(v) + abs(w))), {}

    return _sample(n, block)


def _gen_tri_angle(rng, n) -> tuple:
    """n random triangles, each with a ray angle from its circumcenter at
    least 0.15 from the directions of its vertices (they sit on the
    circumcircle and break P-driven constructions), and u."""

    def block(k) -> tuple:
        m = k * 5 // 4 + 4
        tab = _tri_table(rng, m)
        ang, u = _uniform(rng, m, (0.0, 2 * math.pi), (0.1, 1.2))
        corners = _corners(tab)
        ox, oy = kernels.circumcircle(corners, _distances(corners))[:2]
        ok = _angle_gap(ang, [np.arctan2(y - oy, x - ox) for x, y in tab["triangle"]]) >= 0.15
        return tab.with_cols(angle=ang, u=u).take(ok), {}

    return _sample(n, block)


# The directions of the reference equilateral's vertices from its center.
_EQUILATERAL_DIRS = (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
# Its corners (ax, ay, bx, by, cx, cy), on the unit circle.
_EQUILATERAL = tuple(v for a in _EQUILATERAL_DIRS for v in (math.cos(a), math.sin(a)))


def _gen_ray_angle_p(rng, n) -> tuple:
    """n ray angles more than 0.25 from the vertex directions of the
    reference equilateral."""

    def block(k) -> tuple:
        ang = _uniform(rng, k * 3 // 2 + 4, (0.0, 2 * math.pi))[0]
        ang = ang[_angle_gap(ang, _EQUILATERAL_DIRS) > 0.25]
        return ConfigTable(ang.size, {"angle": ang}), {}

    return _sample(n, block)


def _flat_rows(rng, m):
    """The rows (ax, ay, bx, by, cx, cy) kept of m flat triangles: A at 0,
    B at (base, 0), base angles drawn in [MIN_ANGLE, 0.14], their tangents
    math.tan's (np.tan's may differ in the last bit); obtuse, and kept with
    a half-tangent sum above 2."""
    th1, th2, base = _uniform(rng, m, (MIN_ANGLE, 0.14), (MIN_ANGLE, 0.14), (0.5, 1.5))
    t1, t2 = _floatwise(math.tan, th1), _floatwise(math.tan, th2)
    apex_x, zero = base * t2 / (t1 + t2), np.zeros_like(base)
    corners = (zero, zero, base, zero, apex_x, apex_x * t1)
    sides, area = _distances(corners), abs(kernels.signed_area(*corners))
    return np.transpose(corners)[kernels.half_tangent_sum(*sides, area) > 2.0]


def _flat_table(rng, n) -> ConfigTable:
    """n of random_flat_triangle's triangles (_flat_rows)."""
    return _rows_table(lambda k: _flat_rows(rng, k + 2), n)


def _gen_soddy_regimes(rng, n) -> tuple:
    """n triangles of the regime a fair coin picks for each: a random
    triangle (Soddy containment) or a flat one (external, _flat_table)."""
    flat = rng.random(n) >= 0.5
    tri = np.empty((3, 2, n))
    tri[..., ~flat] = _tri_table(rng, n - int(flat.sum()))["triangle"]
    tri[..., flat] = _flat_table(rng, int(flat.sum()))["triangle"]
    return ConfigTable(n, {"triangle": tri}), {}


def _circumcircle_rays(corners, ang) -> tuple:
    """The rays of _cfg_rays for the triangles of the corners and the
    angles of ang, an (11, n) array in the bits of Triangle's sides and
    centers.circumcircle, and where those may raise instead (Triangle
    refuses the corners, X3 is at infinity, or the ray is not finite)."""
    sides = _distances(corners)
    ox, oy, far, r = kernels.circumcircle(corners, sides)
    odd = _refused(corners, sides) | far | ~np.isfinite(ox + oy + r)
    return np.array((*corners, ox, oy, r, _floatwise(math.cos, ang), _floatwise(math.sin, ang))), odd


def _gen_tri_phyp_angle(rng, n) -> tuple:
    """n random triangles, each with u in [0.1, 0.9] at least 0.05 from 1/2
    and a ray angle from the circumcenter whose ray crosses the parabola
    condition's locus, as the grid step of the check's scan tells (the
    check polishes the root): a block's rays in one scan."""

    def block(k) -> tuple:
        m = 2 * k + 3  # about 1 candidate in 2 is kept
        tab = _tri_table(rng, m)
        u, ang = _uniform(rng, m, (0.1, 0.9), (0.0, 2 * math.pi))
        ok = np.flatnonzero(abs(u - 0.5) >= 0.05)
        tab = tab.with_cols(angle=ang, u=u).take(ok)
        return tab.take(_crossed(_circumcircle_rays(_corners(tab), tab["angle"])[0], *_PHYP_SCAN)), {}

    return _sample(n, block)


def _gen_fixed(rng, n) -> tuple:
    return ConfigTable(n), {}


# ---------------------------------------------------------------------------
# The manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Proposition:
    prop_id: str
    title: str
    # draw(rng, n) -> (table, failures): n trials, the configurations of
    # those drawn as a ConfigTable, in order, and the exception of each
    # trial whose draw failed, by trial; it reads rng in blocks, ahead of
    # what it returns.
    draw: callable
    # run(table) -> (residuals, exceptions): a float array of one residual
    # a configuration, and the exception that crashed each crashed one, by
    # row (its residual is then not read).
    run: callable
    threshold: float
    default_trials: int
    evidence: bool = False


def _each(fn, items) -> list:
    """fn of each item, or the exception it raised: a crashed trial."""
    out = []
    for item in items:
        try:
            out.append(fn(item))
        except Exception as exc:  # a crashed check is a failed trial
            out.append(exc)
    return out


def _fixed(value):
    """A proposition's run from value(), the residual of a fixed
    configuration: computed once a table and given to every trial."""
    return lambda cfgs: (np.full(cfgs.n, value()), {})


def _batch_run(setup, check):
    """A proposition's run from setup(cfgs), (rays, exceptions): an (m, n)
    array of each trial's ray and the exception of each trial it refuses,
    and check(cfgs, rays) of the trials it does not."""

    def run(cfgs) -> tuple:
        rays, errs = setup(cfgs)
        if not errs:
            return check(cfgs, rays)
        live = np.delete(np.arange(cfgs.n), list(errs))
        res = np.full(cfgs.n, math.inf)
        if live.size:
            res[live], more = check(cfgs.take(live), rays[:, live])
            errs.update(zip(live[list(more)].tolist(), more.values()))
        return res, errs

    return run


MANIFEST: tuple[Proposition, ...] = (
    # -- V-ellipses --------------------------------------------------------
    Proposition("P2.1-yiu-vertices", "vertices at excircle tangency points, on one conic", _gen_tri, _chk_excircle_tangency_vertices, 1e-8, 200),
    Proposition("P2.2-yiu-never-circle", "six-point conic is never a circle (non-equilateral)", _gen_tri, _batch_check(kernels.KIND_V_ELLIPSE, _not_circle), 0.5, 200),
    Proposition("P2.3-tangent-excentral", "members tangent to the excentral sides at the vertices", _gen_tri, _chk_excentral_tangents, 1e-8, 100),
    Proposition("P2.4-chords-x20", "pair chords pass through the excenters and concur at X20", _gen_tri, _chk_pair_chords_x20, 1e-8, 100),
    Proposition("P2.5-right-triangle-x20", "right triangle: members pass through X20", _gen_right_triangle, _chk_x20_on_members, 1e-8, 200),
    Proposition("P2.6-degenerate-iff-right", "degeneracy boundary is the right-angle condition", _gen_ab_angle, _chk_degenerate_iff_right, 1e-6, 40),
    Proposition("P2.7-x478-quartic", "degenerate-center locus satisfies the quartic", _gen_theta, _chk_x478_quartic, 1e-8, 120),
    Proposition("P2.8-type-regions", "type regions: circle/tangents degenerate, degree-8 parabola", _gen_deg8_ray, _batch_run(_ab_rays, _chk_type_regions_V), 1e-9, 25),
    Proposition("P2.9-covertex-locus", "co-vertices conconic on the located locus", _gen_ray_angle_v, _chk_covertex_locus_V, 1e-7, 4),
    # -- P-ellipses --------------------------------------------------------
    Proposition("P3.1-six-point-conic", "six vertices on one conic", _gen_tri_point, _batch_check(kernels.KIND_P_ELLIPSE, _incidence), 1e-8, 300),
    Proposition("P3.2-pstar-unique-circle", "unique P* gives a circle concentric with the circumcircle", _gen_tri, _searched(pstar_candidates_batch, lambda hits: [hits[0][0]], _chk_pstar), 1e-6, 6),
    Proposition("P3.3-anticevian-needle", "X3 is the P* of the X3-anticevian", _gen_needle, _chk_anticevian_needle, 1e-6, 60),
    Proposition("P3.4-degenerate-on-circumcircle", "degenerate exactly on the circumcircle", _gen_tri_angle, _batch_run(_cfg_rays, _chk_degenerate_on_circumcircle), 1e-9, 60),
    Proposition("P3.5-ostar-three-arcs", "degenerate centers trace three ellipse arcs through the midpoints", _gen_tri, _chk_ostar_arcs, 1e-8, 3),
    Proposition("P3.6-equilateral-arcs", "equilateral arc ellipses: axes, tangents, area ratio", _gen_fixed, _fixed(_chk_equilateral_arcs), 1e-8, 1),
    Proposition("P3.7-equilateral-regions", "equilateral type regions contain both conic families", _gen_fixed, _fixed(_chk_equilateral_regions), 0.5, 1),
    Proposition("P3.8-never-rectangular", "hyperbolic six-point conic is never rectangular", _gen_tri_point, _chk_never_rectangular, 0.5, 2000),
    Proposition("P3.9-covertex-equilateral-P", "equilateral co-vertex conic center on the incircle", _gen_ray_angle_p, _chk_covertex_equilateral_P, 1e-7, 3),
    # -- V-hyperbolas ------------------------------------------------------
    Proposition("P4.1-vhyp-vertex-barycentrics", "vertex barycentrics (symmetric corrected form)", _gen_tri, _chk_vhyp_vertex_barys, 1e-9, 200),
    Proposition("P4.2-intouch-extouch", "vertex triangles are the extouch and intouch triangles", _gen_tri, _chk_intouch_extouch, 1e-9, 200),
    Proposition("P4.3-privalov-conic", "six vertices on the closed-form conic", _gen_tri, _chk_privalov, 1e-8, 100),
    Proposition("P4.4-isosceles-degenerate", "isosceles: one member is the perpendicular bisector", _gen_isosceles, _chk_isosceles_degenerate, 1e-8, 50),
    Proposition("P4.5-soddy-intersections", "triad passes through both Soddy centers", _gen_soddy_regimes, _chk_soddy_intersections, 1e-8, 100),
    Proposition("P4.6-halftangent-sextic", "half-tangent-sum-2 locus matches the sextic", _gen_sextic_abscissa, _chk_halftangent_sextic, 1e-9, 30),
    Proposition("P4.7-vhyp-through-vell-intersections", "members pass through the V-ellipse pair intersections", _gen_tri, _through_pair_points(kernels.KIND_V_ELLIPSE, kernels.KIND_V_HYPERBOLA), 1e-8, 60),
    Proposition("P4.8-chords-x8", "two-branch chords concur at the Nagel point", _gen_tri, _chk_chords_x8, 1e-8, 60),
    Proposition("P4.9-fifteen-point-cubic", "sideline union carries all fifteen marked points", _gen_tri, _chk_fifteen_point_cubic, 1e-9, 100),
    Proposition("P4.10-soddy-line-tangent", "degenerate Soddy line touches the side-diameter circles", _gen_sextic_abscissa, _chk_soddy_line_tangent, 1e-7, 12),
    # -- P-hyperbolas ------------------------------------------------------
    Proposition("P5.1-second-point", "second common point with the vertex-gap identity", _gen_tri_point, _chk_second_point, 1e-8, 100),
    Proposition("P5.2-six-point-conic", "six vertices on one conic", _gen_tri_point, _batch_check(kernels.KIND_P_HYPERBOLA, _incidence), 1e-8, 300),
    Proposition("P5.3-equal-areas", "the two vertex triangles have equal areas", _gen_tri_point, _chk_equal_areas, 1e-9, 300),
    Proposition("P5.4-circle-pair", "a unique pair of drivers gives concentric circles", _gen_tri, _searched(phyp_circle_points_batch, lambda pair: [p.as_tuple() for p in pair], _chk_circle_pair), 1e-6, 6),
    Proposition("P5.5-x55-conjecture", "reflection-triangle circle conjecture (evidence)", _gen_tri, _chk_x55, 1e-6, 40, evidence=True),
    Proposition("P5.6-phyp-through-pell-intersections", "members pass through the non-P ellipse intersections", _gen_tri_point, _through_pair_points(kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA), 1e-8, 60),
    Proposition("P5.7-parabola-condition", "parabola condition and sideline degeneracy", _gen_tri_phyp_angle, _batch_run(_cfg_rays, _chk_phyp_parabola), 1e-9, 25),
    # -- Appendix ----------------------------------------------------------
    Proposition("A1-aellipse-polynomial", "anticevian A-ellipse polynomial", _gen_tri, _chk_a_ellipse, 1e-6, 10),
    Proposition("A2-major-vertices", "closed-form major vertices", _gen_tri, _chk_major_vertices, 1e-7, 10),
    Proposition("A3-x3prime-center", "anticevian circle center barycentrics", _gen_x3prime_center, _chk_x3prime_center, 1e-7, 10),
    Proposition("A4-phyp-member", "P-hyperbola member polynomial", _gen_tri_point, _phyp_block("phyp_member"), 1e-6, 10),
    Proposition("A5-pstar-conic", "P-hyperbola six-point conic polynomial", _gen_tri_point, _phyp_block("pstar_conic"), 1e-6, 10),
    Proposition("A6-x5452-coordinate", "six-point conic center coordinate", _gen_tri, _chk_x5452_coordinate, 1e-7, 10),
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
    # Wall seconds of the draw and of the check, as timed where they ran;
    # not part of the report (to_json), which stays the same run to run.
    draw_s: float = field(default=0.0, compare=False)
    check_s: float = field(default=0.0, compare=False)

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


def _check(prop, cfgs) -> tuple:
    """prop's residuals on cfgs and its exceptions by row, with
    NonFiniteResidual where a residual is NaN, which no bound can pass."""
    res, errs = prop.run(cfgs)
    nan = np.flatnonzero(np.isnan(res)).tolist()
    return res, {**{i: NonFiniteResidual("the check gave a NaN residual") for i in nan if i not in errs},
                 **errs}


def run_proposition(prop_id: str, seed: int = 42, trials: int | None = None) -> CheckResult:
    if prop_id not in _BY_ID:
        raise UnknownProposition(prop_id)
    prop = _BY_ID[prop_id]
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")
    n = prop.default_trials if trials is None else trials
    rng = _prop_rng(prop_id, seed)
    # Draw every configuration in one call, then check them all in one
    # call.  The draw reads the rng ahead of the configurations it
    # returns; the rng is this proposition's own and dropped after
    # drawing, so no other proposition's draws hang on this one's trials.
    # A failed draw is a failed trial without a witness.
    with np.errstate(all="ignore"):
        start = time.perf_counter()
        try:
            cfgs, failed = prop.draw(rng, n)
        except Exception as exc:  # a crashed batch draw fails all its trials
            cfgs, failed = ConfigTable(0), dict.fromkeys(range(n), exc)
        draw_s = time.perf_counter() - start
        start = time.perf_counter()
        try:
            res, errs = _check(prop, cfgs) if cfgs.n else (np.zeros(0), {})
        except Exception as exc:  # a crashed batch check fails all its trials
            res, errs = np.zeros(cfgs.n), dict.fromkeys(range(cfgs.n), exc)
        check_s = time.perf_counter() - start
    # The trial of each row; a crashed trial counts as inf, and the first
    # strict maximum above -1 is the witness.
    trial = np.delete(np.arange(n), list(failed))
    crashes = {int(trial[i]): exc for i, exc in errs.items()} | failed
    full = np.full(n, math.inf)
    full[trial] = res
    full[list(crashes)] = math.inf
    k = int(np.argmax(full))
    worst = max(float(full[k]), -1.0)
    witness = None if k in failed or worst == -1.0 else cfgs.row(int(np.searchsorted(trial, k)))
    errors = Counter(type(exc).__name__ for exc in crashes.values())
    last = crashes[max(crashes)] if crashes else None
    bound = EVIDENCE_BOUND if prop.evidence else prop.threshold
    return CheckResult(
        prop_id=prop.prop_id,
        title=prop.title,
        passed=bool(worst <= bound),
        max_residual=worst,
        threshold=prop.threshold,
        trials=n,
        evidence=prop.evidence,
        witness=witness,
        note=f"{type(last).__name__}: {last}" if crashes else "",
        crashed=len(crashes),
        errors=dict(sorted(errors.items())),
        margin=worst / bound,
        draw_s=draw_s,
        check_s=check_s,
    )


def replay_witness(prop_id: str, witness: dict) -> float:
    if prop_id not in _BY_ID:
        raise UnknownProposition(prop_id)
    with np.errstate(all="ignore"):
        res, crashes = _check(_BY_ID[prop_id], ConfigTable.from_dicts([witness]))
    if crashes:  # a fresh traceback: a check's exception may be one shared instance
        raise crashes[0].with_traceback(None)
    return float(res[0])


def run_results(seed: int = 42, trials: int | None = None, threads: int = 1) -> list[CheckResult]:
    """The results of the whole manifest, in its order; deterministic for a
    fixed seed regardless of thread count, but for their timings."""
    if threads <= 1:
        return [run_proposition(p.prop_id, seed, trials) for p in MANIFEST]
    # Keeps logging out of CLI start-up.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(run_proposition, p.prop_id, seed, trials) for p in MANIFEST]
        return [f.result() for f in futures]


def make_report(seed: int, results: list[CheckResult]) -> dict:
    """The report of results run at seed: the same for the same results."""
    return {
        "seed": seed,
        "kernel_backend": kernels.BACKEND,
        "all_pass": all(r.passed for r in results),
        "results": [r.to_json() for r in results],
    }


def run_all(seed: int = 42, trials: int | None = None, threads: int = 1) -> dict:
    """The report of the whole manifest (run_results)."""
    return make_report(seed, run_results(seed, trials, threads))


def timings(results: list[CheckResult]) -> dict:
    """Each result's draw and check seconds, by proposition id."""
    return {r.prop_id: {"draw_s": r.draw_s, "check_s": r.check_s} for r in results}


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
