"""The package's own root-finders against the scipy routines they replace.

loci._brent_cell must give scipy.optimize.brentq's root bit for bit, so
every verifier residual and witness stays what it was.  The circle-point
searches (loci._circle_points), a one-variable reduction in the triangle's
frame (a scan in k for P*, a closed form for the P-hyperbola pair), must
find the roots that the former MINPACK ``hybr`` search found from its 22
starts (_seeds).  Skipped where scipy is not installed: the package itself
does not need it.
"""

import math

import numpy as np
import pytest

from triconic import kernels, loci, verify
from triconic.centers import circumcircle, incircle
from triconic.errors import NotConverged
from triconic.geom import Point2, Triangle
from triconic.triads import _kernel_args

from reference_checks import deltas, is_circle, lambdas

optimize = pytest.importorskip("scipy.optimize")


def _brentq(f, a, b, fa, fb):
    # scipy's Brent on the cell, reading the two end values the scan holds.
    held = {a: fa, b: fb}
    return optimize.brentq(
        lambda x: held[x] if x in held else f(x), a, b, xtol=1e-300, rtol=8.9e-16
    )


def test_brent_matches_brentq_on_every_seed42_bracket(monkeypatch):
    # Every cell polished in the seed-42 manifest (the batch scans of P2.6,
    # P3.4, P2.8, P4.6, P4.10, P5.7, P2.9 and P3.9) against brentq on the
    # same cell.
    brackets, failed = [], []
    own = loci._brent_cell

    def recording(f, a, b, fa, fb):
        try:
            out = own(f, a, b, fa, fb)
        except NotConverged as exc:
            failed.append(exc)
            raise
        brackets.append((out, _brentq(f, a, b, fa, fb)))
        return out

    monkeypatch.setattr(loci, "_brent_cell", recording)
    assert verify.run_all(42)["all_pass"]
    assert failed == []
    assert len(brackets) > 200
    assert [ours for ours, _ in brackets] == [theirs for _, theirs in brackets]


_SYNTHETIC = [
    (lambda x: x * x * x - 2.0 * x - 5.0, (1.5, 3.0)),
    (lambda x: math.tan(x) - x, (4.3, 4.6)),
    (lambda x: math.exp(x) - 3.0, (-1.0, 2.0)),
    (lambda x: (x - 0.3) * (1.0 + x * x), (-2.0, 1.7)),
    (lambda x: math.atan(1e6 * (x - 0.7)), (0.5, 0.9)),
    (lambda x: 1e-200 * (x - 0.1), (-3.0, 3.0)),
]


def _synthetic_cells():
    """(function index, a, b, f(a), f(b)) of each bracketing random cell."""
    rng = np.random.default_rng(11)
    out = []
    for j, (f, (lo, hi)) in enumerate(_SYNTHETIC):
        for _ in range(40):
            a, b = sorted(rng.uniform(lo, hi, 2).tolist())
            fa, fb = f(a), f(b)
            if (fa < 0.0) != (fb < 0.0):
                out.append((j, a, b, fa, fb))
    return out


def test_brent_matches_brentq_on_synthetic_brackets():
    cells = _synthetic_cells()
    assert len(cells) > 100
    for j, *cell in cells:
        f = _SYNTHETIC[j][0]
        assert loci._brent_cell(f, *cell) == _brentq(f, *cell)
    # A cell end that is exactly 0 is the root itself, on either side.
    line = lambda x: x - 0.5  # noqa: E731
    for a, b in ((0.5, 1.0), (0.0, 0.5)):
        assert loci._brent_cell(line, a, b, line(a), line(b)) == 0.5
        assert _brentq(line, a, b, line(a), line(b)) == 0.5


# The former searches' target for the circle functionals, times s**8
# (they have degree 8 in lengths).
_CIRCLE_TARGET = 1e-16


def _seeds(t: Triangle) -> list[tuple[float, float]]:
    """The hybr search's starts: the centroid, incenter and circumcenter, 8
    points on each of two rings about the centroid, and one point outside
    each vertex on its bisector, half the vertex-incenter distance beyond
    the vertex, where the near-vertex zeros sit."""
    cc = circumcircle(t)
    inc = incircle(t).center
    cx = (t.a.x + t.b.x + t.c.x) / 3.0
    cy = (t.a.y + t.b.y + t.c.y) / 3.0
    seeds = [(cx, cy), inc.as_tuple(), cc.center.as_tuple()]
    for r in (0.45 * cc.radius, 1.2 * cc.radius):
        for k in range(8):
            ang = math.pi * k / 4.0
            seeds.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    seeds += [(1.5 * v.x - 0.5 * inc.x, 1.5 * v.y - 0.5 * inc.y) for v in t.vertices()]
    return seeds


def _hybr_circle_points(t, kind):
    """The former search: MINPACK's hybr from each seed (_seeds), every
    root that meets the target validated, then deduped best first."""
    focal, functional, brackets, radius = {
        "p_ellipse": (
            deltas, loci.pstar_circle_functional, lambda ua, ub, uc: (uc - ub, ua - uc), 1e-7
        ),
        "p_hyperbola": (
            lambdas, loci.phyp_circle_functional, lambda ua, ub, uc: (ub - ua, uc - ua), 1e-6
        ),
    }[kind]
    corners, seeds = [c for v in t.vertices() for c in v.as_tuple()], _seeds(t)
    (ox, oy, s), f = kernels.frame(*corners)
    t = Triangle(Point2(*f[0:2]), Point2(*f[2:4]), Point2(*f[4:6]))
    sides = t.sides()

    def g(q):
        return brackets(*(a * a - x * x for a, x in zip(sides, focal(t, Point2(q[0], q[1])))))

    def plane(xy, val):
        return (ox + s * xy[0], oy + s * xy[1]), val * s**8

    roots = []
    best = (None, math.inf)
    for seed in seeds:
        start = kernels.frame(*corners, *seed)[1][6:]
        xy = tuple(optimize.root(g, start, method="hybr", options={"xtol": 1e-14}).x)
        val = functional(*sides, *focal(t, Point2(*xy)))
        if val < best[1]:
            best = (xy, val)
        args = _kernel_args(t, kind, Point2(*xy))
        if val <= _CIRCLE_TARGET and is_circle(args, t.scale(), circumcircle(t)):
            roots.append((xy, val))
    if not roots:
        raise NotConverged(f"{kind} circle functional did not reach its target", *plane(*best))
    hits = []
    for xy, val in sorted(roots, key=lambda h: h[1]):
        if not any(math.hypot(xy[0] - h[0][0], xy[1] - h[0][1]) <= radius for h in hits):
            hits.append((xy, val))
    return [plane(*h) for h in hits]


def _agreement_triangle(draw):
    kind, i = draw
    if kind == "obtuse":
        # Angle at C about 165 degrees (tests/test_loci.py).
        return Triangle(
            Point2(0.7751131641779292, 0.29089325912672925),
            Point2(0.4204307459590436, 0.0042869212385614475),
            Point2(0.6259889257552741, 0.13306675605752827),
        )
    if kind == "near_vertex":
        # Zeros on either side of C along its bisector (tests/test_loci.py).
        return Triangle(
            Point2(0.0, 0.0),
            Point2(1.483727388938172, 0.0),
            Point2(0.7378315713690614, 0.09869291364934368),
        )
    draw_fn = verify.random_triangle if kind == "random" else verify.random_flat_triangle
    return draw_fn(np.random.default_rng([2026, i]))


def _reduction_circle_points(t, kind):
    return loci._only(loci._circle_points([t], kind, 1))


def _search(fn, t, kind):
    try:
        return fn(t, kind)
    except NotConverged:
        return None


@pytest.mark.parametrize(
    "draw",
    [("random", i) for i in range(24)]
    + [("flat", i) for i in range(24)]
    + [("obtuse", 0), ("near_vertex", 0)],
    ids=str,
)
def test_reduction_finds_the_hybr_roots(draw):
    t = _agreement_triangle(draw)
    s = t.scale()
    for kind in ("p_ellipse", "p_hyperbola"):
        want = _search(_hybr_circle_points, t, kind)
        got = _search(_reduction_circle_points, t, kind)
        assert (got is None) == (want is None)
        if want is None:
            continue
        assert len(got) == len(want)
        for xy, _ in got:
            assert min(math.dist(xy, w) for w, _ in want) <= 1e-8 * s
