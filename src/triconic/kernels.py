"""The kernels: the package's one triad rule, vertex formula, five-point
fit and fit rule, conic classifier and focal-pair solver, each elementwise
on floats (plain Python, no numpy call, but for the pair points) and on
numpy arrays, with the same bits: distances are sqrt(dx*dx + dy*dy)
(`_hypot`, the package's one length rule, which `geom` and every module
after it read), and math.sqrt and np.sqrt both round correctly.
`collinear` is the one degenerate-triangle test, on `signed_area`:
`geom.Triangle`, `geom.collinear` and the circle searches' frames
(`loci._framed`) apply it on floats, the verifier on arrays.

`_sides_deltas` (sides, signed focal sums or differences, member flag) is
read by `triads.build_triad`, `driver_fault`, `triad_vertices`, the loci
and the kernels below, so they agree on every driver bit for bit.
`six_point` is the one class pipeline: `vertices`, `fit_six` (with
`fit5`, the only five-point fit, in the frame of its points after Hartley,
so a class does not change when the points are moved, rotated or scaled)
and `classify_code` (the conic-type policy, also behind `conic.classify`).
An array call broadcasts only its array arguments and keeps its float
arguments floats, so the quantities of a triangle given as floats (sides,
member guard, midpoints and unit vectors) are computed once a call, not
once a cell; it gathers the fit's vertices and labels by flat index.
On floats it serves the Brent polish of the P2.6, P3.4 and P5.7 sign
scans; on arrays the grids of those scans, P2.8's and P5.7's other points,
the P2.2 and P3.8 trials and every cell of `loci.region_map`.
`residual6` (the left-out vertex's residual) is apart from the fit, so
that only its readers pay for it: the P3.1 and P5.2 trials take it of
their own `vertices` and `fit_six`, and `triads._six_point_rules` of
`triads._six_point_fit`.
`triads._six_point_fit` calls `vertex_rows`, `fit_six` and `frame_center`
itself, on floats or arrays, with the six-point conic's fit rules: it
serves the circle test (`loci._circle_conditions`) of P3.2, P3.3, P5.4
and P5.5 and of the circle searches, which run it on floats, a candidate
at a time, in a search on one triangle (`loci._circle_points`), and on
arrays in a batch search; and with `residual6` and the sideline rules
(`triads._six_point_rules`) `triads.six_point_conic` and the P2.1, P2.7,
P4.3, A3 and A6 trials; `loci.sample_locus_ostar` calls `vertices`,
`fit_six` and `frame_center` directly, without residual6.

`pair_points` gives the common points of a triad's three focal pairs, on
the closed-form line pair of each (`focal_pairs`, whose lines, the pair
chords, the P2.4 and P4.8 trials read), on arrays, every pair and
candidate at once, for the P4.7 and P5.6 trials, and through
`second_point` (a P-hyperbola triad's second common point) for the P5.1
trials.  A call on floats, from
`triads.pairwise_intersections`, is a batch of one.  `members` picks each
member's unit-norm coefficients out of `focal_pairs`, for `conic_residual`
and `tangency_disc` (P2.3, P2.5); `conic_residual` is also
`conic.residual` and the O* locus's incidence rule.

The catalog barycentrics (`cyclic` of `center_x3`, `center_x4` and
`center_x20`; `excenters`, `excircle_tangency`, `intouch_extouch`) are
functions of the sides, and `bary_point` maps barycentrics to points with
`geom.bary_to_cartesian`'s rule; `centers` and `geom` read them on
floats, P2.1-P2.5, P3.3, P4.1 and P4.2 on arrays.  So is `privalov`,
Privalov's barycentric matrix of the V-hyperbola six-point conic, which
P4.3 and P4.4 read on arrays.
`covertices` is the one co-vertex rule, each member's two points across
its focal axis from its center, from `_sides_deltas`' sides and axes:
the P2.9 and P3.9 checks read it on arrays, at drivers located on the
loci's closed-form conditions, and fit the co-vertices by `fit_six` and
`residual6`.
`carnot` and `kept_gap` are the sideline and distinct-vertex rules of the
six-point conic; only `triads` applies them (`_six_point_fit`,
`_carnot_rule`), on floats and arrays alike.  `triangle_sides` is the
sides of a triangle, and `circumcircle` its circumcenter (`bary_point` of
`center_x3`) and circumradius.
`soddy` is the one Soddy rule: the Soddy centers X176 and X175 by
`bary_point`, and the Soddy line; X175 at infinity is the Soddy-line
regime.  `centers.soddy` reads it on floats, P4.5, P4.8 and P4.10 on
arrays.

`frame` is the package's one triangle frame, q' = (q - g) / s with g the
centroid and s the largest side: `focal_pairs` works in it, and so do the
Carnot test of `triads.six_point_conic`, the circle searches (their
trilateration, the P* scan in k and the P-hyperbola pair's closed form,
`loci._circle_points`) and, in the verifier, the sideline rule of the
six-point fits, the P3.2 and P5.4 postconditions and the P3.3 and P5.5
checks.
"""

import itertools
import math

import numpy as np

from .config import DET_DEGENERATE_TOL, DISC_PARABOLA_TOL, get_tol

# Reported as the verify report's kernel_backend; six_point is plain
# Python on floats and numpy on arrays.
BACKEND = "py"

CLASS_CIRCLE = 0
CLASS_ELLIPSE = 1
CLASS_PARABOLA = 2
CLASS_HYPERBOLA = 3
CLASS_RECTANGULAR_HYPERBOLA = 4
CLASS_DEGENERATE_TWO_LINES = 5
CLASS_DEGENERATE_PARALLEL_LINES = 6
CLASS_DEGENERATE_POINT = 7
CLASS_FAILED = 8

KIND_V_ELLIPSE = 0
KIND_P_ELLIPSE = 1
KIND_V_HYPERBOLA = 2
KIND_P_HYPERBOLA = 3

KIND_CODES = {
    "v_ellipse": KIND_V_ELLIPSE,
    "p_ellipse": KIND_P_ELLIPSE,
    "v_hyperbola": KIND_V_HYPERBOLA,
    "p_hyperbola": KIND_P_HYPERBOLA,
}

CLASS_NAMES = {
    CLASS_CIRCLE: "circle",
    CLASS_ELLIPSE: "ellipse",
    CLASS_PARABOLA: "parabola",
    CLASS_HYPERBOLA: "hyperbola",
    CLASS_RECTANGULAR_HYPERBOLA: "rectangular_hyperbola",
    CLASS_DEGENERATE_TWO_LINES: "degenerate_two_lines",
    CLASS_DEGENERATE_PARALLEL_LINES: "degenerate_parallel_lines",
    CLASS_DEGENERATE_POINT: "degenerate_point",
    CLASS_FAILED: "degenerate",
}


# fit5's labelling rule, as a table: for each point i that can be point 1,
# the six pairs of the other four, each with the labels (1, 2, 3, 4, 5) it
# gives (3 and 4 the pair, 2 and 5 the others in index order) and their parity.
_PAIRS5 = tuple(itertools.combinations(range(5), 2))
_P5_I, _P5_J = np.array(_PAIRS5).T


def _parity(order):
    """+1.0 for an even permutation of range(len(order)), -1.0 for an odd."""
    inversions = sum(a > b for a, b in itertools.combinations(order, 2))
    return -1.0 if inversions % 2 else 1.0


def _labels(i, pair):
    r2, r5 = (k for k in range(5) if k != i and k not in _PAIRS5[pair])
    order = (i, r2, *_PAIRS5[pair], r5)
    return pair, order, _parity(order)


_LABELS = tuple(
    tuple(_labels(i, pair) for pair in range(10) if i not in _PAIRS5[pair])
    for i in range(5)
)
# The batch fit's tables, gathered by flat index: the six pairs' indices
# (6, 5) by point 1, and the labels (5, 30) and parities (30,) by point 1
# times 6 plus the pair.
_LABEL_PAIRS_T = np.array([[pair for pair, _, _ in row] for row in _LABELS]).T.copy()
_LABEL_ORDERS_T = np.array([order for row in _LABELS for _, order, _ in row]).T.copy()
_LABEL_PARITY = np.array([sign for row in _LABELS for _, _, sign in row])


def _bracket_conic(u1, v1, u2, v2, u3, v3, u4, v4, u5, v5, parity):
    """Coefficients (xx, xy, yy, x, y, 1) of
    parity * ([123][145] L24 L35 - [124][135] L23 L45), with [ijk] the
    determinant of points i, j, k (twice their signed area) and Lij(X) =
    [ijX] the line through points i and j.  Elementwise: floats and arrays
    of one shape alike, with the same bits."""

    def bracket(ui, vi, uj, vj, uk, vk):
        return (uj - ui) * (vk - vi) - (uk - ui) * (vj - vi)

    def line(ui, vi, uj, vj):
        return vi - vj, uj - ui, ui * vj - uj * vi

    def product(p, q):
        a1, b1, c1 = p
        a2, b2, c2 = q
        return (
            a1 * a2, a1 * b2 + a2 * b1, b1 * b2, a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2
        )

    k1 = bracket(u1, v1, u2, v2, u3, v3) * bracket(u1, v1, u4, v4, u5, v5) * parity
    k2 = bracket(u1, v1, u2, v2, u4, v4) * bracket(u1, v1, u3, v3, u5, v5) * parity
    p = product(line(u2, v2, u4, v4), line(u3, v3, u5, v5))
    q = product(line(u2, v2, u3, v3), line(u4, v4, u5, v5))
    return tuple(k1 * a - k2 * b for a, b in zip(p, q))


def fit5(xs, ys):
    """The conic through five points, in the frame of those points.

    xs and ys hold five coordinates each, as five floats or a (5, n) array
    of n point sets.  The frame is u = (x - ox) / s, v = (y - oy) / s with
    (ox, oy) the centroid of the points and s their RMS distance from it.
    Returns (coeffs, (ox, oy, s)): the coefficients (xx, xy, yy, x, y, 1)
    in the frame, coeff_j = (-1)^j det(framed design matrix less column j).
    They are computed as the bracket form

        [123][145] L24(X) L35(X) - [124][135] L23(X) L45(X)

    (_bracket_conic: Pascal's condition as Turnbull's bracket identity,
    Richter-Gebert, Perspectives on Projective Geometry, 2011, ch. 10; about
    90 floating-point operations and no factorization) of the framed points
    under the labels 1..5: point 1 the first point of the closest pair, 3
    and 4 the closest pair of the other four, 2 and 5 the other two in index
    order, ties to the first pair in itertools.combinations order (the table
    _LABELS).  No line then passes through point 1 or joins points 3 and 4,
    and the brackets, all holding point 1, are differences from it that
    keep their relative accuracy when small: the form stays accurate when
    two points nearly meet, where fixed labels round badly.  The form is
    multiplied by the parity of that relabelling, which gives the
    cofactors' sign for the points in their given order.

    Five floats (or a 1-d array) give floats, from plain Python arithmetic
    with no numpy call; a (5, n) array gives arrays of shape (n,).  Both
    run the same IEEE operations in the same order, so a point set gives
    the same bits alone and in a batch.  Five coincident points give NaN
    coefficients.
    """
    if isinstance(xs, np.ndarray):
        if xs.ndim == 2:
            return _fit5_batch(xs, np.asarray(ys, dtype=float))
        xs, ys = xs.tolist(), np.asarray(ys).tolist()
    x0, x1, x2, x3, x4 = xs
    y0, y1, y2, y3, y4 = ys
    ox = (x0 + x1 + x2 + x3 + x4) / 5.0
    oy = (y0 + y1 + y2 + y3 + y4) / 5.0
    u = [x0 - ox, x1 - ox, x2 - ox, x3 - ox, x4 - ox]
    v = [y0 - oy, y1 - oy, y2 - oy, y3 - oy, y4 - oy]
    r2 = [a * a + b * b for a, b in zip(u, v)]
    s = math.sqrt((r2[0] + r2[1] + r2[2] + r2[3] + r2[4]) / 5.0)
    if s == 0.0:
        return (math.nan,) * 6, (ox, oy, s)
    u = [a / s for a in u]
    v = [b / s for b in v]
    d2 = [(u[i] - u[j]) * (u[i] - u[j]) + (v[i] - v[j]) * (v[i] - v[j]) for i, j in _PAIRS5]
    row = _LABELS[_PAIRS5[d2.index(min(d2))][0]]
    rest = [d2[pair] for pair, _, _ in row]
    _, order, parity = row[rest.index(min(rest))]
    framed = [t for k in order for t in (u[k], v[k])]
    return _bracket_conic(*framed, parity), (ox, oy, s)


def _fit5_batch(x, y):
    """fit5 on (5, n) arrays: the float path's arithmetic, column by
    column, with argmin for list.index(min)."""
    # Written-out sums: the same additions in the same order as on floats.
    ox = (x[0] + x[1] + x[2] + x[3] + x[4]) / 5.0
    oy = (y[0] + y[1] + y[2] + y[3] + y[4]) / 5.0
    u, v = x - ox, y - oy
    r2 = u * u + v * v
    s = np.sqrt((r2[0] + r2[1] + r2[2] + r2[3] + r2[4]) / 5.0)
    u, v = u / s, v / s
    du = u.take(_P5_I, axis=0) - u.take(_P5_J, axis=0)
    dv = v.take(_P5_I, axis=0) - v.take(_P5_J, axis=0)
    d2 = du * du + dv * dv
    n = x.shape[1]
    cols = np.arange(n)
    first = _P5_I[np.argmin(d2, axis=0)]
    rest = d2.ravel().take(_LABEL_PAIRS_T.take(first, axis=1) * n + cols)
    row = first * 6 + np.argmin(rest, axis=0)
    at = _LABEL_ORDERS_T.take(row, axis=1) * n + cols
    u, v = u.ravel().take(at), v.ravel().take(at)
    framed = [t for i in range(5) for t in (u[i], v[i])]
    return _bracket_conic(*framed, _LABEL_PARITY.take(row)), (ox, oy, s)


def frobenius(co):
    """Frobenius norm of the conic matrix of (xx, xy, yy, x, y, 1): a float
    for scalar coefficients, an array for array ones."""
    A, B, C, D, E, F = co
    return _sqrt(A * A + C * C + F * F + (B * B + D * D + E * E) / 2.0)


def mat_det(co):
    A, B, C, D, E, F = co
    b, d, e = B / 2.0, D / 2.0, E / 2.0
    return A * (C * F - e * e) - b * (b * F - e * d) + d * (b * e - C * d)


def conic_eval(co, x, y):
    A, B, C, D, E, F = co
    return A * x * x + B * x * y + C * y * y + D * x + E * y + F


def conic_residual(co, x, y):
    """|conic(x, y)| / (Frobenius norm * (x^2 + y^2 + 1)), on floats or
    arrays; inf for a zero norm on floats."""
    n = frobenius(co)
    if not isinstance(n, np.ndarray) and n == 0.0:
        return math.inf
    return abs(conic_eval(co, x, y)) / (n * (x * x + y * y + 1.0))


def _ladder(finite, singular, two_lines, point, parabolic, elliptic, circular, rectangular):
    """The conic-type policy: a class code from the threshold tests of
    classify_code, each a bool."""
    if not finite:
        return CLASS_FAILED
    if singular:
        if two_lines:
            return CLASS_DEGENERATE_TWO_LINES
        if point:
            return CLASS_DEGENERATE_POINT
        return CLASS_DEGENERATE_PARALLEL_LINES
    if parabolic:
        return CLASS_PARABOLA
    if elliptic:
        return CLASS_CIRCLE if circular else CLASS_ELLIPSE
    return CLASS_RECTANGULAR_HYPERBOLA if rectangular else CLASS_HYPERBOLA


# _ladder for every outcome of its eight tests, at index sum(test_k << (7-k)).
_LADDER = tuple(_ladder(*tests) for tests in itertools.product((False, True), repeat=8))
_LADDER_ARRAY = np.array(_LADDER)


def classify_code(co):
    """Class code of the conic (xx, xy, yy, x, y, 1), with the determinant
    and the quadratic discriminant A*C - B^2/4 it was decided on, both of
    the Frobenius-normalized coefficients.

    The coefficients may be floats, numpy float scalars or broadcastable
    arrays; arrays give an array of codes.  A zero or non-finite norm gives
    CLASS_FAILED.  Each test is weighted before the tests are summed into
    the ladder index: numpy bools add as logical or.
    """
    n = frobenius(co)
    if not isinstance(n, np.ndarray) and not n > 0.0:
        n = math.nan  # fails the finite test below instead of dividing by zero
    A, B, C, D, E, F = (t / n for t in co)
    det = mat_det((A, B, C, D, E, F))
    disc = A * C - B * B / 4.0
    index = (
        128 * ((n > 0.0) & (n < math.inf))
        + 64 * (abs(det) < DET_DEGENERATE_TOL)
        + 32 * (disc < -DISC_PARABOLA_TOL)
        + 16 * (disc > DISC_PARABOLA_TOL)
        + 8 * (abs(disc) < DISC_PARABOLA_TOL)
        + 4 * (disc > 0.0)
        + 2 * ((abs(A - C) < DET_DEGENERATE_TOL) & (abs(B / 2.0) < DET_DEGENERATE_TOL))
        + (abs(A + C) < DET_DEGENERATE_TOL)
    )
    table = _LADDER_ARRAY if isinstance(index, np.ndarray) else _LADDER
    return table[index], det, disc


def frame_center(co, frame):
    """Center of the conic co, given in the frame (ox, oy, s) of fit5, in
    plane coordinates: (x, y, has_center).

    The center solves the gradient system of the Frobenius-normalized
    coefficients; it is finite where |A*C - B^2/4| > DISC_PARABOLA_TOL,
    and has_center is false elsewhere (parabolas, parallel line pairs).
    Floats give floats (x and y NaN without a center, as for a zero or
    NaN norm), arrays give arrays.
    """
    n = frobenius(co)
    if not isinstance(n, np.ndarray) and not n > 0.0:
        return math.nan, math.nan, False
    A, B, C, D, E, _ = (t / n for t in co)
    disc = A * C - B * B / 4.0
    has_center = abs(disc) > DISC_PARABOLA_TOL
    if not isinstance(disc, np.ndarray) and not has_center:
        return math.nan, math.nan, False
    ox, oy, s = frame
    x = ox + s * (-D / 2.0 * C + E / 2.0 * B / 2.0) / disc
    y = oy + s * (-E / 2.0 * A + D / 2.0 * B / 2.0) / disc
    return x, y, has_center


def _sqrt(x):
    """The square root on floats (math.sqrt) or arrays (np.sqrt).  Both
    round correctly, so a float and an array entry give the same bits."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _hypot(x, y):
    """sqrt(x*x + y*y), the package's one length rule, on floats or arrays
    with the same bits, so vertices and fits on arrays are bit for bit
    those on floats.  (The hypot functions of math and numpy differ from
    it in the last bit on about 1% of inputs.)  Coordinates beyond about
    1e150 overflow.
    """
    return _sqrt(x * x + y * y)


def triangle_sides(ax, ay, bx, by, cx, cy):
    """The sides (a, b, c) = (|BC|, |CA|, |AB|) of the triangle, by
    `_hypot`, on floats or arrays."""
    return _hypot(bx - cx, by - cy), _hypot(cx - ax, cy - ay), _hypot(ax - bx, ay - by)


def frame(ax, ay, bx, by, cx, cy, *points):
    """The package's one triangle frame, q' = (q - g) / s with g the
    corners' centroid and s the largest side (by `_hypot`), after Hartley:
    ((gx, gy, s), framed), framed the corners and then the points, given
    as (x, y, ...), in the frame.  Floats, or arrays and floats that
    broadcast."""
    s = _largest(triangle_sides(ax, ay, bx, by, cx, cy))
    g = (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0
    coords = (ax, ay, bx, by, cx, cy, *points)
    return (*g, s), tuple((v - g[k % 2]) / s for k, v in enumerate(coords))


def signed_area(px, py, qx, qy, rx, ry):
    """Signed area of the triangle pqr, positive iff counterclockwise, on
    floats or arrays."""
    return 0.5 * ((qx - px) * (ry - py) - (qy - py) * (rx - px))


def collinear(ax, ay, bx, by, cx, cy, sides):
    """The package's one degenerate-triangle test, geom.Triangle's: whether
    the corners are collinear, given their sides (by `_hypot`): the
    largest side is 0, or |signed area| is at most config.TOL times its
    square.  A bool on floats, a bool array on arrays; false where a
    corner is NaN."""
    scale = _largest(sides)
    return (scale == 0.0) | (abs(signed_area(ax, ay, bx, by, cx, cy)) <= get_tol() * scale * scale)


# The member guard, relative to the largest side: a P-ellipse member whose
# focal sum is within it of its side collapses onto the side, a P-hyperbola
# member whose focal difference is within it of 0 or of its side onto a
# bisector or a sideline, and an isosceles V-hyperbola member (|lambda|
# within it of 0) is a perpendicular bisector.
MEMBER_GUARD = 1e-12


def _sides_deltas(ax, ay, bx, by, cx, cy, kind, px, py):
    """Side lengths (a, b, c), the signed axis quantities (d1, d2, d3) of
    the triad's members, and whether a member degenerates, on floats or on
    arrays of one shape (then the flag is a bool array).

    A P-triad member degenerates when it collapses (within MEMBER_GUARD of
    the largest side), and any triad when two triangle vertices coincide;
    a driver on a vertex collapses two members.  A V-hyperbola member of
    an isosceles triangle (lambda = 0) does not: it contributes its side's
    midpoint twice, and the fit rule leaves out one copy.  V-kinds ignore
    (px, py).
    """
    a, b, c = triangle_sides(ax, ay, bx, by, cx, cy)
    eps = MEMBER_GUARD * _largest((a, b, c))
    bad = (a == 0.0) | (b == 0.0) | (c == 0.0)
    if kind == KIND_V_ELLIPSE:
        d = (b + c, c + a, a + b)
    elif kind == KIND_V_HYPERBOLA:
        d = (c - b, a - c, b - a)
    elif kind in (KIND_P_ELLIPSE, KIND_P_HYPERBOLA):
        pa = _hypot(px - ax, py - ay)
        pb = _hypot(px - bx, py - by)
        pc = _hypot(px - cx, py - cy)
        if kind == KIND_P_ELLIPSE:
            d = (pb + pc, pc + pa, pa + pb)
            for di, s in zip(d, (a, b, c)):
                bad = bad | (di <= s + eps)
        else:
            d = (pb - pc, pc - pa, pa - pb)
            for di, s in zip(d, (a, b, c)):
                size = abs(di)
                bad = bad | (size <= eps) | (size >= s - eps)
    else:
        raise ValueError(f"unknown kind code {kind}")
    return (a, b, c), d, bad


def vertex_coords(ax, ay, bx, by, cx, cy, sides, deltas):
    """The package's one vertex formula: the xs and ys of the six vertices
    A1 A2 B1 B2 C1 C2, on floats or arrays.

    The members have foci (B, C), (C, A), (A, B); member k's vertices sit at
    the midpoint of its foci +- (delta_k / 2) along the unit vector from its
    second focus to its first, with the signed delta_k, so that (A1, B1, C1)
    is the extouch triangle for V-hyperbolas and the excircle tangency
    labels hold for V-ellipses.  A zero delta gives the midpoint twice.
    """
    xs, ys = [], []
    for (f1x, f1y, f2x, f2y), d, s in zip(
        ((bx, by, cx, cy), (cx, cy, ax, ay), (ax, ay, bx, by)), deltas, sides
    ):
        mx, my = (f1x + f2x) / 2.0, (f1y + f2y) / 2.0
        h = d / 2.0
        hx, hy = h * _div(f1x - f2x, s), h * _div(f1y - f2y, s)
        xs.extend((mx + hx, mx - hx))
        ys.extend((my + hy, my - hy))
    return xs, ys


def vertices(ax, ay, bx, by, cx, cy, kind, px, py):
    """The six vertices of the triad and whether a member degenerates:
    (xs, ys, bad), by _sides_deltas and vertex_coords (vertex_rows).

    Floats give two lists of six floats (A1 A2 B1 B2 C1 C2) and a bool.
    1-d arrays of n drivers or triangles, the other arguments floats or
    arrays of that shape, give (6, n) arrays and the mask of degenerate
    columns; a vertex that depends on float arguments alone fills its row.
    A degenerate triad's vertices are those the formula gives, on floats
    as in an array column: NaN on a side of length zero.
    """
    corners = (ax, ay, bx, by, cx, cy)
    return vertex_rows(corners, _sides_deltas(*corners, kind, px, py))


def vertex_rows(corners, sides_deltas):
    """vertices of the corners (ax, ay, bx, by, cx, cy), given their
    triad's _sides_deltas (sides, deltas, bad), for a caller that reads
    the sides too."""
    sides, deltas, bad = sides_deltas
    xs, ys = vertex_coords(*corners, sides, deltas)
    if isinstance(bad, np.ndarray):
        out = np.empty((2, 6) + bad.shape)
        for k, (x, y) in enumerate(zip(xs, ys)):
            out[0, k], out[1, k] = x, y
        return out[0], out[1], bad
    return xs, ys, bad


def covertices(corners, sides, axes):
    """The package's one co-vertex rule: the xs and ys of the members'
    co-vertices A' A'' B' B'' C' C'', on floats or arrays.

    Member k of the triad of the corners (ax, ay, bx, by, cx, cy), with
    its side and axis quantity from _sides_deltas, has its two co-vertices
    at its center +- beta across its focal axis, beta = sqrt(|(d/2)^2 -
    (f/2)^2|) for its side f and axis quantity d (for a hyperbola, the
    ends of its conjugate axis).
    """
    xs, ys = [], []
    for (i, j), f, d in zip(_PAIR_MEMBERS, sides, axes):
        (x1, y1), (x2, y2) = corners[2 * i:2 * i + 2], corners[2 * j:2 * j + 2]
        beta = _sqrt(abs((d / 2.0) * (d / 2.0) - (f / 2.0) * (f / 2.0)))
        # From the center along the unit axis (F1 - F2) / f turned a quarter.
        for k in (beta, -beta):
            xs.append((x1 + x2) / 2.0 + k * -((y1 - y2) / f))
            ys.append((y1 + y2) / 2.0 + k * ((x1 - x2) / f))
    return xs, ys


# Catalog barycentrics from the sides (a, b, c), on floats or arrays.  The
# center_* functions give a cyclic center's first coordinate, `cyclic` all
# three.  Powers are written as products: numpy's power and Python's pow
# can round differently in the last bit.


def center_x3(a, b, c):
    return a * a * (b * b + c * c - a * a)


def center_x4(a, b, c):
    return (a * a + b * b - c * c) * (c * c + a * a - b * b)


def center_x20(a, b, c):
    aa, d = a * a, b * b - c * c
    return -3.0 * (aa * aa) + 2.0 * aa * (b * b + c * c) + d * d


def cyclic(f, a, b, c):
    """The barycentrics (f(a, b, c), f(b, c, a), f(c, a, b))."""
    return f(a, b, c), f(b, c, a), f(c, a, b)


def excenters(a, b, c):
    """The excenters opposite A, B and C."""
    return (-a, b, c), (a, -b, c), (a, b, -c)


def excircle_tangency(a, b, c):
    """The six external tangency points (A1, A2, B1, B2, C1, C2): on each
    sideline at distances p and p - side from its ends, p the semiperimeter
    (|C A1| = p, |B A1| = p - a)."""
    L = a + b + c
    return (
        (0.0, L, a - b - c), (0.0, a - b - c, L),
        (b - c - a, 0.0, L), (L, 0.0, b - c - a),
        (L, c - a - b, 0.0), (c - a - b, L, 0.0),
    )


def intouch_extouch(a, b, c):
    """((intouch points), (extouch points)), each ordered by opposite vertex."""
    s = (a + b + c) / 2.0
    sa, sb, sc = s - a, s - b, s - c
    return (
        ((0.0, sc, sb), (sc, 0.0, sa), (sb, sa, 0.0)),
        ((0.0, sb, sc), (sa, 0.0, sc), (sa, sb, 0.0)),
    )


def half_tangent_sum(a, b, c, area):
    """tan(A/2) + tan(B/2) + tan(C/2) = r/(s-a) + r/(s-b) + r/(s-c), from
    the sides and the unsigned area."""
    s = (a + b + c) / 2.0
    r = area / s
    return r / (s - a) + r / (s - b) + r / (s - c)


def privalov(a, b, c):
    """The barycentric matrix, as three rows, of the six-point conic of the
    V-hyperbola triad (Privalov's closed form), not normalized."""
    k1, k2, k3 = a - b - c, a + b - c, a - b + c
    k4 = a * a + b * b + c * c
    d = k1 * k2 * k3
    ab, ac, bc = k2 * (k4 - 2 * a * b), k3 * (k4 - 2 * a * c), -k1 * (k4 - 2 * b * c)
    return (d, ab, ac), (ab, d, bc), (ac, bc, d)


def bary_point(ax, ay, bx, by, cx, cy, u, v, w):
    """The point of barycentrics (u, v, w): (x, y, far), far where
    |u + v + w| <= config.TOL * max(|u|, |v|, |w|), geom.bary_to_cartesian's
    PointAtInfinity rule; the point is then meaningless (NaN on floats for
    a zero sum).  Floats, or arrays and floats that broadcast."""
    s = u + v + w
    far = abs(s) <= get_tol() * _largest((abs(u), abs(v), abs(w)))
    return _div(u * ax + v * bx + w * cx, s), _div(u * ay + v * by + w * cy, s), far


def circumcircle(corners, sides):
    """centers.circumcircle of the triangle of the corners (ax, ay, bx, by,
    cx, cy) with sides (a, b, c): (x, y, far, radius), far where the
    center is at infinity (bary_point).  Floats or arrays."""
    x, y, far = bary_point(*corners, *cyclic(center_x3, *sides))
    return x, y, far, sides[0] * sides[1] * sides[2] / (4.0 * abs(signed_area(*corners)))


def soddy(corners, sides) -> tuple:
    """The Soddy configuration of the triangle of the corners (ax, ay, bx,
    by, cx, cy) with sides (a, b, c): the inner and outer Soddy centers
    X176 and X175, (x, y, far) each by bary_point of a + area / (s - a)
    and a - area / (s - a), s the semiperimeter, and the Soddy line (l, m,
    n), the common tangent l x + m y + n = 0, (l, m) a unit normal, of the
    kissing circles about A, B and C (radii s - a, s - b, s - c).  X175's
    far flag is the package's one Soddy-regime test: the outer Soddy
    circle is the Soddy line exactly where X175 is at infinity, and the
    line means nothing elsewhere (NaN on floats for an equilateral).
    Floats or arrays."""
    ax, ay, bx, by, cx, cy = corners
    a, b, c = sides
    area = abs(signed_area(*corners))
    p = (a + b + c) / 2.0
    inner, outer = [bary_point(*corners, *(v + sign * area / (p - v) for v in sides))
                    for sign in (1.0, -1.0)]
    # The unit normal (nx, ny) for which nx x + ny y less the radius is one
    # value at A, B and C (radii r1, r2, r3); the line is nx x + ny y = that
    # value, taken as the mean of the three.
    r1, r2, r3 = p - a, p - b, p - c
    a11, a12, a21, a22 = ax - bx, ay - by, ax - cx, ay - cy
    det = a11 * a22 - a12 * a21
    nx = _div((r1 - r2) * a22 - (r1 - r3) * a12, det)
    ny = _div(-(r1 - r2) * a21 + (r1 - r3) * a11, det)
    nn = _hypot(nx, ny)
    nx, ny = _div(nx, nn), _div(ny, nn)
    mean = ((nx * ax + ny * ay - r1) + (nx * bx + ny * by - r2) + (nx * cx + ny * cy - r3)) / 3.0
    return inner, outer, (nx, ny, -mean)


# The sideline of each vertex A1 A2 B1 B2 C1 C2, by the indices of its ends.
_SIDELINES = ((1, 2), (1, 2), (2, 0), (2, 0), (0, 1), (0, 1))


def carnot(ax, ay, bx, by, cx, cy, xs, ys):
    """Carnot's criterion on six vertices, (A1, A2) on BC, (B1, B2) on CA
    and (C1, C2) on AB: (product, off), the product of the unsigned ratios
    |e1 p| / |e2 p| of each vertex p to the ends of its sideline, and for
    each vertex whether it is off the sideline: not collinear with its
    ends by `collinear` with sides (|e1 p|, |e1 e2|, |e2 p|), a NaN vertex
    included.  Floats, or arrays of one shape; a vertex on its second end
    makes the product NaN on floats (_div)."""
    corners = ((ax, ay), (bx, by), (cx, cy))
    product, off = 1.0, []
    for x, y, (i, j) in zip(xs, ys, _SIDELINES):
        (x1, y1), (x2, y2) = corners[i], corners[j]
        d1 = _hypot(x - x1, y - y1)
        d2 = _hypot(x - x2, y - y2)
        on = collinear(x, y, x1, y1, x2, y2, (d1, _hypot(x1 - x2, y1 - y2), d2))
        off.append(~on if isinstance(on, np.ndarray) else not on)
        product = product * _div(d1, d2)
    return product, off


# The fit rule: the 15 vertex pairs (i, j), i < j, in order, and for each
# left-out vertex the five kept, in order.
_PAIRS = tuple(itertools.combinations(range(6), 2))
_PAIR_I, _PAIR_J = np.array(_PAIRS).T
_KEPT = tuple(tuple(k for k in range(6) if k != j) for j in range(6))
_KEPT_T = np.array(_KEPT).T.copy()


def _flat_at(xs, rows):
    """Flat indices into a (6, n) array's ravel of row rows[..., k] of
    column k: rows of shape (n,) or (m, n)."""
    n = xs.shape[1]
    return rows * n + np.arange(n)


def fit_six(xs, ys):
    """The conic through five of a triad's six vertices, by the package's
    one fit rule: leave out the later vertex of the closest pair (by squared
    distance; the first pair on ties), and fit5 the other five in order.

    The rule drops one copy of a degenerate or near-degenerate member's
    vertex pair, and one of two vertices that meet at a triangle corner,
    where a fit through both would be ill conditioned.  The fitted det
    varies continuously along a sweep while the left-out vertex stays the
    same; where it changes, the coefficients can change sign (on P-hyperbola
    sweeps; on none of 400 seeded V- and P-ellipse rays each, the sweeps the
    verifier brackets det on).
    xs and ys hold six coordinates each: six floats, or (6, n) arrays.
    Returns (coeffs, frame, out): fit5's coefficients and frame, and the
    index of the left-out vertex, whose residual residual6 gives.  Floats
    give floats and an int, arrays arrays of shape (n,).  The squared
    distances, the first minimum and fit5 are the same IEEE operations in
    both, so a column gives the bits of its floats.
    """
    if isinstance(xs, np.ndarray):
        dx = xs.take(_PAIR_I, axis=0) - xs.take(_PAIR_J, axis=0)
        dy = ys.take(_PAIR_I, axis=0) - ys.take(_PAIR_J, axis=0)
        out = _PAIR_J.take(np.argmin(dx * dx + dy * dy, axis=0))
        kept = _flat_at(xs, _KEPT_T.take(out, axis=1))
        co, frame = fit5(xs.ravel().take(kept), ys.ravel().take(kept))
    else:
        d2 = [
            (xs[i] - xs[j]) * (xs[i] - xs[j]) + (ys[i] - ys[j]) * (ys[i] - ys[j])
            for i, j in _PAIRS
        ]
        out = _PAIRS[d2.index(min(d2))][1]
        kept = _KEPT[out]
        co, frame = fit5([xs[k] for k in kept], [ys[k] for k in kept])
    return co, frame, out


def residual6(xs, ys, fit):
    """The conic_residual of the vertex that fit_six's fit (coeffs, frame,
    out) of the vertices (xs, ys) leaves out, in the frame of the fit: the
    same IEEE operations on floats and on (6, n) arrays."""
    co, (ox, oy, s), out = fit
    if isinstance(xs, np.ndarray):
        xs, ys, out = xs.ravel(), ys.ravel(), _flat_at(xs, out)
    return conic_residual(co, (xs[out] - ox) / s, (ys[out] - oy) / s)


def kept_gap(xs, ys, out):
    """The least distance between two of the five vertices fit_six keeps
    when it leaves out vertex out: floats and an int, or (6, n) arrays and
    fit_six's array of left-out indices."""
    if isinstance(xs, np.ndarray):
        kept = _flat_at(xs, _KEPT_T.take(out, axis=1))
        kx, ky = xs.ravel().take(kept), ys.ravel().take(kept)
        return _hypot(kx[_P5_I] - kx[_P5_J], ky[_P5_I] - ky[_P5_J]).min(axis=0)
    kept = _KEPT[out]
    return min(_hypot(xs[kept[i]] - xs[kept[j]], ys[kept[i]] - ys[kept[j]]) for i, j in _PAIRS5)


# Points per chunk of six_point on arrays.  A point takes under 2 KB of
# temporaries (its vertex pair distances, labels and bracket terms), so the
# working set stays under 8 MB however large the grid.
_BATCH_CHUNK = 4096

_FAILED = (CLASS_FAILED, math.nan, math.nan)


def _filled(shape, v):
    """The array v broadcast to shape, as a new flat float array."""
    out = np.empty(shape)
    out[...] = v
    return out.ravel()


def six_point(ax, ay, bx, by, cx, cy, kind, px, py):
    """Fused triad -> five-point fit -> classification: (code, det, disc).

    classify_code's class, det and disc A*C - B^2/4 of the normalized
    coefficients in the frame of fit_six's five vertices (det's sign
    brackets degeneracy boundaries); CLASS_FAILED, NaN and NaN where a
    member degenerates or the fit is zero or not finite.  Elementwise, with
    one KIND_* code for all: floats give an int and floats from plain
    Python, returning early when a member degenerates.  If any argument is
    an ndarray, the outputs are arrays of the arguments' broadcast shape,
    bit for bit the float values: the array arguments are broadcast to
    that shape and run in flat chunks of _BATCH_CHUNK points, and
    the float ones stay floats, so a triangle given as floats has its
    sides, member guard, midpoints and unit vectors computed once a call.
    """
    args = (ax, ay, bx, by, cx, cy, px, py)
    if not any(isinstance(v, np.ndarray) for v in args):
        xs, ys, bad = vertices(ax, ay, bx, by, cx, cy, kind, px, py)
        if bad:
            return _FAILED
        code, det, disc = classify_code(fit_six(xs, ys)[0])
        return _FAILED if code == CLASS_FAILED else (code, det, disc)
    shape = np.broadcast(*args).shape
    flat = [_filled(shape, v) if isinstance(v, np.ndarray) else float(v) for v in args]
    size = math.prod(shape)
    if kind in (KIND_V_ELLIPSE, KIND_V_HYPERBOLA) and not any(isinstance(v, np.ndarray) for v in flat[:6]):
        flat[0] = np.full(size, flat[0])  # V kinds ignore P: corner A carries the shape
    out = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size)
    for lo in range(0, size, _BATCH_CHUNK):
        cut = slice(lo, lo + _BATCH_CHUNK)
        part = [v[cut] if isinstance(v, np.ndarray) else v for v in flat]
        with np.errstate(all="ignore"):
            xs, ys, failed = vertices(*part[:6], kind, *part[6:])
            codes, det, disc = classify_code(fit_six(xs, ys)[0])
        failed |= codes == CLASS_FAILED
        for w, v, fail in zip(out, (codes, det, disc), _FAILED):
            w[cut] = np.where(failed, fail, v)
    return tuple(w.reshape(shape) for w in out)


# Pair k of a triad: members i, j, sharing the focus at corner k.
_PAIR_MEMBERS = ((1, 2), (2, 0), (0, 1))
# The package's one conic-line rule and Newton polish, on unit-norm conics,
# read by pair_points and conic.conic_conic_intersections: a linear root
# where |qa| <= _TINY (none if |qb| is too), a double root down to a
# discriminant of -_DOUBLE_ROOT, Newton while the Jacobian's det is above
# _TINY, points on both to _ON_BOTH, apart by _ON_BOTH * (1 + the largest
# candidate coordinate).
_TINY = 1e-14
_DOUBLE_ROOT = 1e-24 + 1e-30
_POLISH_STEPS = 3
_ON_BOTH = 1e-7


def _div(a, b):
    """a / b, NaN on floats for b == 0: for quotients dropped where b is 0."""
    return a / b if isinstance(b, np.ndarray) or b != 0.0 else math.nan


def _largest(v):
    """The largest of three floats, or elementwise of arrays and floats;
    NaN where one is NaN, on floats as np.maximum gives on arrays."""
    a, b, c = v
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) or isinstance(c, np.ndarray):
        return np.maximum(np.maximum(a, b), c)
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return math.nan  # max skips a NaN that is not first
    return max(a, b, c)


def focal_pairs(ax, ay, bx, by, cx, cy, kind, px, py):
    """The triad's focal pairs in the triangle's frame (`frame`):
    ((gx, gy, s), framed, sides, pairs, bad), with the frame and the
    framed corners of `frame` and the sides of `_sides_deltas`.

    A member with foci F, G and axis L = |delta| is |q - F|^2 = ell(q)^2,
    ell(q) = p - k.(q - F), k = (F - G) / L, p = (L^2 - |F - G|^2) / (2L),
    for ellipses and both branches of hyperbolas.  Pair k's members share
    F, so they differ by (ell_i - ell_j)(ell_i + ell_j) and meet on those
    lines, the paper's pair chords.  pairs[k] is (mi, mj, lines): the unit
    norm coefficients (xx, xy, yy, x, y, 1) and the lines (l, m, n).  bad:
    _sides_deltas' flag or an axis within MEMBER_GUARD of the largest side;
    the rest is meaningless where it is set.  Arrays, or the floats of a
    triad that is not bad: on floats a zero side or axis divides by zero.
    """
    sides, deltas, bad = _sides_deltas(ax, ay, bx, by, cx, cy, kind, px, py)
    lengths, s = [abs(d) for d in deltas], _largest(sides)
    for length in lengths:
        bad = bad | (length <= MEMBER_GUARD * s)
    g, framed = frame(ax, ay, bx, by, cx, cy)
    corners = ((ax, ay), (bx, by), (cx, cy))
    pairs = []
    for k, (i, j) in enumerate(_PAIR_MEMBERS):
        ux, uy = framed[2 * k], framed[2 * k + 1]
        ells, members = [], []
        # Member i's other focus is corner j, member j's corner i.
        for (ox, oy), m in ((corners[j], i), (corners[i], j)):
            side, length = sides[m], lengths[m]
            kx, ky = (corners[k][0] - ox) / length, (corners[k][1] - oy) / length
            c0 = (length - side) * (length + side) / (2.0 * length * s) + kx * ux + ky * uy
            ells.append((c0, kx, ky))
            # |q' - F'|^2 - (c0 - k.q')^2.
            co = (1.0 - kx * kx, -2.0 * kx * ky, 1.0 - ky * ky, 2.0 * (c0 * kx - ux),
                  2.0 * (c0 * ky - uy), ux * ux + uy * uy - c0 * c0)
            n = frobenius(co)
            members.append(tuple(t / n for t in co))
        (ci, kix, kiy), (cj, kjx, kjy) = ells
        lines = ((kjx - kix, kjy - kiy, ci - cj), (-(kix + kjx), -(kiy + kjy), ci + cj))
        pairs.append((*members, lines))
    return g, framed, sides, pairs, bad


def members(pairs):
    """The unit-norm coefficients of members 0, 1 and 2 in focal_pairs'
    frame, from its pairs: each from the pair it comes first in."""
    return tuple(pairs[(m + 2) % 3][0] for m in range(3))


def _value_grad(co, x, y):
    # conic_eval's sum and the gradient.
    A, B, C, D, E, F = co
    value = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    return value, 2.0 * A * x + B * y + D, B * x + 2.0 * C * y + E


def _on_line(co, l, m, n):
    """The conic co on the line l x + m y + n = 0, parametrized from the
    foot (x0, y0) of the origin along the unit direction (dx, dy):
    (x0, y0, dx, dy, qa, qb, qc), co(x0 + t dx, y0 + t dy) = qa t^2 +
    qb t + qc."""
    nrm2 = l * l + m * m
    x0, y0 = _div(-l * n, nrm2), _div(-m * n, nrm2)
    dx, dy = _div(-m, _sqrt(nrm2)), _div(l, _sqrt(nrm2))
    qc, gx, gy = _value_grad(co, x0, y0)
    qa = co[0] * dx * dx + co[1] * dx * dy + co[2] * dy * dy
    return x0, y0, dx, dy, qa, gx * dx + gy * dy, qc


def tangency_disc(co, l, m, n):
    """qb^2 - 4 qa qc of the unit-norm conic co on the line l x + m y + n
    = 0 (_on_line): 0 where the line touches co.  Floats or arrays."""
    *_, qa, qb, qc = _on_line(co, l, m, n)
    return qb * qb - 4.0 * qa * qc


def _line_roots(co, l, m, n):
    """Two candidates (x, y, ok) of the unit-norm conic co on l x + m y + n
    = 0, on arrays."""
    x0, y0, dx, dy, qa, qb, qc = _on_line(co, l, m, n)
    disc = qb * qb - 4.0 * qa * qc
    q = -(qb + np.where(qb < 0.0, -1.0, 1.0) * np.sqrt(np.where(disc > 0.0, disc, 0.0))) / 2.0
    double = -qb / (2.0 * qa)
    t0 = np.where(abs(qa) <= _TINY, -qc / qb, np.where(disc < 0.0, double, q / qa))
    t1 = np.where(q != 0.0, qc / q, double)
    ok0 = ((abs(qa) <= _TINY) & (abs(qb) > _TINY)) | ((abs(qa) > _TINY) & (disc > -_DOUBLE_ROOT))
    ok1 = (abs(qa) > _TINY) & (disc >= 0.0)
    return (x0 + t0 * dx, y0 + t0 * dy, ok0), (x0 + t1 * dx, y0 + t1 * dy, ok1)


def _polish(mi, mj, x, y, ok):
    """Newton steps from (x, y) on the unit-norm mi and mj, on arrays; ok
    if it ends on both."""
    live = ok
    for _ in range(_POLISH_STEPS):
        fi, ix, iy = _value_grad(mi, x, y)
        fj, jx, jy = _value_grad(mj, x, y)
        det = ix * jy - iy * jx
        live = live & (abs(det) >= _TINY)
        x = np.where(live, x + (-fi * jy + fj * iy) / det, x)
        y = np.where(live, y + (-fj * ix + fi * jx) / det, y)
    n2 = x * x + y * y + 1.0
    on_i = abs(_value_grad(mi, x, y)[0]) / n2 <= _ON_BOTH
    on_j = abs(_value_grad(mj, x, y)[0]) / n2 <= _ON_BOTH
    return x, y, ok & on_i & on_j & (abs(x) < math.inf) & (abs(y) < math.inf)


def pair_points(ax, ay, bx, by, cx, cy, kind, px, py):
    """The common points of the triad's focal pairs: (xs, ys, keep, bad),
    pair 0 the "A" pair of the members with foci (C, A) and (A, B).

    Each focal_pairs line meets member i in two candidates, Newton-polished
    on both members in the frame; keep marks those on both and apart from
    the kept ones before them.  The three pairs' four candidates (line 0
    root 0, line 0 root 1, line 1 root 0, line 1 root 1) are stacked so
    each step is one numpy call: arrays of one shape give arrays of shape
    (3, 4) + that shape, keep false where bad.  Floats are a batch of one,
    given back as 3 x 4 nested lists of floats and bools, or (None, None,
    None, True) for a bad triad.
    """
    one = not isinstance(ax, np.ndarray)
    if one:
        ax, ay, bx, by, cx, cy, px, py = np.array([ax, ay, bx, by, cx, cy, px, py], dtype=float)[:, None]
    with np.errstate(all="ignore"):
        (gx, gy, s), _, _, pairs, bad = focal_pairs(ax, ay, bx, by, cx, cy, kind, px, py)
        mi, mj = (tuple(np.array([p[m][c] for p in pairs])[:, None] for c in range(6)) for m in (0, 1))
        lines = (np.array([[line[j] for line in p[2]] for p in pairs]) for j in range(3))
        roots = _line_roots(mi, *lines)  # two of (x, y, ok), each (3, 2) + shape
        x, y, ok = (np.stack(v, axis=2).reshape((3, 4) + bad.shape) for v in zip(*roots))
        big = 0.0
        for k in range(4):
            size = np.where(abs(x[:, k]) > abs(y[:, k]), abs(x[:, k]), abs(y[:, k]))
            big = np.where(ok[:, k] & (size > big), size, big)
        near = _ON_BOTH * (1.0 + big)
        x, y, ok = _polish(mi, mj, x, y, ok)
        for k in range(1, 4):
            for k2 in range(k):
                ok[:, k] &= ~(ok[:, k2] & (_hypot(x[:, k] - x[:, k2], y[:, k] - y[:, k2]) <= near))
        x, y, ok = gx + s * x, gy + s * y, ok & ~bad
    if not one:
        return x, y, ok, bad
    if bad[0]:
        return None, None, None, True
    return x[..., 0].tolist(), y[..., 0].tolist(), ok[..., 0].tolist(), False


def second_point(ax, ay, bx, by, cx, cy, px, py):
    """The second common point P' of the P-hyperbola triad with driver P,
    elementwise as pair_points: (x, y, found), NaN where not found.  A
    triple-common point has P's signed focal differences or their
    negatives (mixed signs force one to vanish), on the branches opposite P
    or, as in the external Soddy regime, on P's.  P' is the first pair point
    beyond 1e-7 s of P (s the largest side) least off either pattern in its
    largest gap, found where that is <= 1e-6 s.  The twelve pair points are
    scored in one call and the first least is taken by argmin.  Floats are
    a batch of one, given back as (float, float, bool).
    """
    one = not isinstance(ax, np.ndarray)
    if one:
        ax, ay, bx, by, cx, cy, px, py = np.array([ax, ay, bx, by, cx, cy, px, py], dtype=float)[:, None]
    xs, ys, keep, _ = pair_points(ax, ay, bx, by, cx, cy, KIND_P_HYPERBOLA, px, py)
    with np.errstate(all="ignore"):
        sides, lam, _ = _sides_deltas(ax, ay, bx, by, cx, cy, KIND_P_HYPERBOLA, px, py)
        s = _largest(sides)
        x, y, ok = (v.reshape((12,) + v.shape[2:]) for v in (xs, ys, keep))
        got = _sides_deltas(ax, ay, bx, by, cx, cy, KIND_P_HYPERBOLA, x, y)[1]
        same = _largest([abs(g - l) for g, l in zip(got, lam)])
        opposite = _largest([abs(g + l) for g, l in zip(got, lam)])
        res = np.where(opposite < same, opposite, same)
        # A NaN or infinite score never beats a strict <.
        res = np.where(ok & (_hypot(x - px, y - py) > 1e-7 * s) & (res < math.inf), res, math.inf)
        first = np.argmin(res, axis=0)[None]
        best, x, y = (np.take_along_axis(v, first, axis=0)[0] for v in (res, x, y))
        # best is inf where no point is kept, which 1e-6 s passes if s is.
        found = (best <= 1e-6 * s) & (best < math.inf)
        x, y = np.where(found, x, math.nan), np.where(found, y, math.nan)
    return (float(x[0]), float(y[0]), bool(found[0])) if one else (x, y, found)
