"""The six-point kernel: the one vertex formula, the one five-point fit
and fit rule, and the one conic classifier, each elementwise on floats
and numpy arrays alike.

These are the primitives of every six-point conic in the package: construct
a triad's six vertices (`vertices`), fit the conic through five of them
(`fit_six`), classify (`classify_code`), and take the residual of the
sixth.  `six_point` runs the whole pipeline.  On floats it is plain Python
(`triads.six_point_conic`, the Brent polish of the verifier's sign scans);
given arrays it runs the same arithmetic, in the same order, on whole grids
of driver points (region maps, the verifier's scan grids and its P2.2,
P3.1, P3.8 and P5.2 trials), and returns bit for bit the float values.
`loci.sample_locus_ostar` calls the pieces directly: the vertices of every
driver on the circumcircle from `vertices`, then `fit_six` and
`frame_center`.

`_sides_deltas` is the triad rule: it takes a triangle and a driver to the
side lengths, the signed focal sums delta or differences lambda of the
three members, and the flag that a member degenerates (a focal sum or
difference within MEMBER_GUARD of the largest side from its collapse).
`triads.build_triad`, `triads.driver_fault`, `triads.triad_vertices`, the
loci's focal quantities and the kernels below all read it, so they agree on
every driver bit for bit.  `vertex_coords` is the vertex formula (side
midpoint +- delta / 2 along the side).  Both run on floats and arrays
alike, with distances as sqrt(dx*dx + dy*dy) (`_hypot`): math.sqrt and
np.sqrt both round correctly, so a float and an array entry give the same
bits.

`fit_six` is the fit rule: leave out the later vertex of the closest vertex
pair (an argmin over the 15 pairs, so it runs on arrays too) and fit the
other five; residual6 is the left-out vertex's residual in the fit's frame.
The rule drops one copy of a degenerate member's vertex pair and one of two
vertices that meet at a triangle corner, where a fit through both would be
ill conditioned.

`fit5` is the package's only five-point fit, in the frame of the five
points (centroid and RMS spread, after Hartley's normalization).  Every
fitted conic is classified in that frame, so its class does not change when
the points are moved, rotated or scaled.  Its coefficients are the cofactor
vector of the framed 5x6 design matrix, coeff_j = (-1)^j det(rows less
column j), computed as the bracket form of the conic through five points
(Pascal's condition as Turnbull's bracket identity, Richter-Gebert,
Perspectives on Projective Geometry, 2011, ch. 10) with the sixth point X
left free:

    C(X) = [123][145] L24(X) L35(X) - [124][135] L23(X) L45(X),

where [ijk] is the 3x3 determinant of framed points i, j, k (twice their
signed area) and Lij(X) = [ijX] the line through points i and j.  This is
the cofactor polynomial itself, sign and scale included, in about 90
floating-point operations and no factorization.  The labels 1..5 follow
one rule: point 1 is the first point of the closest of the ten pairs (ties
to the first pair in itertools.combinations order), points 3 and 4 the
closest pair among the other four, and points 2 and 5 the remaining two in
index order.  No line then passes through point 1 or joins points 3 and 4, and
the brackets, which all hold point 1, are taken as differences from it and
keep their relative accuracy when small.  This keeps the form accurate when
two points nearly meet; with fixed labels it rounds badly there.  The
result is multiplied by the parity of the relabelling, so the orientation
is that of the cofactors of the points in their given order.  The
expression is elementwise: five floats run it in plain Python, a (5, n)
array in numpy, with the same bits.

The cofactors depend polynomially on the framed points and the frame
continuously on the points, so the determinant of the fitted matrix varies
continuously along parameter sweeps (needed for sign-bracketing of
degeneracy boundaries) as long as the left-out vertex stays the same.
Where it changes, the fitted coefficients can change sign: this happens on
P-hyperbola sweeps, never on the V- and P-ellipse sweeps the verifier
brackets det on (none in 400 seeded rays of each).

`classify_code` holds the conic-type policy for the whole package: one
threshold ladder on the Frobenius-normalized coefficients, applied to
floats and arrays alike.  `conic.classify`, `six_point` and the object
path call it.
"""

import itertools
import math

import numpy as np

from .config import DET_DEGENERATE_TOL, DISC_PARABOLA_TOL

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


# fit5's labelling rule, as a table built once: for each point i that can
# be point 1 (the first point of the closest of the ten pairs _PAIRS5), the
# six pairs of the other four points, each with the labels (1, 2, 3, 4, 5)
# it gives (points 3 and 4 the pair, 2 and 5 the other two, in index order)
# and the parity of that permutation.
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
_LABEL_PAIRS = np.array([[pair for pair, _, _ in row] for row in _LABELS])
_LABEL_ORDERS = np.array([[order for _, order, _ in row] for row in _LABELS])
_LABEL_PARITY = np.array([[sign for _, _, sign in row] for row in _LABELS])


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

    (_bracket_conic) of the framed points under the labels 1..5: point 1
    the first point of the closest pair, 3 and 4 the closest pair of the
    other four, 2 and 5 the other two in index order, ties to the first
    pair in itertools.combinations order (the table _LABELS).  The form is
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
    du, dv = u[_P5_I] - u[_P5_J], v[_P5_I] - v[_P5_J]
    d2 = du * du + dv * dv
    cols = np.arange(x.shape[1])
    first = _P5_I[np.argmin(d2, axis=0)]
    rest = d2[_LABEL_PAIRS[first].T, cols]
    k = np.argmin(rest, axis=0)
    order = _LABEL_ORDERS[first, k].T
    u, v = u[order, cols], v[order, cols]
    framed = [t for i in range(5) for t in (u[i], v[i])]
    return _bracket_conic(*framed, _LABEL_PARITY[first, k]), (ox, oy, s)


def frobenius(co):
    """Frobenius norm of the conic matrix of (xx, xy, yy, x, y, 1): a float
    for scalar coefficients, an array for array ones."""
    A, B, C, D, E, F = co
    sq = A * A + C * C + F * F + (B * B + D * D + E * E) / 2.0
    return np.sqrt(sq) if isinstance(sq, np.ndarray) else math.sqrt(sq)


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
    Floats give floats (x and y NaN without a center), arrays give arrays.
    """
    n = frobenius(co)
    A, B, C, D, E, _ = (t / n for t in co)
    disc = A * C - B * B / 4.0
    has_center = abs(disc) > DISC_PARABOLA_TOL
    if not isinstance(disc, np.ndarray) and not has_center:
        return math.nan, math.nan, False
    ox, oy, s = frame
    x = ox + s * (-D / 2.0 * C + E / 2.0 * B / 2.0) / disc
    y = oy + s * (-E / 2.0 * A + D / 2.0 * B / 2.0) / disc
    return x, y, has_center


def _hypot(x, y):
    """sqrt(x*x + y*y), on floats (math.sqrt) or arrays (np.sqrt).

    Both square roots round correctly, so a float and an array entry give
    the same bits, and vertices and fits on arrays are bit for bit those
    on floats.  (np.hypot and math.hypot differ in the last
    bit on about 1% of inputs.)  Coordinates beyond about 1e150 overflow.
    """
    sq = x * x + y * y
    return np.sqrt(sq) if isinstance(sq, np.ndarray) else math.sqrt(sq)


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
    a = _hypot(bx - cx, by - cy)
    b = _hypot(cx - ax, cy - ay)
    c = _hypot(ax - bx, ay - by)
    if isinstance(a, np.ndarray):
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    else:
        lo, hi = min(a, b, c), max(a, b, c)
    eps = MEMBER_GUARD * hi
    bad = lo == 0.0
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
                bad = bad | (abs(di) <= eps) | (abs(di) >= s - eps)
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
        ux, uy = (f1x - f2x) / s, (f1y - f2y) / s
        h = d / 2.0
        xs.extend((mx + h * ux, mx - h * ux))
        ys.extend((my + h * uy, my - h * uy))
    return xs, ys


def vertices(ax, ay, bx, by, cx, cy, kind, px, py):
    """The six vertices of the triad and whether a member degenerates:
    (xs, ys, bad), by _sides_deltas and vertex_coords.

    Floats give two lists of six floats (A1 A2 B1 B2 C1 C2) and a bool;
    a degenerate triad gives (None, None, True), since coincident triangle
    vertices leave a side to divide by zero.  1-d arrays of n drivers or
    triangles give (6, n) arrays and the mask of degenerate columns, whose
    vertices may be non-finite.
    """
    sides, deltas, bad = _sides_deltas(ax, ay, bx, by, cx, cy, kind, px, py)
    if isinstance(bad, np.ndarray):
        xs, ys = vertex_coords(ax, ay, bx, by, cx, cy, sides, deltas)
        return np.stack(xs), np.stack(ys), bad
    if bad:
        return None, None, True
    return (*vertex_coords(ax, ay, bx, by, cx, cy, sides, deltas), False)


# The fit rule: the 15 vertex pairs (i, j), i < j, in order, and for each
# left-out vertex the five kept, in order.
_PAIRS = tuple(itertools.combinations(range(6), 2))
_PAIR_I, _PAIR_J = np.array(_PAIRS).T
_KEPT = tuple(tuple(k for k in range(6) if k != j) for j in range(6))
_KEPT_ARRAY = np.array(_KEPT)


def fit_six(xs, ys):
    """The conic through five of a triad's six vertices, by the package's
    one fit rule: leave out the later vertex of the closest pair (by squared
    distance; the first pair on ties), and fit5 the other five in order.

    The rule drops one copy of a degenerate or near-degenerate member's
    vertex pair, and one of two vertices that meet at a triangle corner.
    xs and ys hold six coordinates each: six floats, or (6, n) arrays.
    Returns (coeffs, frame, out, residual6): fit5's coefficients and frame,
    the index of the left-out vertex, and its conic_residual in the frame.
    Floats give floats and an int, arrays arrays of shape (n,).  The
    squared distances, the first minimum, fit5 and the residual are the
    same IEEE operations in both, so a column gives the bits of its floats.
    """
    if isinstance(xs, np.ndarray):
        dx, dy = xs[_PAIR_I] - xs[_PAIR_J], ys[_PAIR_I] - ys[_PAIR_J]
        out = _PAIR_J[np.argmin(dx * dx + dy * dy, axis=0)]
        cols = np.arange(xs.shape[1])
        kept = _KEPT_ARRAY[out].T
        xo, yo = xs[out, cols], ys[out, cols]
        co, (ox, oy, s) = fit5(xs[kept, cols], ys[kept, cols])
    else:
        d2 = [
            (xs[i] - xs[j]) * (xs[i] - xs[j]) + (ys[i] - ys[j]) * (ys[i] - ys[j])
            for i, j in _PAIRS
        ]
        out = _PAIRS[d2.index(min(d2))][1]
        kept = _KEPT[out]
        xo, yo = xs[out], ys[out]
        co, (ox, oy, s) = fit5([xs[k] for k in kept], [ys[k] for k in kept])
    return co, (ox, oy, s), out, conic_residual(co, (xo - ox) / s, (yo - oy) / s)


# Points per chunk of six_point on arrays.  A point takes under 2 KB of
# temporaries (its vertex pair distances, labels and bracket terms), so the
# working set stays under 8 MB however large the grid.
_BATCH_CHUNK = 4096

_FAILED = (CLASS_FAILED, math.nan, math.nan, math.inf)


def six_point(ax, ay, bx, by, cx, cy, kind, px, py):
    """Fused triad -> five-point fit -> classification: (code, det, disc,
    residual6).

    The class code, the determinant and the discriminant A*C - B^2/4 of
    classify_code, and residual6, all taken in the frame of fit_six's five
    vertices: det and disc are those of the Frobenius-normalized framed
    coefficients (det's sign brackets degeneracy boundaries), residual6 the
    incidence residual of the framed left-out vertex.  Where a member
    degenerates or the fit is zero or not finite, the code is CLASS_FAILED,
    det and disc are NaN and residual6 is inf.

    Elementwise, with one KIND_* code for all.  Floats give a Python int
    and floats, from plain Python with no numpy call, returning early when
    a member degenerates.  If any argument is an ndarray, the arguments are
    broadcast and run in chunks of _BATCH_CHUNK points, and each result is
    an array of the broadcast shape, bit for bit the float values.
    """
    args = (ax, ay, bx, by, cx, cy, px, py)
    if not any(isinstance(v, np.ndarray) for v in args):
        xs, ys, bad = vertices(ax, ay, bx, by, cx, cy, kind, px, py)
        if bad:
            return _FAILED
        co, _, _, res6 = fit_six(xs, ys)
        code, det, disc = classify_code(co)
        return _FAILED if code == CLASS_FAILED else (code, det, disc, res6)
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    flat = [v.ravel() for v in args]
    out = (np.empty(flat[0].size, dtype=np.intp), *(np.empty(flat[0].size) for _ in range(3)))
    for lo in range(0, flat[0].size, _BATCH_CHUNK):
        cut = slice(lo, lo + _BATCH_CHUNK)
        part = [v[cut] for v in flat]
        with np.errstate(all="ignore"):
            xs, ys, failed = vertices(*part[:6], kind, *part[6:])
            co, _, _, res6 = fit_six(xs, ys)
            codes, det, disc = classify_code(co)
        failed |= codes == CLASS_FAILED
        for w, v, fail in zip(out, (codes, det, disc, res6), _FAILED):
            w[cut] = np.where(failed, fail, v)
    return tuple(w.reshape(args[0].shape) for w in out)
