"""Six-point kernels, scalar and numpy batch, and the one conic classifier.

These are the inner-loop primitives used by region maps, the verifier and
the O* locus sweep: construct a triad's six vertices, fit the conic through
five of them by cofactor expansion, classify, and evaluate residuals.  The
scalar functions serve one-off calls (the Brent polish of the verifier's
sign scans) and are the reference in tests; `six_point_batch` runs the same
arithmetic, in the same order, on whole grids of driver points (region maps
and the verifier's scan grids), and returns the normalized determinant and
discriminant beside the class codes, bit for bit the scalar values.
`loci.sample_locus_ostar` calls the batch pieces directly: the vertices of
every driver on the circumcircle from `_vertices_batch`, and `_fit5_batch`
on five of them moved into their own frame (centroid and RMS spread, the
frame of `conic.fit_conic_5pts`), where it finds each conic's center.

`classify_code` holds the conic-type policy for the whole package: one
threshold ladder on the Frobenius-normalized coefficients, applied to
floats and arrays alike.  `conic.classify`, both six-point kernels and the
verifier's parabola checks call it.

The cofactor five-point fit depends polynomially on the input points, so
the determinant of the fitted matrix varies continuously along parameter
sweeps (needed for sign-bracketing of degeneracy boundaries).  The object
API's `conic.fit_conic_5pts` fits by SVD instead, in the same frame;
tests/test_kernels.py checks that the two fits agree.
"""

import itertools
import math

import numpy as np

from .config import DET_DEGENERATE_TOL, DISC_PARABOLA_TOL

# Reported as the verify report's kernel_backend; the scalar and batch
# kernels are both plain Python + numpy.
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


def det5(m):
    """Determinant of a 5x5 row-major nested list, partial pivoting."""
    a = [row[:] for row in m]
    det = 1.0
    for col in range(5):
        piv = col
        best = abs(a[col][col])
        for r in range(col + 1, 5):
            v = abs(a[r][col])
            if v > best:
                best = v
                piv = r
        if best == 0.0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, 5):
            f = a[r][col] * inv
            if f != 0.0:
                for cc in range(col, 5):
                    a[r][cc] -= f * a[col][cc]
    return det


def fit5_cofactor(xs, ys):
    """Conic coefficients (xx, xy, yy, x, y, 1) through 5 points.

    coeff_j = (-1)^j det(design matrix with column j removed).
    """
    rows = []
    for x, y in zip(xs, ys):
        rows.append([x * x, x * y, y * y, x, y, 1.0])
    coeffs = []
    sign = 1.0
    for j in range(6):
        sub = [[row[k] for k in range(6) if k != j] for row in rows]
        coeffs.append(sign * det5(sub))
        sign = -sign
    return tuple(coeffs)


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
    n = frobenius(co)
    if n == 0.0:
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


def triad_vertices12(ax, ay, bx, by, cx, cy, kind, px, py):
    """Twelve vertex coordinates (A1 A2 B1 B2 C1 C2) or None if a member
    degenerates, coincident vertices included."""
    a = math.hypot(bx - cx, by - cy)
    b = math.hypot(cx - ax, cy - ay)
    c = math.hypot(ax - bx, ay - by)
    if min(a, b, c) == 0.0:
        return None
    scale = max(a, b, c)
    if kind == KIND_V_ELLIPSE:
        d1, d2, d3 = b + c, c + a, a + b
    elif kind == KIND_P_ELLIPSE:
        pb = math.hypot(px - bx, py - by)
        pc = math.hypot(px - cx, py - cy)
        pa = math.hypot(px - ax, py - ay)
        d1, d2, d3 = pb + pc, pc + pa, pa + pb
        if d1 <= a + 1e-12 * scale or d2 <= b + 1e-12 * scale or d3 <= c + 1e-12 * scale:
            return None
    elif kind == KIND_V_HYPERBOLA:
        d1, d2, d3 = c - b, a - c, b - a
        if (
            abs(d1) <= 1e-12 * scale
            or abs(d2) <= 1e-12 * scale
            or abs(d3) <= 1e-12 * scale
        ):
            return None
    elif kind == KIND_P_HYPERBOLA:
        pb = math.hypot(px - bx, py - by)
        pc = math.hypot(px - cx, py - cy)
        pa = math.hypot(px - ax, py - ay)
        d1, d2, d3 = pb - pc, pc - pa, pa - pb
        for d, s in ((d1, a), (d2, b), (d3, c)):
            if abs(d) <= 1e-12 * scale or abs(d) >= s - 1e-12 * scale:
                return None
    else:
        raise ValueError(f"unknown kind code {kind}")
    out = []
    for (f1x, f1y, f2x, f2y), d, s in (
        ((bx, by, cx, cy), d1, a),
        ((cx, cy, ax, ay), d2, b),
        ((ax, ay, bx, by), d3, c),
    ):
        mx, my = (f1x + f2x) / 2.0, (f1y + f2y) / 2.0
        ux, uy = (f1x - f2x) / s, (f1y - f2y) / s
        h = d / 2.0
        out.extend((mx + h * ux, my + h * uy, mx - h * ux, my - h * uy))
    return tuple(out)


def six_point(ax, ay, bx, by, cx, cy, kind, px, py):
    """Fused triad -> five-point fit -> classification.

    Returns (status, class_code, residual6, det_normalized, coeffs):
    status 0 on success, 1 when a member degenerates or the fit is zero or
    not finite (coeffs then None).
    residual6 is the incidence residual of the sixth vertex on the conic
    fitted through the first five; det_normalized is det of the
    Frobenius-normalized matrix (its sign brackets degeneracy boundaries).
    """
    v = triad_vertices12(ax, ay, bx, by, cx, cy, kind, px, py)
    if v is None:
        return (1, CLASS_FAILED, math.inf, 0.0, None)
    xs = v[0::2]
    ys = v[1::2]
    co = fit5_cofactor(xs[:5], ys[:5])
    code, detn, _ = classify_code(co)
    if code == CLASS_FAILED:
        return (1, CLASS_FAILED, math.inf, 0.0, None)
    return (0, code, conic_residual(co, xs[5], ys[5]), detn, co)


# ---------------------------------------------------------------------------
# Batch kernel: the scalar arithmetic above, in the same order, on arrays
# ---------------------------------------------------------------------------


_math_hypot = np.frompyfunc(math.hypot, 2, 1)


def _hypot(x, y):
    # math.hypot, not np.hypot: the two differ in the last bit on about 1%
    # of inputs, and with math.hypot the batch kernel's vertices and fits
    # are bit for bit those of the scalar kernel.  Scalars give a float.
    h = _math_hypot(x, y)
    return h.astype(float) if isinstance(h, np.ndarray) else float(h)


def _det5_batch(m):
    """det5 of each matrix in a stack of shape (5, 5, n), same pivoting.

    The stack runs along the last axis so that every step works on
    contiguous rows of n values.
    """
    a = m.copy()
    n = a.shape[2]
    det = np.ones(n)
    zero = np.zeros(n, dtype=bool)
    for col in range(5):
        # argmax picks the first largest, as det5's strict comparison does.
        piv = col + np.argmax(np.abs(a[col:, col]), axis=0)
        top = np.take_along_axis(a, np.broadcast_to(piv, (1, 5, n)), axis=0)[0]
        for r in range(col + 1, 5):
            a[r] = np.where(piv == r, a[col], a[r])
        a[col] = top
        zero |= top[col] == 0.0
        det = np.where(piv != col, -det, det)
        det *= a[col, col]
        inv = 1.0 / a[col, col]
        f = a[col + 1 :, col] * inv
        a[col + 1 :, col:] -= f[:, None, :] * a[col, col:]
    det[zero] = 0.0
    return det


def _fit5_batch(xs, ys):
    """fit5_cofactor of each column of five points (xs, ys of shape (5, n))."""
    rows = np.stack([xs * xs, xs * ys, ys * ys, xs, ys, np.ones_like(xs)], axis=1)
    # The six 5x5 minors of every design matrix go through one det call.
    minors = np.concatenate([np.delete(rows, j, axis=1) for j in range(6)], axis=2)
    dets = _det5_batch(minors).reshape(6, xs.shape[1])
    return tuple(sign * d for sign, d in zip((1.0, -1.0) * 3, dets))


def _vertices_batch(ax, ay, bx, by, cx, cy, kind, px, py):
    """triad_vertices12 on 1-d arrays: vertex xs and ys of shape (6, n) in
    the order A1 A2 B1 B2 C1 C2, and the mask of columns where a member
    degenerates."""
    a = _hypot(bx - cx, by - cy)
    b = _hypot(cx - ax, cy - ay)
    c = _hypot(ax - bx, ay - by)
    scale = np.maximum(np.maximum(a, b), c)
    eps = 1e-12 * scale
    if kind == KIND_V_ELLIPSE:
        d1, d2, d3 = b + c, c + a, a + b
        bad = np.zeros(a.shape, dtype=bool)
    elif kind == KIND_P_ELLIPSE:
        pb = _hypot(px - bx, py - by)
        pc = _hypot(px - cx, py - cy)
        pa = _hypot(px - ax, py - ay)
        d1, d2, d3 = pb + pc, pc + pa, pa + pb
        bad = (d1 <= a + eps) | (d2 <= b + eps) | (d3 <= c + eps)
    elif kind == KIND_V_HYPERBOLA:
        d1, d2, d3 = c - b, a - c, b - a
        bad = (np.abs(d1) <= eps) | (np.abs(d2) <= eps) | (np.abs(d3) <= eps)
    elif kind == KIND_P_HYPERBOLA:
        pb = _hypot(px - bx, py - by)
        pc = _hypot(px - cx, py - cy)
        pa = _hypot(px - ax, py - ay)
        d1, d2, d3 = pb - pc, pc - pa, pa - pb
        bad = np.zeros(a.shape, dtype=bool)
        for d, s in ((d1, a), (d2, b), (d3, c)):
            bad |= (np.abs(d) <= eps) | (np.abs(d) >= s - eps)
    else:
        raise ValueError(f"unknown kind code {kind}")
    bad |= np.minimum(np.minimum(a, b), c) == 0.0
    xs, ys = [], []
    for (f1x, f1y, f2x, f2y), d, s in (
        ((bx, by, cx, cy), d1, a),
        ((cx, cy, ax, ay), d2, b),
        ((ax, ay, bx, by), d3, c),
    ):
        mx, my = (f1x + f2x) / 2.0, (f1y + f2y) / 2.0
        ux, uy = (f1x - f2x) / s, (f1y - f2y) / s
        h = d / 2.0
        xs.extend((mx + h * ux, mx - h * ux))
        ys.extend((my + h * uy, my - h * uy))
    return np.stack(xs), np.stack(ys), bad


# Points per chunk of six_point_batch.  A point takes about 4 KB of
# temporaries (six 5x5 minors and their elimination), so the working set
# stays near 20 MB however large the grid.
_BATCH_CHUNK = 4096


def six_point_batch(ax, ay, bx, by, cx, cy, kind, px, py):
    """six_point over broadcastable arrays of the inputs: the class codes,
    and the normalized determinant and discriminant of classify_code.

    `kind` is one KIND_* code for the whole batch.  Each result has the
    broadcast shape.  Wherever six_point reports a failure (a member
    degenerates, or the fit is zero or not finite) the code is
    CLASS_FAILED and det and disc are NaN; elsewhere they are bit for bit
    six_point's det_normalized and classify_code's disc.
    """
    args = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (ax, ay, bx, by, cx, cy, px, py))
    )
    flat = [v.ravel() for v in args]
    codes = np.empty(flat[0].size, dtype=np.intp)
    det = np.empty(flat[0].size)
    disc = np.empty(flat[0].size)
    for lo in range(0, codes.size, _BATCH_CHUNK):
        cut = slice(lo, lo + _BATCH_CHUNK)
        part = [v[cut] for v in flat]
        codes[cut], det[cut], disc[cut] = _codes(*part[:6], kind, *part[6:])
    shape = args[0].shape
    return codes.reshape(shape), det.reshape(shape), disc.reshape(shape)


def _codes(ax, ay, bx, by, cx, cy, kind, px, py):
    """six_point_batch on 1-d arrays of equal length."""
    with np.errstate(all="ignore"):
        xs, ys, failed = _vertices_batch(ax, ay, bx, by, cx, cy, kind, px, py)
        codes, det, disc = classify_code(_fit5_batch(xs[:5], ys[:5]))
    failed |= codes == CLASS_FAILED
    return (
        np.where(failed, CLASS_FAILED, codes),
        np.where(failed, math.nan, det),
        np.where(failed, math.nan, disc),
    )
