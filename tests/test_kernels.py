import math

import numpy as np
import mpmath
import pytest

from triconic import kernels
from triconic.conic import Conic, classify
from triconic.geom import Point2, Triangle
from triconic.loci import REGION_KINDS, region_map

_CLASS_TO_NAME = {
    "circle": kernels.CLASS_CIRCLE,
    "ellipse": kernels.CLASS_ELLIPSE,
    "parabola": kernels.CLASS_PARABOLA,
    "hyperbola": kernels.CLASS_HYPERBOLA,
    "rectangular_hyperbola": kernels.CLASS_RECTANGULAR_HYPERBOLA,
    "degenerate_two_lines": kernels.CLASS_DEGENERATE_TWO_LINES,
    "degenerate_parallel_lines": kernels.CLASS_DEGENERATE_PARALLEL_LINES,
    "degenerate_point": kernels.CLASS_DEGENERATE_POINT,
}


def _mp_null_vector(xs, ys, frame):
    """Unit null vector of the framed design matrix at 50 digits, from the
    float points and the float frame taken as exact."""
    with mpmath.workdps(50):
        ox, oy, s = (mpmath.mpf(t) for t in frame)
        rows = []
        for x, y in zip(xs, ys):
            u, v = (mpmath.mpf(x) - ox) / s, (mpmath.mpf(y) - oy) / s
            rows.append([u * u, u * v, v * v, u, v, 1])
        co = [
            (-1) ** j * mpmath.det([[r[k] for k in range(6) if k != j] for r in rows])
            for j in range(6)
        ]
        n = mpmath.sqrt(sum(c * c for c in co))
        return [float(c / n) for c in co]


@pytest.mark.parametrize("offset", [(0.0, 0.0), (1e4, -1e4)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_fit5_matches_mpmath_null_vector(offset, scale, rng):
    # fit5 frames the points at their centroid and RMS spread and returns
    # the cofactor null vector of the framed design matrix.  On these
    # well-conditioned sets it agrees with 50 digits to a few ulp.
    for _ in range(40):
        pts = rng.uniform(-1.0, 1.0, (5, 2)) * scale + offset
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        co, frame = kernels.fit5(xs, ys)
        with mpmath.workdps(50):
            mx = [mpmath.mpf(x) for x in xs]
            my = [mpmath.mpf(y) for y in ys]
            cx, cy = sum(mx) / 5, sum(my) / 5
            spread = mpmath.sqrt(sum((x - cx) ** 2 + (y - cy) ** 2 for x, y in zip(mx, my)) / 5)
            want_frame = [float(cx), float(cy), float(spread)]
        assert frame == pytest.approx(want_frame, rel=1e-15, abs=1e-15 * scale)
        got = np.array(co) / np.linalg.norm(co)
        want = np.array(_mp_null_vector(xs, ys, frame))
        err = min(np.abs(got - want).max(), np.abs(got + want).max())
        assert err <= 1e-12, (pts, err)


def test_classify_code_matches_module(rng):
    for _ in range(300):
        co = tuple(rng.uniform(-1, 1, 6))
        if kernels.frobenius(co) < 1e-9:
            continue
        want = classify(Conic.from_coeffs(co)).value
        assert kernels.classify_code(co)[0] == _CLASS_TO_NAME[want]


def _threshold_cases():
    """(coefficients, code) just inside and just outside each threshold of
    classify_code.  Normalized values scale with 1/n: n = sqrt(2) for
    diag(1, -1, f) up to O(f^2), sqrt(1.5) for the parabola family, sqrt(3)
    for the circle and rectangular families and 1 for diag(1, d, 0)."""
    k = kernels
    tol = 1e-10  # DET_DEGENERATE_TOL and DISC_PARABOLA_TOL
    det = tol * 2.0**1.5  # |det| of diag(1, -1, f) / n^3 is about f / 2^1.5
    disc = tol * 1.5  # disc of (1, 0, d, 0, 1, 0) / n^2 is d / 1.5
    axes = tol * math.sqrt(3.0)  # A - C, B and A + C of the circle and rectangular families
    return [
        ((1.0, 0.0, -1.0, 0.0, 0.0, 0.5 * det), k.CLASS_DEGENERATE_TWO_LINES),
        ((1.0, 0.0, -1.0, 0.0, 0.0, 2.0 * det), k.CLASS_RECTANGULAR_HYPERBOLA),
        ((1.0, 0.0, 0.5 * tol, 0.0, 0.0, 0.0), k.CLASS_DEGENERATE_PARALLEL_LINES),
        ((1.0, 0.0, 2.0 * tol, 0.0, 0.0, 0.0), k.CLASS_DEGENERATE_POINT),
        ((1.0, 0.0, -2.0 * tol, 0.0, 0.0, 0.0), k.CLASS_DEGENERATE_TWO_LINES),
        ((1.0, 0.0, 0.5 * disc, 0.0, 1.0, 0.0), k.CLASS_PARABOLA),
        ((1.0, 0.0, -0.5 * disc, 0.0, 1.0, 0.0), k.CLASS_PARABOLA),
        ((1.0, 0.0, 2.0 * disc, 0.0, 1.0, 0.0), k.CLASS_ELLIPSE),
        ((1.0, 0.0, -2.0 * disc, 0.0, 1.0, 0.0), k.CLASS_HYPERBOLA),
        ((1.0, 0.0, 1.0 + 0.5 * axes, 0.0, 0.0, -1.0), k.CLASS_CIRCLE),
        ((1.0, 0.0, 1.0 + 2.0 * axes, 0.0, 0.0, -1.0), k.CLASS_ELLIPSE),
        ((1.0, axes, 1.0, 0.0, 0.0, -1.0), k.CLASS_CIRCLE),
        ((1.0, 4.0 * axes, 1.0, 0.0, 0.0, -1.0), k.CLASS_ELLIPSE),
        ((1.0, 0.0, -1.0 + 0.5 * axes, 0.0, 0.0, -1.0), k.CLASS_RECTANGULAR_HYPERBOLA),
        ((1.0, 0.0, -1.0 + 2.0 * axes, 0.0, 0.0, -1.0), k.CLASS_HYPERBOLA),
        ((0.0,) * 6, k.CLASS_FAILED),
        ((1.0, 0.0, math.nan, 0.0, 0.0, -1.0), k.CLASS_FAILED),
        ((1.0, 0.0, math.inf, 0.0, 0.0, -1.0), k.CLASS_FAILED),
    ]


def test_classify_code_thresholds_agree_on_floats_scalars_and_arrays():
    cases = _threshold_cases()
    with np.errstate(all="ignore"):
        codes, dets, discs = kernels.classify_code(np.array([co for co, _ in cases]).T)
        scalars = [kernels.classify_code(tuple(np.float64(t) for t in co)) for co, _ in cases]
    assert codes.tolist() == [want for _, want in cases]
    for (co, want), scalar, det, disc in zip(cases, scalars, dets, discs):
        got = kernels.classify_code(co)
        assert type(got[0]) is int and got[0] == want and scalar[0] == want, co
        if want != kernels.CLASS_FAILED:
            assert got[1:] == scalar[1:] == (det, disc), co


def test_six_point_matches_module(rng, t_generic):
    from triconic.triads import build_triad, six_point_conic

    t = t_generic
    for _ in range(50):
        px, py = rng.uniform(-0.5, 1.5, 2)
        st, code, res6, detn, co = kernels.six_point(
            t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_ELLIPSE, px, py
        )
        if st:
            continue
        rep = six_point_conic(build_triad(t, "p_ellipse", Point2(px, py)))
        assert code == _CLASS_TO_NAME[rep.conic_class.value]
        assert res6 <= 1e-10


def test_six_point_coincident_vertices_fail_cleanly():
    # C on A: side b has length zero, so the V-ellipse triad has no member
    # through it; the kernel reports a failed construction.
    args = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, kernels.KIND_V_ELLIPSE, 0.0, 0.0)
    assert kernels.triad_vertices12(*args) is None
    status, code, res6, _, coeffs = kernels.six_point(*args)
    assert (status, code, res6, coeffs) == (1, kernels.CLASS_FAILED, math.inf, None)


def _scalar_region_classes(t, kind, grid):
    """Per-cell six_point classes of region_map, one scalar call a cell."""
    kcode = {
        "v_ellipse_over_C": kernels.KIND_V_ELLIPSE,
        "p_ellipse_over_P": kernels.KIND_P_ELLIPSE,
        "p_hyperbola_over_P": kernels.KIND_P_HYPERBOLA,
    }[kind]
    rows = []
    for j in range(grid.ny):
        row = []
        for i in range(grid.nx):
            x, y = grid.cell_center(i, j)
            if kind == "v_ellipse_over_C":
                args = (t.a.x, t.a.y, t.b.x, t.b.y, x, y, kcode, 0.0, 0.0)
            else:
                args = (t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kcode, x, y)
            status, code, _, _, _ = kernels.six_point(*args)
            row.append(kernels.CLASS_NAMES[kernels.CLASS_FAILED if status else code])
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (10.0, 10.0), (100.0, 100.0)])
def test_region_map_batch_matches_scalar(offset, monkeypatch):
    # Each 625-cell map then runs in several chunks and a partial last one.
    monkeypatch.setattr(kernels, "_BATCH_CHUNK", 97)
    ox, oy = offset
    # A 25x25 grid on this box puts cell centres exactly on the lines x = ox
    # and y = oy, which hold a side of the 3-4-5 and of the equilateral
    # triangle: there a P-triad member degenerates.
    bbox = (ox - 3.125, ox + 3.125, oy - 3.125, oy + 3.125)
    failed = 0
    for verts in (
        ((0.0, 3.0), (4.0, 0.0), (0.0, 0.0)),
        ((0.1, 0.2), (1.3, 0.15), (0.5, 1.1)),
        ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
    ):
        t = Triangle(*(Point2(x + ox, y + oy) for x, y in verts))
        for kind in REGION_KINDS:
            grid = region_map(t, kind, (25, 25), bbox)
            assert grid.cells == _scalar_region_classes(t, kind, grid), (verts, kind)
            failed += sum(row.count("degenerate") for row in grid.cells)
    assert failed > 0


def test_batch_fit_is_bit_identical(rng):
    # Same arithmetic in the same order: vertices and cofactor fits agree
    # with the scalar kernel to the last bit, translated inputs included.
    for offset in (0.0, 100.0):
        for kind in range(4):
            vals = rng.uniform(-1.0, 2.0, (8, 300)) + offset
            xs, ys, bad = kernels._vertices_batch(*vals[:6], kind, vals[6], vals[7])
            coeffs = np.array(kernels.fit5(xs[:5], ys[:5])[0])
            for i in range(vals.shape[1]):
                args = vals[:, i].tolist()
                v = kernels.triad_vertices12(*args[:6], kind, *args[6:])
                assert bad[i] == (v is None)
                if v is None:
                    continue
                assert xs[:, i].tolist() == list(v[0::2])
                assert ys[:, i].tolist() == list(v[1::2])
                assert coeffs[:, i].tolist() == list(
                    kernels.fit5(v[0:10:2], v[1:10:2])[0]
                )


def test_backend_is_py():
    assert kernels.BACKEND == "py"
    assert kernels.KIND_CODES["v_ellipse"] == kernels.KIND_V_ELLIPSE
    assert kernels.CLASS_NAMES[kernels.CLASS_FAILED] == "degenerate"


@pytest.mark.parametrize("offset", [(0.0, 0.0), (10.0, 10.0), (100.0, 100.0)])
@pytest.mark.parametrize(
    "kind", [kernels.KIND_V_ELLIPSE, kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA]
)
def test_six_point_batch_det_disc_match_scalar(kind, offset, rng):
    # det and disc of the batch kernel are six_point's det_normalized and
    # classify_code's disc to the last bit; failed columns are NaN.
    ox, oy = offset
    ax, ay, bx, by, cx, cy = 0.0 + ox, 3.0 + oy, 4.0 + ox, 0.0 + oy, 0.0 + ox, 0.0 + oy
    # Random drivers, plus drivers on the line x = ox through side CA (a
    # P-triad member degenerates there) and on vertex A (side b vanishes
    # when C is driven onto it).
    xs = np.concatenate([rng.uniform(-2.0, 6.0, 300) + ox, np.full(15, ox), [ax]])
    ys = np.concatenate([rng.uniform(-2.0, 5.0, 300) + oy, np.linspace(-2.0, 5.0, 15) + oy, [ay]])
    if kind == kernels.KIND_V_ELLIPSE:
        args = (ax, ay, bx, by, xs, ys, kind, 0.0, 0.0)
    else:
        args = (ax, ay, bx, by, cx, cy, kind, xs, ys)
    codes, det, disc = kernels.six_point_batch(*args)
    failed = 0
    for i in range(xs.size):
        one = [v if np.isscalar(v) else float(v[i]) for v in args]
        status, code, _, detn, co = kernels.six_point(*one)
        if status:
            failed += 1
            assert codes[i] == kernels.CLASS_FAILED
            assert math.isnan(det[i]) and math.isnan(disc[i])
        else:
            assert codes[i] == code
            assert det[i].item() == detn
            assert disc[i].item() == kernels.classify_code(co)[2]
    assert failed > 0
