import functools
import itertools
import math

import numpy as np
import mpmath
import pytest

from reference_checks import covertices_of_focal_conic, pair_points_on_floats, second_point_on_floats
from triconic import kernels, verify
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


def _mp_error(xs, ys):
    """Largest coefficient error of fit5's unit coefficient vector against
    _mp_null_vector, signs compared as they are."""
    co, frame = kernels.fit5(xs, ys)
    got = np.array(co) / np.linalg.norm(co)
    return np.abs(got - np.array(_mp_null_vector(xs, ys, frame))).max()


@pytest.mark.parametrize("offset", [(0.0, 0.0), (1e4, -1e4)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_fit5_matches_mpmath_null_vector(offset, scale, rng):
    # fit5 frames the points at their centroid and RMS spread and returns
    # the cofactor null vector of the framed design matrix, with its sign.
    # On these well-conditioned sets it agrees with 50 digits to a few ulp.
    for _ in range(40):
        pts = rng.uniform(-1.0, 1.0, (5, 2)) * scale + offset
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        frame = kernels.fit5(xs, ys)[1]
        with mpmath.workdps(50):
            mx = [mpmath.mpf(x) for x in xs]
            my = [mpmath.mpf(y) for y in ys]
            cx, cy = sum(mx) / 5, sum(my) / 5
            spread = mpmath.sqrt(sum((x - cx) ** 2 + (y - cy) ** 2 for x, y in zip(mx, my)) / 5)
            want_frame = [float(cx), float(cy), float(spread)]
        assert frame == pytest.approx(want_frame, rel=1e-15, abs=1e-15 * scale)
        err = _mp_error(xs, ys)
        assert err <= 1e-12, (pts, err)


# The five kept vertices of the P-hyperbola triads of both P5.4 circle
# points of the near-collinear triangle of
# test_frame_invariance::test_circle_pair_of_a_near_collinear_triangle
# (verify --prop P5.4-circle-pair --seed 2 --trials 200): two pairs of
# them lie 2.8e-4 and 7.5e-5 apart.  LU cofactors are off by 3.2e-12 here.
_P54_WITNESS_SETS = [
    (
        [0.7004830592928877, 0.567853524494675, 0.8125945704461561,
         0.8125252772541318, 0.7007338809913624],
        [0.4566367711684858, 0.487800637418787, 0.416722161117403,
         0.416750958015662, 0.4565618456769711],
    ),
    (
        [0.567853524494675, 0.7004830592928877, 0.8125945704461561,
         0.7007338809913624, 0.8125252772541318],
        [0.487800637418787, 0.4566367711684858, 0.416722161117403,
         0.4565618456769711, 0.416750958015662],
    ),
]


@pytest.mark.parametrize("which", [0, 1])
def test_fit5_matches_mpmath_null_vector_at_near_collinear_witnesses(which):
    xs, ys = _P54_WITNESS_SETS[which]
    assert _mp_error(xs, ys) <= 1e-12


_MINOR_COLUMNS = np.array([[k for k in range(6) if k != j] for j in range(6)])
_COFACTOR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _lu_cofactors(xs, ys):
    """The oracle: fit5's cofactors as six 5x5 minors of the framed design
    matrix, each factored by np.linalg.det, coeff_j = (-1)^j det(rows less
    column j), in fit5's frame.  (5, n) arrays in, a (6, n) array out."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ox = (x[0] + x[1] + x[2] + x[3] + x[4]) / 5.0
    oy = (y[0] + y[1] + y[2] + y[3] + y[4]) / 5.0
    u, v = x - ox, y - oy
    r2 = u * u + v * v
    s = np.sqrt((r2[0] + r2[1] + r2[2] + r2[3] + r2[4]) / 5.0)
    u, v = (u / s).T, (v / s).T
    rows = np.stack([u * u, u * v, v * v, u, v, np.ones_like(u)], axis=-1)
    return (np.linalg.det(rows[:, :, _MINOR_COLUMNS].swapaxes(1, 2)) * _COFACTOR_SIGNS).T


def _relative_to_lu(xs, ys):
    """Per point set, the largest difference between fit5's and the LU
    cofactors over the norm of the LU ones (signs as they are)."""
    got = np.array(kernels.fit5(xs, ys)[0])
    want = _lu_cofactors(xs, ys)
    return np.abs(got - want).max(axis=0) / np.linalg.norm(want, axis=0)


def _permuted(pts):
    """(5, 120) xs and ys of the 120 orders of five (x, y) points."""
    orders = np.array(list(itertools.permutations(range(5)))).T
    return pts[orders, 0], pts[orders, 1]


def test_fit5_matches_lu_cofactors_with_their_sign(rng):
    # The bracket form is the cofactor polynomial itself, not a multiple of
    # it: same scale and same sign, on floats and on arrays.
    pts = rng.uniform(-1.0, 1.0, (5, 2, 400)) * 10.0 ** rng.uniform(-3, 3, 400)
    pts += rng.uniform(-100.0, 100.0, (2, 400))
    assert _relative_to_lu(pts[:, 0], pts[:, 1]).max() <= 1e-12
    for i in range(20):
        xs, ys = pts[:, 0, i].tolist(), pts[:, 1, i].tolist()
        got = np.array(kernels.fit5(xs, ys)[0])
        want = _lu_cofactors(np.array(xs)[:, None], np.array(ys)[:, None])[:, 0]
        assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(want), i


def test_fit5_sign_follows_the_order_of_the_points(rng):
    # All 120 orders of each set: every labelling the closest-pair rule can
    # pick, each with its parity, against the LU cofactors of that order.
    for _ in range(10):
        xs, ys = _permuted(rng.uniform(-1.0, 1.0, (5, 2)))
        assert _relative_to_lu(xs, ys).max() <= 1e-12


def test_fit5_on_near_degenerate_sets(rng):
    # Two close pairs and five points within 1e-6 of a line pair, each in
    # all 120 orders: fit5 matches the LU cofactors with their sign.  With
    # pairs `gap` apart both fits lose about 1e-16 / gap to the rounding of
    # the framed points (up to 6e-16 / gap in 150 seeded sets of 1e-2 to
    # 1e-7), so the bound is 1e-14 / gap: 1e-12 at 1e-2.
    for gap in (1e-2, 1e-4, 1e-7):
        for _ in range(5):
            pts = rng.uniform(-1.0, 1.0, (5, 2))
            pts[1] = pts[0] + gap * rng.normal(size=2)
            pts[3] = pts[2] + gap * rng.normal(size=2)
            assert _relative_to_lu(*_permuted(pts)).max() <= 1e-14 / gap, (gap, pts)
    for _ in range(5):
        t = rng.uniform(-1.0, 1.0, 5)
        pts = np.stack([t, 0.3 * t + 0.1], axis=1)
        pts[3:, 1] = 0.5 - 2.0 * pts[3:, 0]
        pts += 1e-6 * rng.normal(size=(5, 2))
        assert _relative_to_lu(*_permuted(pts)).max() <= 1e-12, pts


def _tied_sets():
    """Five-point sets with exactly or nearly tied pair distances."""
    k = np.arange(5)
    pentagon = np.stack([np.cos(2 * np.pi * k / 5), np.sin(2 * np.pi * k / 5)], axis=1)
    sets = [
        pentagon,
        pentagon * 1e3 + (1e4, -1e4),
        pentagon[::-1],
        np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]),
        np.array([(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
        np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.0, 2.0), (2.0, 2.0)]),
        np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)]),
        np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
    ]
    return sets


def test_fit5_tied_distances_same_bits_on_floats_and_arrays():
    sets = _tied_sets()
    stack = np.stack(sets, axis=-1)
    co, frame = kernels.fit5(stack[:, 0], stack[:, 1])
    for i, pts in enumerate(sets):
        one_co, one_frame = kernels.fit5(pts[:, 0].tolist(), pts[:, 1].tolist())
        assert [c[i].item() for c in co] == list(one_co), i
        assert [f[i].item() for f in frame] == list(one_frame), i
    # The sets that determine a conic also match the LU cofactors.
    rel = _relative_to_lu(stack[:, 0, :-1], stack[:, 1, :-1])
    assert rel.max() <= 1e-12


def test_fit5_of_five_coincident_points_is_nan():
    # Zero spread: NaN coefficients on floats (no ZeroDivisionError) and
    # on arrays alike, which fit_framed reports as RankDeficient.
    from triconic.conic import fit_framed
    from triconic.errors import RankDeficient

    co, frame = kernels.fit5([0.5] * 5, [-2.0] * 5)
    assert all(math.isnan(c) for c in co) and frame == (0.5, -2.0, 0.0)
    with np.errstate(all="ignore"):
        batch = kernels.fit5(np.full((5, 2), 0.5), np.full((5, 2), -2.0))[0]
    assert np.isnan(np.array(batch)).all()
    with pytest.raises(RankDeficient):
        fit_framed([Point2(0.5, -2.0)] * 5)


def test_fit5_on_floats_runs_no_numpy(monkeypatch):
    class NoNumpy:
        ndarray = np.ndarray

        def __getattr__(self, name):
            raise AssertionError(f"fit5 used np.{name}")

    xs, ys = [0.1, 1.3, 0.5, 0.9, 0.2], [0.2, 0.15, 1.1, 0.7, 0.8]
    want = kernels.fit5(xs, ys)
    monkeypatch.setattr(kernels, "np", NoNumpy())
    got = kernels.fit5(xs, ys)
    assert got == want
    assert all(type(t) is float for t in (*got[0], *got[1]))


@pytest.mark.parametrize("kind", range(4))
def test_six_point_on_floats_runs_no_numpy(kind, monkeypatch):
    class NoNumpy:
        ndarray = np.ndarray

        def __getattr__(self, name):
            raise AssertionError(f"six_point used np.{name}")

    good = (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, kind, 0.9, 0.7)
    degenerate = (0.1, 0.2, 1.3, 0.15, 0.1, 0.2, kind, 0.9, 0.7)  # C on A
    want = [kernels.six_point(*args) for args in (good, degenerate)]
    monkeypatch.setattr(kernels, "np", NoNumpy())
    got = [kernels.six_point(*args) for args in (good, degenerate)]
    assert got[0] == want[0] and got[0][0] != kernels.CLASS_FAILED
    _assert_failed(got[1])
    for code, *values in got:
        assert type(code) is int and all(type(v) is float for v in values)


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
        args = (t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_ELLIPSE, px, py)
        code = kernels.six_point(*args)[0]
        if code == kernels.CLASS_FAILED:
            continue
        rep = six_point_conic(build_triad(t, "p_ellipse", Point2(px, py)))
        assert code == _CLASS_TO_NAME[rep.conic_class.value]
        assert _residual6(*args) <= 1e-10


def _residual6(*args):
    """kernels.residual6 of the triad's vertices and their fit_six, on
    floats or 1-d arrays."""
    xs, ys, _ = kernels.vertices(*args)
    return kernels.residual6(xs, ys, kernels.fit_six(xs, ys))


def _assert_failed(result):
    """six_point's failure: CLASS_FAILED, det and disc NaN."""
    code, det, disc = result
    assert code == kernels.CLASS_FAILED
    assert math.isnan(det) and math.isnan(disc)


def test_six_point_coincident_vertices_fail_cleanly():
    # C on A: side b has length zero, so the V-ellipse triad has no member
    # through it; the kernel reports a failed construction, on floats and
    # in an array column alike.
    args = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, kernels.KIND_V_ELLIPSE, 0.0, 0.0)
    xs, ys, bad = kernels.vertices(*args)
    # The member on side b has no vertices: NaN, as in an array column.
    assert bad
    assert [math.isnan(x) for x in xs] == [math.isnan(y) for y in ys] == [False, False, True, True, False, False]
    _assert_failed(kernels.six_point(*args))
    column = kernels.six_point(*args[:4], np.array([0.0]), np.array([0.0]), *args[6:])
    _assert_failed([w[0].item() for w in column])


def test_largest_and_collinear_read_a_nan_on_floats_as_on_arrays():
    # On floats _largest is NaN where any of its three is, wherever the NaN
    # stands, as np.maximum is on arrays; so collinear gives corners with
    # a NaN side the same verdict, false, on floats and in an array column.
    for v in {*itertools.permutations((0.0, 1.0, math.nan)), *itertools.permutations((0.0, math.nan, math.nan))}:
        assert math.isnan(kernels._largest(v)), v
        assert math.isnan(kernels._largest([np.array([t]) for t in v])[0]), v
    assert kernels._largest((1.0, 3.0, 2.0)) == 3.0
    corners = (0.0, 0.0, 0.0, 0.0, math.nan, 0.0)
    for sides in ((0.0, math.nan, math.nan), (math.nan, math.nan, 0.0)):
        column = kernels.collinear(*(np.array([v]) for v in corners), [np.array([v]) for v in sides])
        assert kernels.collinear(*corners, sides) is column[0].item() is False, sides


def _scalar_region_classes(t, kind, grid):
    """Per-cell six_point classes of region_map, one call on floats a cell."""
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
            row.append(kernels.CLASS_NAMES[kernels.six_point(*args)[0]])
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (10.0, 10.0), (100.0, 100.0)])
@pytest.mark.parametrize("chunk", [97, 20])
def test_region_map_batch_matches_scalar(offset, chunk, monkeypatch):
    # six_point runs a 25x25 map's 625 cells in flat chunks: at 97, six of
    # 97 and one of 43, at 20, 31 of 20 and one of 5, so chunks start and
    # end inside rows, and at 20 a row spans two or three chunks.
    monkeypatch.setattr(kernels, "_BATCH_CHUNK", chunk)
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


def test_region_map_is_one_six_point_call(monkeypatch):
    # A map classifies all its cells in one kernels.six_point call, and
    # each cell is six_point's class on that cell's floats.
    t = Triangle(Point2(0.1, 0.2), Point2(1.3, 0.15), Point2(0.5, 1.1))
    # The reference is per-cell six_point on floats, on the map's centres.
    want = {kind: _scalar_region_classes(t, kind, region_map(t, kind, (9, 7))) for kind in REGION_KINDS}
    calls = []

    def counted(*args, _real=kernels.six_point):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(kernels, "six_point", counted)
    for kind in REGION_KINDS:
        calls.clear()
        assert region_map(t, kind, (9, 7)).cells == want[kind]
        assert len(calls) == 1, kind


def test_batch_fit_is_bit_identical(rng):
    # Same arithmetic in the same order: vertices and cofactor fits agree
    # with those on floats to the last bit, translated inputs included.
    for offset in (0.0, 100.0):
        for kind in range(4):
            vals = rng.uniform(-1.0, 2.0, (8, 300)) + offset
            xs, ys, bad = kernels.vertices(*vals[:6], kind, vals[6], vals[7])
            coeffs = np.array(kernels.fit5(xs[:5], ys[:5])[0])
            for i in range(vals.shape[1]):
                args = vals[:, i].tolist()
                vx, vy, vbad = kernels.vertices(*args[:6], kind, *args[6:])
                assert bad[i] == vbad
                if vbad:
                    continue
                assert xs[:, i].tolist() == vx
                assert ys[:, i].tolist() == vy
                assert coeffs[:, i].tolist() == list(kernels.fit5(vx[:5], vy[:5])[0])


def test_backend_is_py():
    assert kernels.BACKEND == "py"
    assert kernels.KIND_CODES["v_ellipse"] == kernels.KIND_V_ELLIPSE
    assert kernels.CLASS_NAMES[kernels.CLASS_FAILED] == "degenerate"


@pytest.mark.parametrize("offset", [(0.0, 0.0), (10.0, 10.0), (100.0, 100.0)])
@pytest.mark.parametrize(
    "kind", [kernels.KIND_V_ELLIPSE, kernels.KIND_P_ELLIPSE, kernels.KIND_P_HYPERBOLA]
)
def test_six_point_batch_det_disc_match_scalar(kind, offset, rng):
    # Code, det and disc of six_point on arrays, and the residual6 of the
    # vertices' fit_six, are their values on each column's floats to the
    # last bit, and disc is classify_code's; failed entries are NaN on both
    # paths.
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
    codes, det, disc = kernels.six_point(*args)
    with np.errstate(all="ignore"):
        res6 = _residual6(*args)
    failed = 0
    for i in range(xs.size):
        one = [v if np.isscalar(v) else float(v[i]) for v in args]
        code, detn, dsc = kernels.six_point(*one)
        if code == kernels.CLASS_FAILED:
            failed += 1
            _assert_failed((code, detn, dsc))
            assert codes[i] == kernels.CLASS_FAILED
            assert math.isnan(det[i]) and math.isnan(disc[i])
        else:
            xv, yv, _ = kernels.vertices(*one)
            assert dsc == kernels.classify_code(kernels.fit_six(xv, yv)[0])[2]
            assert codes[i] == code
            assert det[i].item() == detn
            assert disc[i].item() == dsc
            assert res6[i].item() == _residual6(*one)
    assert failed > 0


_TRI = (0.1, 0.2, 1.3, 0.15, 0.5, 1.1)
_KINDS = (kernels.KIND_V_ELLIPSE, kernels.KIND_P_ELLIPSE, kernels.KIND_V_HYPERBOLA,
          kernels.KIND_P_HYPERBOLA)
_V_KINDS = (kernels.KIND_V_ELLIPSE, kernels.KIND_V_HYPERBOLA)


def _mixed_shape_calls():
    """(name, kernel arguments) of six_point calls mixing floats, 0-d
    arrays and arrays of shapes that broadcast, with drivers on a vertex,
    a sideline and far out, coincident corners, NaN and inf."""
    rng = np.random.default_rng(39)
    ax, ay, bx, by, cx, cy = _TRI
    # Random drivers, vertex A, the midpoint of BC, and a far point.
    qx = np.concatenate([rng.uniform(-1.0, 2.0, 8), [ax, (bx + cx) / 2.0, 40.0]])
    qy = np.concatenate([rng.uniform(-1.0, 2.0, 8), [ay, (by + cy) / 2.0, -30.0]])
    gx = np.linspace(-1.0, 2.0, 5)[None, :]
    gy = np.linspace(-1.0, 1.7, 4)[:, None]
    calls = []
    for k in _KINDS:
        calls += [
            ("scalar corners, array drivers", (*_TRI, k, qx, qy)),
            ("scalar A and B, array C", (ax, ay, bx, by, qx, qy, k, 0.4, 0.5)),
            ("scalar A, array B and C", (ax, ay, qx, qy, qy, qx, k, 0.4, 0.5)),
            ("0-d arrays", tuple(np.array(v) for v in _TRI) + (k, np.array(0.4), np.array(0.5))),
            ("0-d arrays and floats", (*_TRI[:4], np.array(cx), cy, k, 0.4, np.array(0.5))),
            ("0-d corner, array drivers", (np.array(ax), *_TRI[1:], k, qx, qy)),
            ("(1, n) x (m, 1) drivers", (*_TRI, k, gx, gy)),
            ("(1, n) x (m, 1) corner C", (ax, ay, bx, by, gx, gy, k, 0.4, 0.5)),
            ("coincident corners A and B", (ax, ay, ax, ay, cx, cy, k, qx, qy)),
            ("all corners coincident", (ax, ay, ax, ay, ax, ay, k, qx, qy)),
            ("NaN corner", (np.array([ax, math.nan, ax]), *_TRI[1:], k, 0.4, 0.5)),
            ("NaN and inf drivers", (*_TRI, k, np.array([math.nan, 0.4, math.inf, -math.inf]),
                                     np.array([0.5, math.nan, 0.5, math.inf]))),
            ("inf corner", (ax, ay, np.array([bx, math.inf]), by, cx, cy, k, 0.4, 0.5)),
        ]
    for k in _V_KINDS:
        calls += [
            ("every argument scalar but an ignored P", (*_TRI, k, qx, 0.5)),
            ("scalar corners, ignored (1, n) x (m, 1) P", (*_TRI, k, gx, gy)),
            ("coincident corners, ignored P", (ax, ay, ax, ay, cx, cy, k, qx, qy)),
        ]
    return calls


@pytest.mark.parametrize("name, args", _mixed_shape_calls(),
                         ids=[f"{n}-{a[6]}" for n, a in _mixed_shape_calls()])
def test_six_point_mixed_shapes_are_the_float_calls(name, args):
    # An array call gives arrays of the arguments' broadcast shape, and each
    # entry is the float call on that entry's floats, to the repr of every
    # field: code, det and disc, NaNs and infinities included.
    shape = np.broadcast_shapes(*(np.shape(v) for v in args))
    with np.errstate(all="ignore"):
        got = kernels.six_point(*args)
    assert all(isinstance(v, np.ndarray) and v.shape == shape for v in got)
    assert got[0].dtype == np.intp and all(v.dtype == float for v in got[1:])
    full = [np.broadcast_to(v, shape) if isinstance(v, np.ndarray) else v for v in args]
    for at in np.ndindex(shape):
        one = [float(v[at]) if isinstance(v, np.ndarray) else v for v in full]
        want = kernels.six_point(*one)
        assert repr(want) == repr((int(got[0][at]), *(float(v[at]) for v in got[1:]))), (name, at)


def _fit5_batch_fancy(x, y):
    """kernels._fit5_batch with the 2-D fancy-indexed gathers it had before
    the flat takes."""
    label_pairs = np.array([[pair for pair, _, _ in row] for row in kernels._LABELS])
    label_orders = np.array([[order for _, order, _ in row] for row in kernels._LABELS])
    label_parity = np.array([[sign for _, _, sign in row] for row in kernels._LABELS])
    ox = (x[0] + x[1] + x[2] + x[3] + x[4]) / 5.0
    oy = (y[0] + y[1] + y[2] + y[3] + y[4]) / 5.0
    u, v = x - ox, y - oy
    r2 = u * u + v * v
    s = np.sqrt((r2[0] + r2[1] + r2[2] + r2[3] + r2[4]) / 5.0)
    u, v = u / s, v / s
    du, dv = u[kernels._P5_I] - u[kernels._P5_J], v[kernels._P5_I] - v[kernels._P5_J]
    d2 = du * du + dv * dv
    cols = np.arange(x.shape[1])
    first = kernels._P5_I[np.argmin(d2, axis=0)]
    rest = d2[label_pairs[first].T, cols]
    k = np.argmin(rest, axis=0)
    order = label_orders[first, k].T
    u, v = u[order, cols], v[order, cols]
    framed = [t for i in range(5) for t in (u[i], v[i])]
    return kernels._bracket_conic(*framed, label_parity[first, k]), (ox, oy, s)


def _fit_six_fancy(xs, ys):
    """kernels.fit_six on (6, n) arrays with the fancy-indexed gathers, and
    kernels.kept_gap's: (coeffs, frame, out, residual6, gap)."""
    dx, dy = xs[kernels._PAIR_I] - xs[kernels._PAIR_J], ys[kernels._PAIR_I] - ys[kernels._PAIR_J]
    out = kernels._PAIR_J[np.argmin(dx * dx + dy * dy, axis=0)]
    cols = np.arange(xs.shape[1])
    kept = np.array(kernels._KEPT)[out].T
    xo, yo = xs[out, cols], ys[out, cols]
    co, (ox, oy, s) = _fit5_batch_fancy(xs[kept, cols], ys[kept, cols])
    res6 = kernels.conic_residual(co, (xo - ox) / s, (yo - oy) / s)
    kx, ky = xs[kept, cols], ys[kept, cols]
    gap = kernels._hypot(kx[kernels._P5_I] - kx[kernels._P5_J], ky[kernels._P5_I] - ky[kernels._P5_J])
    return co, (ox, oy, s), out, res6, gap.min(axis=0)


def test_flat_take_gathers_are_the_fancy_indexed_ones():
    # fit_six, fit5 and kept_gap on (6, n) arrays gather by flat index;
    # they give the bits of the fancy-indexed gathers they replaced, on
    # vertex sets with ties, coincident vertices, NaN and inf.
    rng = np.random.default_rng(3939)
    n = 600
    xs, ys = rng.normal(size=(6, n)), rng.normal(size=(6, n))
    grid = rng.integers(-2, 3, size=(2, 6, n)).astype(float)
    xs[:, :150], ys[:, :150] = grid[0, :, :150], grid[1, :, :150]  # many tied distances
    xs[3, 150:200], ys[3, 150:200] = xs[1, 150:200], ys[1, 150:200]
    xs[:, 200:210], ys[:, 200:210] = 0.5, -0.25  # all six coincident
    xs[2, 210:220] = math.nan
    ys[4, 220:230] = math.inf
    xs[0, 230:240] = 1e300
    with np.errstate(all="ignore"):
        co, frame, out = kernels.fit_six(xs, ys)
        res6 = kernels.residual6(xs, ys, (co, frame, out))
        gap = kernels.kept_gap(xs, ys, out)
        want = _fit_six_fancy(xs, ys)
        for col in (np.arange(5), np.array([4, 0, 3, 1, 2])):
            a, b = kernels.fit5(xs[col], ys[col]), _fit5_batch_fancy(xs[col], ys[col])
            assert all(p.tobytes() == q.tobytes() for p, q in zip((*a[0], *a[1]), (*b[0], *b[1])))
    for a, b in zip((*co, *frame, out, res6, gap), (*want[0], *want[1], *want[2:])):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fused_residual6(xs, ys):
    """residual6 as the fit computed it when fit_six returned it, on six
    floats: the left-out vertex read beside the fit, its conic_residual in
    the frame of the fit."""
    pairs = list(itertools.combinations(range(6), 2))
    d2 = [(xs[i] - xs[j]) * (xs[i] - xs[j]) + (ys[i] - ys[j]) * (ys[i] - ys[j]) for i, j in pairs]
    out = pairs[d2.index(min(d2))][1]
    kept = [k for k in range(6) if k != out]
    co, (ox, oy, s) = kernels.fit5([xs[k] for k in kept], [ys[k] for k in kept])
    return kernels.conic_residual(co, (xs[out] - ox) / s, (ys[out] - oy) / s)


@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_six_point_residual_is_the_fused_fit_residual(kind):
    # residual6 reads the left-out vertex apart from fit_six: on floats and
    # in each column of one array call it gives the bits of the residual
    # the fit computed beside it, on ordinary, flat and moved triads.
    rows = [*_seeded_kernel_args(kind, (0.0, 0.0)), *_seeded_kernel_args(kind, (0.0, 0.0), flat=True),
            *_seeded_kernel_args(kind, (1e3, -1e3))]
    cols = np.array(rows).T
    res6 = _residual6(*cols[:6], kernels.KIND_CODES[kind], *cols[7:])
    for i, args in enumerate(rows):
        xs, ys, _ = kernels.vertices(*args)
        want = _fused_residual6(xs, ys)
        assert _residual6(*args).hex() == want.hex() == res6[i].item().hex(), i


def _seeded_kernel_args(kind, offset, n=30, flat=False):
    """Kernel arguments of n seeded triads of this kind, moved by offset;
    with flat, on verify.random_flat_triangle's obtuse flat triangles."""
    from triconic.triads import driver_fault
    from triconic.verify import _gen_tri_point, random_flat_triangle, random_point_near

    def flat_cfg(rng):
        while True:
            t = random_flat_triangle(rng)
            p = random_point_near(t, rng)
            if all(driver_fault(t, k, p) is None for k in ("p_ellipse", "p_hyperbola")):
                return {"triangle": [list(v.as_tuple()) for v in t.vertices()], "p": [p.x, p.y]}

    code = kernels.KIND_CODES[kind]
    rng = np.random.default_rng([2026, code, 1] if flat else [2026, code])
    ox, oy = offset
    rows = []
    if flat:
        cfgs = [flat_cfg(rng) for _ in range(n)]
    else:
        drawn = _gen_tri_point(rng, n)[0]
        cfgs = [drawn.row(i) for i in range(drawn.n)]
    for cfg in cfgs:
        (ax, ay), (bx, by), (cx, cy) = cfg["triangle"]
        px, py = cfg["p"] if kind.startswith("p_") else (0.0, 0.0)
        rows.append(
            (ax + ox, ay + oy, bx + ox, by + oy, cx + ox, cy + oy,
             code, px + ox, py + oy)
        )
    return rows


@pytest.mark.parametrize("offset", [(0.0, 0.0), (1e3, -1e3)])
@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_object_scalar_and_batch_six_point_paths_agree(kind, offset):
    # six_point_conic runs the kernel's floats, and six_point, vertices,
    # fit_six and residual6 the same arithmetic on floats and on arrays:
    # class, residual6 and the left-out vertex are the same bits on all
    # three paths.  The triad's deltas are the triad rule's
    # (kernels._sides_deltas), and triad_vertices gives the vertices
    # six_point_conic fits, bit for bit.
    from triconic.triads import build_triad, six_point_conic, triad_vertices

    rows = _seeded_kernel_args(kind, offset) + _seeded_kernel_args(kind, offset, flat=True)
    cols = np.array(rows).T
    kcode = kernels.KIND_CODES[kind]
    codes = kernels.six_point(*cols[:6], kcode, *cols[7:])[0]
    xs, ys, bad = kernels.vertices(*cols[:6], kcode, *cols[7:])
    fit = kernels.fit_six(xs, ys)
    outs, fit_res = fit[2], kernels.residual6(xs, ys, fit)
    assert not bad.any()
    for i, args in enumerate(rows):
        code = kernels.six_point(*args)[0]
        assert code != kernels.CLASS_FAILED
        t = Triangle(Point2(*args[0:2]), Point2(*args[2:4]), Point2(*args[4:6]))
        p = Point2(*args[7:]) if kind.startswith("p_") else None
        tr = build_triad(t, kind, p)
        rep = six_point_conic(tr)
        vx, vy, _ = kernels.vertices(*args)
        fit = kernels.fit_six(vx, vy)
        out, r6 = fit[2], kernels.residual6(vx, vy, fit)
        assert rep.conic_class.value == kernels.CLASS_NAMES[code], i
        assert rep.residual6 == r6, i
        assert tr.deltas == kernels._sides_deltas(*args)[1], i
        assert [q.as_tuple() for q in triad_vertices(tr)] == list(zip(vx, vy)), i
        assert codes[i] == code, i
        assert (outs[i], fit_res[i].item()) == (out, r6), i


@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_covertices_are_the_focal_conics_covertices(kind):
    # covertices is the package's one co-vertex rule: on floats and in
    # array columns, each member's two co-vertices are those of its
    # FocalConic on the object path (covertices_of_focal_conic), bit for
    # bit.  A V-hyperbola member that is a perpendicular bisector has none.
    from triconic.triads import build_triad

    rows = _seeded_kernel_args(kind, (0.0, 0.0)) + _seeded_kernel_args(kind, (0.0, 0.0), flat=True)
    cols = np.array(rows).T
    kcode = kernels.KIND_CODES[kind]
    sides, axes, _ = kernels._sides_deltas(*cols[:6], kcode, *cols[7:])
    col_xs, col_ys = kernels.covertices(cols[:6], sides, axes)
    compared = 0
    for i, args in enumerate(rows):
        t = Triangle(Point2(*args[0:2]), Point2(*args[2:4]), Point2(*args[4:6]))
        tr = build_triad(t, kind, Point2(*args[7:]) if kind.startswith("p_") else None)
        xs, ys = kernels.covertices(args[:6], *kernels._sides_deltas(*args)[:2])
        for k, member in enumerate(tr.members):
            if member is None:
                continue
            want = [q.as_tuple() for q in covertices_of_focal_conic(member)]
            assert list(zip(xs[2 * k:2 * k + 2], ys[2 * k:2 * k + 2])) == want, (i, k)
            assert [(col_xs[j][i].item(), col_ys[j][i].item()) for j in (2 * k, 2 * k + 1)] == want, (i, k)
            compared += 1
    assert compared >= 3 * len(rows) - 1


def test_fit_rule_leaves_out_a_near_coincident_vertex():
    # P 1e-7 of the scale off the perpendicular bisector of BC: the a-member
    # nearly degenerates, and its vertices A1, A2 nearly meet.  A fit
    # through both is ill conditioned (residual6 3.6e-11 to 3.2e-10 through
    # the first five vertices); the rule leaves A2 out.
    from triconic.geom import midpoint
    from triconic.triads import build_triad, driver_fault, six_point_conic
    from triconic.verify import random_triangle

    for i in range(5):
        t = random_triangle(np.random.default_rng([2026, i]))
        s = t.scale()
        m = midpoint(t.b, t.c)
        ux, uy = (t.b.x - t.c.x) / t.side_a, (t.b.y - t.c.y) / t.side_a
        for side in (0.6, -0.6):
            p = Point2(m.x - side * s * uy + 1e-7 * s * ux, m.y + side * s * ux + 1e-7 * s * uy)
            if driver_fault(t, "p_hyperbola", p) is None:
                break
        args = (t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y, kernels.KIND_P_HYPERBOLA, p.x, p.y)
        code, res6 = kernels.six_point(*args)[0], _residual6(*args)
        column_res6 = _residual6(*args[:6], args[6], np.array([p.x]), np.array([p.y]))
        rep = six_point_conic(build_triad(t, "p_hyperbola", p))
        assert code != kernels.CLASS_FAILED
        assert max(res6, column_res6[0], rep.residual6) <= 1e-14, i
        vx, vy, _ = kernels.vertices(*args)
        assert kernels.fit_six(vx, vy)[2] == 1


@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_nan_or_inf_coordinate_fails_cleanly(kind):
    # A NaN or infinite coordinate of the triangle or the driver gives
    # CLASS_FAILED on floats and in its array column, and leaves the other
    # columns alone; the residual6 check of P3.1 and P5.2
    # (verify._incidence) fails on the same columns.
    good = _seeded_kernel_args(kind, (0.0, 0.0), n=1)[0]
    used = [0, 1, 2, 3, 4, 5] + ([7, 8] if kind.startswith("p_") else [])
    rows = [good]
    for k in used:
        for bad in (math.nan, math.inf, -math.inf):
            row = list(good)
            row[k] = bad
            rows.append(tuple(row))
    cols = np.array(rows).T
    kcode = kernels.KIND_CODES[kind]
    codes, det, disc = kernels.six_point(*cols[:6], kcode, *cols[7:])
    with np.errstate(all="ignore"):
        res6, failed = verify._incidence((*cols[:6], kcode, *cols[7:]))
    code, detn, _ = kernels.six_point(*good)
    assert code != kernels.CLASS_FAILED
    assert (codes[0], det[0].item(), res6[0].item()) == (code, detn, _residual6(*good))
    assert failed.tolist() == (codes == kernels.CLASS_FAILED).tolist() == [False] + [True] * (len(rows) - 1)
    for i, row in enumerate(rows[1:], start=1):
        _assert_failed(kernels.six_point(*row))
        assert codes[i] == kernels.CLASS_FAILED, row
        assert math.isnan(det[i]) and math.isnan(disc[i]), row


# Thresholds of classify_code's tests, with the quantity each compares.
_THRESHOLDS = (("det", 1e-10), ("disc", -1e-10), ("disc", 1e-10), ("disc", 0.0),
               ("a_minus_c", 1e-10), ("a_minus_c", -1e-10), ("half_b", 1e-10),
               ("half_b", -1e-10), ("a_plus_c", 1e-10), ("a_plus_c", -1e-10),
               ("det", -1e-10))


def _near_a_threshold(co, window):
    """Where any normalized test quantity of classify_code is within window
    of one of its thresholds."""
    A, B, C, D, E, F = co / np.linalg.norm(co * [[1.0], [0.5**0.5], [1.0], [0.5**0.5],
                                                   [0.5**0.5], [1.0]], axis=0)
    q = {
        "det": kernels.mat_det((A, B, C, D, E, F)),
        "disc": A * C - B * B / 4.0,
        "a_minus_c": A - C,
        "half_b": B / 2.0,
        "a_plus_c": A + C,
    }
    near = np.zeros(A.shape, dtype=bool)
    for name, tau in _THRESHOLDS:
        near |= np.abs(q[name] - tau) <= window
    return near


def _sweep_configs(rng, n):
    """n seeded triangles, half random and half near-collinear (C within
    1e-3 to 1e-1 of the line AB, relative to |AB|), and n drivers, half
    near a vertex and half near a sideline (1e-4 to 1e-2 of the scale
    away): arrays ax, ay, bx, by, cx, cy, px, py.  Thinner triangles make
    the LU oracle itself misclassify."""
    a, b = rng.uniform(0.0, 1.0, (2, 2, n))
    c = rng.uniform(0.0, 1.0, (2, n))
    ab = b - a
    normal = np.stack([-ab[1], ab[0]])
    t = rng.uniform(-0.5, 1.5, n)
    h = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, -1, n)
    thin = np.arange(n) % 2 == 1
    c = np.where(thin, a + t * ab + h * normal, c)
    corners = np.stack([a, b, c])
    scale = np.abs(corners - corners.mean(axis=0)).max(axis=(0, 1))
    pick = rng.integers(0, 3, n)
    cols = np.arange(n)
    first, second = corners[pick, :, cols].T, corners[(pick + 1) % 3, :, cols].T
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    off = 10.0 ** rng.uniform(-4, -2, n) * scale
    near_vertex = first + off * np.stack([np.cos(angle), np.sin(angle)])
    side = second - first
    side_normal = np.stack([-side[1], side[0]]) / np.hypot(*side)
    s = rng.uniform(-0.5, 1.5, n)
    near_side = first + s * side + np.sign(angle - np.pi) * off * side_normal
    p = np.where(np.arange(n) % 4 < 2, near_vertex, near_side)
    return (*a, *b, *c, *p)


@pytest.mark.slow
def test_bracket_fit_classes_match_the_lu_oracle():
    # 2,000 seeded triads, 500 of each kind, on random and near-collinear
    # triangles with drivers near vertices and near sidelines: the kernel's
    # class codes are those of the LU cofactors of the same five kept
    # vertices, except where one of the oracle's normalized test quantities
    # lies within 1e-9 of a classify_code threshold (582 of the 2,000).
    rng = np.random.default_rng(2026)
    compared = 0
    for kind in range(4):
        ax, ay, bx, by, cx, cy, px, py = _sweep_configs(rng, 500)
        with np.errstate(all="ignore"):
            xs, ys, bad = kernels.vertices(ax, ay, bx, by, cx, cy, kind, px, py)
            co, _, out = kernels.fit_six(xs, ys)
            kept = np.array(kernels._KEPT)[out].T
            cols = np.arange(out.size)
            lu = _lu_cofactors(xs[kept, cols], ys[kept, cols])
            codes = kernels.classify_code(co)[0]
            lu_classes = kernels.classify_code(tuple(lu))[0]
            judged = ~bad & np.isfinite(lu).all(axis=0) & ~_near_a_threshold(lu, 1e-9)
        assert (codes[judged] == lu_classes[judged]).all(), kind
        assert (codes[judged] != kernels.CLASS_FAILED).all(), kind
        compared += judged.sum()
    assert compared >= 1200


def _pair_rows(kind, n):
    """Kernel arguments of 2n seeded triads of this kind, n on ordinary and
    n on flat obtuse triangles."""
    return _seeded_kernel_args(kind, (0.0, 0.0), n) + _seeded_kernel_args(kind, (0.0, 0.0), n, flat=True)


@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_pair_points_same_bits_on_floats_and_arrays(kind):
    # 400 seeded triads: the mask, and every kept point, are the same bits
    # alone on floats and in one call on arrays; so is P' of the P-hyperbolas.
    rows = _pair_rows(kind, 200)
    cols = np.array(rows).T
    code = kernels.KIND_CODES[kind]
    xs, ys, keep, bad = kernels.pair_points(*cols[:6], code, *cols[7:])
    assert xs.shape == ys.shape == keep.shape == (3, 4, len(rows))
    assert not bad.any()
    for i, args in enumerate(rows):
        fx, fy, fkeep, fbad = kernels.pair_points(*args)
        assert fbad is False
        assert keep[:, :, i].tolist() == fkeep, i
        got = [(x, y) for x, y, ok in zip(xs[:, :, i].ravel().tolist(), ys[:, :, i].ravel().tolist(), keep[:, :, i].ravel()) if ok]
        want = [(x, y) for rx, ry, rk in zip(fx, fy, fkeep) for x, y, ok in zip(rx, ry, rk) if ok]
        assert got == want, i
    assert keep.sum(axis=(0, 1)).min() >= 2
    if code == kernels.KIND_P_HYPERBOLA:
        px, py, found = kernels.second_point(*cols[:6], *cols[7:])
        assert found.all()
        for i, args in enumerate(rows):
            assert kernels.second_point(*args[:6], *args[7:]) == (px[i], py[i], True), i


def _pair_points_per_candidate(ax, ay, bx, by, cx, cy, kind, px, py):
    """pair_points on arrays one pair and one candidate at a time, each
    step on arrays of one triad a column, as before the stacked branch."""
    with np.errstate(all="ignore"):
        (gx, gy, s), _, _, pairs, bad = kernels.focal_pairs(ax, ay, bx, by, cx, cy, kind, px, py)
        xs, ys, keep = [], [], []
        for mi, mj, lines in pairs:
            cands = [root for line in lines for root in kernels._line_roots(mi, *line)]
            big = 0.0
            for x, y, ok in cands:
                size = np.where(abs(x) > abs(y), abs(x), abs(y))
                big = np.where(ok & (size > big), size, big)
            near, kept = kernels._ON_BOTH * (1.0 + big), []
            for x, y, ok in cands:
                x, y, ok = kernels._polish(mi, mj, x, y, ok)
                for x2, y2, ok2 in kept:
                    ok = np.where(ok2 & (kernels._hypot(x - x2, y - y2) <= near), False, ok)
                kept.append((x, y, ok))
            xs.append([gx + s * x for x, _, _ in kept])
            ys.append([gy + s * y for _, y, _ in kept])
            keep.append([ok for _, _, ok in kept])
    return np.array(xs), np.array(ys), np.array(keep) & ~bad, bad


def _second_point_per_candidate(ax, ay, bx, by, cx, cy, px, py):
    """second_point on arrays one pair point at a time: the first
    strictly better point replaces the best so far."""
    args = (ax, ay, bx, by, cx, cy, kernels.KIND_P_HYPERBOLA)
    xs, ys, keep, _ = _pair_points_per_candidate(*args, px, py)
    with np.errstate(all="ignore"):
        sides, lam, _ = kernels._sides_deltas(*args, px, py)
        s, best_x, best_y, best = kernels._largest(sides), math.nan, math.nan, math.inf
        for x, y, ok in zip(xs.reshape(12, -1), ys.reshape(12, -1), keep.reshape(12, -1)):
            got = kernels._sides_deltas(*args, x, y)[1]
            same = kernels._largest([abs(g - l) for g, l in zip(got, lam)])
            opposite = kernels._largest([abs(g + l) for g, l in zip(got, lam)])
            res = np.where(opposite < same, opposite, same)
            better = ok & (kernels._hypot(x - px, y - py) > 1e-7 * s) & (res < best)
            best_x, best_y = np.where(better, x, best_x), np.where(better, y, best_y)
            best = np.where(better, res, best)
        found = best <= 1e-6 * s
    return np.where(found, best_x, math.nan), np.where(found, best_y, math.nan), found


def _same_bits(got, want) -> bool:
    """The same arrays bit for bit, but for the sign and payload of NaNs."""
    def same(g, w):
        nan = np.isnan(g) if g.dtype.kind == "f" else np.zeros(g.shape, dtype=bool)
        return (g.dtype == w.dtype and g.shape == w.shape and (nan == np.isnan(w)).all()
                and g[~nan].tobytes() == w[~nan].tobytes())

    return all(same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_stacked_pair_points_are_the_per_candidate_steps(kind):
    # The stacked branch runs each step once for all pairs and candidates:
    # every output array, bit for bit (but NaN's sign), that of the steps run
    # one candidate at a time, on 200 seeded triads and on bad ones: C on
    # A, an isosceles triangle, P on a vertex and on a sideline, and
    # columns with a NaN or an infinite coordinate.
    rows = _pair_rows(kind, 100)
    code = kernels.KIND_CODES[kind]
    rows += [
        (0.1, 0.2, 1.3, 0.15, 0.1, 0.2, code, 0.4, 0.5),
        (0.0, 1.2, 0.7, 0.0, -0.7, 0.0, code, 0.1, 0.3),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, code, 1.3, 0.15),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, code, 0.7, 0.175),
        (0.1, math.nan, 1.3, 0.15, 0.5, 1.1, code, 0.4, 0.5),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, code, math.inf, 0.5),
    ]
    cols = np.array(rows).T
    got = kernels.pair_points(*cols[:6], code, *cols[7:])
    assert _same_bits(got, _pair_points_per_candidate(*cols[:6], code, *cols[7:]))
    bad = {"v_ellipse": [0], "p_ellipse": [0, 2, 3], "v_hyperbola": [0, 1], "p_hyperbola": [0, 2, 3]}
    assert np.flatnonzero(got[3]).tolist() == [200 + k for k in bad[kind]]
    assert not got[2][:, :, 204].any()
    if code == kernels.KIND_P_HYPERBOLA:
        with np.errstate(invalid="ignore"):  # the driver at infinity
            got = kernels.second_point(*cols[:6], *cols[7:])
        assert _same_bits(got, _second_point_per_candidate(*cols[:6], *cols[7:]))
        assert np.flatnonzero(~got[2]).tolist() == [200, 202, 203, 204, 205]


def _catalog(sides):
    """Every barycentric triple the verifier's catalog points are read from."""
    return [
        *(kernels.cyclic(f, *sides) for f in (kernels.center_x3, kernels.center_x4, kernels.center_x20)),
        *kernels.excenters(*sides),
        *kernels.excircle_tangency(*sides),
        *(uvw for points in kernels.intouch_extouch(*sides) for uvw in points),
    ]


def test_carnot_reads_a_nan_vertex_as_off_its_sideline():
    # Vertices of A=(0,0), B=(1,0), C=(0,1) on BC, CA and AB, two each;
    # column 0 is all NaN, column 2 has the first vertex's x NaN.
    on_x = [0.5, 0.25, 0.0, 0.0, 0.3, 0.7]
    on_y = [0.5, 0.75, 0.3, 0.6, 0.0, 0.0]
    corners = (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    product, off = kernels.carnot(*corners, [math.nan] * 6, [math.nan] * 6)
    assert math.isnan(product) and off == [True] * 6
    assert kernels.carnot(*corners, on_x, on_y)[1] == [False] * 6
    xs = np.array([[math.nan, x, x] for x in on_x])
    ys = np.array([[math.nan, y, y] for y in on_y])
    xs[0, 2] = math.nan
    off = np.array(kernels.carnot(*corners, xs, ys)[1])
    assert off[:, 0].all() and not off[:, 1].any()
    assert off[:, 2].tolist() == [True] + [False] * 5


@pytest.mark.parametrize("kind", ["v_ellipse", "v_hyperbola"])
def test_triangle_helpers_same_bits_on_floats_and_arrays(kind):
    # The catalog points, the Carnot test of the vertices, the kept-vertex
    # gap and each member's residual and tangency discriminant on a line:
    # alone on floats, the bits of one call on arrays.
    rows = _pair_rows(kind, 100)
    cols = np.array(rows).T
    corners, code = cols[:6], kernels.KIND_CODES[kind]
    sides = kernels._sides_deltas(*cols[:6], code, *cols[7:])[0]
    points = [kernels.bary_point(*corners, *uvw) for uvw in _catalog(sides)]
    xs, ys, _ = kernels.vertices(*cols[:6], code, *cols[7:])
    product, off = kernels.carnot(*corners, xs, ys)
    gap = kernels.kept_gap(xs, ys, kernels.fit_six(xs, ys)[2])
    (_, _, s), _, _, pairs, _ = kernels.focal_pairs(*cols[:6], code, *cols[7:])
    members = kernels.members(pairs)
    lines = [(ys[0] - ys[3], xs[3] - xs[0], xs[0] * ys[3] - xs[3] * ys[0])]
    res = [kernels.conic_residual(co, xs[0], ys[0]) for co in members]
    discs = [kernels.tangency_disc(co, *lines[0]) for co in members]
    assert not np.array([f for _, _, f in points]).any() and not np.array(off).any()
    for i, args in enumerate(rows):
        fsides = kernels._sides_deltas(*args)[0]
        assert [kernels.bary_point(*args[:6], *uvw) for uvw in _catalog(fsides)] == [
            (x[i], y[i], False) for x, y, _ in points
        ], i
        fxs, fys, _ = kernels.vertices(*args)
        assert kernels.carnot(*args[:6], fxs, fys) == (product[i], [False] * 6), i
        assert kernels.kept_gap(fxs, fys, kernels.fit_six(fxs, fys)[2]) == gap[i], i
        fpairs = kernels.focal_pairs(*args)[3]
        fline = (fys[0] - fys[3], fxs[3] - fxs[0], fxs[0] * fys[3] - fxs[3] * fys[0])
        for co, r, d in zip(kernels.members(fpairs), res, discs):
            assert kernels.conic_residual(co, fxs[0], fys[0]) == r[i], i
            assert kernels.tangency_disc(co, *fline) == d[i], i


def test_privalov_same_bits_on_floats_and_arrays():
    # Privalov's matrix of 200 seeded triangles' sides: alone on floats, the
    # bits of one call on arrays.
    cols = np.array(_pair_rows("v_hyperbola", 100)).T
    sides = kernels._sides_deltas(*cols[:6], kernels.KIND_V_HYPERBOLA, 0.0, 0.0)[0]
    rows = kernels.privalov(*sides)
    for i, abc in enumerate(zip(*(v.tolist() for v in sides))):
        assert kernels.privalov(*abc) == tuple(tuple(v[i] for v in row) for row in rows), i


def test_members_are_the_triad_members():
    # Each member, read from the pair it comes first in, vanishes on both
    # of its own vertices, and the sideline through its foci crosses it
    # twice: a positive tangency discriminant.
    args = (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, kernels.KIND_V_ELLIPSE, 0.0, 0.0)
    (gx, gy, s), _, _, pairs, _ = kernels.focal_pairs(*args)
    xs, ys, _ = kernels.vertices(*args)
    corners = [((x - gx) / s, (y - gy) / s) for x, y in zip(args[:6:2], args[1:6:2])]
    for m, co in enumerate(kernels.members(pairs)):
        for k in (2 * m, 2 * m + 1):
            assert kernels.conic_residual(co, (xs[k] - gx) / s, (ys[k] - gy) / s) < 1e-15
        (x1, y1), (x2, y2) = (q for j, q in enumerate(corners) if j != m)
        assert kernels.tangency_disc(co, y1 - y2, x2 - x1, x1 * y2 - x2 * y1) > 0.1


def test_pair_points_on_floats_give_floats_and_bools():
    good = (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, kernels.KIND_P_HYPERBOLA, 0.9, 0.7)
    xs, ys, keep, bad = kernels.pair_points(*good)
    assert [len(row) for row in xs + ys + keep] == [4] * 9
    assert all(type(v) is float for row in xs + ys for v in row)
    assert all(type(v) is bool for row in keep for v in row) and bad is False
    x, y, found = kernels.second_point(*good[:6], *good[7:])
    assert type(x) is float and type(y) is float and found is True
    # C on A: no sides to divide by, on floats and arrays alike.
    degenerate = (0.1, 0.2, 1.3, 0.15, 0.1, 0.2, kernels.KIND_V_ELLIPSE, 0.0, 0.0)
    assert kernels.pair_points(*degenerate) == (None, None, None, True)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"])
def test_pair_points_on_floats_are_the_float_branch(kind):
    # A float call is a batch of one.  On 400 seeded triads (half on flat
    # obtuse triangles), 400 on random and near-collinear triangles with
    # drivers near a vertex or a sideline, and 9 bad ones a kind (3,236
    # calls, and 809 of second_point), it gives the repr of the plain-Python
    # branch it replaced: the same floats, bools, NaNs and Nones, with
    # their Python types.
    code = kernels.KIND_CODES[kind]
    rows = _pair_rows(kind, 200)
    cols = _sweep_configs(np.random.default_rng([2027, code]), 400)
    rows += [(*r[:6], code, *r[6:]) for r in np.array(cols).T.tolist()]
    rows += [
        (0.1, 0.2, 1.3, 0.15, 0.1, 0.2, code, 0.4, 0.5),
        (0.0, 1.2, 0.7, 0.0, -0.7, 0.0, code, 0.1, 0.3),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, code, 1.3, 0.15),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, code, 0.7, 0.175),
        (0.0, 0.0, 1.0, 0.0, 2.0, 0.0, code, 0.4, 0.5),
        (0.1, math.nan, 1.3, 0.15, 0.5, 1.1, code, 0.4, 0.5),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1, code, math.inf, 0.5),
        (math.inf, 0.2, 1.3, 0.15, 0.5, 1.1, code, 0.4, 0.5),
        (0.0, 3.0, 4.0, 0.0, 0.0, 0.0, code, 1.0, 1.0),
    ]
    assert len(rows) == 809
    for args in rows:
        assert repr(kernels.pair_points(*args)) == repr(pair_points_on_floats(*args)), args
        if code == kernels.KIND_P_HYPERBOLA:
            got, want = (f(*args[:6], *args[7:]) for f in (kernels.second_point, second_point_on_floats))
            assert repr(got) == repr(want), args


def test_pair_points_flag_degenerate_columns():
    # An isosceles V-hyperbola has a perpendicular bisector for a member,
    # and C on A leaves a side of length 0: both columns are bad, with no
    # point kept, beside a good column.
    cols = np.array([
        (0.0, 1.2, 0.7, 0.0, -0.7, 0.0),
        (0.1, 0.2, 1.3, 0.15, 0.1, 0.2),
        (0.1, 0.2, 1.3, 0.15, 0.5, 1.1),
    ]).T
    _, _, keep, bad = kernels.pair_points(*cols, kernels.KIND_V_HYPERBOLA, 0.0, 0.0)
    assert bad.tolist() == [True, True, False]
    assert not keep[:, :, :2].any() and keep[:, :, 2].any()
    assert kernels.pair_points(*cols[:, 0].tolist(), kernels.KIND_V_HYPERBOLA, 0.0, 0.0)[3] is True


def _mp_pair_points(args):
    """Each pair's real common points at 50 digits, from the float triangle
    and driver taken as exact: the two lines ell_i = +-ell_j of the pair
    met with member i, |q - F|^2 = ell_i(q)^2, as a quadratic."""
    ax, ay, bx, by, cx, cy, kind, px, py = args
    with mpmath.workdps(50):
        corners = [tuple(mpmath.mpf(v) for v in q) for q in ((ax, ay), (bx, by), (cx, cy))]
        p = (mpmath.mpf(px), mpmath.mpf(py))

        def dist(q, r):
            return mpmath.sqrt((q[0] - r[0]) ** 2 + (q[1] - r[1]) ** 2)

        a, b, c = dist(corners[1], corners[2]), dist(corners[2], corners[0]), dist(corners[0], corners[1])
        pa, pb, pc = (dist(p, q) for q in corners)
        lengths = [abs(v) for v in {
            kernels.KIND_V_ELLIPSE: (b + c, c + a, a + b),
            kernels.KIND_P_ELLIPSE: (pb + pc, pc + pa, pa + pb),
            kernels.KIND_V_HYPERBOLA: (c - b, a - c, b - a),
            kernels.KIND_P_HYPERBOLA: (pb - pc, pc - pa, pa - pb),
        }[kind]]
        out = []
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            f = corners[k]
            ells = []
            for other, side, length in ((corners[j], (a, b, c)[i], lengths[i]), (corners[i], (a, b, c)[j], lengths[j])):
                ells.append(((length - side) * (length + side) / (2 * length),
                             ((f[0] - other[0]) / length, (f[1] - other[1]) / length)))
            (pi, ki), (pj, kj) = ells
            pts = []
            for sign in (1, -1):
                # (pi - sign pj) - (ki - sign kj).(q - f) = 0, from its
                # closest point q0 to f along the unit direction d.
                lx, ly = ki[0] - sign * kj[0], ki[1] - sign * kj[1]
                n2 = lx * lx + ly * ly
                r = (pi - sign * pj) / n2
                q0 = (f[0] + lx * r, f[1] + ly * r)
                d = (-ly / mpmath.sqrt(n2), lx / mpmath.sqrt(n2))

                def member(t):
                    q = (q0[0] + t * d[0] - f[0], q0[1] + t * d[1] - f[1])
                    e = pi - ki[0] * q[0] - ki[1] * q[1]
                    return q[0] ** 2 + q[1] ** 2 - e * e

                f0, f1, fm = member(0), member(1), member(-1)
                qa, qb = (f1 + fm) / 2 - f0, (f1 - fm) / 2
                disc = qb * qb - 4 * qa * f0
                if disc >= 0:
                    for t in ((-qb + mpmath.sqrt(disc)) / (2 * qa), (-qb - mpmath.sqrt(disc)) / (2 * qa)):
                        pts.append((float(q0[0] + t * d[0]), float(q0[1] + t * d[1])))
            out.append(pts)
        return out


@pytest.mark.parametrize("offset", [(0.0, 0.0), (1e4, -1e4)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_pair_points_match_mpmath(offset, scale):
    # 120 seeded triads, moved and scaled: each pair has the oracle's number
    # of points, each within 1e-11 of the largest side, times (r / s)^2 for
    # a point r from the centroid beyond s (the rounding of the framed
    # members moves a far crossing by O(r^2)), plus the ulp of its
    # coordinates.  Measured: 2.1e-12, and 0 where the ulp dominates.
    ox, oy = offset
    compared = 0
    for kind in ("v_ellipse", "p_ellipse", "v_hyperbola", "p_hyperbola"):
        for row in _pair_rows(kind, 15):
            args = [v * scale + (ox, oy)[k % 2] for k, v in enumerate(row[:6])]
            args += [row[6], row[7] * scale + ox, row[8] * scale + oy]
            xs, ys, keep, _ = kernels.pair_points(*args)
            a, b, c = kernels._sides_deltas(*args)[0]
            s = max(a, b, c)
            gx, gy = (args[0] + args[2] + args[4]) / 3.0, (args[1] + args[3] + args[5]) / 3.0
            for want, rx, ry, rk in zip(_mp_pair_points(args), xs, ys, keep):
                got = [(x, y) for x, y, ok in zip(rx, ry, rk) if ok]
                assert len(got) == len(want), (kind, args)
                for x, y in want:
                    r = math.hypot(x - gx, y - gy) / s
                    tol = 1e-11 * s * max(1.0, r) ** 2 + math.ulp(max(abs(x), abs(y)))
                    assert min(math.hypot(x - u, y - v) for u, v in got) <= tol, (kind, args)
                    compared += 1
    assert compared >= 800


@functools.cache
def _pair_points_at(row, q):
    """kernels.pair_points of the triad row at the driver q, one call a
    driver: the scans below read its three pairs, most drivers twice."""
    return kernels.pair_points(*row[:7], *q)


def _kept(row, q, k):
    """Pair k's kept points at the driver q, None where the triad is bad."""
    xs, ys, keep, bad = _pair_points_at(tuple(row), tuple(q))
    return None if bad else [(x, y) for x, y, ok in zip(xs[k], ys[k], keep[k]) if ok]


def _kept_count(row, q, k):
    pts = _kept(row, q, k)
    return None if pts is None else len(pts)


def _second_side(row, q, k):
    """The side of the driver P, along pair k's chord through P, on which
    a P-ellipse pair's other point lies: "+" or "-", or the kept count
    where it is not 2."""
    pts = _kept(row, q, k)
    if pts is None or len(pts) != 2:
        return _kept_count(row, q, k)
    l, m, _ = kernels.focal_pairs(*row[:7], *q)[3][k][2][0]
    x, y = max(pts, key=lambda p: math.hypot(p[0] - q[0], p[1] - q[1]))
    return "+" if (y - q[1]) * l - (x - q[0]) * m > 0.0 else "-"


def _near_tangent_drivers(kind, n=20, grid=64):
    """(row, k, (q0, q1), s) for seeded triads of this kind: each driver
    moves along a seeded direction by up to s/2 (s the largest side), and
    where pair k's kept count changes between two drivers of the scan, the
    move is bisected until q0 and q1 are 1e-12 s apart with different
    counts.  A P-hyperbola pair keeps 2 or 4 points.  A P-ellipse pair
    always meets in P and one more point, which passes through P where the
    chord touches member i there; it keeps one point only while the two
    are within the merge radius, so the scan and the bisection follow the
    side of P the other point is on until they land in that band."""
    key = _second_side if kind == "p_ellipse" else _kept_count
    rng = np.random.default_rng(7)
    for row in _seeded_kernel_args(kind, (0.0, 0.0), n):
        s = max(kernels._sides_deltas(*row)[0])
        th = rng.uniform(0.0, 2.0 * math.pi)

        def at(t):
            return row[7] + t * 0.5 * s * math.cos(th), row[8] + t * 0.5 * s * math.sin(th)

        for k in range(3):
            for g in range(grid):
                lo, hi = g / grid, (g + 1) / grid
                start = key(row, at(lo), k)
                if None in (start, key(row, at(hi), k)) or start == key(row, at(hi), k):
                    continue
                while hi - lo > 2e-12:
                    mid = (lo + hi) / 2.0
                    if key(row, at(mid), k) == start:
                        lo = mid
                    else:
                        hi = mid
                counts = [_kept_count(row, at(t), k) for t in (lo, hi)]
                if None not in counts and counts[0] != counts[1]:
                    yield row, k, (at(lo), at(hi)), s


def test_pair_points_near_tangency_match_mpmath():
    # Where a pair's two points merge, they are a near-double root of the
    # quadratic along their line, so a rounding d of its value moves them by
    # sqrt(d / |qa|) instead of d / |qb|.  In the frame, the members' values
    # at a point rho = |q - g| / s from the centroid round by about
    # eps (1 + rho)^2, and the curvature |qa| of the members' difference
    # along the line falls like (1 + rho)^-2 on far hyperbola branches: a
    # kept point lies within about sqrt(eps) (1 + rho)^2 s of the oracle's.
    # Where the kernel keeps one point of two within its merge radius
    # (_ON_BOTH, about 7 sqrt(eps)), the other is that close too.
    # Bound: 16 sqrt(eps) (1 + rho)^2 s, both ways between the kept points
    # and the oracle's, at both drivers.  Measured: 5.1 with the three
    # Newton steps of pair_points and 5.0 without them, both set by merged
    # P-ellipse points; on the P-hyperbola points within 10 s of the
    # centroid the steps cut the worst error from 6.6e-7 s to 1.6e-7 s.
    eps = 2.0 ** -52
    for kind in ("p_ellipse", "p_hyperbola"):
        cases = list(_near_tangent_drivers(kind))
        assert len(cases) >= 8, kind
        for row, k, drivers, s in cases:
            gx, gy = (row[0] + row[2] + row[4]) / 3.0, (row[1] + row[3] + row[5]) / 3.0
            for q in drivers:
                got, want = _kept(row, q, k), _mp_pair_points((*row[:7], *q))[k]
                assert got and want, (kind, row, k, q)
                for pts, other in ((got, want), (want, got)):
                    for x, y in pts:
                        rho = math.hypot(x - gx, y - gy) / s
                        err = min(math.hypot(x - u, y - v) for u, v in other)
                        assert err <= 16.0 * math.sqrt(eps) * (1.0 + rho) ** 2 * s, (kind, row, k, q)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="_line_roots drops a near-double root whose "
                   "discriminant rounds below -_DOUBLE_ROOT")
def test_pair_points_keep_a_near_tangent_pair():
    # A P-ellipse pair meets in P and one more point.  Here the two are
    # 3.6e-8 s apart on pair 0, the discriminant of their line's quadratic
    # rounds to -4.2e-16, below the -1e-24 of a double root, and neither
    # is kept.  The driver is one end of a bisection onto the tangency.
    row = (0.5662112005496328, 0.6035231014962591, 0.056721263461712024, 0.8879328764017019,
           0.6964038465028584, 0.7887083467786, kernels.KIND_P_ELLIPSE)
    q = (-0.17232800940357693, 0.9234619020167736)
    assert len(_mp_pair_points((*row, *q))[0]) == 2
    assert _kept(row, q, 0)
