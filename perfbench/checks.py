"""Independent output checks for the triconic benchmark.

Everything here is computed from first principles with numpy: no function
of the package under test is called.  Each check takes the program's output
and the input it was produced from, and says whether the output is right.

Conventions: a triangle is a (3, 2) array of vertices A, B, C; side a is
BC, b is CA, c is AB.  A focal conic with foci F1, F2 and major (ellipse)
or transverse (hyperbola) axis d has its two vertices at
midpoint(F1, F2) +- (d / 2) * unit(F1 - F2), with d signed for the
hyperbola kinds.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

# Cells whose normalized determinant or discriminant lies closer to zero
# than this, or whose construction is this close (relative to the side) to
# collapsing a member, sit on a class boundary and are not judged.
REGION_MARGIN = 1e-6

ELLIPTIC = ("circle", "ellipse")
HYPERBOLIC = ("hyperbola", "rectangular_hyperbola")


def sides(tri) -> np.ndarray:
    """Side lengths (a, b, c) of one triangle or of a stack of them."""
    tri = np.asarray(tri, dtype=float)
    A, B, C = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    return np.stack(
        [
            np.linalg.norm(B - C, axis=-1),
            np.linalg.norm(C - A, axis=-1),
            np.linalg.norm(A - B, axis=-1),
        ],
        axis=-1,
    )


def triad_axes(tri, kind: str, p=None) -> np.ndarray:
    """Per-side axis quantities of a triad: focal sums for the ellipse kinds,
    signed focal differences for the hyperbola kinds.

    tri has shape (..., 3, 2); p, for the P kinds, shape (..., 2).
    """
    tri = np.asarray(tri, dtype=float)
    a, b, c = np.moveaxis(sides(tri), -1, 0)
    if kind == "v_ellipse":
        return np.stack([b + c, c + a, a + b], axis=-1)
    p = np.asarray(p, dtype=float)
    pa, pb, pc = (np.linalg.norm(p - tri[..., k, :], axis=-1) for k in range(3))
    if kind == "p_ellipse":
        return np.stack([pb + pc, pc + pa, pa + pb], axis=-1)
    if kind == "p_hyperbola":
        return np.stack([pb - pc, pc - pa, pa - pb], axis=-1)
    raise ValueError(f"unknown triad kind {kind!r}")


def triad_vertices(tri, kind: str, p=None) -> np.ndarray:
    """The six triad vertices (A1, A2, B1, B2, C1, C2), shape (..., 6, 2)."""
    tri = np.asarray(tri, dtype=float)
    d = triad_axes(tri, kind, p)
    s = sides(tri)
    out = []
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        f1, f2 = tri[..., i, :], tri[..., j, :]
        mid = (f1 + f2) / 2.0
        u = (f1 - f2) / s[..., k : k + 1]
        h = d[..., k : k + 1] / 2.0
        out += [mid + h * u, mid - h * u]
    return np.stack(out, axis=-2)


def fit_conic(points) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares conic through n >= 5 points in a centered, scaled frame.

    Returns (coefficients, singular values): coefficients (xx, xy, yy, x, y,
    1) of unit norm in that frame, for one point set of shape (n, 2) or a
    stack (..., n, 2).  For six points on one conic the last singular value
    is zero up to rounding.
    """
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=-2, keepdims=True)
    spread = np.sqrt((centered**2).sum(axis=-1).mean(axis=-1))
    uv = centered / spread[..., None, None]
    u, v = uv[..., 0], uv[..., 1]
    design = np.stack([u * u, u * v, v * v, u, v, np.ones_like(u)], axis=-1)
    _, sv, vh = np.linalg.svd(design)
    return vh[..., -1, :], sv


def conic_invariants(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """(disc, detn) of conic coefficients, both invariant under scaling the
    coefficients: disc = (4AC - B^2) / (A^2 + C^2 + B^2/2) is positive for
    ellipses and negative for hyperbolas; detn = det(M) / |M|_F^3 is zero
    exactly for degenerate conics."""
    A, B, C, D, E, F = np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0)
    m = np.stack(
        [
            np.stack([A, B / 2, D / 2], axis=-1),
            np.stack([B / 2, C, E / 2], axis=-1),
            np.stack([D / 2, E / 2, F], axis=-1),
        ],
        axis=-2,
    )
    disc = (4 * A * C - B * B) / (A * A + C * C + B * B / 2)
    detn = np.linalg.det(m) / np.linalg.norm(m, axis=(-2, -1)) ** 3
    return disc, detn


REGION_TRIADS = {
    "v_ellipse_over_C": "v_ellipse",
    "p_ellipse_over_P": "p_ellipse",
    "p_hyperbola_over_P": "p_hyperbola",
}


def region_cell_centers(bbox, nx: int, ny: int) -> np.ndarray:
    """Cell centers (the C or P position of each cell), row-major with rows
    running up in y."""
    xmin, xmax, ymin, ymax = bbox
    xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
    ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def expected_region_classes(tri, kind: str, points, margin: float = REGION_MARGIN):
    """Independent classification of region-map cells.

    Returns (judged, elliptic): boolean arrays over the points, each the
    position of C (V kind) or P (P kinds) for one cell.
    judged is False for cells within the margin band of a class boundary:
    a degenerate or parabolic six-point conic, a collapsing triad member,
    a flat triangle, or coincident vertices.  elliptic tells ellipse-type
    from hyperbola-type for the judged cells.
    """
    tri = np.asarray(tri, dtype=float)
    points = np.asarray(points, dtype=float)
    triad = REGION_TRIADS[kind]
    tris = np.repeat(tri[None], len(points), axis=0)
    p = None
    if kind == "v_ellipse_over_C":
        tris[:, 2, :] = points
    else:
        p = points
    s = sides(tris)
    scale = s.max(axis=-1)
    d = triad_axes(tris, triad, p)
    if triad == "p_ellipse":
        clear = ((d - s) / s).min(axis=-1) >= margin
    elif triad == "p_hyperbola":
        rel = np.abs(d) / s
        clear = (rel.min(axis=-1) >= margin) & ((1.0 - rel).min(axis=-1) >= margin)
    else:
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        cross = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        clear = cross / scale**2 >= margin
    coeffs, sv = fit_conic(triad_vertices(tris, triad, p))
    disc, detn = conic_invariants(coeffs)
    judged = (
        clear
        & (sv[:, 4] >= margin * sv[:, 0])
        & (np.abs(detn) >= margin)
        & (np.abs(disc) >= margin)
    )
    return judged, disc > 0


def region_cells_wrong(tri, kind: str, bbox, nx: int, ny: int, cells):
    """Judge a region map: returns (judged count, boolean array of cells the
    program classified wrongly, row-major)."""
    judged, elliptic = expected_region_classes(
        tri, kind, region_cell_centers(bbox, nx, ny)
    )
    flat = np.array([c for row in cells for c in row])
    if flat.shape != (nx * ny,):
        raise ValueError(f"region map has {flat.size} cells, expected {nx * ny}")
    ok = np.where(elliptic, np.isin(flat, ELLIPTIC), np.isin(flat, HYPERBOLIC))
    return int(judged.sum()), judged & ~ok


def ppm_matches(ppm: str, cells) -> bool:
    """A plain P3 image with one pixel per cell, rows top to bottom, and one
    color per class used consistently."""
    tokens = ppm.split()
    ny, nx = len(cells), len(cells[0])
    if tokens[:4] != ["P3", str(nx), str(ny), "255"] or len(tokens) != 4 + 3 * nx * ny:
        return False
    pix = np.array(tokens[4:], dtype=int).reshape(ny, nx, 3)
    if pix.min() < 0 or pix.max() > 255:
        return False
    color_of = {}
    for j in range(ny):
        for i in range(nx):
            rgb = tuple(pix[ny - 1 - j, i])
            if color_of.setdefault(cells[j][i], rgb) != rgb:
                return False
    return len(set(color_of.values())) == len(color_of)


def circumcenter(tri) -> np.ndarray:
    (ax, ay), (bx, by), (cx, cy) = np.asarray(tri, dtype=float)
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return np.array(
        [
            (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d,
            (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d,
        ]
    )


def concyclic_spread(tri, kind: str, p) -> float:
    """Relative spread of the distances of the six triad vertices from the
    circumcenter: zero when they lie on one circle about it."""
    r = np.linalg.norm(triad_vertices(tri, kind, p) - circumcenter(tri), axis=-1)
    return float((r.max() - r.min()) / r.mean())


CIRCLE_TOL = 1e-6


def pstar_ok(tri, pstar) -> bool:
    """At the principal P* the six P-ellipse vertices are concyclic about
    the circumcenter."""
    return concyclic_spread(tri, "p_ellipse", pstar) <= CIRCLE_TOL


def phyp_pair_ok(tri, p1, p2) -> bool:
    """At both P-hyperbola circle points the six vertices are concyclic
    about the circumcenter, and the two points are distinct."""
    scale = sides(tri).max()
    return (
        np.linalg.norm(np.subtract(p1, p2)) > 1e-6 * scale
        and concyclic_spread(tri, "p_hyperbola", p1) <= CIRCLE_TOL
        and concyclic_spread(tri, "p_hyperbola", p2) <= CIRCLE_TOL
    )


def x478_quartic(x, y):
    """The paper's quartic for the degenerate-center locus with A=(1/2, 0),
    B=(-1/2, 0), expanded: 4x^4 + 8x^2y^2 + 4y^4 - 8y^3 - x^2 + 2y^2."""
    return 4 * x**4 + 8 * x * x * y * y + 4 * y**4 - 8 * y**3 - x * x + 2 * y * y


def x478_gradient(x, y):
    return (
        16 * x**3 + 16 * x * y * y - 2 * x,
        16 * x * x * y + 16 * y**3 - 24 * y * y + 4 * y,
    )


LOCUS_TOL = 1e-8


def x478_sample_ok(c_vertex, center) -> bool:
    """The vertex C lies on the upper unit-diameter semicircle over AB, and
    the center lies on the quartic (distance estimate |q| / |grad q|)."""
    cx, cy = c_vertex
    x, y = center
    gx, gy = x478_gradient(x, y)
    dist = abs(x478_quartic(x, y)) / max(math.hypot(gx, gy), 1e-300)
    return abs(math.hypot(cx, cy) - 0.5) <= LOCUS_TOL and cy > 0 and dist <= LOCUS_TOL


def ostar_arc_conics(tri) -> list[tuple]:
    """The three arc ellipses of the O* locus, each as (coefficients in its
    fit frame, frame center, frame scale).

    The ellipse for the arc opposite vertex V passes through the three side
    midpoints and the two V-ellipse vertices beyond V on the sidelines
    through V: the member with foci V and X has axis length equal to the
    perimeter minus |VX|, so its vertex beyond V is
    mid(V, X) + (perimeter - |VX|) / 2 * unit(V - X).
    """
    tri = np.asarray(tri, dtype=float)
    perimeter = sides(tri).sum()
    mids = [(tri[(k + 1) % 3] + tri[(k + 2) % 3]) / 2.0 for k in range(3)]
    out = []
    for k in range(3):
        v = tri[k]
        pts = list(mids)
        for x in (tri[(k + 1) % 3], tri[(k + 2) % 3]):
            side = np.linalg.norm(v - x)
            pts.append((v + x) / 2.0 + (perimeter - side) / 2.0 * (v - x) / side)
        pts = np.array(pts)
        center = pts.mean(axis=0)
        spread = math.sqrt(((pts - center) ** 2).sum(axis=1).mean())
        coeffs, _ = fit_conic(pts)
        out.append((coeffs, center, spread))
    return out


def ostar_center_ok(arcs, center) -> bool:
    """The O* center lies on one of the arc ellipses (distance estimate
    |f| / |grad f| in the fit frame, relative to the frame scale)."""
    for (A, B, C, D, E, F), c0, spread in arcs:
        u, v = (np.asarray(center, dtype=float) - c0) / spread
        f = A * u * u + B * u * v + C * v * v + D * u + E * v + F
        g = math.hypot(2 * A * u + B * v + D, B * u + 2 * C * v + E)
        if abs(f) <= LOCUS_TOL * g:
            return True
    return False


def zero_set_max_distance(fn, polylines, bbox) -> float:
    """Largest |f| / |grad f| over all traced points, relative to the bbox
    span; the gradient comes from central differences."""
    xmin, xmax, ymin, ymax = bbox
    span = max(xmax - xmin, ymax - ymin)
    h = 1e-6 * span
    worst = 0.0
    for line in polylines:
        for q in line:
            x, y = q.x, q.y
            gx = (fn(x + h, y) - fn(x - h, y)) / (2 * h)
            gy = (fn(x, y + h) - fn(x, y - h)) / (2 * h)
            g = math.hypot(gx, gy)
            f = abs(fn(x, y))
            if f == 0.0:
                continue
            worst = max(worst, f / g / span if g > 0.0 else math.inf)
    return worst


ZERO_SET_TOL = 1e-7


def scene_ok(scene, scene_type, svg: str) -> bool:
    """Parse -> serialize of the scene is a fixpoint, and the SVG is
    well-formed XML with an <svg> root."""
    text = scene.dumps()
    if scene_type.loads(text).dumps() != text:
        return False
    try:
        root = ET.fromstring(svg)
    except ET.ParseError:
        return False
    return root.tag.rsplit("}", 1)[-1] == "svg"
