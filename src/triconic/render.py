"""SVG figure emission and PPM region maps.

Rendering is a pure function of the scene: conics are sampled into paths
(parametric for central conics, implicit tracing for parabolas, clipped
segments for line pairs), circles and labeled points map to native SVG
elements.  Region maps are written as plain P3 ASCII with the palette
below.
"""

from __future__ import annotations

import math

import numpy as np

from .conic import Conic, ConicClass, classify, center as conic_center, split_degenerate
from .errors import EmptyScene, LineOnConic
from .geom import LineEq, Point2
from .loci import RegionGrid, trace_zero_set
from .scene import Scene, _conic_from_json

# class name -> RGB for PPM maps ("degenerate" marks failed constructions).
PALETTE = {
    "circle": (0, 114, 178),
    "ellipse": (86, 180, 233),
    "parabola": (230, 159, 0),
    "hyperbola": (0, 158, 115),
    "rectangular_hyperbola": (0, 109, 80),
    "degenerate_two_lines": (213, 94, 0),
    "degenerate_parallel_lines": (204, 121, 167),
    "degenerate_point": (240, 228, 66),
    "degenerate": (0, 0, 0),
}

MIN_CONIC_SAMPLES = 512


def emit_ppm(grid: RegionGrid) -> str:
    lines = [f"P3 {grid.nx} {grid.ny} 255"]
    # PPM rows run top to bottom; grid rows run bottom to top.
    for j in range(grid.ny - 1, -1, -1):
        row = []
        for cls in grid.cells[j]:
            r, g, b = PALETTE[cls]
            row.append(f"{r} {g} {b}")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _conic_samples(c: Conic, bbox) -> list[list[Point2]]:
    """Sampled branch polylines of a Cartesian conic, clipped to bbox.

    The conic is classified, split and sampled in a frame at the center
    (ox, oy) of bbox, u = (x - ox) / s and v = (y - oy) / s, so a scene
    draws the same curves wherever it sits in the plane.  s is half the
    span of bbox, or the conic's own reach from (ox, oy) where that is
    larger (sqrt of its value there over its largest quadratic
    coefficient), so a conic much larger than the view keeps its class.
    """
    xmin, xmax, ymin, ymax = bbox
    ox, oy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    half = max(xmax - xmin, ymax - ymin) / 2.0
    quad = np.abs(c.m[:2, :2]).max()
    s = max(half, math.sqrt(abs(c(Point2(ox, oy))) / quad)) if quad > 0.0 else half
    to_plane = np.array([[s, 0.0, ox], [0.0, s, oy], [0.0, 0.0, 1.0]])
    framed = Conic(to_plane.T @ c.m @ to_plane)

    def plane(u, v):
        return Point2(ox + s * u, oy + s * v)

    kind = classify(framed)
    if kind.is_degenerate():
        try:
            g, h = split_degenerate(framed)
        except LineOnConic:
            return []
        lines = (LineEq(ln.l, ln.m, ln.n * s - ln.l * ox - ln.m * oy) for ln in (g, h))
        return [seg for line in lines for seg in _clip_line(line, bbox)]
    m = framed.m
    Q = np.array([[m[0, 0], m[0, 1]], [m[0, 1], m[1, 1]]])
    if kind == ConicClass.PARABOLA:
        polys = trace_zero_set(
            lambda x, y: framed(Point2((x - ox) / s, (y - oy) / s)),
            bbox,
            n_seeds=128,
        )
        return [p for p in polys if len(p) >= 2]
    cen = conic_center(framed)
    evals, evecs = np.linalg.eigh(Q)
    vh = np.array([cen.x, cen.y, 1.0])
    k = -float(vh @ m @ vh)
    if kind in (ConicClass.CIRCLE, ConicClass.ELLIPSE):
        semis = [math.sqrt(k / e) for e in evals]
        pts = []
        for i in range(MIN_CONIC_SAMPLES + 1):
            ang = 2.0 * math.pi * i / MIN_CONIC_SAMPLES
            u = semis[0] * math.cos(ang)
            v = semis[1] * math.sin(ang)
            pts.append(
                plane(
                    cen.x + u * evecs[0, 0] + v * evecs[0, 1],
                    cen.y + u * evecs[1, 0] + v * evecs[1, 1],
                )
            )
        return [pts]
    # Hyperbola: k/evals has one positive (transverse) and one negative entry.
    ratios = k / evals
    it = int(np.argmax(ratios))
    io = 1 - it
    a = math.sqrt(ratios[it])
    b = math.sqrt(-ratios[io])
    reach = 4.0 * (2.0 * half / s) / a + 2.0
    umax = math.log(reach + math.sqrt(reach * reach + 1.0))
    branches = []
    for sgn in (1.0, -1.0):
        pts = []
        for i in range(MIN_CONIC_SAMPLES + 1):
            u = -umax + 2.0 * umax * i / MIN_CONIC_SAMPLES
            x1 = sgn * a * math.cosh(u)
            x2 = b * math.sinh(u)
            pts.append(
                plane(
                    cen.x + x1 * evecs[0, it] + x2 * evecs[0, io],
                    cen.y + x1 * evecs[1, it] + x2 * evecs[1, io],
                )
            )
        branches.extend(_clip_polyline(pts, bbox))
    return branches


# Conic branches run this fraction of the view's width and height past
# its edges before they are cut.
_CLIP_MARGIN = 0.25


def _clip_polyline(pts: list[Point2], bbox) -> list[list[Point2]]:
    """Split a polyline into runs inside the bbox expanded by _CLIP_MARGIN."""
    xmin, xmax, ymin, ymax = bbox
    mx = _CLIP_MARGIN * (xmax - xmin)
    my = _CLIP_MARGIN * (ymax - ymin)
    runs: list[list[Point2]] = []
    cur: list[Point2] = []
    for p in pts:
        if xmin - mx <= p.x <= xmax + mx and ymin - my <= p.y <= ymax + my:
            cur.append(p)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return [r for r in runs if len(r) >= 2]


def _clip_line(line: LineEq, bbox) -> list[list[Point2]]:
    xmin, xmax, ymin, ymax = bbox
    pts = []
    for (x1, y1, x2, y2) in (
        (xmin, ymin, xmax, ymin),
        (xmax, ymin, xmax, ymax),
        (xmax, ymax, xmin, ymax),
        (xmin, ymax, xmin, ymin),
    ):
        # Intersect with each bbox edge.
        ex, ey = x2 - x1, y2 - y1
        den = line.l * ex + line.m * ey
        if den == 0.0:
            continue
        tpar = -(line.l * x1 + line.m * y1 + line.n) / den
        if -1e-12 <= tpar <= 1.0 + 1e-12:
            pts.append(Point2(x1 + tpar * ex, y1 + tpar * ey))
    uniq = []
    for p in pts:
        if not any(abs(p.x - q.x) + abs(p.y - q.y) < 1e-12 * (1 + abs(p.x) + abs(p.y)) for q in uniq):
            uniq.append(p)
    if len(uniq) >= 2:
        return [[uniq[0], uniq[1]]]
    return []


def _ellipse_box(c: Conic) -> list[tuple[float, float]]:
    """Two opposite corners of the axis-aligned box of a real ellipse or
    circle; no corners for any other conic.

    With the quadratic part Q, the linear part b and the constant f, the
    center is -Q^-1 b and the curve is (p - center)^T Q (p - center) = k,
    k = -(b . center + f); its half-widths are sqrt(k (Q^-1)_xx) and
    sqrt(k (Q^-1)_yy).  Only signs are tested, so the box does not depend
    on where the conic lies or on the scale of its coefficients.
    """
    m = c.m
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if not det > 0.0:
        return []
    cx, cy = np.linalg.solve(m[:2, :2], -m[:2, 2])
    k = -(m[0, 2] * cx + m[1, 2] * cy + m[2, 2])
    if not k * m[0, 0] > 0.0:
        return []
    hx, hy = math.sqrt(k * m[1, 1] / det), math.sqrt(k * m[0, 0] / det)
    return [(cx - hx, cy - hy), (cx + hx, cy + hy)]


def _scene_bbox(scene: Scene):
    xs, ys = [], []

    def add(p):
        xs.append(p[0])
        ys.append(p[1])

    if scene.triangle is not None:
        for v in scene.triangle.vertices():
            add((v.x, v.y))
    if scene.p is not None:
        add((scene.p.x, scene.p.y))
    for trj in scene.triads:
        for v in trj["vertices"]:
            add(v)
        if trj.get("p"):
            add(trj["p"])
    for c in scene.circles:
        add((c.center.x - c.radius, c.center.y - c.radius))
        add((c.center.x + c.radius, c.center.y + c.radius))
    for _, p in scene.points:
        add((p.x, p.y))
    for line in scene.polylines:
        for q in line:
            add((q.x, q.y))
    for con in scene.conics:
        for corner in _ellipse_box(con):
            add(corner)
    if not xs:
        raise EmptyScene("nothing to render")
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.08 * span
    return (xmin - pad, xmax + pad, ymin - pad, ymax + pad)


def _path(points, stroke, width, dashed=False) -> str:
    d = "M " + " L ".join(f"{p.x:.6g} {-p.y:.6g}" for p in points)
    dash = ' stroke-dasharray="0.02 0.012"' if dashed else ""
    return (
        f'<path d="{d}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"{dash}/>'
    )


_TRIAD_COLORS = ("#cc3311", "#117733", "#0077bb")


def emit_svg(scene: Scene) -> str:
    """Valid standalone SVG for the scene; y axis points up."""
    if scene.is_empty():
        raise EmptyScene("empty scene")
    bbox = _scene_bbox(scene)
    xmin, xmax, ymin, ymax = bbox
    w = xmax - xmin
    h = ymax - ymin
    stroke_w = max(w, h) / 400.0
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{xmin:.6g} {-ymax:.6g} '
        f'{w:.6g} {h:.6g}" width="720" height="{720 * h / w:.0f}">',
    ]
    if scene.triangle is not None:
        t = scene.triangle
        pts = [t.a, t.b, t.c, t.a]
        out.append(_path(pts, "#000000", stroke_w * 1.2))
    for trj in scene.triads:
        members = trj.get("members", [])
        for idx, mj in enumerate(members):
            if mj is None:
                continue
            from .conic import FocalConic, conic_from_foci

            fc = FocalConic(
                Point2(*mj["focus1"]),
                Point2(*mj["focus2"]),
                mj["axis_length"],
                mj["kind"],
            )
            for branch in _conic_samples(conic_from_foci(fc), bbox):
                out.append(
                    _path(branch, _TRIAD_COLORS[idx % 3], stroke_w)
                )
        spc = trj.get("six_point_conic")
        if spc:
            for branch in _conic_samples(_conic_from_json(spc), bbox):
                out.append(_path(branch, "#aa3377", stroke_w, dashed=True))
    for con in scene.conics:
        for branch in _conic_samples(con, bbox):
            out.append(_path(branch, "#aa3377", stroke_w))
    for c in scene.circles:
        out.append(
            f'<circle cx="{c.center.x:.6g}" cy="{-c.center.y:.6g}" r="{c.radius:.6g}" '
            f'fill="none" stroke="#555555" stroke-width="{stroke_w}"/>'
        )
    for line in scene.polylines:
        if len(line) >= 2:
            out.append(_path(line, "#bb9900", stroke_w))
    for label, p in scene.points:
        out.append(
            f'<circle cx="{p.x:.6g}" cy="{-p.y:.6g}" r="{stroke_w * 2.5:.6g}" '
            f'fill="#000000"/>'
        )
        out.append(
            f'<text x="{p.x + 3 * stroke_w:.6g}" y="{-p.y - 3 * stroke_w:.6g}" '
            f'font-size="{12 * stroke_w:.6g}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
