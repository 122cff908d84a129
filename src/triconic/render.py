"""SVG figure emission and PPM region maps.

Rendering is a pure function of the scene: conics are sampled into paths
(one parametric grid for ellipses, hyperbolas and parabolas, clipped
segments for line pairs), circles and labeled points map to native SVG
elements.  Region maps are written as plain P3 ASCII with the palette
below.
"""

from __future__ import annotations

import math

import numpy as np

from .conic import (
    Conic,
    ConicClass,
    FocalConic,
    _substituted,
    center as conic_center,
    classify,
    conic_from_foci,
    split_degenerate,
)
from .errors import EmptyScene, LineOnConic
from .geom import LineEq, Point2
from .loci import RegionGrid
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


def _lines(c: Conic) -> tuple[LineEq, ...]:
    """The distinct real lines of a degenerate conic (split_degenerate);
    none for a conic without line components (LineOnConic)."""
    try:
        g, h = split_degenerate(c)
    except LineOnConic:
        return ()
    return (g,) if g == h else (g, h)


def _conic_samples(c: Conic, bbox) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sampled branches (xs, ys) of a Cartesian conic, clipped to bbox.

    The conic is classified, split and sampled in a frame at the center
    (ox, oy) of bbox, u = (x - ox) / s and v = (y - oy) / s, so a scene
    draws the same curves wherever it sits in the plane.  s is half the
    span of bbox, or the conic's own reach from (ox, oy) where that is
    larger (sqrt of its value there over its largest quadratic
    coefficient), so a conic much larger than the view keeps its class.

    Every curve is sampled at the MIN_CONIC_SAMPLES + 1 steps i of one
    grid, in the eigenframe of the framed quadratic part: an ellipse by
    angle, each hyperbola branch by hyperbolic angle, and a parabola
    along its non-null eigendirection q in [-2, 2], which spans the view
    and its margin, taking at each q the root in p along the near-null
    direction that stays finite as its quadratic coefficient goes to 0.
    """
    xmin, xmax, ymin, ymax = bbox
    ox, oy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    half = max(xmax - xmin, ymax - ymin) / 2.0
    quad = np.abs(c.m[:2, :2]).max()
    s = max(half, math.sqrt(abs(c(Point2(ox, oy))) / quad)) if quad > 0.0 else half
    framed = Conic.from_coeffs(_substituted(c.coeffs(), s, 0.0, ox, oy))

    kind = classify(framed)
    if kind.is_degenerate():
        lines = (LineEq(ln.l, ln.m, ln.n * s - ln.l * ox - ln.m * oy) for ln in _lines(framed))
        return [seg for line in lines for seg in _clip_line(line, bbox)]
    m = framed.m
    Q = np.array([[m[0, 0], m[0, 1]], [m[0, 1], m[1, 1]]])
    evals, evecs = np.linalg.eigh(Q)
    i = np.arange(MIN_CONIC_SAMPLES + 1)
    if kind == ConicClass.PARABOLA:
        # a p^2 + b p + c(q) = 0 along the near-null eigenvector e_p.
        ip = int(np.argmin(np.abs(evals)))
        iq = 1 - ip
        a = evals[ip]
        b = 2.0 * float(m[:2, 2] @ evecs[:, ip])
        q = -2.0 + 4.0 * i / MIN_CONIC_SAMPLES
        cq = evals[iq] * q * q + 2.0 * float(m[:2, 2] @ evecs[:, iq]) * q + m[2, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = -2.0 * cq / (b + math.copysign(1.0, b) * np.sqrt(b * b - 4.0 * a * cq))
        cen, axes, branches = Point2(0.0, 0.0), (ip, iq), [(p, q)]
    else:
        cen = conic_center(framed)
        vh = np.array([cen.x, cen.y, 1.0])
        k = -float(vh @ m @ vh)
        if kind in (ConicClass.CIRCLE, ConicClass.ELLIPSE):
            semis = [math.sqrt(k / e) for e in evals]
            ang = 2.0 * math.pi * i / MIN_CONIC_SAMPLES
            axes, branches = (0, 1), [(semis[0] * np.cos(ang), semis[1] * np.sin(ang))]
        else:
            # k/evals has one positive (transverse) and one negative entry.
            ratios = k / evals
            it = int(np.argmax(ratios))
            a = math.sqrt(ratios[it])
            b = math.sqrt(-ratios[1 - it])
            reach = 4.0 * (2.0 * half / s) / a + 2.0
            umax = math.log(reach + math.sqrt(reach * reach + 1.0))
            u = -umax + 2.0 * umax * i / MIN_CONIC_SAMPLES
            x2 = b * np.sinh(u)
            axes, branches = (it, 1 - it), [(sgn * a * np.cosh(u), x2) for sgn in (1.0, -1.0)]
    e1, e2 = evecs[:, axes[0]], evecs[:, axes[1]]
    curves = [
        (ox + s * (cen.x + w1 * e1[0] + w2 * e2[0]), oy + s * (cen.y + w1 * e1[1] + w2 * e2[1]))
        for w1, w2 in branches
    ]
    if kind in (ConicClass.CIRCLE, ConicClass.ELLIPSE):
        return curves
    return [run for xs, ys in curves for run in _clip_runs(xs, ys, bbox)]


# Conic branches run this fraction of the view's width and height past
# its edges before they are cut.
_CLIP_MARGIN = 0.25


def _clip_runs(xs, ys, bbox) -> list[tuple[np.ndarray, np.ndarray]]:
    """The runs of two or more samples inside bbox expanded by _CLIP_MARGIN."""
    xmin, xmax, ymin, ymax = bbox
    mx = _CLIP_MARGIN * (xmax - xmin)
    my = _CLIP_MARGIN * (ymax - ymin)
    inside = (xmin - mx <= xs) & (xs <= xmax + mx) & (ymin - my <= ys) & (ys <= ymax + my)
    # Run starts and ends alternate among the steps of the padded mask.
    bounds = np.flatnonzero(np.diff(np.concatenate(([False], inside, [False]))))
    return [(xs[j:k], ys[j:k]) for j, k in zip(bounds[::2], bounds[1::2]) if k - j >= 2]


def _clip_line(line: LineEq, bbox) -> list[tuple[np.ndarray, np.ndarray]]:
    """The segment of a line inside bbox, from its first two distinct
    crossings of the bbox edges (bottom, right, top, left); none if it
    misses the box."""
    xmin, xmax, ymin, ymax = bbox
    x1 = np.array([xmin, xmax, xmax, xmin])
    y1 = np.array([ymin, ymin, ymax, ymax])
    ex, ey = np.roll(x1, -1) - x1, np.roll(y1, -1) - y1
    den = line.l * ex + line.m * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        tpar = -(line.l * x1 + line.m * y1 + line.n) / den
        hit = (den != 0.0) & (-1e-12 <= tpar) & (tpar <= 1.0 + 1e-12)
        xs, ys = (x1 + tpar * ex)[hit], (y1 + tpar * ey)[hit]
    distinct = np.abs(xs - xs[:1]) + np.abs(ys - ys[:1]) >= 1e-12 * (1 + np.abs(xs) + np.abs(ys))
    if not distinct.any():
        return []
    j = int(np.argmax(distinct))
    return [(np.array([xs[0], xs[j]]), np.array([ys[0], ys[j]]))]


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
    """The view box of the scene, padded by 0.08 of its span: its points,
    circles, polylines, triads and ellipse boxes (_ellipse_box), and for
    each line of a degenerate scene conic (_lines) the point of
    the line nearest the centre of that other content, or nearest the
    origin, which then joins the box too, when there is none."""
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
    lines = [np.array((ln.l, ln.m, ln.n)) for con in scene.conics for ln in _lines(con) if ln.l or ln.m]
    if lines:
        if not xs:
            add((0.0, 0.0))
        o = np.array([min(xs) + max(xs), min(ys) + max(ys), 2.0]) / 2.0
        for g in lines:
            add(o[:2] - g[:2] * (g @ o) / (g[:2] @ g[:2]))
    if not xs:
        raise EmptyScene("nothing to render")
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.08 * span
    return (xmin - pad, xmax + pad, ymin - pad, ymax + pad)


def _path(xs, ys, stroke, width, dashed=False) -> str:
    pts = zip(np.asarray(xs).tolist(), (-np.asarray(ys)).tolist())
    d = "M " + " L ".join(f"{x:.6g} {y:.6g}" for x, y in pts)
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
        out.append(_path([p.x for p in pts], [p.y for p in pts], "#000000", stroke_w * 1.2))
    for trj in scene.triads:
        members = trj.get("members", [])
        for idx, mj in enumerate(members):
            if mj is None:
                continue
            fc = FocalConic(
                Point2(*mj["focus1"]),
                Point2(*mj["focus2"]),
                mj["axis_length"],
                mj["kind"],
            )
            for xs, ys in _conic_samples(conic_from_foci(fc), bbox):
                out.append(_path(xs, ys, _TRIAD_COLORS[idx % 3], stroke_w))
        spc = trj.get("six_point_conic")
        if spc:
            for xs, ys in _conic_samples(_conic_from_json(spc), bbox):
                out.append(_path(xs, ys, "#aa3377", stroke_w, dashed=True))
    for con in scene.conics:
        for xs, ys in _conic_samples(con, bbox):
            out.append(_path(xs, ys, "#aa3377", stroke_w))
    for c in scene.circles:
        out.append(
            f'<circle cx="{c.center.x:.6g}" cy="{-c.center.y:.6g}" r="{c.radius:.6g}" '
            f'fill="none" stroke="#555555" stroke-width="{stroke_w}"/>'
        )
    for line in scene.polylines:
        if len(line) >= 2:
            out.append(_path([q.x for q in line], [q.y for q in line], "#bb9900", stroke_w))
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
