"""SVG figure emission and PPM region maps.

Rendering is a pure function of the scene.  Each conic is drawn as the SVG
primitive of its class (_primitives): an ellipse or circle as one
<ellipse> with a rotate transform, a parabola as one quadratic Bezier
(M P0 Q P1 P2), each line of a degenerate conic as one <line> between two
points beyond the view, and a hyperbola, which no SVG primitive draws
exactly, as one sampled path a branch.  Triad members are drawn from their
foci and axis length, and a triad's six-point conic from the fit of its six
vertices (kernels.fit_six), in the fit's frame; circles and labeled points
map to native SVG elements.  The root <svg> clips everything to its viewport.  Every number
is written with the same fixed count of decimals, the fewest that round it
by at most _ROUNDING of the view's span.  Region maps are written as plain
P3 ASCII with the palette below.
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
    split_degenerate,
)
from .errors import EmptyScene, LineOnConic
from .geom import LineEq, Point2
from .kernels import _hypot, fit_six, frame_center
from .loci import RegionGrid
from .scene import Scene

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


def _framed(c: Conic, ox: float, oy: float, half: float):
    """The coefficients of c in the frame u = (x - ox) / s, v = (y - oy) / s
    at a view's center (ox, oy), and the frame (ox, oy, s).

    s is the view's half span, or the conic's own reach from (ox, oy)
    where that is larger (sqrt of its value there over its largest
    quadratic coefficient), so a conic much larger than the view keeps its
    class, and a scene draws the same curves wherever it sits in the plane;
    1 where both are 0.
    """
    quad = np.abs(c.m[:2, :2]).max()
    s = (max(half, math.sqrt(abs(c(Point2(ox, oy))) / quad)) if quad > 0.0 else half) or 1.0
    return _substituted(c.coeffs(), s, 0.0, ox, oy), (ox, oy, s)


def _primitives(co, frame, view) -> list[tuple]:
    """The SVG primitives of the conic co, given in frame (ox, oy, s) (the
    frame of _framed or of a fit), as it is classified there, in plane
    coordinates, laid out for the view (center x, y, half span) with r =
    max(s, half span) / s frame units, which span the view from its center:

    - an ellipse, circle or hyperbola: (kind, center, (a, b), u), with kind
      "ellipse" or "hyperbola", the semi-axes a along the unit vector u (the
      major or transverse axis) and b across it, as a FocalConic gives them;
    - a parabola: ("bezier", P0, P1, P2), the curve at q = -2r and 2r from
      the view's center along the non-null eigenvector of the framed
      quadratic part, which span the view and its margin, and P1 the pole
      of that chord, where the tangents at P0 and P2 meet: a weight-1
      quadratic Bezier is a parabola;
    - each real line of a degenerate conic: ("line", P, Q), its points 3r
      before and after its point nearest the view's center, beyond the
      view.  The line at infinity (l = m = 0) of a conic without quadratic
      part is no line of the plane and has none.

    A point conic and an ellipse without real points have none.
    """
    ox, oy, s = frame
    vx, vy, half = view
    framed = Conic.from_coeffs(co)
    kind = classify(framed)
    mid = np.array([(vx - ox) / s, (vy - oy) / s, 1.0])
    r = max(s, half) / s

    def plane(x):
        """The plane point of homogeneous frame coordinates x."""
        return Point2(ox + s * x[0] / x[2], oy + s * x[1] / x[2])

    if kind.is_degenerate():
        out = []
        for ln in _lines(framed):
            if ln.l or ln.m:
                g = np.array([ln.l, ln.m, 0.0])
                foot = mid - (g @ mid + ln.n) / (g @ g) * g
                along = 3.0 * r / math.sqrt(g @ g) * np.array([-ln.m, ln.l, 0.0])
                out.append(("line", plane(foot - along), plane(foot + along)))
        return out
    m = framed.m
    evals, evecs = np.linalg.eigh(m[:2, :2])
    if kind == ConicClass.PARABOLA:
        # The curve meets X + p E, X = mid + q e_q and E = e_p the near-null
        # eigenvector, where a p^2 + b p + c = 0; its root that stays finite
        # as a goes to 0.
        ep, eq = evecs[:, np.argsort(np.abs(evals))].T
        E = np.array([*ep, 0.0])
        ends = []
        for q in (-2.0 * r, 2.0 * r):
            X = mid + np.array([*(q * eq), 0.0])
            a, b, c = E @ m @ E, 2.0 * (X @ m @ E), X @ m @ X
            p = -2.0 * c / (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
            ends.append(X + p * E)
        return [("bezier", *map(plane, (ends[0], np.cross(m @ ends[0], m @ ends[1]), ends[1])))]
    cen = conic_center(framed)
    vh = np.array([cen.x, cen.y, 1.0])
    # k/evals: both positive for an ellipse, one positive (transverse) for a
    # hyperbola, none for an ellipse without real points.
    ratios = -float(vh @ m @ vh) / evals
    i = int(np.argmax(ratios))
    if not ratios[i] > 0.0:
        return []
    name = "ellipse" if kind in (ConicClass.CIRCLE, ConicClass.ELLIPSE) else "hyperbola"
    axes = (s * math.sqrt(ratios[i]), s * math.sqrt(abs(ratios[1 - i])))
    return [(name, plane(vh), axes, Point2(*evecs[:, i]))]


def _member(mj: dict) -> tuple:
    """The primitive of a triad member record, read from its FocalConic:
    the foci's midpoint, semi-axes axis_length / 2 and across, along the
    focal axis."""
    fc = FocalConic(Point2(*mj["focus1"]), Point2(*mj["focus2"]), mj["axis_length"], mj["kind"])
    return (fc.kind, fc.center, fc.semi_axes(), fc.axis_unit())


def _branches(prim, bbox) -> list[tuple[np.ndarray, np.ndarray]]:
    """Both branches (xs, ys) of the hyperbola primitive prim, each sampled
    at MIN_CONIC_SAMPLES + 1 hyperbolic angles in its own frame, out to
    about four view spans from its center.  A branch keeps the samples from
    the one before its first inside bbox to the one after its last, and
    none if it misses bbox; the viewport clips the rest."""
    _, c, (a, b), u = prim
    xmin, xmax, ymin, ymax = bbox
    umax = math.asinh(4.0 * max(xmax - xmin, ymax - ymin) / a + 2.0)
    t = -umax + 2.0 * umax * np.arange(MIN_CONIC_SAMPLES + 1) / MIN_CONIC_SAMPLES
    w1, w2 = a * np.cosh(t), b * np.sinh(t)
    out = []
    for sgn in (1.0, -1.0):
        xs, ys = c.x + sgn * w1 * u.x - w2 * u.y, c.y + sgn * w1 * u.y + w2 * u.x
        inside = np.flatnonzero((xmin <= xs) & (xs <= xmax) & (ymin <= ys) & (ys <= ymax))
        if inside.size:
            keep = slice(max(inside[0] - 1, 0), inside[-1] + 2)
            out.append((xs[keep], ys[keep]))
    return out


def _scene_bbox(scene: Scene):
    """The view box of the scene, padded by 0.08 of its span: its points,
    circles, polylines and triads, and of each of its conics, framed
    (_framed) at the centre of that other content, the box of an ellipse
    and a line's point nearest that centre.  Where there is no other
    content, a conic is framed at its own center if it has one, which a
    frame at the origin finds, and otherwise at the origin; the origin
    joins the box then if there are lines."""
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
    view = ((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0,
            max(max(xs) - min(xs), max(ys) - min(ys)) / 2.0) if xs else (0.0, 0.0, 0.0)

    def framed(con):
        if xs:
            return _framed(con, *view)
        x, y, has_center = frame_center(*_framed(con, *view))
        return _framed(con, x, y, 0.0) if has_center else _framed(con, *view)

    prims = []
    for con in scene.conics:
        co, frame = framed(con)
        prims += _primitives(co, frame, frame)
    if not xs and any(kind == "line" for kind, *_ in prims):
        add((0.0, 0.0))
    for kind, c, *rest in prims:
        if kind == "line":
            add(((c.x + rest[0].x) / 2.0, (c.y + rest[0].y) / 2.0))
        elif kind == "ellipse":
            (a, b), u = rest
            hx, hy = _hypot(a * u.x, b * u.y), _hypot(a * u.y, b * u.x)
            add((c.x - hx, c.y - hy))
            add((c.x + hx, c.y + hy))
    if not xs:
        raise EmptyScene("nothing to render")
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.08 * span
    return (xmin - pad, xmax + pad, ymin - pad, ymax + pad)


# Every number of an SVG is rounded by at most this fraction of its view's
# span: far below a stroke (1/400 of the span), and fine enough that
# points read back from the SVG lie on their conic to 1e-9.
_ROUNDING = 1e-12


def _decimals(span: float) -> int:
    """The fewest decimals that round by at most _ROUNDING * span."""
    return max(0, math.ceil(math.log10(0.5 / (_ROUNDING * span))))


def _number(v: float, decimals: int) -> str:
    """v at a fixed number of decimals, without trailing zeros or a minus
    sign on zero."""
    text = f"{v:.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


_TRIAD_COLORS = ("#cc3311", "#117733", "#0077bb")


def emit_svg(scene: Scene) -> str:
    """Valid standalone SVG for the scene; y axis points up."""
    if scene.is_empty():
        raise EmptyScene("empty scene")
    bbox = _scene_bbox(scene)
    xmin, xmax, ymin, ymax = bbox
    w = xmax - xmin
    h = ymax - ymin
    span = max(w, h)
    view = ((xmin + xmax) / 2.0, (ymin + ymax) / 2.0, span / 2.0)
    decimals = _decimals(span)
    stroke_w = span / 400.0

    def num(v):
        return _number(v, decimals)

    def xy(x, y):
        return f"{num(x)} {num(-y)}"

    def at(p, x="x", y="y"):
        return f'{x}="{num(p.x)}" {y}="{num(-p.y)}"'

    def drawn(stroke, width=stroke_w, dashed=False):
        dash = ' stroke-dasharray="0.02 0.012"' if dashed else ""
        return f'fill="none" stroke="{stroke}" stroke-width="{num(width)}"{dash}'

    def path(xs, ys, style):
        return f'<path d="M {" ".join(map(xy, xs, ys))}" {style}/>'

    def curve(prim, style) -> list[str]:
        kind, c, *rest = prim
        if kind == "line":
            return [f'<line {at(c, "x1", "y1")} {at(rest[0], "x2", "y2")} {style}/>']
        if kind == "bezier":
            return [f'<path d="M {xy(c.x, c.y)} Q {" ".join(xy(p.x, p.y) for p in rest)}" {style}/>']
        if kind == "hyperbola":
            return [path(xs, ys, style) for xs, ys in _branches(prim, bbox)]
        (a, b), u = rest
        deg = _number(math.degrees(math.atan2(-u.y, u.x)), _decimals(360.0))
        return [f'<ellipse {at(c, "cx", "cy")} rx="{num(a)}" ry="{num(b)}" '
                f'transform="rotate({deg} {xy(c.x, c.y)})" {style}/>']

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{num(xmin)} {num(-ymax)} '
        f'{num(w)} {num(h)}" width="720" height="{720 * h / w:.0f}">',
    ]
    if scene.triangle is not None:
        corners = [*scene.triangle.vertices(), scene.triangle.a]
        out.append(path([p.x for p in corners], [p.y for p in corners], drawn("#000000", stroke_w * 1.2)))
    for trj in scene.triads:
        for stroke, mj in zip(_TRIAD_COLORS, trj.get("members", [])):
            if mj is not None:
                out += curve(_member(mj), drawn(stroke))
        if trj.get("six_point_conic"):
            # The fit of the stored vertices that gave the stored conic and
            # class, in its own frame: there the class is the stored one,
            # and the curve keeps the vertices' precision wherever they lie.
            co, frame, _ = fit_six(*zip(*trj["vertices"]))
            for prim in _primitives(co, frame, view):
                out += curve(prim, drawn("#aa3377", dashed=True))
    for con in scene.conics:
        for prim in _primitives(*_framed(con, *view), view):
            out += curve(prim, drawn("#aa3377"))
    for c in scene.circles:
        out.append(f'<circle {at(c.center, "cx", "cy")} r="{num(c.radius)}" {drawn("#555555")}/>')
    for line in scene.polylines:
        if len(line) >= 2:
            out.append(path([q.x for q in line], [q.y for q in line], drawn("#bb9900")))
    for label, p in scene.points:
        out.append(f'<circle {at(p, "cx", "cy")} r="{num(stroke_w * 2.5)}" fill="#000000"/>')
        out.append(f'<text {at(p + Point2(3 * stroke_w, 3 * stroke_w))} '
                   f'font-size="{num(12 * stroke_w)}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
