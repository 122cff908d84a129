"""General conics: representation, classification, focal construction,
five-point fitting, degenerate splitting and conic-conic intersection.

A conic is stored as a symmetric 3x3 matrix m with p^T m p = 0 for
p = (x, y, 1).  Matrices are normalized to unit Frobenius norm on
construction, by kernels.frobenius of the symmetrized coefficients, so the
fixed algebraic thresholds in config apply uniformly; a fitted conic is
classified in its fit's frame.  A change of frame acts on a conic as a
substitution of coordinates (_substituted, six coefficients in closed
form), whose constant term is the conic's value at a point (also
Conic.__call__): no conic is built, normalized or evaluated through BLAS
(`@`, np.linalg.norm), whose last bits change from machine to machine;
only the pencil route keeps them.  A conic given in barycentrics (p = (u,
v, w) relative to a reference triangle), such as kernels.privalov's, stays
a bare matrix; the verifier maps it to the plane on arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import DET_DEGENERATE_TOL
from .errors import (
    InvalidAxisLength,
    LineOnConic,
    NoFiniteCenter,
    RankDeficient,
)
from .geom import LineEq, Point2, distance, midpoint
from .kernels import (
    CLASS_NAMES, classify_code, conic_residual, fit5, frame_center, frobenius, tangency_disc,
)


class ConicClass(enum.Enum):
    CIRCLE = "circle"
    ELLIPSE = "ellipse"
    PARABOLA = "parabola"
    HYPERBOLA = "hyperbola"
    RECTANGULAR_HYPERBOLA = "rectangular_hyperbola"
    DEGENERATE_TWO_LINES = "degenerate_two_lines"
    DEGENERATE_PARALLEL_LINES = "degenerate_parallel_lines"
    DEGENERATE_POINT = "degenerate_point"

    def is_degenerate(self) -> bool:
        return self in (
            ConicClass.DEGENERATE_TWO_LINES,
            ConicClass.DEGENERATE_PARALLEL_LINES,
            ConicClass.DEGENERATE_POINT,
        )


@dataclass(frozen=True)
class Conic:
    """Symmetric coefficient matrix of a Cartesian conic."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"conic matrix must be 3x3, got {m.shape}")
        if not np.abs(m - m.T).max() <= 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError("conic matrix must be symmetric")
        object.__setattr__(self, "m", (m + m.T) / 2.0)
        norm = frobenius(self.coeffs())
        if norm == 0.0:
            raise ValueError("zero conic matrix")
        object.__setattr__(self, "m", self.m / norm)

    @classmethod
    def from_coeffs(cls, coeffs) -> "Conic":
        """Coefficients in the order [xx, xy, yy, x, y, 1]."""
        A, B, C, D, E, F = (float(t) for t in coeffs)
        b, d, e = B / 2.0, D / 2.0, E / 2.0
        return cls(np.array([[A, b, d], [b, C, e], [d, e, F]]))

    def coeffs(self) -> tuple[float, float, float, float, float, float]:
        (a, b, d), (_, c, e), (_, _, f) = self.m.tolist()
        return (a, 2.0 * b, c, 2.0 * d, 2.0 * e, f)

    def __call__(self, p: Point2) -> float:
        """The value at p: _substituted's constant term at p."""
        return _substituted(self.coeffs(), 0.0, 0.0, p.x, p.y)[5]


def _substituted(co, a, b, cu, cv) -> tuple:
    """The coefficients (xx, xy, yy, x, y, 1) in (x, y) of the conic co in
    (u, v) under the similarity u = a x + b y + cu, v = -b x + a y + cv (a
    rotation and scaling by (a, b), then a translation): the matrix T^T M T
    of that change of frame T, written out in closed form.  The linear
    terms come from co's gradient at (cu, cv), and the constant term is
    co's value there, in Horner form (Conic.__call__)."""
    A, B, C, D, E, F = co
    gu, gv = 2.0 * A * cu + B * cv + D, B * cu + 2.0 * C * cv + E
    return (
        (A * a - B * b) * a + C * b * b,
        2.0 * A * a * b - 2.0 * C * b * a + B * (a * a - b * b),
        (A * b + B * a) * b + C * a * a,
        gu * a - gv * b,
        gu * b + gv * a,
        (A * cu + B * cv + D) * cu + (C * cv + E) * cv + F,
    )


@dataclass(frozen=True)
class FocalConic:
    """Ellipse or hyperbola given by its two foci and 2*alpha.

    axis_length is the sum of focal radii for an ellipse and the absolute
    difference for a hyperbola.
    """

    focus1: Point2
    focus2: Point2
    axis_length: float
    kind: str  # "ellipse" | "hyperbola"

    def __post_init__(self):
        if self.kind not in ("ellipse", "hyperbola"):
            raise ValueError(f"unknown focal conic kind {self.kind!r}")
        f = distance(self.focus1, self.focus2)
        if not (self.axis_length > 0.0):
            raise InvalidAxisLength(f"axis_length {self.axis_length} must be > 0")
        if self.kind == "ellipse" and not (self.axis_length > f):
            raise InvalidAxisLength(
                f"ellipse needs axis_length > focal distance ({self.axis_length} <= {f})"
            )
        if self.kind == "hyperbola" and not (0.0 < self.axis_length < f):
            raise InvalidAxisLength(
                f"hyperbola needs 0 < axis_length < focal distance ({self.axis_length} vs {f})"
            )

    @property
    def center(self) -> Point2:
        return midpoint(self.focus1, self.focus2)

    def axis_unit(self) -> Point2:
        d = self.focus1 - self.focus2
        n = d.norm()
        return Point2(d.x / n, d.y / n)

    def semi_axes(self) -> tuple[float, float]:
        """(alpha, beta): semi axis along the focal line and perpendicular."""
        alpha = self.axis_length / 2.0
        chalf = distance(self.focus1, self.focus2) / 2.0
        beta = math.sqrt(abs(alpha * alpha - chalf * chalf))
        return alpha, beta


def conic_from_foci(fc: FocalConic) -> Conic:
    """Cartesian conic of {q : |q-f1| +- |q-f2| = +-axis_length}."""
    alpha, beta = fc.semi_axes()
    o = fc.center
    u = fc.axis_unit()
    v = u.perp()
    s = 1.0 if fc.kind == "ellipse" else -1.0
    # X^2 / alpha^2 + s Y^2 / beta^2 = 1 in the focal frame: X along u, Y
    # along its perpendicular v, from the center o.
    focal = (1.0 / (alpha * alpha), 0.0, s / (beta * beta), 0.0, 0.0, -1.0)
    return Conic.from_coeffs(
        _substituted(focal, u.x, u.y, -(u.x * o.x + u.y * o.y), -(v.x * o.x + v.y * o.y)))


def covertices_of_focal_conic(fc: FocalConic) -> tuple[Point2, Point2]:
    """For a hyperbola these are the conjugate-axis endpoints (rendering only)."""
    _, beta = fc.semi_axes()
    o, v = fc.center, fc.axis_unit().perp()
    return (o + beta * v, o + (-beta) * v)


def classify(c: Conic) -> ConicClass:
    """Classify a conic by kernels.classify_code.  A fitted conic is
    classified in the frame of its fit instead (FramedFit.conic_class)."""
    return _conic_class(c.coeffs())


def _conic_class(coeffs) -> ConicClass:
    return ConicClass(CLASS_NAMES[classify_code(coeffs)[0]])


def center(c: Conic) -> Point2:
    """Finite center (kernels.frame_center): gradient solution for central
    conics, singular point for a crossing line pair."""
    x, y, has_center = frame_center(c.coeffs(), (0.0, 0.0, 1.0))
    if not has_center:
        # Quadratic part singular: only a line pair crossing at infinity or
        # a parabola remains; neither has a finite center.
        raise NoFiniteCenter("conic has no finite center")
    return Point2(x, y)


@dataclass(frozen=True)
class FramedFit:
    """A five-point fit in the frame of its points (kernels.fit5): the
    coefficients (xx, xy, yy, x, y, 1) of u = (x - ox) / s, v = (y - oy) / s,
    and the frame (ox, oy, s).  Class and center are decided in the frame,
    so they do not change when the points are moved, rotated or scaled."""

    coeffs: tuple[float, float, float, float, float, float]
    frame: tuple[float, float, float]

    def conic(self) -> Conic:
        """The fitted conic in plane coordinates: s^2 times the frame
        coefficients under u = (x - ox) / s, v = (y - oy) / s
        (_substituted of the coefficients in s u and s v)."""
        A, B, C, D, E, F = self.coeffs
        ox, oy, s = self.frame
        scaled = (A, B, C, D * s, E * s, F * s * s)
        return Conic.from_coeffs(_substituted(scaled, 1.0, 0.0, -ox, -oy))

    def conic_class(self) -> ConicClass:
        return _conic_class(self.coeffs)

    def center(self) -> Point2 | None:
        """Finite center as in conic.center, None without one."""
        x, y, has_center = frame_center(self.coeffs, self.frame)
        return Point2(x, y) if has_center else None


def fit_framed(pts) -> FramedFit:
    """kernels.fit5 of five Point2s.

    RankDeficient when the points do not determine a unique conic: then all
    six cofactors vanish.  In the frame the design matrix has Frobenius norm
    between sqrt(15) and sqrt(35) whatever the points, so the cofactor norm
    (the product of its singular values) is compared with the absolute
    DET_DEGENERATE_TOL.
    """
    pts = list(pts)
    if len(pts) != 5:
        raise ValueError(f"need exactly 5 points, got {len(pts)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs, frame = fit5([p.x for p in pts], [p.y for p in pts])
    if not frobenius(coeffs) > DET_DEGENERATE_TOL:
        raise RankDeficient("five points do not determine a unique conic")
    return FramedFit(coeffs, frame)


def fit_conic_5pts(pts) -> Conic:
    """Unique conic through 5 points: fit_framed, mapped back to the plane."""
    return fit_framed(pts).conic()


def residual(c: Conic, p: Point2) -> float:
    """|p^T m p| / (||m||_F * ||p_hom||^2); <= tol means incidence
    (kernels.conic_residual)."""
    return conic_residual(c.coeffs(), p.x, p.y)


def conic_line_intersection(c: Conic, line: LineEq) -> list[Point2]:
    """Real intersection points, stable quadratic handling."""
    # Parametrize the line as p0 + t*d.
    nrm2 = line.l * line.l + line.m * line.m
    p0 = Point2(-line.l * line.n / nrm2, -line.m * line.n / nrm2)
    d = Point2(-line.m, line.l)
    dn = d.norm()
    d = Point2(d.x / dn, d.y / dn)
    m = c.m
    v0 = np.array([p0.x, p0.y, 1.0])
    vd = np.array([d.x, d.y, 0.0])
    qa = float(vd @ m @ vd)
    qb = 2.0 * float(v0 @ m @ vd)
    qc = float(v0 @ m @ v0)
    scale = float(np.linalg.norm(m))
    if abs(qa) <= 1e-14 * scale and abs(qb) <= 1e-14 * scale:
        if abs(qc) <= 1e-12 * scale:
            raise LineOnConic("line is a component of the conic")
        return []
    if abs(qa) <= 1e-14 * scale:
        t = -qc / qb
        return [Point2(p0.x + t * d.x, p0.y + t * d.y)]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        if disc > -(1e-12 * scale) ** 2 - 1e-30:
            t = -qb / (2.0 * qa)
            return [Point2(p0.x + t * d.x, p0.y + t * d.y)]
        return []
    sq = math.sqrt(disc)
    q = -(qb + math.copysign(sq, qb)) / 2.0
    t1 = q / qa
    t2 = qc / q if q != 0.0 else -qb / (2.0 * qa)
    out = [Point2(p0.x + t * d.x, p0.y + t * d.y) for t in (t1, t2)]
    return out


def tangency_discriminant(c: Conic, line: LineEq) -> float:
    """Normalized discriminant of the restriction of c to the line
    (kernels.tangency_disc on c's unit-norm coefficients).

    ~0 means the line meets the conic in a double point (tangency).
    """
    return tangency_disc(c.coeffs(), line.l, line.m, line.n)


def split_degenerate(c: Conic) -> tuple[LineEq, LineEq]:
    """Split a degenerate conic into its two (possibly equal) real lines.

    Rank 2: recover the singular point from the adjugate, add its cross
    matrix to expose a rank-1 dyad, read off the lines.  Rank 1: the matrix
    itself is the dyad of a double line.
    """
    m = c.m
    B = _adjugate(m)
    i = int(np.argmax(np.abs(np.diag(B))))
    bii = B[i, i]
    if abs(bii) <= 1e-12:
        # Rank 1: double line g g^T.
        j = int(np.argmax(np.abs(np.diag(m))))
        if m[j, j] == 0.0:
            raise LineOnConic("cannot split conic of rank < 1")
        g = m[j, :] / math.sqrt(abs(m[j, j]))
        line = LineEq(g[0], g[1], g[2])
        return (line, line)
    if bii > 0.0:
        # Real singular point but complex line pair (point conic).
        raise LineOnConic("degenerate conic has no real line components")
    beta = math.sqrt(-bii)
    p = B[:, i] / beta
    Mp = np.array([[0.0, p[2], -p[1]], [-p[2], 0.0, p[0]], [p[1], -p[0], 0.0]])
    Cm = m + Mp
    # Largest entry of the rank-1 matrix picks a stable row/column pair.
    k = int(np.argmax(np.abs(Cm)))
    r, s = divmod(k, 3)
    g = Cm[r, :]
    h = Cm[:, s]
    return (LineEq(g[0], g[1], g[2]), LineEq(h[0], h[1], h[2]))


def _adjugate(m: np.ndarray) -> np.ndarray:
    rows = m.tolist()
    out = np.empty((3, 3))
    for i in range(3):
        r0, r1 = (rows[k] for k in range(3) if k != i)
        for j in range(3):
            c0, c1 = (k for k in range(3) if k != j)
            out[j, i] = ((-1) ** (i + j)) * (r0[c0] * r1[c1] - r0[c1] * r1[c0])
    return out


def pencil_degenerate_lines(c1: Conic, c2: Conic) -> list[tuple[LineEq, LineEq]]:
    """Line pairs of the degenerate members m1 + lambda*m2 of the pencil of
    two conics, one per real root of the cubic det(m1 + lambda*m2) (a
    quadratic when det m2 vanishes).  Members that vanish or have no real
    lines are skipped."""
    m1, m2 = c1.m, c2.m
    f0 = float(np.linalg.det(m1))
    f3 = float(np.linalg.det(m2))
    fp = float(np.linalg.det(m1 + m2))
    fm = float(np.linalg.det(m1 - m2))
    c2_ = (fp + fm) / 2.0 - f0
    c1_ = (fp - fm) / 2.0 - f3
    roots = np.roots([f3, c2_, c1_, f0]) if abs(f3) > 1e-14 else np.roots([c2_, c1_, f0])
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-7 * (1.0 + abs(r)):
            lines = _real_lines(m1 + float(r.real) * m2)
            if lines is not None:
                out.append(lines)
    return out


def _real_lines(m: np.ndarray) -> tuple[LineEq, LineEq] | None:
    """split_degenerate of a pencil member, None if it vanishes or has no
    real lines."""
    if np.linalg.norm(m) <= 1e-13:
        return None
    try:
        return split_degenerate(Conic(m))
    except LineOnConic:
        return None


def conic_conic_intersections(c1: Conic, c2: Conic) -> list[Point2]:
    """Real intersections of two general conics by pencil degeneration.

    Splits the degenerate members of the pencil c1 + lambda*c2 into lines,
    intersects those with c1 and keeps candidates lying on both conics
    after a Newton polish (common_points).  This is the general two-conic
    route; the focal pairs of a triad share a focus and have their line
    pair in closed form (triads.pairwise_intersections).
    """
    m1, m2 = c1.m, c2.m
    members = [(c1, lines) for lines in pencil_degenerate_lines(c1, c2)]
    # c2 itself is the member at lambda = inf, in case it is degenerate.
    lines = _real_lines(m2)
    if lines is not None:
        members.append((c2, lines))
    candidates: list[Point2] = []
    for base, pair in members:
        for line in pair:
            try:
                pts = conic_line_intersection(base, line)
            except LineOnConic:
                continue
            candidates.extend(pts)
    return common_points(candidates, m1, m2)


def common_points(candidates: list[Point2], m1: np.ndarray, m2: np.ndarray) -> list[Point2]:
    """Candidates Newton-polished toward the intersections of the conics m1
    and m2 (unit Frobenius norm), kept when on both to 1e-7 and distinct to
    1e-7 * (1 + their largest coordinate), in order."""
    q1, q2 = m1.tolist(), m2.tolist()
    out: list[Point2] = []
    scale = 1.0 + max((max(abs(p.x), abs(p.y)) for p in candidates), default=0.0)
    for p in candidates:
        p = _newton_polish(p, q1, q2)
        if p is None:
            continue
        x, y = p.x, p.y
        n2 = x * x + y * y + 1.0
        r1 = abs(_quad_grad(q1, x, y)[0]) / n2
        r2 = abs(_quad_grad(q2, x, y)[0]) / n2
        if max(r1, r2) > 1e-7:
            continue
        if any(distance(p, q) <= 1e-7 * scale for q in out):
            continue
        out.append(p)
    return out


def _quad_grad(m: list, x: float, y: float) -> tuple[float, float, float]:
    """(v m v, d/dx, d/dy) at v = (x, y, 1) for a symmetric m as nested lists."""
    (a, b, d), (_, c, e), (_, _, f) = m
    gx = a * x + b * y + d
    gy = b * x + c * y + e
    gw = d * x + e * y + f
    return x * gx + y * gy + gw, 2.0 * gx, 2.0 * gy


# Newton steps _newton_polish takes from each candidate.
_POLISH_STEPS = 3


def _newton_polish(p: Point2, m1: list, m2: list):
    x, y = p.x, p.y
    for _ in range(_POLISH_STEPS):
        f1, j00, j01 = _quad_grad(m1, x, y)
        f2, j10, j11 = _quad_grad(m2, x, y)
        det = j00 * j11 - j01 * j10
        if abs(det) < 1e-14:
            break
        dx = (-f1 * j11 + f2 * j01) / det
        dy = (-f2 * j00 + f1 * j10) / det
        x, y = x + dx, y + dy
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
    return Point2(x, y) if math.isfinite(x) and math.isfinite(y) else None
