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
(`@`, np.linalg.norm), whose last bits change from machine to machine.
The pencil route meets its lines with the conics by kernels' one
conic-line rule and Newton polish; only its cubic takes LAPACK
(np.linalg.det, np.roots).  A conic given in barycentrics (p = (u,
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
from . import kernels
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
    itself is the dyad of a double line.  A conic that classify does not
    call degenerate has no line components and raises LineOnConic.
    """
    if not classify(c).is_degenerate():
        raise LineOnConic("conic is not degenerate")
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
    """Line pairs of the degenerate members of the pencil of two conics:
    m1 + lambda*m2, one per real root of the cubic det(m1 + lambda*m2),
    and where det m2 vanishes, so that the cubic falls to a quadratic, m2
    itself, the member at lambda = inf.  Members that vanish or have no
    real lines are skipped."""
    m1, m2 = c1.m, c2.m
    f0 = float(np.linalg.det(m1))
    f3 = float(np.linalg.det(m2))
    fp = float(np.linalg.det(m1 + m2))
    fm = float(np.linalg.det(m1 - m2))
    c2_ = (fp + fm) / 2.0 - f0
    c1_ = (fp - fm) / 2.0 - f3
    at_inf = abs(f3) <= 1e-14
    roots = np.roots([c2_, c1_, f0] if at_inf else [f3, c2_, c1_, f0])
    members = [m1 + float(r.real) * m2 for r in roots if abs(r.imag) <= 1e-7 * (1.0 + abs(r))]
    lines = map(_real_lines, members + [m2] if at_inf else members)
    return [pair for pair in lines if pair is not None]


def _real_lines(m: np.ndarray) -> tuple[LineEq, LineEq] | None:
    """split_degenerate of a pencil member, None if it vanishes (its
    coefficients' kernels.frobenius, the matrix norm) or has no real
    lines."""
    (a, b, d), (_, c, e), (_, _, f) = m.tolist()
    if frobenius((a, 2.0 * b, c, 2.0 * d, 2.0 * e, f)) <= 1e-13:
        return None
    try:
        return split_degenerate(Conic(m))
    except LineOnConic:
        return None


def conic_conic_intersections(c1: Conic, c2: Conic) -> list[Point2]:
    """Real intersections of two general conics by pencil degeneration.

    Splits the degenerate members of the pencil c1 + lambda*c2 into lines
    (pencil_degenerate_lines) and meets each line with c1, the lines
    stacked into arrays, by kernels._line_roots.  The candidates are
    Newton-polished on both conics by kernels._polish, twice: the lines
    are only as good as the roots of the pencil's cubic, so a candidate
    may start farther from its crossing than kernels.pair_points' from
    their closed-form lines.  They are kept, in order, where they lie on
    both and are apart by kernels._ON_BOTH * (1 + the largest candidate
    coordinate), pair_points' rules.  This is the general two-conic route;
    the focal pairs of a triad share a focus and have their line pair in
    closed form (triads.pairwise_intersections).
    """
    lines = [(line.l, line.m, line.n) for pair in pencil_degenerate_lines(c1, c2) for line in pair]
    co1, co2 = c1.coeffs(), c2.coeffs()
    with np.errstate(all="ignore"):
        roots = kernels._line_roots(co1, *np.array(lines, dtype=float).reshape(-1, 3).T)
        # Line by line, root 0 then root 1.
        x, y, ok = (np.stack(v, axis=1).ravel() for v in zip(*roots))
        scale = 1.0 + np.maximum(abs(x), abs(y)).max(initial=0.0, where=ok)
        x, y, ok = kernels._polish(co1, co2, *kernels._polish(co1, co2, x, y, ok))
    out: list[Point2] = []
    for p in map(Point2, x[ok].tolist(), y[ok].tolist()):
        if all(distance(p, q) > kernels._ON_BOTH * scale for q in out):
            out.append(p)
    return out
