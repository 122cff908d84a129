"""Loader and checker for the long barycentric term-list data files.

Each data file stores one construction's polynomial(s) as rows
[coeff, e1, ..., en] over a declared variable order.  Evaluation is a
generic monomial sum; residuals are normalized by the largest evaluated
monomial magnitude because raw values reach 1e15 at unit scale.

Checks build the corresponding object geometrically (the metric
construction is the oracle), sample it, and evaluate the polynomial at the
samples' reference-triangle barycentrics.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources

import numpy as np

from .centers import anticevian_triangle, center_bary, classic_center
from .conic import FocalConic, vertices_of_focal_conic
from .errors import ConstructionFailed
from .geom import Point2, Triangle, cartesian_to_bary, distance
from .triads import build_triad, six_point_conic, triad_vertices

BLOCK_NAMES = (
    "a_ellipse",
    "major_vertices",
    "x3prime_center",
    "phyp_member",
    "pstar_conic",
    "x5452_coordinate",
)


class TermList(list):
    """A term list, rows [coeff, e1, ..., en], with the arrays eval_terms
    reads: the highest exponent of each variable, and for each variable
    (after the coefficients) the index of every row's factor in a flat
    table [coeffs, v1**0 .. v1**top1, v2**0 .. v2**top2, ...]."""

    def __init__(self, rows):
        super().__init__(rows)
        table = np.array(self, dtype=float).reshape(len(self), -1)
        exps = table[:, 1:].astype(np.intp)
        self.coeffs = table[:, 0]
        self.tops = [int(col.max(initial=0)) for col in exps.T]
        starts = np.cumsum([len(self)] + [top + 1 for top in self.tops])[:-1]
        self.index = np.vstack([np.arange(len(self)), (exps + starts).T])


@functools.lru_cache(maxsize=None)
def load_block(name: str) -> dict:
    if name not in BLOCK_NAMES:
        raise KeyError(f"unknown appendix block {name!r}")
    path = resources.files("triconic").joinpath(f"data/appendix/{name}.json")
    block = json.loads(path.read_text())
    block["polys"] = {poly: TermList(rows) for poly, rows in block["polys"].items()}
    return block


def eval_terms(rows, variables, values: dict) -> tuple[float, float]:
    """(sum, max |term|) of a term list at the given variable values.

    A term is its coefficient times the variables' powers, multiplied in
    variable order; each power comes from a table of Python `v ** e`, and
    a zero exponent multiplies by exactly 1.0.  The terms are added in row
    order (np.cumsum, which does not pair), so the result is bit for bit
    that of a loop over the rows.  Term lists from load_block carry their
    arrays; any other list of rows is converted on each call.
    """
    terms = rows if isinstance(rows, TermList) else TermList(rows)
    powers = [
        float(values[var]) ** e
        for var, top in zip(variables, terms.tops)
        for e in range(top + 1)
    ]
    factors = np.concatenate((terms.coeffs, powers))[terms.index]
    # Reducing over the outer axis multiplies each row's factors in order.
    products = np.multiply.reduce(factors, axis=0)
    # The leading 0.0 is the loop's start: it turns an all -0.0 sum into 0.0.
    total = np.cumsum(np.concatenate(([0.0], products)))[-1]
    return float(total), float(np.fmax.reduce(np.abs(products), initial=0.0))


def eval_block_poly(name: str, poly: str, values: dict) -> tuple[float, float]:
    block = load_block(name)
    return eval_terms(block["polys"][poly], block["variables"], values)


def normalized_residual(name: str, poly: str, values: dict) -> float:
    total, biggest = eval_block_poly(name, poly, values)
    if biggest == 0.0:
        return abs(total)
    return abs(total) / biggest


def _proj_error(u, v) -> float:
    """Projective mismatch of two 3-vectors: |u x v| / (|u| |v|)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(np.cross(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _norm_bary(t: Triangle, p: Point2):
    b = cartesian_to_bary(t, p).normalized()
    return (b.u, b.v, b.w)


def anticevian_a_ellipse(t: Triangle) -> FocalConic:
    """The a-member of the anticevian needle construction: foci at B', C' of
    the X3-anticevian, passing through X3 of the reference.

    (The construction through the cevian foot A instead would degenerate
    whenever A falls inside the focal segment; the polynomial block vanishes
    on the through-X3 ellipse.)
    """
    tac = anticevian_triangle(t, center_bary(t, "X3"))
    x3 = classic_center(t, "X3")
    return FocalConic(
        tac.b, tac.c, distance(x3, tac.b) + distance(x3, tac.c), "ellipse"
    )


A_ELLIPSE_SAMPLES = 12  # points of the A-ellipse at which the polynomial is checked


def check_a_ellipse(t: Triangle) -> float:
    """Max normalized residual of sampled ellipse points on the polynomial."""
    fc = anticevian_a_ellipse(t)
    alpha, beta = fc.semi_axes()
    u = fc.axis_unit()
    v = u.perp()
    o = fc.center
    a, b, c = t.sides()
    worst = 0.0
    for k in range(A_ELLIPSE_SAMPLES):
        ang = 2.0 * math.pi * (k + 0.37) / A_ELLIPSE_SAMPLES
        p = Point2(
            o.x + alpha * math.cos(ang) * u.x + beta * math.sin(ang) * v.x,
            o.y + alpha * math.cos(ang) * u.y + beta * math.sin(ang) * v.y,
        )
        x, y, z = _norm_bary(t, p)
        r = normalized_residual(
            "a_ellipse", "main", {"a": a, "b": b, "c": c, "x": x, "y": y, "z": z}
        )
        worst = max(worst, r)
    return worst


def check_major_vertices(t: Triangle) -> float:
    """Projective mismatch of the closed-form vertices vs the construction."""
    block = load_block("major_vertices")
    a, b, c = t.sides()
    rad, _ = eval_terms(
        block["polys"]["rt_radicand"], block["variables"],
        {"a": a, "b": b, "c": c, "S": 0.0, "rt": 0.0},
    )
    if rad < 0.0:
        raise ConstructionFailed("vertex radical is negative for this triangle")
    values = {"a": a, "b": b, "c": c, "S": 2.0 * t.area, "rt": math.sqrt(rad)}
    fc = anticevian_a_ellipse(t)
    numeric = [_norm_bary(t, p) for p in vertices_of_focal_conic(fc)]
    errs = []
    for sgn in ("plus", "minus"):
        num, _ = eval_terms(block["polys"][f"num_{sgn}"], block["variables"], values)
        den, _ = eval_terms(block["polys"][f"den_{sgn}"], block["variables"], values)
        second, _ = eval_terms(block["polys"]["second"], block["variables"], values)
        third, _ = eval_terms(block["polys"]["third"], block["variables"], values)
        triple = (num, den * second, den * third)
        errs.append(min(_proj_error(triple, nv) for nv in numeric))
    return max(errs)


def check_x3prime_center(t: Triangle) -> float:
    """Anticevian six-point circle center vs the closed-form barycentrics."""
    tac = anticevian_triangle(t, center_bary(t, "X3"))
    p = classic_center(t, "X3")
    rep = six_point_conic(build_triad(tac, "p_ellipse", p))
    if rep.center is None:
        raise ConstructionFailed("six-point conic has no center")
    block = load_block("x3prime_center")
    a, b, c = t.sides()
    f = lambda aa, bb, cc: eval_terms(
        block["polys"]["f"], block["variables"], {"a": aa, "b": bb, "c": cc}
    )[0]
    formula = (f(a, b, c), f(b, c, a), f(c, a, b))
    return _proj_error(formula, _norm_bary(t, rep.center))


def check_phyp_member(t: Triangle, p: Point2) -> float:
    """P and both vertices of the a-member satisfy the member polynomial."""
    tr = build_triad(t, "p_hyperbola", p)
    a, b, c = t.sides()
    la = tr.deltas[0]
    pb = cartesian_to_bary(t, p).normalized()
    six = triad_vertices(tr)
    worst = 0.0
    for q in (p, six[0], six[1]):
        x, y, z = _norm_bary(t, q)
        r = normalized_residual(
            "phyp_member",
            "main",
            {
                "a": a, "b": b, "c": c, "La": la,
                "p": pb.u, "q": pb.v, "r": pb.w,
                "x": x, "y": y, "z": z,
            },
        )
        worst = max(worst, r)
    return worst


def check_pstar_conic(t: Triangle, p: Point2) -> float:
    """All six P-hyperbola vertices satisfy the cleared conic polynomial."""
    tr = build_triad(t, "p_hyperbola", p)
    a, b, c = t.sides()
    la, lb, lc = tr.deltas
    worst = 0.0
    for q in triad_vertices(tr):
        x, y, z = _norm_bary(t, q)
        r = normalized_residual(
            "pstar_conic",
            "main",
            {
                "a": a, "b": b, "c": c,
                "La": la, "Lb": lb, "Lc": lc,
                "x": x, "y": y, "z": z,
            },
        )
        worst = max(worst, r)
    return worst


def check_x5452_coordinate(t: Triangle) -> float:
    """Cleared center coordinates vs the V-hyperbola six-point conic center."""
    tr = build_triad(t, "v_hyperbola")
    rep = six_point_conic(tr)
    if rep.center is None:
        raise ConstructionFailed("six-point conic has no center")
    a, b, c = t.sides()
    la, lb, lc = tr.deltas
    block = load_block("x5452_coordinate")
    g = lambda vals: eval_terms(block["polys"]["g"], block["variables"], vals)[0]
    formula = (
        g({"a": a, "b": b, "c": c, "La": la, "Lb": lb, "Lc": lc}),
        g({"a": b, "b": c, "c": a, "La": lb, "Lb": lc, "Lc": la}),
        g({"a": c, "b": a, "c": b, "La": lc, "Lb": la, "Lc": lb}),
    )
    return _proj_error(formula, _norm_bary(t, rep.center))


def check_appendix(name: str, t: Triangle, extra_point: Point2 | None = None) -> float:
    """Dispatch one appendix block check; returns its normalized residual."""
    if name == "a_ellipse":
        return check_a_ellipse(t)
    if name == "major_vertices":
        return check_major_vertices(t)
    if name == "x3prime_center":
        return check_x3prime_center(t)
    if name == "phyp_member":
        if extra_point is None:
            raise ValueError("phyp_member needs the point P")
        return check_phyp_member(t, extra_point)
    if name == "pstar_conic":
        if extra_point is None:
            raise ValueError("pstar_conic needs the point P")
        return check_pstar_conic(t, extra_point)
    if name == "x5452_coordinate":
        return check_x5452_coordinate(t)
    raise KeyError(f"unknown appendix block {name!r}")
