"""Symbolic certificates for the engine's closed forms.

Each test proves one identity exactly with sympy, where the package
evaluates a closed form in floats.  Skipped where sympy is not installed:
the package itself does not need it.
"""

import math

import numpy as np
import pytest

from triconic import kernels, loci

sympy = pytest.importorskip("sympy")


def _exact(expr):
    """expr with its float coefficients, each a whole number, as integers."""
    floats = expr.atoms(sympy.Float)
    assert all(float(f).is_integer() for f in floats)
    return expr.xreplace({f: sympy.Integer(int(f)) for f in floats})


def test_x478_center_lies_on_the_quartic():
    # x478_center_for_theta's center is (cos t / 2, (1 + s + w) / 2), with
    # s = sin t and w = sqrt(1 + s): so s = w^2 - 1 and cos^2 t = 1 - s^2.
    # The quartic reads x only as x * x, so the sign of cos t drops out.
    w = sympy.symbols("w", positive=True)
    s = w**2 - 1
    x = sympy.sqrt(1 - s**2) / 2
    y = (1 + s + w) / 2
    assert sympy.expand(_exact(loci.x478_quartic(x, y))) == 0
    # The center the package computes is this one.
    for theta in np.linspace(0.0, math.pi, 13).tolist():
        _, center = loci.x478_center_for_theta(theta)
        at = {w: math.sqrt(1.0 + math.sin(theta))}
        assert center.x * center.x == pytest.approx(float((x * x).subs(at)), abs=1e-15)
        assert center.y == pytest.approx(float(y.subs(at)), abs=1e-15)


# The circle lemma (loci._circle_points): member i of a triad has its foci
# at the ends of side i, of length s_i, and its major vertices on that
# side's line, x_i / 2 either side of the midpoint, x_i the focal sum of an
# ellipse or the |difference| of a hyperbola.  Both vertices lie at
# |OV|^2 = R^2 + (x_i^2 - s_i^2) / 4 from the circumcenter O, so the six
# vertices are concyclic iff u_i = s_i^2 - x_i^2 is one value for all
# three members.


def test_vertex_distance_from_the_circumcenter():
    # Corners on their circumcircle, center O = (ox, oy) and radius r,
    # rationally parametrized: every triangle is one of these.  Member a
    # has its foci at B and C, s = |BC|, and its vertices from the
    # package's vertex formula (kernels.vertex_coords) with axis x.
    ox, oy, r, s, x = sympy.symbols("ox oy r s x", positive=True)
    corners = []
    for t in sympy.symbols("t1:4", real=True):
        corners += [ox + r * (1 - t * t) / (1 + t * t), oy + r * 2 * t / (1 + t * t)]
    _, _, bx, by, cx, cy = corners
    sq = lambda px, py, qx, qy: (px - qx) ** 2 + (py - qy) ** 2
    s2 = sq(bx, by, cx, cy)
    mx, my = (bx + cx) / 2, (by + cy) / 2
    # OM is perpendicular to BC, and |OM|^2 = R^2 - s^2 / 4.
    assert sympy.cancel((mx - ox) * (cx - bx) + (my - oy) * (cy - by)) == 0
    assert sympy.cancel(sq(ox, oy, mx, my) - (r * r - s2 / 4)) == 0
    xs, ys = kernels.vertex_coords(*corners, (s, 1, 1), (x, 0, 0))
    for vx, vy in zip(xs[:2], ys[:2]):
        gap = sympy.numer(sympy.together(sq(ox, oy, vx, vy) - (r * r + (x * x - s * s) / 4)))
        # The gap vanishes where s^2 = |BC|^2.
        assert sympy.cancel(sympy.rem(sympy.expand(gap), s * s - s2, s)) == 0


def test_v_ellipse_circle_factor():
    # V-ellipse member a passes through A with foci B and C: x_a = b + c
    # (kernels._sides_deltas).  u_a = u_b iff a = b, so the six-point
    # conic is a circle only on an equilateral triangle (P2.2).
    a, b, c = sympy.symbols("a b c", positive=True)
    u_a, u_b = a * a - (b + c) ** 2, b * b - (c + a) ** 2
    assert sympy.expand(u_a - u_b - 2 * (a - b) * (a + b + c)) == 0


def test_v_hyperbola_circle_factor():
    # V-hyperbola member a: x_a = |b - c|.  a + b - c > 0 by the triangle
    # inequality, so u_a = u_b iff a = b: this six-point conic too is a
    # circle only on an equilateral triangle.
    a, b, c = sympy.symbols("a b c", positive=True)
    u_a, u_b = a * a - (b - c) ** 2, b * b - (c - a) ** 2
    assert sympy.expand(u_a - u_b - 2 * (a - b) * (a + b - c)) == 0
