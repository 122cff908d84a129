"""Symbolic certificates for the engine's closed forms.

Each test proves one identity exactly with sympy, where the package
evaluates a closed form in floats.  Skipped where sympy is not installed:
the package itself does not need it.
"""

import math

import numpy as np
import pytest

from triconic import loci

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
