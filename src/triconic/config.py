"""Numerical tolerance policy.

All geometric predicates compare *normalized* quantities against one
fixed relative tolerance, TOL, read through get_tol().  Nothing sets it:
the package reads no environment and holds no mutable global.

A few algebraic thresholds are fixed constants of their own: they gate
exact algebraic sign conditions (conic degeneracy, parabola discriminant,
rank decisions) on Frobenius-normalized data.  A fitted conic is tested in
the frame of its five points (kernels.fit5), so they hold alike for a
triangle moved, rotated or scaled.
"""

# The relative tolerance of the geometric predicates: collinear corners
# (kernels.collinear), a point at infinity (kernels.bary_point), parallel
# lines (geom.line_intersection) and the draws' flat triangles
# (verify._tri_mask).
TOL = 1e-9
# Degeneracy of a Frobenius-normalized conic matrix: |det m| below this.
# A five-point fit is rank deficient when the norm of its framed cofactors
# is below it too (conic.fit_framed).
DET_DEGENERATE_TOL = 1e-10
# Parabola decision on the normalized 2x2 quadratic-part discriminant.
DISC_PARABOLA_TOL = 1e-10


def get_tol() -> float:
    """TOL, the one read point of the tolerance."""
    return TOL
