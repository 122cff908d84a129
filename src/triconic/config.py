"""Global numerical tolerance policy.

All geometric predicates compare *normalized* quantities against a single
relative tolerance.  The default (1e-9) can be overridden globally through
set_tol() or the TRICONIC_TOL environment variable.

A few algebraic thresholds are fixed constants, independent of the global
tolerance: they gate exact algebraic sign conditions (conic degeneracy,
parabola discriminant, rank decisions) on Frobenius-normalized data.  A
fitted conic is tested in the frame of its five points (kernels.fit5), so
they hold alike for a triangle moved, rotated or scaled.
"""

import os

DEFAULT_TOL = 1e-9

# Degeneracy of a Frobenius-normalized conic matrix: |det m| below this.
# A five-point fit is rank deficient when the norm of its framed cofactors
# is below it too (conic.fit_framed).
DET_DEGENERATE_TOL = 1e-10
# Parabola decision on the normalized 2x2 quadratic-part discriminant.
DISC_PARABOLA_TOL = 1e-10

_tol = float(os.environ.get("TRICONIC_TOL", DEFAULT_TOL))


def get_tol() -> float:
    return _tol


def set_tol(value: float) -> None:
    global _tol
    value = float(value)
    if not (value > 0.0):
        raise ValueError(f"tolerance must be positive, got {value}")
    _tol = value
