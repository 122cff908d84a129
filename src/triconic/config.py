"""Global numerical tolerance policy.

All geometric predicates compare *normalized* quantities against a single
relative tolerance.  The default (1e-9) can be overridden globally through
set_tol() or the TRICONIC_TOL environment variable, to a finite value in
(0, MAX_TOL]; the variable is read on the first get_tol(), not at import.

A few algebraic thresholds are fixed constants, independent of the global
tolerance: they gate exact algebraic sign conditions (conic degeneracy,
parabola discriminant, rank decisions) on Frobenius-normalized data.  A
fitted conic is tested in the frame of its five points (kernels.fit5), so
they hold alike for a triangle moved, rotated or scaled.
"""

import os

DEFAULT_TOL = 1e-9
# Largest accepted tolerance.  Random triangles are drawn again while
# |area| <= tol * (longest side)^2 (verify._tri_mask).  Its angle and
# aspect bounds alone left that ratio at 0.0126 or more over 100k draws,
# so no tolerance up to this bound changes which are drawn, while one of
# sqrt(3)/4 or more rejects every triangle.
MAX_TOL = 1e-3

# Degeneracy of a Frobenius-normalized conic matrix: |det m| below this.
# A five-point fit is rank deficient when the norm of its framed cofactors
# is below it too (conic.fit_framed).
DET_DEGENERATE_TOL = 1e-10
# Parabola decision on the normalized 2x2 quadratic-part discriminant.
DISC_PARABOLA_TOL = 1e-10


def _checked(value, name: str = "tolerance") -> float:
    value = float(value)
    # False for nan too.
    if not 0.0 < value <= MAX_TOL:
        raise ValueError(f"{name} must be a finite number in (0, {MAX_TOL:g}], got {value!r}")
    return value


# None until the first get_tol() or set_tol().
_tol = None


def get_tol() -> float:
    """The tolerance: set_tol's value, else TRICONIC_TOL's, read and checked
    on the first call (ValueError naming the variable), else DEFAULT_TOL."""
    global _tol
    if _tol is None:
        _tol = _checked(os.environ.get("TRICONIC_TOL", DEFAULT_TOL), "TRICONIC_TOL")
    return _tol


def set_tol(value: float) -> None:
    global _tol
    _tol = _checked(value)
