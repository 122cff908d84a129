"""Triangle-conic engine.

Constructs the four focal-conic triads of a triangle (V/P ellipses and
hyperbolas), fits and classifies their six-point conics, computes the
associated centers, circles and loci, and machine-checks the whole
proposition catalog at desk scale.
"""

__version__ = "0.1.0"

from .config import get_tol
from .geom import BaryCoords, LineEq, Point2, Triangle
from .conic import Conic, ConicClass, FocalConic
from .centers import Circle, SoddyConfig
from .triads import ConicTriad, SixPointConicReport, build_triad, six_point_conic

__all__ = [
    "BaryCoords",
    "Circle",
    "Conic",
    "ConicClass",
    "ConicTriad",
    "FocalConic",
    "LineEq",
    "Point2",
    "SixPointConicReport",
    "SoddyConfig",
    "Triangle",
    "build_triad",
    "get_tol",
    "six_point_conic",
    "__version__",
]
