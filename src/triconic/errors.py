"""Exception hierarchy."""


class TriconicError(Exception):
    """Base class for all library errors."""


class DegenerateTriangle(TriconicError):
    """Vertices are (numerically) collinear."""


class PointAtInfinity(TriconicError):
    """A homogeneous point has no finite representative."""


class ParallelLines(TriconicError):
    """Two lines do not meet in a finite point."""


class InvalidAxisLength(TriconicError):
    """Focal conic axis length violates the ellipse/hyperbola invariant."""


class NoFiniteCenter(TriconicError):
    """Conic has no finite center (parabola, parallel line pair)."""


class RankDeficient(TriconicError):
    """Point set does not determine a unique conic."""


class LineOnConic(TriconicError):
    """The line is a component of a degenerate conic."""


class DegenerateMember(TriconicError):
    """A triad member degenerates (segment, ray or line locus)."""


class DegenerateResult(TriconicError):
    """A derived triangle came out collinear."""


class PointOffSideline(TriconicError):
    """A point expected on a sideline is not on it."""


class NotFound(TriconicError):
    """A required construction point could not be located."""


class NotConverged(TriconicError):
    """An iterative search did not reach its target."""

    def __init__(self, message, best=None, value=None):
        super().__init__(message)
        self.best = best
        self.value = value


class DriverNotOnLocus(TriconicError):
    """The driver point does not satisfy the required implicit condition."""


class ConstructionFailed(TriconicError):
    """A geometric construction prerequisite failed."""


class NonFiniteResidual(TriconicError):
    """A check gave a NaN residual, which no bound can pass."""


class UnknownProposition(TriconicError):
    """Proposition id is not in the manifest."""


class EmptyScene(TriconicError):
    """Nothing to render."""
