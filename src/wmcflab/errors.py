"""Exception types shared across the package."""


class ResolutionError(ValueError):
    """The diffuse width is too small for the grid (eps < 4 * max spacing)."""


class GeometryError(ValueError):
    """A geometric precondition failed (interface too close to the boundary,
    a calibration around a flow that is not radial, a sharp flow that
    stops before t_end, a well that is no double well, ...)."""


class GridMismatchError(ValueError):
    """Two fields that must live on the same grid do not."""


class ExtractionError(RuntimeError):
    """Level-set extraction found no crossing."""


class NumericError(RuntimeError):
    """An iterative routine failed to converge.

    Attributes carry the best available diagnostic: ``achieved`` for
    quadrature error estimates, ``last_iterate`` for descent loops.
    """

    def __init__(self, message, achieved=None, last_iterate=None):
        super().__init__(message)
        self.achieved = achieved
        self.last_iterate = last_iterate
