"""Exception types shared across the package."""


class DrttpError(ValueError):
    """Base class for all library errors."""


class DomainError(DrttpError):
    """A parameter or evaluation point lies outside the admissible domain."""


class DegenerateLimitError(DomainError):
    """The tangent polynomial degenerates (Rosen-Morse limit, c0 == 1)."""


class ClassificationError(DrttpError):
    """A solution's sign pattern is inconsistent with the solver state."""


class GaugeError(DrttpError):
    """Requested sign triple is not one of the admissible Gauss-seed gauges."""


class AvailabilityError(DrttpError):
    """A requested basic solution does not exist at these parameters."""


class PairRejectedError(DrttpError):
    """Factorization-function pair fails the nodelessness / pole-placement gate."""


class ConvergenceError(DrttpError):
    """An iterative numerical procedure failed to converge."""
