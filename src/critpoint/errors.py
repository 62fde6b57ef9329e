"""Exception types shared across the package."""


class CritpointError(Exception):
    """Base class for all critpoint errors."""


class ParameterError(CritpointError, ValueError):
    """A value passed to a constructor or operation is invalid."""


class ConvergenceError(CritpointError, RuntimeError):
    """The iterative solver failed to certify a solution.

    Carries ``worst_residual``, the largest uncertified residual at abort time.
    """

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class NonDegeneracyError(CritpointError, ValueError):
    """The probe vector admits an almost-sure linear relation and the
    anti-concentration bound does not apply."""


class PoleOnContourError(CritpointError, ValueError):
    """A root lies on (or numerically on) the evaluation contour."""
