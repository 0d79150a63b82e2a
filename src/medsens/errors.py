"""Exception types shared across the package.

Every error raised deliberately by this package derives from MedsensError,
so CLI entry points can catch one base class and map it to a nonzero exit
code with a readable message.
"""


class MedsensError(Exception):
    """Base class for all deliberate package errors."""


class ConfigError(MedsensError):
    """Invalid configuration: unknown keys, missing roles, bad flag values."""


class DataError(MedsensError):
    """Input data violates a documented requirement (non-binary response,
    empty dataset after missing-value drops, non-numeric covariate, ...)."""


class RankError(MedsensError):
    """A design matrix is rank deficient or too small to fit."""


class SeparationError(MedsensError):
    """Probit likelihood is unbounded: perfect separation or a constant
    response. The fit cannot return meaningful coefficients."""


class NotConvergedError(MedsensError):
    """An estimate was requested from a fit that did not converge."""


class NumericalError(MedsensError):
    """A numerical guarantee failed (e.g. a negative delta-method
    variance from a covariance matrix that is not PSD)."""


class ScanError(MedsensError):
    """A sensitivity scan failed as a whole (more than half of the grid
    points did not converge); failures holds the rho of each failed
    point, empty when the error is not about grid points."""

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)
