"""Exception types shared across the package."""


class TilqError(Exception):
    """Base class for package errors."""


class InvalidInputError(TilqError, ValueError):
    """Malformed or out-of-domain input (shapes, non-finite values, bad arguments)."""


class NotPositiveDefiniteError(InvalidInputError):
    """A matrix that must be positive definite is not, at the reported location
    (where: the node pair of the worst value)."""

    def __init__(self, message, *, where=None):
        super().__init__(message)
        self.where = where


class NonconvergenceError(TilqError, RuntimeError):
    """Fixed-point iteration failed to converge; carries per-window diagnostics."""

    def __init__(self, message, *, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TimeConsistencyError(TilqError, ValueError):
    """Input problem is not time-consistent where a classical method requires it."""


class GridTooCoarseError(TilqError, ValueError):
    """The grid cannot resolve the requested construction; carries guidance."""
