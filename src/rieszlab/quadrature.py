"""The error raised when a numerical integral cannot meet its tolerance."""

from __future__ import annotations

__all__ = ["NonConvergenceError"]


class NonConvergenceError(RuntimeError):
    """Raised when an integral or extrapolation misses its tolerance.

    subdivisions is the work spent (subintervals or ladder levels) and
    err_logmag the log of the last error estimate, on the scale of the
    quantity being computed.
    """

    def __init__(self, message: str, subdivisions: int, err_logmag: float):
        super().__init__(message)
        self.subdivisions = subdivisions
        self.err_logmag = err_logmag
