"""The composite Gauss-Legendre rule every quadrature here is built on, and
the error raised when a numerical integral cannot meet its tolerance."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["NonConvergenceError", "gauss_legendre"]


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


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's rule on [-1, 1], once per order and read-only: callers share it."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights: `order` points on each
    panel between consecutive increasing edges, panel by panel.  Exact for
    polynomials of degree up to 2 * order - 1 on every panel.  The arrays
    returned are fresh; the [-1, 1] rule behind them is cached per order."""
    x, w = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()
