"""The composite Gauss-Legendre rule every quadrature here is built on, and
the error raised when a numerical integral cannot meet its tolerance."""

from __future__ import annotations

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


def gauss_legendre(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights: `order` points on each
    panel between consecutive increasing edges, panel by panel.  Exact for
    polynomials of degree up to 2 * order - 1 on every panel."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()
