"""Physicists' Hermite polynomials, their normalized tensor versions, and the
Gaussian density.

Conventions: H_k has leading coefficient 2^k and satisfies the recurrence
H_{k+1}(s) = 2 s H_k(s) - 2 k H_{k-1}(s).  The normalized version
h_beta = 2^{-|beta|/2} (beta!)^{-1/2} H_beta makes {gauss * h_beta} an
orthonormal family in L^2 of the inverse-Gaussian measure.
"""

from __future__ import annotations

import math

import numpy as np

from rieszlab.geometry import MultiIndex
from rieszlab.logscaled import LogScaled

__all__ = [
    "hermite1d",
    "hermite_multi",
    "h_normalized",
    "h_normalized_table",
    "log_h_norm_const",
    "gauss_density",
    "gamma_h",
]


def hermite1d(k: int, s):
    """H_k(s) by the three-term recurrence.

    Parameters
    ----------
    k : degree, any non-negative integer (stable up to a few hundred).
    s : float or ndarray.

    Returns
    -------
    Same shape as s.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    s = np.asarray(s, dtype=float)
    prev = np.ones_like(s)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * s
    for j in range(1, k):
        prev, cur = cur, 2.0 * s * cur - 2.0 * j * prev
    return cur if cur.ndim else float(cur)


def h_normalized_table(kmax: int, s: np.ndarray) -> np.ndarray:
    """Normalized degrees 0..kmax at once; shape (kmax + 1, len(s)).

    Runs the rescaled recurrence
        h_{k+1}(s) = s sqrt(2/(k+1)) h_k(s) - sqrt(k/(k+1)) h_{k-1}(s),
    whose entries stay O(exp(s^2/2)), so it is usable at degrees where the
    raw H_k recurrence would overflow.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    table = np.empty((kmax + 1, s.size))
    table[0] = 1.0
    if kmax >= 1:
        table[1] = math.sqrt(2.0) * s
    for k in range(1, kmax):
        table[k + 1] = s * math.sqrt(2.0 / (k + 1)) * table[k] - math.sqrt(
            k / (k + 1.0)
        ) * table[k - 1]
    return table


def hermite_multi(alpha: MultiIndex, x) -> float | np.ndarray:
    """Tensor product H_alpha(x) = prod_j H_{alpha_j}(x_j).

    x has shape (dim,) or (m, dim); the result is a float or an (m,) array.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != alpha.dim:
        raise ValueError(f"point dimension {pts.shape[1]} != index dimension {alpha.dim}")
    out = np.ones(pts.shape[0])
    for j, k in enumerate(alpha):
        if k > 0:
            out = out * hermite1d(k, pts[:, j])
    return out if x.ndim == 2 else float(out[0])


def log_h_norm_const(beta: MultiIndex) -> float:
    """log of the normalizing factor 2^{-|beta|/2} (beta!)^{-1/2}."""
    return -0.5 * beta.order * math.log(2.0) - 0.5 * beta.log_factorial()


def h_normalized(beta: MultiIndex, x) -> float | np.ndarray:
    """Normalized tensor Hermite polynomial h_beta(x)."""
    scale = math.exp(log_h_norm_const(beta))
    return scale * hermite_multi(beta, x)


def gauss_density(x) -> LogScaled:
    """Gaussian density pi^{-n/2} exp(-|x|^2) as a log-scaled value."""
    x = np.asarray(x, dtype=float)
    n = x.size
    return LogScaled.from_log(-0.5 * n * math.log(math.pi) - float(np.dot(x, x)))


def gamma_h(beta: MultiIndex, x) -> LogScaled:
    """(gauss * h_beta)(x) in the log domain, safe far into the tails."""
    x = np.asarray(x, dtype=float)
    h = hermite_multi(beta, x)
    if h == 0.0:
        return LogScaled.zero()
    sign = 1 if h > 0 else -1
    logmag = math.log(abs(h)) + log_h_norm_const(beta)
    return LogScaled.from_log(logmag, sign) * gauss_density(x)
