"""Heat and Riesz-transform kernels of the inverse-Gaussian Laplacian,
evaluated off the diagonal in the log domain.

The Riesz kernel of order alpha is the one-dimensional integral

  K(x, y) = c_alpha int_0^1 r^{n-1} (-log r)^{|alpha|/2 - 1} (1 - r^2)^{-(n+|alpha|)/2}
                    H_alpha(u) exp(-|u|^2) dr,    u = (x - r y)/sqrt(1 - r^2),

with c_alpha = (-1)^|alpha| / (Gamma(|alpha|/2) pi^{n/2}).  `riesz_kernel`
evaluates one pair by adaptive quadrature with an error estimate;
`riesz_kernel_batch` evaluates many pairs on a fixed composite rule.  It
sums each pair's rule as floats: g = log weight - |u|^2 is shifted by its
largest value over the nodes, each term is exp(g - shift) times H_alpha(u)
formed as a float product, and terms with g - shift below -700 are exactly
0 (so exp never takes an argument in its slow underflow range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from rieszlab.geometry import MultiIndex
from rieszlab.hermite import hermite1d
from rieszlab.logscaled import NEGLIGIBLE_LOGMAG, LogScaled
# not called here; bench/workloads.py traces patch kernels.signed_logsumexp
from rieszlab.logscaled import signed_logsumexp  # noqa: F401
from rieszlab.quadrature import NonConvergenceError, gauss_legendre

__all__ = [
    "KernelValue",
    "heat_kernel",
    "riesz_kernel",
    "riesz_kernel_batch",
]

# QUADPACK subinterval budget and the absolute tolerance relative to a
# coarse integral of |integrand|; a purely relative tolerance fails with a
# round-off error on integrals that cancel, such as n = 1 with an even order
# near the diagonal
_QUAD_LIMIT = 200
_QUAD_TOL = 1e-10
# Gauss-Legendre nodes per breakpoint interval of the coarse |integrand| rule
_COARSE_ORDER = 16


@dataclass(frozen=True)
class KernelValue:
    value: LogScaled
    subdivisions: int
    err_logmag: float


def heat_kernel(t: float, x: np.ndarray, y: np.ndarray) -> LogScaled:
    """Mehler-type heat kernel at time t > 0, with respect to Lebesgue
    measure in y.  Integrates to 1 in y and to e^{-n t} in x.  A non-finite
    t, x or y raises ValueError."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError("time must be finite and positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("kernel needs finite x and y")
    n = x.size
    decay = -math.expm1(-2.0 * t)  # 1 - e^{-2t}, accurate for small t
    diff = x - math.exp(-t) * y
    logmag = (
        -n * t
        - 0.5 * n * math.log(math.pi)
        - 0.5 * n * math.log(decay)
        - float(np.dot(diff, diff)) / decay
    )
    return LogScaled.from_log(logmag)


def _riesz_prefactor(n: int, order: int) -> LogScaled:
    sign = -1 if order % 2 else 1
    return LogScaled.from_log(
        -math.lgamma(0.5 * order) - 0.5 * n * math.log(math.pi), sign
    )


def _log_integrand(
    alpha: MultiIndex, x: np.ndarray, y: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g, H) at r = e^{-t} for an array of t > 0: the integrand in t is
    exp(g) times the float Hermite product H, which may overflow where
    exp(g) leaves nothing.

    In t, 1 - r^2 = -expm1(-2t) and x - r y = (x - y) - expm1(-t) y keep
    full precision near the diagonal, where the mass sits at t ~ |x - y|^2,
    and -log r = t keeps it toward r = 0, where high orders put theirs."""
    n, order = x.size, alpha.order
    one_m_r2 = -np.expm1(-2.0 * t)
    u = ((x - y)[:, None] - np.multiply.outer(y, np.expm1(-t))) / np.sqrt(one_m_r2)
    h = np.ones_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, uj in zip(alpha, u):
            if k:
                h = h * hermite1d(k, uj)
    g = -n * t + (0.5 * order - 1.0) * np.log(t) - 0.5 * (n + order) * np.log(one_m_r2)
    return g - (u * u).sum(axis=0), h


def _breakpoints(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """t* = -log r* for the minimiser r* of |x - r y|^2/(1 - r^2), and
    min(t*, 1/2) 4^k for k = -12..12, inside (0, 700); beyond t = 700 the
    factor r^n = e^{-n t} leaves nothing."""
    d = float(np.linalg.norm(x - y))
    t = float(np.linalg.norm(x + y))
    s = float(x @ x + y @ y)
    # r* = 2 x.y/(s + d t), and s - 2 x.y = d^2 gives 1 - r* without cancellation
    t_star = -math.log1p(-d * (d + t) / (s + d * t)) if float(x @ y) > 0.0 else math.inf
    pts = {t_star} | {min(t_star, 0.5) * 4.0**k for k in range(-12, 13)}
    return np.array(sorted(p for p in pts if 0.0 < p < NEGLIGIBLE_LOGMAG))


def riesz_kernel(alpha: MultiIndex, x: np.ndarray, y: np.ndarray) -> KernelValue:
    """Riesz-transform kernel of order alpha at an off-diagonal pair.

    One QUADPACK integration (scipy.integrate.quad) in t = -log r over
    (0, 700), with breakpoints from `_breakpoints`, an absolute tolerance
    of 1e-10 times a coarse integral of |integrand|, and the integrand
    formed as in `riesz_kernel_batch`: exp(g - shift) times the float
    Hermite product, with shift the largest g over the breakpoints and the
    coarse rule, and terms with g - shift < -NEGLIGIBLE_LOGMAG exactly 0.
    A Hermite factor may thus overflow where the Gaussian leaves nothing
    (H_40 at x = 0.5, y = 1.5 matches its mpmath reference); one that
    overflows on the coarse rule's live nodes raises ValueError.
    subdivisions and err_logmag report QUADPACK's subinterval count and
    error estimate.  Against the 48 mpmath references of
    `bench/oracle_pairs.json` (separations 1e-6 to 1e-1) the error is at
    most 1e-12 of the prefactor times the integral of |integrand|.  A
    failure of the integrator raises NonConvergenceError; a diagonal pair
    or a non-finite x or y raises ValueError.
    """
    from scipy.integrate import quad

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if alpha.dim != x.size or x.size != y.size:
        raise ValueError("dimension mismatch between alpha, x, y")
    if alpha.order < 1:
        raise ValueError("order must be at least 1")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("kernel needs finite x and y")
    if float(np.linalg.norm(x - y)) == 0.0:
        raise ValueError("kernel undefined on the diagonal")
    pts = _breakpoints(x, y)
    edges = np.concatenate(([0.0], pts, [NEGLIGIBLE_LOGMAG]))
    nodes, weights = gauss_legendre(edges, _COARSE_ORDER)
    g_all, h_all = _log_integrand(alpha, x, y, np.concatenate((pts, nodes)))
    shift = float(g_all.max())

    def terms(g: np.ndarray, h: np.ndarray) -> np.ndarray:
        # exp(g - shift) H as in riesz_kernel_batch: exactly 0 where
        # g - shift < -NEGLIGIBLE_LOGMAG, whatever H is there
        with np.errstate(over="ignore", invalid="ignore"):
            live = np.exp(np.maximum(g - shift, -NEGLIGIBLE_LOGMAG)) * h
        return np.where(g - shift < -NEGLIGIBLE_LOGMAG, 0.0, live)

    mass = float(weights @ np.abs(terms(g_all[pts.size :], h_all[pts.size :])))
    if not math.isfinite(mass):
        raise ValueError(f"Hermite factor of order {alpha.order} overflows at a live node")
    if mass == 0.0:  # H is 0 at every node, as for x_j = y_j = 0 with k_j odd
        return KernelValue(value=LogScaled.zero(), subdivisions=0, err_logmag=-math.inf)

    def f(t: float) -> float:
        return float(terms(*_log_integrand(alpha, x, y, np.array([t])))[0])

    value, err, info, *failure = quad(
        f,
        0.0,
        NEGLIGIBLE_LOGMAG,
        points=pts,
        limit=_QUAD_LIMIT,
        epsabs=_QUAD_TOL * mass,
        epsrel=0.0,
        full_output=1,
    )
    pref = _riesz_prefactor(x.size, alpha.order)
    err_logmag = math.log(err) + shift + pref.logmag if err > 0 else -math.inf
    if failure:
        raise NonConvergenceError(
            f"quad gave up after {info['last']} subintervals: {failure[0]}",
            subdivisions=info["last"],
            err_logmag=err_logmag,
        )
    total = LogScaled.from_float(value) * LogScaled.from_log(shift) * pref
    return KernelValue(value=total, subdivisions=info["last"], err_logmag=err_logmag)


# ---------------------------------------------------------------------------
# vectorized fixed-rule evaluation for parameter sweeps


_T_EDGES = (math.log(2.0), 1.2, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0)
_V_EDGES = (math.log(2.0), 1.1, 1.6, 2.2, 3.0, 4.0, 5.5, 8.0, 12.0, 18.0, 28.0, 45.0)
_BATCH_ORDER = 24
# pair-nodes per row block of a (rows, nodes) evaluation: a block's
# temporaries then fit a core's L2 cache, while whole 512-row kernel blocks
# (12 MB at 432 nodes) did not
_BLOCK_PAIR_NODES = 2**15


def _row_blocks(m: int, nodes: int, rows: int | None = None) -> list[slice]:
    """Slices covering rows 0..m-1 once and in order, `rows` at a time;
    by default as many rows as fit _BLOCK_PAIR_NODES pair-nodes, at least 1."""
    rows = rows or max(1, _BLOCK_PAIR_NODES // nodes)
    return [slice(start, min(start + rows, m)) for start in range(0, m, rows)]


@lru_cache(maxsize=32)
def _batch_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite nodes (r, 1/sqrt(1-r^2), log weight incl. all r-factors)."""
    t, w_t = gauss_legendre(_T_EDGES, _BATCH_ORDER)
    v, w_v = gauss_legendre(_V_EDGES, _BATCH_ORDER)
    # t = -log r toward r = 0, v = -log(1 - r) toward r = 1
    r_t = np.exp(-t)
    one_m_r2_t = -np.expm1(-2.0 * t)
    log_t = (
        -n * t
        + (0.5 * order - 1.0) * np.log(t)
        - 0.5 * (n + order) * np.log(one_m_r2_t)
    )
    r_v = -np.expm1(-v)
    one_m_r2_v = np.exp(-v) * (1.0 + r_v)
    log_v = (
        (n - 1) * np.log(r_v)
        + (0.5 * order - 1.0) * np.log(-np.log1p(-np.exp(-v)))
        - 0.5 * (n + order) * np.log(one_m_r2_v)
        - v
    )
    one_m_r2 = np.concatenate((one_m_r2_t, one_m_r2_v))
    return (
        np.concatenate((r_t, r_v)),
        1.0 / np.sqrt(one_m_r2),
        np.concatenate((log_t + np.log(w_t), log_v + np.log(w_v))),
    )


def _hermite_batch(k: int, u: np.ndarray) -> np.ndarray:
    if k == 0:
        return np.ones_like(u)
    if k == 1:
        return 2.0 * u
    if k == 2:
        return 4.0 * u * u - 2.0
    if k == 3:
        return u * (8.0 * u * u - 12.0)
    if k == 4:
        u2 = u * u
        return 16.0 * u2 * u2 - 48.0 * u2 + 12.0
    return np.asarray(hermite1d(k, u))


def riesz_kernel_batch(
    alpha: MultiIndex, X: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Riesz kernel over many pairs at once on a fixed composite rule.

    Parameters
    ----------
    X, Y : finite arrays of shape (m, n); a row with x == y, or a NaN or
        inf entry, raises ValueError.

    Returns
    -------
    (signs, logmags) arrays of shape (m,).  Errors are relative to the
    prefactor times the integral of |integrand|.  Against `riesz_kernel`
    on 160 seeded pairs (n = 1 and 2, orders 1-5, |x| from 0.2 to 8,
    separations log-uniform from 1e-3 to 1e-1) the error is at most 3e-7;
    it peaks near separation 3e-3, not at 1e-3.  Against the 30-digit
    mpmath references of `bench/oracle_pairs.json` (48 seeded n = 2 pairs,
    orders 1-4) it is at most 2.9e-7 down to separation 2.3e-4; below
    that the fixed rule is unconverged, with 18 of 25 pairs off by more
    than 1e-6 and the worst by 3.1e-4 (alpha (2,2) at separation 3.8e-5).

    Each pair's rule is summed as floats under one Gaussian shift: with
    g = log weight - |u|^2 and shift = max over the nodes of g, the sum is
    exp(shift) times the sum of exp(g - shift) H_alpha(u), with H_alpha the
    float product of its one-dimensional Hermite factors.  Terms with
    g - shift < -NEGLIGIBLE_LOGMAG (-700) are exactly 0, at most 1e-304 of
    the largest weight; on far tube/ball pairs that is a large share of
    the nodes.  A Hermite factor that overflows at a node that is kept
    raises ValueError.  That takes an order in the hundreds: H_40 at
    x = 0.5, y = 1.5 overflows only at dropped nodes, and the value matches
    an mpmath reference to 1e-9.  Rows go in blocks of 2^15 pair-nodes
    (75 rows of the 432-node rule) so that a block's temporaries stay in a
    core's L2 cache.  Every operation is row-local, so no value depends on
    the block size.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape or X.shape[1] != alpha.dim:
        raise ValueError("shape mismatch between alpha, X, Y")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("kernel needs finite X and Y")
    if (X == Y).all(axis=1).any():
        raise ValueError("kernel undefined on the diagonal")
    n, order = X.shape[1], alpha.order
    if order < 1:
        raise ValueError("order must be at least 1")
    r, inv_s, logw = _batch_rule(n, order)
    pref = _riesz_prefactor(n, order)
    m = X.shape[0]
    blocks = _row_blocks(m, r.size)
    rows = blocks[0].stop if blocks else 0
    u_buf = np.empty((n, rows, r.size))
    g_buf = np.empty((rows, r.size))
    sq_buf = np.empty((rows, r.size))
    dead_buf = np.empty((rows, r.size), dtype=bool)
    signs = np.empty(m, dtype=int)
    logmags = np.empty(m, dtype=float)
    # a Hermite factor may overflow at a dead node, whose term is set to 0;
    # an overflow at a live node raises after the row sums
    with np.errstate(over="ignore", invalid="ignore"):
        for blk in blocks:
            # u[j] is coordinate j at every (pair, node), shape (rows, nodes),
            # so each operation runs over contiguous node rows
            xb = X[blk].T[:, :, None]
            yb = Y[blk].T[:, :, None]
            b = xb.shape[1]
            u, g, dead = u_buf[:, :b], g_buf[:b], dead_buf[:b]
            np.multiply(yb, -r, out=u)
            u += xb
            u *= inv_s
            # g = log weight - |u|^2, shifted by its row maximum
            np.multiply(u[0], u[0], out=g)
            for j in range(1, n):
                g += np.multiply(u[j], u[j], out=sq_buf[:b])
            np.subtract(logw, g, out=g)
            shift = g.max(axis=1)
            g -= shift[:, None]
            h = None
            for j, k in enumerate(alpha):
                if k:
                    hv = _hermite_batch(k, u[j])
                    h = hv if h is None else np.multiply(h, hv, out=h)
            # term = exp(g) * H at live nodes, g >= -NEGLIGIBLE_LOGMAG, and
            # exactly 0 at dead ones; the clip keeps exp off its slow
            # underflow range
            np.less(g, -NEGLIGIBLE_LOGMAG, out=dead)
            np.maximum(g, -NEGLIGIBLE_LOGMAG, out=g)
            np.exp(g, out=g)
            g *= h
            np.copyto(g, 0.0, where=dead)
            total = g.sum(axis=1)
            if not np.isfinite(total).all():
                raise ValueError(f"Hermite factor of order {order} overflows at a live node")
            with np.errstate(divide="ignore"):
                logmags[blk] = np.log(np.abs(total)) + shift + pref.logmag
            signs[blk] = np.sign(total).astype(int) * pref.sign
    return signs, logmags
