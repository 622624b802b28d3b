"""Heat and Riesz-transform kernels of the inverse-Gaussian Laplacian,
evaluated off the diagonal in the log domain.

The Riesz kernel of order alpha is the one-dimensional integral

  K(x, y) = c_alpha int_0^1 r^{n-1} (-log r)^{|alpha|/2 - 1} (1 - r^2)^{-(n+|alpha|)/2}
                    H_alpha(u) exp(-|u|^2) dr,    u = (x - r y)/sqrt(1 - r^2),

with c_alpha = (-1)^|alpha| / (Gamma(|alpha|/2) pi^{n/2}).  `riesz_kernel`
evaluates one pair by adaptive quadrature with an error estimate;
`riesz_kernel_batch` evaluates many pairs on a fixed composite rule,
sorted by r and cut into 16-node segments.  Probing g = log weight - |u|^2
at each segment's middle node, it sums as floats only the segments within
e^-40 of a pair's largest probe, plus one on each side, shifted by the
largest g there; terms more than 700 below the shift are exactly 0 (so exp
never sees its slow underflow range).  Segment sums are added in order, so
a value reads only its own window; one that cancels below e^-20 of its
largest term is summed again over the whole rule.  The same body gives the
boundary form of a ball integral (`_riesz_batch` with lower = j): Hermite
index alpha - e_j on the rule with weights times sqrt(1 - r^2)/r.
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
_SEGMENT = 16
_WINDOW_CUT = 40.0
_GUARD = 20.0


def _row_blocks(m: int, nodes: int, rows: int | None = None) -> list[slice]:
    """Slices covering rows 0..m-1 once and in order, `rows` at a time;
    by default as many rows as fit _BLOCK_PAIR_NODES pair-nodes, at least 1."""
    rows = rows or max(1, _BLOCK_PAIR_NODES // nodes)
    return [slice(start, min(start + rows, m)) for start in range(0, m, rows)]


@lru_cache(maxsize=32)
def _batch_rule(n: int, order: int, lowered: bool = False):
    """Composite nodes (r, 1/sqrt(1-r^2), log weight incl. all r-factors),
    three arrays by increasing r; `lowered` multiplies every weight by
    sqrt(1-r^2)/r, the r-factor of the boundary form."""
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
    # r falls along the t nodes and rises along the v nodes
    r = np.concatenate((r_t[::-1], r_v))
    one_m_r2 = np.concatenate((one_m_r2_t[::-1], one_m_r2_v))
    logw = np.concatenate(((log_t + np.log(w_t))[::-1], log_v + np.log(w_v)))
    if lowered:
        # from the rule's own 1 - r^2: log1p(-r^2) is -inf where r rounds to 1
        logw += 0.5 * np.log(one_m_r2) - np.log(r)
    return r, 1.0 / np.sqrt(one_m_r2), logw


def _hermite_batch(k: int, u: np.ndarray) -> np.ndarray:
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

    Each pair sums, as floats, only its window of the r-sorted rule: the
    _SEGMENT-node segments whose middle-node g = log weight - |u|^2 is
    within e^-_WINDOW_CUT of its largest such probe, plus one on each side,
    under shift = the max of g there.  Terms outside the window or with
    g - shift < -NEGLIGIBLE_LOGMAG (1e-304 of the largest weight) are
    exactly 0, segment sums are added in order, and a sum below e^-_GUARD
    of its largest term is redone over the whole rule.  A Hermite factor
    that overflows at a kept node raises ValueError, which takes an order
    in the hundreds: H_40 at x = 0.5, y = 1.5 overflows only at dropped
    nodes and matches an mpmath reference to 1e-9.  Rows sorted by window
    go in blocks of about 2^15 pair-nodes of their windows' union, so that
    a block's temporaries stay in a core's L2 cache; no value depends on a
    row's block or block-mates.  The boundary form (`_riesz_batch`) runs
    through the same body.
    """
    return _riesz_batch(alpha, X, Y, None)


def _riesz_batch(alpha, X, Y, lower: int | None):
    """riesz_kernel_batch, or with lower = j its boundary form: prefactor
    c_alpha, Hermite index alpha - e_j, rule weights times s/r with
    s = sqrt(1 - r^2).  As H_alpha(u) e^{-|u|^2} is s/r times the y_j-
    derivative of H_{alpha-e_j}(u) e^{-|u|^2}, int_B K_alpha(x, y) dy is
    the integral over the sphere dB of nu_j times this kernel."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape or X.shape[1] != alpha.dim:
        raise ValueError("shape mismatch between alpha, X, Y")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("kernel needs finite X and Y")
    if (X == Y).all(axis=1).any():
        raise ValueError("kernel undefined on the diagonal")
    n, order = X.shape[1], alpha.order
    if order < 1 or (lower is not None and alpha.entries[lower] < 1):
        raise ValueError("order must be at least 1, and alpha_j at least 1 to lower j")
    hermite = list(alpha)
    if lower is not None:
        hermite[lower] -= 1
    rule = _batch_rule(n, order, lower is not None)
    nodes = rule[0].size
    cap = min(len(X) * nodes, max(_BLOCK_PAIR_NODES, nodes))
    bufs = (np.empty((n + 1) * cap), np.empty(cap, dtype=bool))
    sums = np.empty((3, len(X)))  # per row: sum, shift, largest |term|
    # a Hermite factor may overflow at a dead node, whose term is set to 0;
    # an overflow at a live node raises after the row sums
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _row_blocks(len(X), nodes // _SEGMENT):
            lo, hi = _windows(rule, X[chunk], Y[chunk])
            rows = np.arange(chunk.start, chunk.stop)
            for i, lo_i, hi_i in _window_blocks(rows, lo, hi, np.arange(0, nodes + 1, _SEGMENT)):
                sums[:, i] = _window_sums(hermite, rule, X[i], Y[i], lo_i, hi_i, bufs)
        total, shift, top = sums
        redo = np.flatnonzero(np.abs(total) < math.exp(-_GUARD) * top)
        whole = np.array([0]), np.array([nodes // _SEGMENT])
        for i in (redo[b] for b in _row_blocks(redo.size, nodes)):
            sums[:, i] = _window_sums(hermite, rule, X[i], Y[i], *whole, bufs)
    pref = _riesz_prefactor(n, order)
    with np.errstate(divide="ignore"):
        logmags = np.log(np.abs(total)) + shift + pref.logmag
    return np.sign(total).astype(int) * pref.sign, logmags


def _windows(rule, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): row i's window is segments lo[i]..hi[i]-1 of the rule."""
    r, inv_s, logw = rule
    mid = slice(_SEGMENT // 2, None, _SEGMENT)
    # probes down axis 0, so every operation runs along rows of pairs
    g = np.zeros((r.size // _SEGMENT, X.shape[0]))
    for xj, yj in zip(np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)):
        u = (xj - r[mid, None] * yj) * inv_s[mid, None]
        g += u * u
    np.subtract(logw[mid, None], g, out=g)
    return _live_panels(g)


def _live_panels(g) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per column of probes g (panels in order, rows): panels
    lo..hi-1 hold every probe within e^-_WINDOW_CUT of the column's
    largest, plus one on each side; all panels if no probe is finite."""
    live = g >= g.max(axis=0) - _WINDOW_CUT
    lo = np.maximum(live.argmax(axis=0) - 1, 0)
    hi = np.minimum(len(g) + 1 - live[::-1].argmax(axis=0), len(g))
    return lo, hi


def _window_blocks(rows, lo, hi, cuts, pair_nodes: int | None = None):
    """(rows, lo, hi) per block of the rows sorted by window, so that most
    blocks compute no node outside one, at about pair_nodes (by default
    _BLOCK_PAIR_NODES) pair-nodes of their windows' union (panels of cuts)."""
    by_window = np.lexsort((hi, lo))
    rows, lo, hi = rows[by_window], lo[by_window], hi[by_window]
    union = int(cuts[hi.max()] - cuts[lo.min()])
    blocks = _row_blocks(rows.size, union, max(1, (pair_nodes or _BLOCK_PAIR_NODES) // union))
    return [(rows[b], lo[b], hi[b]) for b in blocks]


def _window_sums(hermite, rule, X, Y, lo, hi, bufs):
    """(sum, shift, largest |term|) per row over segments lo..hi-1, given per
    row or once for all rows, of the terms with Hermite index `hermite` (a
    product of 1 at order 0); computed in place in `bufs`."""
    r, inv_s, logw = rule
    b, n = X.shape
    first, last = int(lo.min()), int(hi.max())
    nodes = slice(first * _SEGMENT, last * _SEGMENT)
    size = b * (last - first) * _SEGMENT
    # u[j]: coordinate j at every (pair, node), contiguous along the nodes
    u = bufs[0][: n * size].reshape(n, b, -1)
    g = bufs[0][n * size : (n + 1) * size].reshape(b, -1)
    dead = bufs[1][:size].reshape(b, -1)
    np.multiply(Y.T[:, :, None], -r[nodes], out=u)
    u += X.T[:, :, None]
    u *= inv_s[nodes]
    h = None
    for j, k in enumerate(hermite):
        if k:
            hv = _hermite_batch(k, u[j])
            h = hv if h is None else np.multiply(h, hv, out=h)
    np.square(u, out=u)
    np.subtract(logw[nodes], u.sum(axis=0, out=g), out=g)
    total, shift = _panel_sums(g, np.arange(0, r.size + 1, _SEGMENT), lo, hi, dead, h)
    if not np.isfinite(total).all():
        raise ValueError(f"Hermite factor of order {sum(hermite)} overflows at a live node")
    return total, shift, np.maximum(g.max(axis=1), -g.min(axis=1))


def _panel_sums(g, cuts, lo, hi, dead=None, h=None):
    """(sum, shift) per row of the terms e^g (times h) over panels lo..hi-1
    of `cuts`, g holding the windows' union; g becomes the terms / e^shift.
    Terms outside a row's window or with g - shift < -NEGLIGIBLE_LOGMAG
    are exactly 0 (the clip keeps exp off its slow underflow range), and
    panel sums are added in order, so those zeros change no bit."""
    first, last = int(lo.min()), int(hi.max())
    if lo.max() > first or hi.min() < last:
        panels = np.arange(first, last)
        outside = (panels < lo[:, None]) | (panels >= hi[:, None])
        np.copyto(g, -np.inf, where=np.repeat(outside, np.diff(cuts[first : last + 1]), axis=1))
    shift = g.max(axis=1)
    shift[shift == -np.inf] = 0.0
    g -= shift[:, None]
    dead = np.less(g, -NEGLIGIBLE_LOGMAG, out=dead)
    np.maximum(g, -NEGLIGIBLE_LOGMAG, out=g)
    np.exp(g, out=g)
    if h is not None:
        g *= h
    np.copyto(g, 0.0, where=dead)
    return np.add.reduceat(g, cuts[first:last] - cuts[first], axis=1).cumsum(axis=1)[:, -1], shift
