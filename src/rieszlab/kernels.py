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
e^-40 of a pair's largest probe, plus one on each side, shifted by that
largest probe.  A block's g - shift is one small matrix product
(`_exponent_rule`, the shift folded in as a fifth feature), within 1.1e-12
of a long-double value on the live nodes of tube and near-diagonal pairs.
A window's largest g exceeds its largest probe by at most 17.1 on tube
pairs (eta 4-40) and near-diagonal pairs (separations 1e-8 to 10), far
below exp's overflow at 709; a row whose sum is not finite all the same is
summed again under its exact max.  Terms more than 700 below the shift are
exactly 0 (so exp never sees its slow underflow range).  Segment sums are
added in order, so a value reads only its own window; one that cancels
below e^-20 of its largest term is summed again over the whole rule.  The
same body gives the boundary form of a ball integral (`_riesz_batch` with
lower = j): Hermite index alpha - e_j on the rule with weights times
sqrt(1 - r^2)/r.
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


def _rule_nodes(n: int, order: int, lowered: bool):
    """Composite nodes by increasing r: (r, w = 1 - r, s^2 = 1 - r^2, log
    weight incl. all r-factors), w and s^2 from the rule's own t and v, never
    from 1 - r; `lowered` multiplies every weight by s/r, the r-factor of the
    boundary form."""
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
    w = np.concatenate((-np.expm1(-t)[::-1], np.exp(-v)))
    one_m_r2 = np.concatenate((one_m_r2_t[::-1], one_m_r2_v))
    logw = np.concatenate(((log_t + np.log(w_t))[::-1], log_v + np.log(w_v)))
    if lowered:
        # from the rule's own 1 - r^2: log1p(-r^2) is -inf where r rounds to 1
        logw += 0.5 * np.log(one_m_r2) - np.log(r)
    return r, w, one_m_r2, logw


@lru_cache(maxsize=32)
def _batch_rule(n: int, order: int):
    """Composite nodes (r, 1/sqrt(1-r^2), log weight incl. all r-factors),
    three arrays by increasing r."""
    r, _, one_m_r2, logw = _rule_nodes(n, order, False)
    return r, 1.0 / np.sqrt(one_m_r2), logw


@lru_cache(maxsize=32)
def _exponent_rule(n: int, order: int, lowered: bool = False):
    """(C, S), read-only, one column per node of `_rule_nodes`: with
    d = x - y, w = 1 - r and s = sqrt(1 - r^2), and as w/s^2 = 1/(1 + r),

      g - shift = log weight - |d + w y|^2/s^2 - shift
                = [1, |d|^2, d.y, |y|^2, -shift] @ C,
      C = [log weight, -1/s^2, -2/(1 + r), -w/(1 + r), 1],
      v_j = 2 u_j = 2 (d_j + w y_j)/s = [d_j, y_j] @ S,  S = [2/s, 2 w/s],

    v_j being the Hermite argument as `_hermite_batch` takes it, and shift
    a pair's own (its largest probe, `_windows`).  w and s^2 come from the
    rule's own nodes, never from 1 - r.  Per node, g is a few ulps of its
    largest product off, and those errors average over a sum's nodes; a
    pair's features are shared by all its nodes, so `_features` rounds
    them once, from long double."""
    r, w, one_m_r2, logw = _rule_nodes(n, order, lowered)
    inv_s = 1.0 / np.sqrt(one_m_r2)
    C = np.array([logw, -1.0 / one_m_r2, -2.0 / (1.0 + r), -w / (1.0 + r), np.ones_like(r)])
    S = np.array([2.0 * inv_s, 2.0 * w * inv_s])
    C.flags.writeable = S.flags.writeable = False
    return C, S


def _features(X, Y) -> np.ndarray:
    """Rows [1, |d|^2, d.y, |y|^2, 0] per pair, d = x - y, each formed in
    long double and rounded once: g = F @ C, and g - shift once the last
    column holds -shift."""
    X, Y = X.astype(np.longdouble), Y.astype(np.longdouble)
    D = X - Y
    F = np.ones((len(X), 5))
    F[:, 4] = 0.0
    for col, (a, b) in enumerate(((D, D), (D, Y), (Y, Y)), 1):
        F[:, col] = (a * b).sum(axis=1)
    return F


def _matmul(a, b, out) -> np.ndarray:
    """out = a @ b, with every row's bits those of gemm whatever its
    block-mates: numpy sends a one-row product to gemv, whose bits differ,
    so a lone row goes in twice."""
    if len(a) == 1:
        out[:] = np.matmul(np.repeat(a, 2, axis=0), b)[:1]
        return out
    return np.matmul(a, b, out=out)


def _hermite_batch(k: int, v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """H_k(v/2), for k <= 4 formed in v's buffer (with `scratch`, of v's
    shape, for k = 3 and 4): as v = 2u doubles exactly, each has the bits of
    the usual polynomial in u, 2u, 4u^2 - 2, u(8u^2 - 12), 16u^4 - 48u^2 + 12."""
    if k == 2:
        np.multiply(v, v, out=v)
        v -= 2.0
    elif k == 3:
        np.multiply(v, v, out=scratch)
        scratch -= 6.0
        v *= scratch
    elif k == 4:
        np.multiply(v, v, out=v)
        np.multiply(v, v, out=scratch)
        v *= 12.0
        np.subtract(scratch, v, out=v)
        v += 12.0
    elif k > 4:
        return np.asarray(hermite1d(k, 0.5 * v))
    return v


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
    separations log-uniform from 1e-3 to 1e-1) the error is at most 8.5e-8
    (tested at 3e-7); it peaks near separation 3e-3, not at 1e-3.  Against
    the 30-digit mpmath references of `bench/oracle_pairs.json` (48 seeded
    n = 2 pairs, orders 1-4) it is at most 2.9e-7 down to separation
    2.3e-4; below that the fixed rule is unconverged, with 18 of 25 pairs
    off by more than 1e-6 and the worst by 3.1e-4 (alpha (2,2) at
    separation 3.8e-5).  These figures are the rule's own, and the
    exponent's rounding does not move them: a block's g - shift is one
    matrix product (`_exponent_rule`), within 1.1e-12 of a long-double
    value on the live nodes of tube and near-diagonal pairs, and the
    Hermite arguments u_j are formed only where alpha_j >= 1.

    Each pair sums, as floats, only its window of the r-sorted rule: the
    _SEGMENT-node segments whose middle-node g = log weight - |u|^2 is
    within e^-_WINDOW_CUT of its largest such probe, plus one on each side,
    under shift = that largest probe.  The window's largest g exceeds it by
    at most 17.1 on tube pairs (eta 4-40, orders 1-5, both forms) and
    near-diagonal pairs (separations 1e-8 to 10, n = 1 and 2), tested at
    100; a row whose sum still overflows is redone under shift = the max of
    g in its window.  Terms outside the window or with g - shift <
    -NEGLIGIBLE_LOGMAG (1e-304 of the shift's weight) are exactly 0,
    segment sums are added in order, and a sum below e^-_GUARD of its
    largest term is redone over the whole rule.  A Hermite factor that
    overflows at a kept node raises ValueError, which takes an order in the
    hundreds: H_40 at x = 0.5, y = 1.5 overflows only at dropped nodes and
    matches an mpmath reference to 1e-9.  Rows sorted by window go in
    blocks of about 2^15 pair-nodes of their windows' union, so that a
    block's temporaries stay in a core's L2 cache; no value depends on a
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
    rule = _exponent_rule(n, order, lower is not None)
    nodes = rule[0].shape[1]
    segs = nodes // _SEGMENT
    cuts = np.arange(0, nodes + 1, _SEGMENT)
    feats = _features(X, Y)
    # (d_j, y_j) of every row, per coordinate j with a Hermite factor
    js = [j for j, k in enumerate(hermite) if k]
    ks = [hermite[j] for j in js]
    args = np.stack(((X - Y)[:, js].T, Y[:, js].T), axis=-1)
    cap = min(len(X) * nodes, max(_BLOCK_PAIR_NODES, nodes))
    bufs = (np.empty((n + 2) * cap), np.empty(cap, dtype=bool))
    sums = np.empty((3, len(X)))  # per row: sum, shift, largest |term|
    lo, hi = np.empty(len(X), dtype=int), np.empty(len(X), dtype=int)

    def window_sums(rows):
        # a Hermite factor that overflows at a dead node leaves no trace,
        # while a window max more than ~709 above the probe max would
        # overflow exp: a row whose sum is not finite is summed again under
        # its exact max, and only an overflow at a live node survives that
        for exact in (False, True):
            if not rows.size:
                return
            for i, lo_i, hi_i in _window_blocks(rows, lo[rows], hi[rows], cuts):
                sums[:, i] = _window_sums(ks, rule, feats[i], args[:, i], lo_i, hi_i, bufs, exact)
            rows = rows[~np.isfinite(sums[0, rows])]
            feats[rows, 4] = 0.0
        if rows.size:
            raise ValueError(f"Hermite factor of order {sum(ks)} overflows at a live node")

    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _row_blocks(len(X), segs):
            lo[chunk], hi[chunk], feats[chunk, 4] = _windows(rule, feats[chunk])
            window_sums(np.arange(chunk.start, chunk.stop))
        total, shift, top = sums
        redo = np.flatnonzero(np.abs(total) < math.exp(-_GUARD) * top)
        lo[redo], hi[redo] = 0, segs
        window_sums(redo)
    pref = _riesz_prefactor(n, order)
    with np.errstate(divide="ignore"):
        # in long double: a rounding here is the same for all of a row's
        # terms, so unlike theirs it does not average out
        logmags = np.log(np.abs(total)) + (shift.astype(np.longdouble) + pref.logmag)
        logmags = logmags.astype(float)
    return np.sign(total).astype(int) * pref.sign, logmags


def _windows(rule, F) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, -shift): row i's window is segments lo[i]..hi[i]-1 of the
    rule (C, S) of `_exponent_rule`, probed at each segment's middle node,
    and shift its largest probe (0 if none is finite); F holds the rows'
    `_features`."""
    probes = np.ascontiguousarray(rule[0][:, _SEGMENT // 2 :: _SEGMENT])
    g = _matmul(F, probes, np.empty((len(F), probes.shape[1])))
    shift = g.max(axis=1)
    return *_live_panels(g.T), np.where(np.isfinite(shift), -shift, 0.0)


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


def _window_sums(ks, rule, F, args, lo, hi, bufs, exact=False):
    """(sum, shift, largest |term|) per row over segments lo..hi-1, given per
    row or once for all rows, on the rule (C, S) of `_exponent_rule`.  F
    holds the rows' `_features` with -shift in its last column, so that one
    product gives g - shift; with exact, that column is 0 and shift is the
    row's largest g.  args[i] holds the rows' (d_j, y_j) for the i-th
    coordinate with a Hermite factor, of order ks[i]; with none, the
    product is 1.  Computed in place in `bufs`."""
    C, S = rule
    first, last = int(lo.min()), int(hi.max())
    nodes = slice(first * _SEGMENT, last * _SEGMENT)
    width = (last - first) * _SEGMENT
    size = len(F) * width
    g = _matmul(F, C[:, nodes], bufs[0][:size].reshape(len(F), width))
    dead = bufs[1][:size].reshape(len(F), width)
    # row block i of v: v_j = 2 u_j of the i-th Hermite factor at every (pair, node)
    v = bufs[0][size : (len(ks) + 1) * size].reshape(-1, width)
    _matmul(args.reshape(-1, 2), S[:, nodes], v)
    scratch = bufs[0][(len(ks) + 1) * size : (len(ks) + 2) * size].reshape(len(F), width)
    h = None
    for k, vj in zip(ks, v.reshape(len(ks), len(F), width)):
        hv = _hermite_batch(k, vj, scratch)
        h = hv if h is None else np.multiply(h, hv, out=h)
    cuts = np.arange(0, C.shape[1] + 1, _SEGMENT)
    total, shift = _panel_sums(g, cuts, lo, hi, dead, h, None if exact else -F[:, 4])
    return total, shift, np.abs(g, out=g).max(axis=1)


def _panel_sums(g, cuts, lo, hi, dead=None, h=None, shift=None):
    """(sum, shift) per row of the terms e^g (times h) over panels lo..hi-1
    of `cuts`, g holding the windows' union; g becomes the terms / e^shift.
    shift is each row's largest g, unless given, when g already holds
    g - shift.  Terms outside a row's window or with g - shift <
    -NEGLIGIBLE_LOGMAG are exactly 0 (the clip keeps exp off its slow
    underflow range), and panel sums are added in order, so those zeros
    change no bit."""
    first, last = int(lo.min()), int(hi.max())
    if lo.max() > first or hi.min() < last:
        panels = np.arange(first, last)
        outside = (panels < lo[:, None]) | (panels >= hi[:, None])
        np.copyto(g, -np.inf, where=np.repeat(outside, np.diff(cuts[first : last + 1]), axis=1))
    if shift is None:
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
