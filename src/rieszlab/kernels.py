"""Heat and Riesz-transform kernels of the inverse-Gaussian Laplacian,
evaluated off the diagonal in the log domain.

All kernels are one-dimensional integrals over r in (0, 1) after the change
of variable r = e^{-t}.  Two algebraically equal forms of the Riesz integrand
are kept:

  direct    ... H_alpha(u) exp(-|x - r y|^2 / (1 - r^2)),
  factored  ... H_alpha(u) exp(-|r x - y|^2 / (1 - r^2)),

with u = (x - r y)/sqrt(1 - r^2); the factored form carries the constant
exp(-|x|^2 + |y|^2) outside the integral.  The direct form is the default on
the near-diagonal region, the factored one in the global region where the
outside constant is the quantity of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from rieszlab.geometry import MultiIndex
from rieszlab.hermite import hermite1d, hermite_multi
from rieszlab.logscaled import LogScaled, log_sum, signed_logsumexp
from rieszlab.quadrature import QuadratureConfig, integrate01_with_info
from rieszlab.regions import in_N

__all__ = [
    "KernelValue",
    "heat_kernel",
    "riesz_integrand",
    "riesz_kernel",
    "riesz_kernel_batch",
]

FORMS = ("direct", "factored")

# default splitting point between the two endpoint substitutions
_SPLIT = 0.5


@dataclass(frozen=True)
class KernelValue:
    value: LogScaled
    form: str
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


def _log_one_minus_r2(r: float) -> float:
    return math.log1p(-r) + math.log1p(r)


def riesz_integrand(
    alpha: MultiIndex, r: float, x: np.ndarray, y: np.ndarray, form: str = "direct"
) -> LogScaled:
    """Integrand of the Riesz kernel at radius r, without the constant
    prefactor; the factored form also omits the outside exp(-|x|^2 + |y|^2).

    At any fixed r the direct and factored values differ exactly by that
    constant."""
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly inside (0, 1)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    order = alpha.order
    one_m_r2 = (1.0 - r) * (1.0 + r)
    scale = math.sqrt(one_m_r2)
    u = (x - r * y) / scale
    if form == "direct":
        exponent = -float(np.dot(u, u))
    else:
        w = r * x - y
        exponent = -float(np.dot(w, w)) / one_m_r2
    h = hermite_multi(alpha, u)
    if h == 0.0:
        return LogScaled.zero()
    logmag = (
        (n - 1) * math.log(r)
        + (0.5 * order - 1.0) * math.log(-math.log(r))
        - 0.5 * (n + order) * _log_one_minus_r2(r)
        + math.log(abs(h))
        + exponent
    )
    return LogScaled.from_log(logmag, 1 if h > 0 else -1)


def _riesz_prefactor(n: int, order: int) -> LogScaled:
    sign = -1 if order % 2 else 1
    return LogScaled.from_log(
        -math.lgamma(0.5 * order) - 0.5 * n * math.log(math.pi), sign
    )


def riesz_kernel(
    alpha: MultiIndex,
    x: np.ndarray,
    y: np.ndarray,
    form: str = "auto",
    cfg: QuadratureConfig | None = None,
) -> KernelValue:
    """Riesz-transform kernel of order alpha at an off-diagonal pair.

    form "auto" picks direct on the near-diagonal region (scale-2 local set)
    and factored in the global region.  The two forms agree to quadrature
    tolerance; only the bookkeeping of the outside constant differs.  A
    non-finite x or y raises ValueError.
    """
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
    if form == "auto":
        form = "direct" if in_N(2.0, x, y) else "factored"
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    cfg = cfg or QuadratureConfig()

    def f(r: float) -> LogScaled:
        return riesz_integrand(alpha, r, x, y, form)

    left, info_l = integrate01_with_info(f, cfg.with_substitution("neg_log"), 0.0, _SPLIT)
    right, info_r = integrate01_with_info(
        f, cfg.with_substitution("one_minus_exp"), _SPLIT, 1.0
    )
    total = _riesz_prefactor(x.size, alpha.order) * log_sum([left, right])
    if form == "factored":
        total = total * LogScaled.from_log(-float(np.dot(x, x)) + float(np.dot(y, y)))
    return KernelValue(
        value=total,
        form=form,
        subdivisions=info_l.subdivisions + info_r.subdivisions,
        err_logmag=max(info_l.err_logmag, info_r.err_logmag),
    )


# ---------------------------------------------------------------------------
# vectorized fixed-rule evaluation for parameter sweeps


_T_EDGES = (math.log(2.0), 1.2, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0)
_V_EDGES = (math.log(2.0), 1.1, 1.6, 2.2, 3.0, 4.0, 5.5, 8.0, 12.0, 18.0, 28.0, 45.0)
_BATCH_ORDER = 24


@lru_cache(maxsize=32)
def _batch_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite nodes (r, 1/sqrt(1-r^2), log weight incl. all r-factors)."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(_BATCH_ORDER)
    rs, inv_scales, logws = [], [], []
    for edges, side in ((_T_EDGES, "t"), (_V_EDGES, "v")):
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = mid + half * gl_nodes
            w = gl_weights * half
            if side == "t":
                r = np.exp(-s)
                one_m_r2 = -np.expm1(-2.0 * s)
                log_base = (
                    -n * s
                    + (0.5 * order - 1.0) * np.log(s)
                    - 0.5 * (n + order) * np.log(one_m_r2)
                )
            else:
                r = -np.expm1(-s)
                neg_log_r = -np.log1p(-np.exp(-s))
                one_m_r2 = np.exp(-s) * (1.0 + r)
                log_base = (
                    (n - 1) * np.log(r)
                    + (0.5 * order - 1.0) * np.log(neg_log_r)
                    - 0.5 * (n + order) * np.log(one_m_r2)
                    - s
                )
            rs.append(r)
            inv_scales.append(1.0 / np.sqrt(one_m_r2))
            logws.append(log_base + np.log(w))
    return np.concatenate(rs), np.concatenate(inv_scales), np.concatenate(logws)


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
    alpha: MultiIndex, X: np.ndarray, Y: np.ndarray, chunk: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Riesz kernel over many pairs at once on a fixed composite rule.

    Parameters
    ----------
    X, Y : finite arrays of shape (m, n); a row with x == y, or a NaN or
        inf entry, raises ValueError.

    Returns
    -------
    (signs, logmags) arrays of shape (m,).  Against a 30-digit mpmath
    quadrature of the same r-integral, on 48 seeded n = 2 pairs of orders
    1-4 (`bench/oracle_pairs.json`), the error relative to the prefactor
    times the integral of |integrand| is at most 1.2e-8 at separations of
    1e-3 and above and 2.9e-7 down to 2.3e-4; below that the fixed rule is
    unconverged, with 18 of 25 pairs off by more than 1e-6 and the worst
    by 3.1e-4 (alpha (2,2) at separation 3.8e-5).
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
    signs = np.empty(m, dtype=int)
    logmags = np.empty(m, dtype=float)
    for start in range(0, m, chunk):
        # u[j] is coordinate j at every (pair, node), shape (rows, nodes), so
        # each operation runs over contiguous node rows.  The operations and
        # their order match a one-pair evaluation: no value depends on chunk.
        xb = X[start : start + chunk].T[:, :, None]
        yb = Y[start : start + chunk].T[:, :, None]
        u = yb * -r
        u += xb
        u *= inv_s
        usq = u[0] * u[0]
        for j in range(1, n):
            usq += u[j] * u[j]
        h_sign = np.ones_like(usq)
        term_log = np.zeros_like(usq)
        for j, k in enumerate(alpha):
            if k == 0:
                continue
            hv = _hermite_batch(k, u[j])
            h_sign *= np.sign(hv)
            with np.errstate(divide="ignore"):
                term_log += np.log(np.abs(hv))
        term_log += logw
        term_log -= usq
        term_log[h_sign == 0.0] = -np.inf
        sgn, lm = signed_logsumexp(term_log, h_sign, axis=1)
        signs[start : start + chunk] = sgn * pref.sign
        logmags[start : start + chunk] = lm + pref.logmag
    return signs, logmags
