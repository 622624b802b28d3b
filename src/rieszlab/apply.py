"""Kernel-quadrature application of the transforms to concrete functions.

Tf(x) is computed as an integral of kernel times f over polar shells.  When
x sits clearly outside the support of f the kernel is regular there and a
plain quadrature over the support suffices.  Otherwise the integral exists
only as an excised limit: the engine evaluates it outside balls of radii
epsilon, epsilon/2, ... and Richardson-extrapolates the ladder to radius
zero.  All kernel values flow through the log-domain batch evaluator, so
the inverse-Gaussian growth of the integrand never overflows.

Transforms of even order in every component carry a diagonal correction
proportional to f(x) that no excised integral can see; evaluation points on
the support are rejected for those indices, and the coefficient path covers
them instead.  Mixed-parity and odd orders lose their singular part to
angular cancellation and extrapolate cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from rieszlab.geometry import MultiIndex
from rieszlab.kernels import _riesz_batch, _row_blocks, riesz_kernel_batch
from rieszlab.logscaled import LogScaled, log_sum, signed_logsumexp
from rieszlab.quadrature import NonConvergenceError, gauss_legendre

__all__ = ["GridFunction", "PVConfig", "ball_indicator", "apply_riesz"]

_ANGULAR_NODES = 64
# Gauss-Legendre order per radial panel
_RADIAL_ORDER = 16
# (x, node) pairs per kernel call of _kernel_sums_log: the call's pair
# arrays then take a few MiB however many evaluation rows share the nodes
_SUM_PAIRS = 2**16
# extrapolated values below this fraction of the largest excised integral
# are treated as converged-to-zero rather than failed cancellation
_CANCEL_FLOOR = 1e-9


def _finite_positive(v: float) -> bool:
    # written so that NaN fails
    return v > 0.0 and math.isfinite(v)


@dataclass
class GridFunction:
    """A concrete function: samples for reporting plus an evaluator for
    quadrature.

    The apply path needs evaluator, support_center and support_radius; the
    evaluator must accept an (m, n) array and return m values, and must
    return 0 (or something negligible) outside the support ball, because
    quadrature shells are laid over the whole reach of the kernel.
    points/values carry sampled values of the function.
    """

    n: int
    points: np.ndarray
    values: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None
    support_center: np.ndarray | None = None
    support_radius: float | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, self.n)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.shape[0] != self.points.shape[0]:
            raise ValueError("points and values must have matching length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.support_center is not None:
            self.support_center = np.asarray(self.support_center, dtype=float).reshape(
                self.n
            )
            if not np.all(np.isfinite(self.support_center)):
                raise ValueError("support center must be finite")
        if self.support_radius is not None and not _finite_positive(self.support_radius):
            raise ValueError("support radius must be positive and finite")


def ball_indicator(n: int, center, radius: float) -> GridFunction:
    """Indicator of a ball, ready for the apply path (not normalized); the
    radius must be positive and finite."""
    center = np.asarray(center, dtype=float).reshape(n)

    def evaluator(points: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(np.atleast_2d(points) - center, axis=1)
        return (d <= radius).astype(float)

    return GridFunction(
        n=n,
        points=np.empty((0, n)),
        values=np.empty(0),
        evaluator=evaluator,
        support_center=center,
        support_radius=radius,
    )


# excision ladder: radii _PV_EPSILON / 2^i for i = 0.._PV_LEVELS-1
_PV_EPSILON = 0.0125
_PV_LEVELS = 4


@dataclass(frozen=True)
class PVConfig:
    """Tolerance of the excision ladder's extrapolation to radius zero:
    rel_tol bounds the disagreement between the fit on all levels and the
    fit without the coarsest one."""

    rel_tol: float = 1e-3

    def __post_init__(self):
        if not _finite_positive(self.rel_tol):
            raise ValueError("rel_tol must be positive and finite")


def _angular_rule(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and surface-measure weights on the unit sphere; n = 2 uses
    count equally spaced directions, n = 1 the two signs."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        theta = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(count, 2.0 * math.pi / count)
        return dirs, weights
    raise NotImplementedError("polar shells are implemented for n <= 2")


def _radial_rule(lo: float, hi: float, geometric: bool) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi], _RADIAL_ORDER
    points per panel.

    Geometric panels double from lo, refining toward the singular end;
    uniform panels suit regular integrands.
    """
    if not geometric:
        return gauss_legendre(np.linspace(lo, hi, 5), _RADIAL_ORDER)
    if lo <= 0.0:
        raise ValueError("geometric panels need lo > 0")
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(2.0 * edges[-1], hi))
    return gauss_legendre(edges, _RADIAL_ORDER)


def _is_all_even(alpha: MultiIndex) -> bool:
    return alpha.order >= 2 and all(a % 2 == 0 for a in alpha)


def _kernel_sums_log(
    alpha: MultiIndex,
    X: np.ndarray,
    nodes: np.ndarray,
    logw: np.ndarray,
    log_f: float | np.ndarray,
    f_sign: float | np.ndarray,
    lower: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """sum_j w_j * K(x, y_j) * f(y_j) for every row x of X, in the log domain.

    The nodes y_j (shape (mb, n)) and their log weights are shared by all
    rows; f(y_j) comes as log|f| and sign, per node or one value for all.
    K is riesz_kernel_batch, or with lower = j the boundary form of
    kernels._riesz_batch.  Rows go to the kernel in chunks of at most
    _SUM_PAIRS (x, y_j) pairs (at least one row), and each row's sum is its
    own, so the result does not depend on the chunking.  Returns (signs,
    logmags) of shape (m,).
    """
    m, mb = X.shape[0], nodes.shape[0]
    kernel = riesz_kernel_batch if lower is None else partial(_riesz_batch, lower=lower)
    signs = np.empty(m, dtype=int)
    logmags = np.empty(m)
    for blk in _row_blocks(m, mb, max(1, _SUM_PAIRS // mb)):
        k = blk.stop - blk.start
        k_sign, k_log = kernel(alpha, np.repeat(X[blk], mb, axis=0), np.tile(nodes, (k, 1)))
        terms = k_log.reshape(k, mb) + logw + log_f
        signs[blk], logmags[blk] = signed_logsumexp(
            terms, k_sign.reshape(k, mb) * f_sign, axis=1
        )
    return signs, logmags


def _weighted_kernel_sum(
    alpha: MultiIndex,
    f: GridFunction,
    x: np.ndarray,
    pts: np.ndarray,
    logw: np.ndarray,
) -> LogScaled:
    """sum_j w_j * K(x, y_j) * f(y_j), in the log domain."""
    fv = np.asarray(f.evaluator(pts), dtype=float)
    live = fv != 0.0
    if not np.any(live):
        return LogScaled.zero()
    pts, logw, fv = pts[live], logw[live], fv[live]
    sign, logmag = _kernel_sums_log(
        alpha, x[None, :], pts, logw, np.log(np.abs(fv)), np.sign(fv)
    )
    return LogScaled.from_log(float(logmag[0]), int(sign[0]))


def _polar_nodes(
    center: np.ndarray, radii: np.ndarray, w_r: np.ndarray, directions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Polar quadrature nodes/log-weights around center: the radial rule
    (radii, w_r) times the angular rule with the given direction count."""
    n = center.size
    dirs, w_a = _angular_rule(n, directions)
    pts = center[None, None, :] + radii[:, None, None] * dirs[None, :, :]
    logw = (
        np.log(w_r[:, None]) + np.log(w_a[None, :]) + (n - 1) * np.log(radii[:, None])
    )
    return pts.reshape(-1, n), logw.reshape(-1)


def _shell_sum_log(
    alpha: MultiIndex, f: GridFunction, x: np.ndarray, r_lo: float, r_hi: float
) -> LogScaled:
    """Integral of kernel * f over the shell r_lo < |y-x| < r_hi."""
    radial = _radial_rule(r_lo, r_hi, geometric=True)
    pts, logw = _polar_nodes(x, *radial, _ANGULAR_NODES)
    return _weighted_kernel_sum(alpha, f, x, pts, logw)


def _support_sum_log(alpha: MultiIndex, f: GridFunction, x: np.ndarray) -> LogScaled:
    """Quadrature over the support ball of f; x must be clearly outside it.

    Polar panels around the support center put the edge of an indicator
    exactly on a panel boundary.
    """
    radial = _radial_rule(0.0, float(f.support_radius), geometric=False)
    pts, logw = _polar_nodes(f.support_center, *radial, _ANGULAR_NODES)
    return _weighted_kernel_sum(alpha, f, x, pts, logw)


def _extrapolate_ladder(
    values: list[LogScaled], eps: list[float], rel_tol: float
) -> tuple[LogScaled, float]:
    """Extrapolate the excised-integral ladder to radius zero.

    The excised integral approaches its limit like P + a*eps + b*eps*log(eps);
    the log term comes from the even part of the kernel, which carries a log
    singularity on the diagonal, so a pure power table stalls at first order.
    The fit runs on values rescaled by the largest magnitude and the reported
    disagreement compares the fit on all levels against the fit without the
    coarsest one.
    """
    shift = max(v.logmag for v in values)
    if shift == -math.inf:
        return LogScaled.zero(), 0.0
    scaled = np.array([v.sign * math.exp(v.logmag - shift) for v in values])
    radii = np.asarray(eps, dtype=float)

    def fit(ys: np.ndarray, es: np.ndarray) -> float:
        cols = [np.ones_like(es), es, es * np.log(es)]
        design = np.stack(cols[: min(3, len(ys))], axis=1)
        sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
        return float(sol[0])

    best = fit(scaled, radii)
    prev = fit(scaled[1:], radii[1:])
    err = abs(best - prev)
    if err > rel_tol * max(abs(best), _CANCEL_FLOOR):
        raise NonConvergenceError(
            f"excision ladder disagrees by {err:.3e} (scaled) after extrapolation",
            subdivisions=len(values),
            err_logmag=math.log(err) + shift if err > 0 else -math.inf,
        )
    if best == 0.0:
        return LogScaled.zero(), err
    return LogScaled.from_log(math.log(abs(best)) + shift, 1 if best > 0 else -1), err


def _apply_log(alpha: MultiIndex, f: GridFunction, x, pv: PVConfig | None) -> LogScaled:
    """Transform of f at x as a log-scaled value (safe at any magnitude)."""
    if f.evaluator is None or f.support_center is None or f.support_radius is None:
        raise ValueError(
            "the apply path needs an evaluator plus support_center/support_radius"
        )
    if alpha.dim != f.n:
        raise ValueError("alpha dimension must match f")
    if alpha.order < 1:
        raise ValueError("the transform needs |alpha| >= 1")
    pv = pv or PVConfig()
    x = np.asarray(x, dtype=float).reshape(f.n)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    if f.n > 2:
        raise NotImplementedError("apply_riesz is implemented for n <= 2")
    dist = float(np.linalg.norm(x - f.support_center))
    rho = float(f.support_radius)

    clearance = dist - rho
    if clearance >= max(4.0 * _PV_EPSILON, 0.05 * rho):
        return _support_sum_log(alpha, f, x)

    if _is_all_even(alpha) and dist <= rho + 2.0 * _PV_EPSILON:
        raise ValueError(
            "order-even-in-every-component transforms carry a diagonal "
            "correction on supp(f); evaluate off the support or use the "
            "coefficient path"
        )

    radius_cover = dist + rho
    eps = [_PV_EPSILON / 2.0**i for i in range(_PV_LEVELS)]
    ladder = [_shell_sum_log(alpha, f, x, eps[0], radius_cover)]
    for i in range(1, _PV_LEVELS):
        shell = _shell_sum_log(alpha, f, x, eps[i], eps[i - 1])
        ladder.append(log_sum([ladder[-1], shell]))
    value, _ = _extrapolate_ladder(ladder, eps, pv.rel_tol)
    return value


def apply_riesz(alpha, f, x, pv=None) -> float:
    """Float-valued transform; raises OverflowError outside float range."""
    return _apply_log(alpha, f, x, pv).to_float()
