"""Weak-type (1,1) experiments: level-set measures, comparison-kernel catalog,
bound-ratio sweeps, and the tube counterexample with growth-rate fitting.

Everything size-sensitive runs in the log domain.  The reference measure has
density pi^{n/2} e^{|x|^2}, so measures of sets sitting at distance R from
the origin carry a factor e^{R^2}; quasi-norms sup_s s * measure{|Tf| > s}
pair such a factor against the matching e^{-R^2} decay of Tf, and only the
polynomial remainder survives.  Floats appear at the very end, after that
cancellation.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import special

from rieszlab.apply import _finite_positive, _kernel_sums_log
from rieszlab.geometry import MultiIndex
from rieszlab.kernels import _BLOCK_PAIR_NODES, _live_panels, _panel_sums, _row_blocks
from rieszlab.kernels import _window_blocks, riesz_kernel_batch
from rieszlab.logscaled import LogScaled, signed_logsumexp
from rieszlab.quadrature import gauss_legendre
from rieszlab.regions import (
    _draw_pairs,
    _membership_rows,
    _unit_rows,
    sample_global_pairs,
    sample_local_pairs,
)

__all__ = [
    "gamma_inv_ball_log",
    "LevelSetReport",
    "level_set_report",
    "lemma_kernel_batch",
    "near_diagonal_profile_integral",
    "window_gaussian_integral_log",
    "SweepResult",
    "bound_ratio_sweep",
    "BOUND_REGISTRY",
    "resolve_registry_key",
    "run_all_bound_sweeps",
    "CZLocalResult",
    "czlocal_supremum",
    "weak_quasinorm_probe",
    "rank_one_quasinorm_exact",
    "CounterexampleConfig",
    "CounterexampleResult",
    "counterexample_expectation",
    "counterexample_lower_bound",
    "tube_axis_basis",
    "SlopeFit",
    "slope_fit",
    "write_counterexample_report",
]

_LOG_PI = math.log(math.pi)
# constant in the comparison-kernel exponents; valid because 1-r^2 <= 2(1-r)
_EXPONENT_C = 0.5
# constant in the peak-block exponents: on the window |r-r0| < (1-r0)/2 the
# integration variable u = 1-r reaches 3(1-r0)/2, so a block stated with
# e^{-c'|y_perp|^2/(1-r0)} dominates the integrand only for c' <= 2c/3;
# 1/4 leaves margin
_BLOCK_C = 0.25
# largest relative drift of a sweep's supremum under sample doubling that
# still counts as stable
_STABILITY_TOL = 0.25


# --------------------------------------------------------------------------
# measures for the density pi^{n/2} e^{|x|^2}


def _log_sphere_factor(n: int, t: np.ndarray) -> np.ndarray:
    """log of the surface integral of e^{2 r |c| cos(angle)} over directions.

    t = 2 r |c| >= 0.  n=1 sums the two endpoints, n=2 integrates the circle
    (a Bessel I0 profile).
    """
    t = np.asarray(t, dtype=float)
    if n == 1:
        return t + np.log1p(np.exp(-2.0 * t))
    if n == 2:
        return t + np.log(special.i0e(t)) + math.log(2.0 * math.pi)
    raise NotImplementedError("sphere factor implemented for n <= 2")


def gamma_inv_ball_log(n: int, center, radius: float) -> LogScaled:
    """Inverse-Gaussian measure of the ball B(center, radius), log domain.

    Eight 32-point radial Gauss-Legendre panels against the closed-form
    direction integral, so the quadrature is one-dimensional no matter the
    dimension.
    """
    center = np.asarray(center, dtype=float).reshape(n)
    if not _finite_positive(radius):
        raise ValueError("radius must be positive and finite")
    if not np.all(np.isfinite(center)):
        raise ValueError("center must be finite")
    c = float(np.linalg.norm(center))
    r, w = gauss_legendre(np.linspace(0.0, radius, 9), 32)
    log_terms = (
        0.5 * n * _LOG_PI
        + (n - 1) * np.log(r)
        + _log_sphere_factor(n, 2.0 * r * c)
        + c * c
        + r * r
        + np.log(w)
    )
    sgn, lm = signed_logsumexp(log_terms[None, :], axis=1)
    return LogScaled.from_log(float(lm[0]), int(sgn[0]))


def _log_gauss_sq_cells(edges: np.ndarray) -> np.ndarray:
    """log of int_a^b e^{u^2} du for consecutive edge pairs, overflow-free.

    Uses int_0^x e^{u^2} du = e^{x^2} dawsn(x), odd in x, so each antiderivative
    value is carried as a sign and a log magnitude.
    """
    edges = np.asarray(edges, dtype=float)
    mag = np.abs(edges)
    with np.errstate(divide="ignore"):
        log_f = mag * mag + np.log(special.dawsn(mag))
    sign_f = np.sign(edges)
    pair_logs = np.stack([log_f[1:], log_f[:-1]], axis=1)
    pair_signs = np.stack([sign_f[1:], -sign_f[:-1]], axis=1)
    sgn, lm = signed_logsumexp(pair_logs, pair_signs, axis=1)
    if np.any(sgn <= 0):
        raise ValueError("edges must be strictly increasing")
    return lm


def _log_radial_ball_measure(n: int, t: np.ndarray) -> np.ndarray:
    """log of the measure of the centered ball of radius t, closed form.

    n=1 uses the imaginary error function with its large-argument expansion;
    n=2 is elementary.  Only these two dimensions have radial probes.
    """
    t = np.asarray(t, dtype=float)
    if n == 1:
        out = np.empty_like(t)
        small = t < 25.0
        out[small] = np.log(special.erfi(t[small]))
        big = t[~small]
        out[~small] = big * big - np.log(big * math.sqrt(math.pi)) + np.log1p(
            0.5 / (big * big) + 0.75 / (big * big * big * big)
        )
        return _LOG_PI + out
    if n == 2:
        with np.errstate(divide="ignore"):
            return 2.0 * _LOG_PI + t * t + np.log(-np.expm1(-t * t))
    raise NotImplementedError("closed-form radial measure implemented for n <= 2")


# --------------------------------------------------------------------------
# super-level sets


@dataclass
class LevelSetReport:
    """Level-set summary of one sampled |Tf|.

    Thresholds and measures are stored as logs; the quasi-norm is
    sup_s s * measure{|Tf| > s} for a unit-norm input.  Metadata records
    how the estimate was produced (cell counts, truncation).
    """

    log_thresholds: np.ndarray
    log_measures: np.ndarray
    log_quasi_norm: float
    argmax_log_threshold: float
    metadata: dict = field(default_factory=dict)

    @property
    def quasi_norm(self) -> float:
        return _exp_safe(self.log_quasi_norm)


def _log_measures_above(log_tf: np.ndarray, log_masses: np.ndarray, log_s) -> np.ndarray:
    """log measure{|Tf| > s} at each log threshold log_s, where cell k has
    log|Tf| = log_tf[k] and log measure log_masses[k]."""
    order = np.argsort(log_tf)
    # suffix[k] = log-sum of masses with |Tf| ranked k..end
    suffix = np.full(log_tf.size + 1, -np.inf)
    suffix[:-1] = np.logaddexp.accumulate(log_masses[order][::-1])[::-1]
    return suffix[np.searchsorted(log_tf[order], log_s, side="right")]


def level_set_report(
    log_tf: np.ndarray, log_masses: np.ndarray, metadata: dict | None = None
) -> LevelSetReport:
    """Measure the super-level sets of |Tf| over its sampled cells.

    log_tf holds log|Tf| per cell (-inf for a zero) and log_masses the log
    of each cell's measure.  The thresholds are 64 log-spaced values over
    six decades below max|Tf|.
    """
    log_tf = np.asarray(log_tf, dtype=float)
    log_masses = np.asarray(log_masses, dtype=float)
    if log_masses.shape != log_tf.shape:
        raise ValueError("log_masses must match log_tf")
    meta = dict(metadata or {})
    meta.setdefault("cells", int(log_tf.size))
    top = float(np.max(log_tf)) if log_tf.size else -math.inf
    if top == -math.inf:
        return LevelSetReport(
            log_thresholds=np.empty(0),
            log_measures=np.empty(0),
            log_quasi_norm=-math.inf,
            argmax_log_threshold=-math.inf,
            metadata=meta,
        )
    log_s = np.linspace(top - 6.0 * math.log(10.0), top, 64)
    log_measures = _log_measures_above(log_tf, log_masses, log_s)
    log_pairs = log_s + log_measures
    best = int(np.argmax(log_pairs))
    return LevelSetReport(
        log_thresholds=log_s,
        log_measures=log_measures,
        log_quasi_norm=float(log_pairs[best]),
        argmax_log_threshold=float(log_s[best]),
        metadata=meta,
    )


# --------------------------------------------------------------------------
# comparison-kernel catalog


def _row_dots(X: np.ndarray, Y: np.ndarray):
    """Per-row |x|^2, x.y and |y|^2; a NaN or inf entry raises ValueError."""
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("pair rows must be finite")
    return np.sum(X * X, axis=1), np.sum(X * Y, axis=1), np.sum(Y * Y, axis=1)


def _polar_batch(X: np.ndarray, Y: np.ndarray):
    """Per-row split of y relative to the ray through x, one x per row.

    Returns (r0, |y_perp|^2, sin(angle), |y|) with the convention that the
    angle is 0 at y = 0.
    """
    x2, xy, y2 = _row_dots(X, Y)
    if np.any(x2 == 0.0):
        raise ValueError("cannot decompose relative to x = 0")
    r0 = xy / x2
    yperp_sq = np.maximum(y2 - r0 * r0 * x2, 0.0)
    y_norm = np.linalg.norm(Y, axis=1)
    sin_theta = np.where(y_norm > 0.0, np.sqrt(yperp_sq) / np.maximum(y_norm, 1e-300), 0.0)
    return r0, yperp_sq, sin_theta, y_norm


def _peak_rows(X: np.ndarray, Y: np.ndarray):
    """(|x|, r0, |y_perp|^2, sin(angle)) for each pair row."""
    r0, yperp_sq, sin_theta, _ = _polar_batch(X, Y)
    return np.linalg.norm(X, axis=1), r0, yperp_sq, sin_theta


# one 64-point panel on r in (0, 1/2), and 12-point panels on u = 1 - r in
# (u_min, 1/2) whose edges halve from 1/2 down to the first power of two
# at or below u_min = 1e-14; as rules (panel cuts, node arrays)
_R_NODES, _R_W = gauss_legendre([0.0, 0.5], 64)
_R_LOGW = np.log(_R_W)
_U_EDGES = 2.0 ** np.arange(math.floor(math.log2(1e-14)), 0)
_U_NODES, _U_W = gauss_legendre(_U_EDGES, 12)
_U_LOGW = np.log(_U_W)
_R_RULE = (np.array([0, _R_NODES.size]), (_R_NODES, _R_LOGW))
_U_RULE = (np.arange(0, _U_NODES.size + 1, 12), (_U_NODES, _U_LOGW))


def _rule_integral_log(X, Y, rule, terms, *per_row, span=None) -> np.ndarray:
    """log of sum_k e^{terms[:, k]} for each pair row, over the row's live
    window of the rule's panels, as the batch kernel sums its rule.

    rule = (cuts, nodes): panel j holds nodes cuts[j]..cuts[j+1]-1 of each
    array in nodes, the panels in order along the integration variable.
    terms(nodes, x2, xy, y2, *per_row) maps (1, k) node rows and (rows, 1)
    columns (|x|^2, x.y, |y|^2, then each per-row array) to (rows, k) log
    terms.  span = (first, end), if given, bounds each row's window to
    panels first..end-1; a row with none is -inf and evaluates no node.
    Blocks hold half the kernel's pair-node budget, as terms allocates a
    fresh array per operation.  Non-finite X or Y raises ValueError.
    """
    cuts, nodes = rule
    panels = cuts.size - 1
    cols = [v[:, None] for v in (*_row_dots(X, Y), *per_row)]
    first, end = span or (np.zeros(len(X), int), np.full(len(X), panels))
    probes = tuple(v[None, (cuts[:-1] + cuts[1:]) // 2] for v in nodes)
    out = np.full(len(X), -np.inf)
    rows = np.flatnonzero(first < end)
    for chunk in _row_blocks(rows.size, panels):
        i = rows[chunk]
        lo, hi = _live_panels(terms(probes, *(v[i] for v in cols)).T)
        lo, hi = np.maximum(lo, first[i]), np.minimum(hi, end[i])
        for b, lo_b, hi_b in _window_blocks(i, lo, hi, cuts, _BLOCK_PAIR_NODES // 2):
            union = tuple(v[None, cuts[lo_b.min()] : cuts[hi_b.max()]] for v in nodes)
            total, shift = _panel_sums(terms(union, *(v[b] for v in cols)), cuts, lo_b, hi_b)
            with np.errstate(divide="ignore"):
                out[b] = np.log(total) + shift
    return out


def _log_dist_power(a: float, r: np.ndarray, x2, xy, y2) -> np.ndarray:
    """log of |x - r y|^a from the row dots, expanded to avoid an
    (m, nodes, n) tensor; -inf where x = r y."""
    with np.errstate(divide="ignore"):
        return 0.5 * a * np.log(np.maximum(x2 - 2.0 * r * xy + r * r * y2, 0.0))


def _first_half_integral_log(a: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Bare integral over r in (0, 1/2): r^{n-1} |x - r y|^a e^{-|r x - y|^2}."""
    n = X.shape[1]

    def terms(nodes, x2, xy, y2):
        r, logw = nodes
        out = (n - 1) * np.log(r) + logw - (r * r * x2 - 2.0 * r * xy + y2)
        return out + _log_dist_power(a, r, x2, xy, y2) if a > 0 else out

    return _rule_integral_log(X, Y, _R_RULE, terms)


def _second_half_integral_log(
    a: int, X: np.ndarray, Y: np.ndarray, piece: str = "full"
) -> np.ndarray:
    """Bare integral over r in (1/2, 1) of the sharp-peak piece.

    Integrand (with u = 1 - r):
        |x - r y|^a * u^{-(n+a+2)/2} * exp(-c[(r - r0)^2 |x|^2 + |y_perp|^2]/u)
    restricted to the piece's interval (lo, hi] of u.  Below the peak
    (s = 1 - r0 > 0) edge is (0, s/2], near (s/2, 3s/2] and mid the rest;
    past it mid is u > 1.5 (r0 - 1), edge the rest and near is empty.  A row
    whose piece meets no panel of the rule is -inf.
    """
    if piece not in ("full", "near", "mid", "edge"):
        raise ValueError(f"unknown piece {piece!r}")
    n = X.shape[1]
    r0, yperp_sq, _, _ = _polar_batch(X, Y)
    s = 1.0 - r0
    cut = np.where(s > 0.0, 0.5 * s, -1.5 * s)
    top = np.where(s > 0.0, 1.5 * s, cut)
    zero, inf = np.zeros_like(s), np.full_like(s, np.inf)
    pieces = {"full": (zero, inf), "edge": (zero, cut), "near": (cut, top), "mid": (top, inf)}
    lo, hi = pieces[piece]

    def terms(nodes, x2, xy, y2, r0, yperp_sq, lo, hi):
        u, logw = nodes
        r = 1.0 - u
        expo = -_EXPONENT_C * ((r - r0) ** 2 * x2 + yperp_sq) / u
        out = expo - 0.5 * (n + a + 2) * np.log(u) + logw
        if a > 0:
            out = out + _log_dist_power(a, r, x2, xy, y2)
        return out if piece == "full" else np.where((u > lo) & (u <= hi), out, -np.inf)

    # the panels that meet (lo, hi]
    first = np.maximum(np.searchsorted(_U_EDGES, lo, side="right") - 1, 0)
    end = np.where(lo < hi, np.searchsorted(_U_EDGES[:-1], hi), first)
    return _rule_integral_log(X, Y, _U_RULE, terms, r0, yperp_sq, lo, hi, span=(first, end))


def lemma_kernel_batch(delta: float, x, Y) -> np.ndarray:
    """log of the collapsed-peak kernel L44 (>= 0) with Gaussian constant
    delta for the pair rows (x, y); x is one point shared by every row of Y
    or one point per row.  The rank-one kernel L42 is radial in x and has
    its own form, _rank_one_radial_log."""
    if not _finite_positive(delta):
        raise ValueError("delta must be positive and finite")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    X = np.broadcast_to(np.asarray(x, dtype=float), Y.shape)
    n = Y.shape[1]
    x_norm, r0, yperp_sq, _ = _peak_rows(X, Y)
    base = -x_norm * x_norm + np.sum(Y * Y, axis=1)
    log_x = np.log(x_norm)
    dpar = np.abs(1.0 - r0) * x_norm
    ypar = np.abs(r0) * x_norm
    mask = (x_norm * dpar >= 1.0) & (ypar >= x_norm / 3.0) & (ypar < x_norm)
    with np.errstate(divide="ignore"):
        vals = (
            base
            + 0.5 * (n + 1) * log_x
            - 0.5 * (n - 1) * np.log(dpar)
            - delta * yperp_sq * x_norm / np.maximum(dpar, 1e-300)
        )
    return np.where(mask, vals, -np.inf)


def near_diagonal_profile_integral(mu: float, nu: float, X, Y) -> np.ndarray:
    """log of int_0^1 |x - r y|^nu (1 - r^2)^{-(n+mu)/2} e^{-|x-ry|^2/(1-r^2)} dr
    for each pair row (x, y).

    The r -> 1 end is resolved by geometric panels in u = 1 - r; the
    exponential factor keeps the integral finite whenever x != y.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[1]
    # in r order, so that the r < 1/2 panel neighbours the u < 1/2 panel
    r = np.concatenate([_R_NODES, 1.0 - _U_NODES[::-1]])
    rule = (
        np.concatenate([[0], _R_NODES.size + _U_RULE[0]]),
        (r, (1.0 - r) * (1.0 + r), np.concatenate([_R_LOGW, _U_LOGW[::-1]])),
    )

    def terms(nodes, x2, xy, y2):
        r, s2, logw = nodes
        xry = np.maximum(x2 - 2.0 * r * xy + r * r * y2, 0.0)
        out = -0.5 * (n + mu) * np.log(s2) - xry / s2 + logw
        return out + _log_dist_power(nu, r, x2, xy, y2) if nu != 0.0 else out

    return _rule_integral_log(X, Y, rule, terms)


# --------------------------------------------------------------------------
# sharp-peak building blocks of the kernel decomposition


def _log_block_a(a: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """log of the peak-window block
    (1-r0)^{-(n-a+1)/2} |x|^{a-1} e^{-c'|y_perp|^2/(1-r0)} min(1, |x| sqrt(1-r0))
    with the reduced block constant c', for each pair row.
    """
    x_norm, r0, yperp_sq, _ = _peak_rows(X, Y)
    s = 1.0 - r0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            -0.5 * (X.shape[1] - a + 1) * np.log(s)
            + (a - 1) * np.log(x_norm)
            - _BLOCK_C * yperp_sq / s
            + np.minimum(0.0, np.log(x_norm) + 0.5 * np.log(s))
        )
    return np.where(s > 0.0, out, -np.inf)


def _log_block_b(a: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """log of the perpendicular block
    (1-r0)^{-(n+a+2)/2} |y_perp|^a e^{-c'|y_perp|^2/(1-r0)}
        min(sqrt(1-r0)/|x|, 1-r0)
    with the reduced block constant c', for each pair row.
    """
    x_norm, r0, yperp_sq, _ = _peak_rows(X, Y)
    s = 1.0 - r0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            -0.5 * (X.shape[1] + a + 2) * np.log(s)
            - _BLOCK_C * yperp_sq / s
            + np.minimum(0.5 * np.log(s) - np.log(x_norm), np.log(s))
        )
        if a > 0:
            out = out + 0.5 * a * np.log(yperp_sq)
    return np.where(s > 0.0, out, -np.inf)


def window_gaussian_integral_log(x_norm, r0) -> np.ndarray:
    """log of int over |r - r0| < (1-r0)/2 of e^{-c |x|^2 (r-r0)^2/(1-r0)} dr,
    elementwise over arrays of |x| and r0.

    Closed form via the error function: sqrt(pi/q) erf(sqrt(q) h) with
    q = c|x|^2/(1-r0), h = (1-r0)/2.
    """
    x_norm = np.asarray(x_norm, dtype=float)
    s = 1.0 - np.asarray(r0, dtype=float)
    if np.any(s <= 0.0) or np.any(x_norm <= 0.0):
        raise ValueError("needs r0 < 1 and x != 0")
    q = _EXPONENT_C * x_norm * x_norm / s
    z = np.sqrt(q) * 0.5 * s
    return 0.5 * (_LOG_PI - np.log(q)) + np.log(special.erf(z))


# --------------------------------------------------------------------------
# bound-ratio sweeps


@dataclass
class SweepResult:
    """Max ratio of a target expression to its claimed bound over samples.

    The sample is prefix-nested: the first `count` pairs form the base
    sample, the full 2*count the doubled one, so rel_change measures pure
    refinement drift of the supremum.
    """

    key: str
    count: int
    log_max_ratio: float
    log_max_ratio_base: float
    rel_change: float
    stable: bool
    argmax: tuple | None = None
    detail: dict = field(default_factory=dict)

    @property
    def max_ratio(self) -> float:
        return math.exp(self.log_max_ratio)


def _doubling_sup(stat: np.ndarray, count: int) -> tuple[float, float, float]:
    """(sup, sup over the first count rows, expm1 of their gap) of a
    prefix-nested sample; a non-finite sup drifts by inf."""
    base, full = float(np.max(stat[:count])), float(np.max(stat))
    return full, base, math.expm1(full - base) if math.isfinite(full) else math.inf


def bound_ratio_sweep(
    target_log: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bound_log: Callable[[np.ndarray, np.ndarray], np.ndarray],
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    count: int,
    rng: np.random.Generator,
    key: str = "sweep",
) -> SweepResult:
    """sup of target/bound over a seeded sample, with doubling stability.

    sampler(rng, m) returns pair rows (X, Y) of shape (m, n) whose first rows
    equal a smaller draw from the same seed; 2*count rows are drawn.
    target_log(X, Y) and bound_log(X, Y) map the rows to an array of
    log values, one per row.  A -inf target contributes ratio 0, a -inf
    bound with live target makes the sweep unstable by fiat.
    """
    X, Y = sampler(rng, 2 * count)
    t = target_log(X, Y)
    b = bound_log(X, Y)
    with np.errstate(invalid="ignore"):
        ratios = np.where(t == -np.inf, -np.inf, np.where(b == -np.inf, np.inf, t - b))
    full, base, rel = _doubling_sup(ratios, count)
    best = int(np.argmax(ratios))
    return SweepResult(
        key=key,
        count=count,
        log_max_ratio=full,
        log_max_ratio_base=base,
        rel_change=rel,
        stable=math.isfinite(full) and rel <= _STABILITY_TOL,
        argmax=(X[best].tolist(), Y[best].tolist()),
    )


def _sampler_shell(n: int, lo: float, hi: float):
    """|x| log-uniform on [0.3, 6], y in a uniform direction with |y|/|x|
    uniform on [lo, hi]."""

    def draw(rng: np.random.Generator, m: int):
        U = _unit_rows(rng, m, n)
        radius = np.exp(rng.uniform(math.log(0.3), math.log(6.0), size=m))
        D = _unit_rows(rng, m, n)
        ratio = rng.uniform(lo, hi, size=m)
        return U * radius[:, None], D * (ratio * radius)[:, None], np.ones(m, dtype=bool)

    return lambda rng, count: _draw_pairs(rng, n, count, draw)


def _sampler_peak(n: int, r0_lo: float, r0_hi: float):
    """Pairs with the peak location r0 in a window, filtered to the global
    region.

    Three draw modes keep the extremal corners populated: uniform r0 over
    the window, r0 packed logarithmically against r0 = 1 from either side,
    and (when the window reaches below 1) the boundary corner 1 - r0 of
    order 1/|x|^2 where the blocks brush both the separation constraint and
    their growth bound.  The perpendicular offset mixes unit scale with the
    sqrt(1-r0) scale of the block Gaussians.  Every quantity is drawn for
    every row of a block; rows outside the window or the global region, and
    rows whose perpendicular direction degenerates, are masked out.
    """
    spans_small = r0_lo < 1.0

    def draw(rng: np.random.Generator, m: int):
        U = _unit_rows(rng, m, n)
        radius = np.exp(rng.uniform(math.log(0.5), math.log(8.0), size=m))
        X, x_sq = U * radius[:, None], radius * radius
        mode = rng.integers(3, size=m) if spans_small else np.zeros(m, dtype=int)
        gap = np.exp(rng.uniform(math.log(1e-7), math.log(0.5), size=m))
        side = np.where((r0_hi > 1.0) & (rng.uniform(size=m) < 0.5), 1.0, -1.0)
        corner = np.exp(rng.uniform(math.log(1.0 / 32.0), math.log(32.0), size=m)) / x_sq
        uniform = rng.uniform(r0_lo, r0_hi, size=m)
        r0 = np.select([mode == 1, mode == 2], [1.0 + side * gap, 1.0 - corner], uniform)
        keep = (r0_lo <= r0) & (r0 <= r0_hi)
        scale = np.where(
            (rng.uniform(size=m) < 0.5) & (r0 < 1.0), np.sqrt(np.maximum(1.0 - r0, 1e-12)), 1.0
        )
        if n > 1:
            raw = rng.normal(size=(m, n))
            perp = raw - (np.einsum("ij,ij->i", raw, X) / x_sq)[:, None] * X
            perp_norm = np.linalg.norm(perp, axis=1)
            keep &= perp_norm >= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                perp *= (np.abs(rng.normal(size=m)) * scale / perp_norm)[:, None]
        else:
            perp = np.zeros((m, 1))
        Y = r0[:, None] * X + perp
        keep &= _membership_rows(X, Y) > 1.0
        return X, Y, keep

    return lambda rng, count: _draw_pairs(rng, n, count, draw)


@dataclass(frozen=True)
class SweepSpec:
    key: str
    description: str
    runner: Callable[[int, int], SweepResult]


def _sweep_runner(key: str, cases: dict, count_factor: int = 1):
    """Runner of one registry entry.

    cases maps labels to (target_log, bound_log, sampler) and the entry
    reports the worst case, with each case's maximum in detail.  Case i
    draws count * count_factor pairs from the seed stream [seed, i].
    """

    def run(count: int, seed: int) -> SweepResult:
        subs = {
            label: bound_ratio_sweep(
                target,
                bound,
                sampler,
                count * count_factor,
                np.random.default_rng([seed, i]),
                key=key,
            )
            for i, (label, (target, bound, sampler)) in enumerate(cases.items())
        }
        best = max(subs.values(), key=lambda r: r.log_max_ratio)
        return SweepResult(
            key=key,
            count=best.count,
            log_max_ratio=best.log_max_ratio,
            log_max_ratio_base=best.log_max_ratio_base,
            rel_change=max(r.rel_change for r in subs.values()),
            stable=all(r.stable for r in subs.values()),
            argmax=best.argmax,
            detail={k: r.log_max_ratio for k, r in subs.items()},
        )

    return run


def _build_registry() -> dict[str, SweepSpec]:
    """The sweep registry on n = 2 pairs (local-integral adds n = 1).

    Per-a entries are written as functions of (a, X, Y); every target and
    bound evaluates a block of pair rows at once.
    """
    n = 2
    entries: dict[str, SweepSpec] = {}
    below = _sampler_peak(n, 1.0 / 3.0 + 1e-9, 1.0 - 1e-9)
    around = _sampler_peak(n, 1.0 / 3.0 + 1e-9, 2.0)
    cz_alpha, decomposed = MultiIndex.of(1, 1), MultiIndex.of(2, 1)
    mu, nu = 3.0, 0.0

    def add(key, description, cases, count_factor=1):
        runner = _sweep_runner(key, cases, count_factor)
        entries[key] = SweepSpec(key=key, description=description, runner=runner)

    def per_a(target, bound, sampler, a_values=(0, 1, 2)):
        return {
            f"a={a}": (partial(target, a), partial(bound, a), sampler) for a in a_values
        }

    def norm(V):
        return np.linalg.norm(V, axis=1)

    def local(dim):
        return lambda rng, count: sample_local_pairs(rng, dim, count)

    def x_power(p):
        return lambda a, X, Y: p * np.log(norm(X))

    def separation_power(p):
        return lambda X, Y: p * np.log(norm(X - Y))

    def kernel_log(alpha):
        return lambda X, Y: riesz_kernel_batch(alpha, X, Y)[1]

    def growth(a, X, Y):
        return n * np.log1p(norm(X))

    def angular(a, X, Y):
        xn, _, _, st = _peak_rows(X, Y)
        with np.errstate(divide="ignore"):
            return -n * (np.log(xn) + np.log(st))

    def growth_angular(a, X, Y):
        return np.minimum(growth(a, X, Y), angular(a, X, Y))

    def blocks_ab(a, X, Y):
        return np.logaddexp(_log_block_a(a, X, Y), _log_block_b(a, X, Y))

    def near_bound(a, X, Y):
        xn, yn = norm(X), norm(Y)
        _, yp, _, _ = _polar_batch(X, Y)
        first = -yp + (a - 1) * np.log(xn) + (n - 1) * (np.log(yn) - np.log(xn))
        return np.logaddexp(first, (a - n) * np.log(xn))

    def block_a_short(a, X, Y):
        xn, r0, _, _ = _peak_rows(X, Y)
        return np.where(xn * xn * (1.0 - r0) > 1.0, -np.inf, _log_block_a(a, X, Y))

    def block_a_long(a, X, Y):
        xn, r0, _, _ = _peak_rows(X, Y)
        off = (xn * xn * (1.0 - r0) < 1.0) | (r0 < 1.0 / 3.0) | (r0 >= 1.0)
        return np.where(off, -np.inf, _log_block_a(a, X, Y))

    def collapsed_peak(a, X, Y):
        lm = lemma_kernel_batch(_BLOCK_C, X, Y)
        xn, yn = norm(X), norm(Y)
        return lm + xn * xn - yn * yn

    def window_integral(X, Y):
        xn, r0, _, _ = _peak_rows(X, Y)
        return window_gaussian_integral_log(xn, r0)

    def window_bound(X, Y):
        xn, r0, _, _ = _peak_rows(X, Y)
        s = 1.0 - r0
        return np.minimum(0.5 * np.log(s) - np.log(xn), np.log(s))

    def decomposition_bound(X, Y):
        xn, yn = norm(X), norm(Y)
        parts = []
        for a in range(decomposed.order + 1):
            parts.append(_first_half_integral_log(a, X, Y))
            parts.append(_second_half_integral_log(a, X, Y))
        return -xn * xn + yn * yn + signed_logsumexp(np.stack(parts, axis=1), axis=1)[1]

    def gradient_log(alpha):
        return lambda X, Y: np.logaddexp(*_fd_gradient_logs(alpha, X, Y))

    add(
        "step1-far",
        "first-half integral against |x|^{1-n} when |y| >= 2|x|",
        per_a(_first_half_integral_log, x_power(1 - n), _sampler_shell(n, 2.0, 4.0)),
    )
    add(
        "step1-near",
        "first-half integral against its two-term comparison when |y| < 2|x|",
        per_a(_first_half_integral_log, near_bound, _sampler_shell(n, 0.05, 2.0)),
        count_factor=4,
    )
    add(
        "case-2.1",
        "second-half integral against |x|^{-n} when the peak sits at r0 <= 1/3",
        per_a(_second_half_integral_log, x_power(-n), _sampler_peak(n, 0.02, 1.0 / 3.0)),
        count_factor=4,
    )
    add(
        "case-2.2",
        "second-half integral against |x|^{-n} when the peak sits at r0 >= 2",
        per_a(_second_half_integral_log, x_power(-n), _sampler_peak(n, 2.0, 4.0)),
        count_factor=16,
    )
    add(
        "case-2.3.1",
        "peak-window part of the second-half integral against block A + block B",
        per_a(partial(_second_half_integral_log, piece="near"), blocks_ab, below),
    )
    add(
        "case-2.3.2",
        "pre-peak part of the second-half integral against growth/angular min",
        per_a(partial(_second_half_integral_log, piece="mid"), growth_angular, around),
        count_factor=4,
    )
    add(
        "case-2.3.3",
        "endpoint part of the second-half integral against growth/angular min",
        per_a(partial(_second_half_integral_log, piece="edge"), growth_angular, around),
        count_factor=4,
    )
    add(
        "A-growth",
        "block A against (1+|x|)^n",
        per_a(_log_block_a, growth, below),
        count_factor=16,
    )
    add(
        "A10",
        "block A at a = 0 against the angular comparison",
        per_a(_log_block_a, angular, below, a_values=(0,)),
    )
    add(
        "A11",
        "block A at a = 1 against the angular comparison",
        per_a(_log_block_a, angular, below, a_values=(1,)),
        count_factor=16,
    )
    add(
        "A2-small",
        "block A at a = 2 on the short-range sector against the angular comparison",
        per_a(block_a_short, angular, below, a_values=(2,)),
    )
    add(
        "A2-large",
        "block A at a = 2 on the long-range sector against the collapsed-peak kernel",
        per_a(block_a_long, collapsed_peak, below, a_values=(2,)),
    )
    add(
        "B-growth",
        "block B against (1+|x|)^n",
        per_a(_log_block_b, growth, below),
        count_factor=16,
    )
    add(
        "B-angular",
        "block B against the angular comparison",
        per_a(_log_block_b, angular, below),
    )
    add(
        "stimaint",
        "peak-window Gaussian integral against min(sqrt(1-r0)/|x|, 1-r0)",
        {f"n={n}": (window_integral, window_bound, below)},
    )
    add(
        "decomposition",
        "full kernel against the shared-factor sum of first/second-half integrals",
        {
            f"n={n}": (
                kernel_log(decomposed),
                decomposition_bound,
                lambda rng, count: sample_global_pairs(rng, n, count, radius=6.0),
            )
        },
    )
    add(
        "local-integral",
        "near-diagonal profile integral against |x-y|^{-(n+mu-nu-2)} at mu=3, nu=0",
        {
            f"n={d}": (
                partial(near_diagonal_profile_integral, mu, nu),
                separation_power(-(d + mu - nu - 2.0)),
                local(d),
            )
            for d in (1, 2)
        },
    )
    add(
        "cz-kernel",
        "kernel size against |x-y|^{-n} on the local region",
        {f"n={n}": (kernel_log(cz_alpha), separation_power(-n), local(n))},
    )
    add(
        "cz-gradient",
        "kernel gradient size against |x-y|^{-(n+1)} on the local region",
        {f"n={n}": (gradient_log(cz_alpha), separation_power(-(n + 1)), local(n))},
    )
    return entries


def resolve_registry_key(key: str) -> str:
    """Normalize user-facing selectors (e.g. '5.2.3.2' -> 'case-2.3.2')."""
    k = key.strip()
    if k in BOUND_REGISTRY:
        return k
    trimmed = k[2:] if k.startswith("5.") else k
    candidate = f"case-{trimmed}"
    if candidate in BOUND_REGISTRY:
        return candidate
    raise KeyError(f"no registered bound named {key!r}")


def run_all_bound_sweeps(
    keys: Sequence[str] | None = None, count: int = 384, seed: int = 7
) -> dict[str, SweepResult]:
    names = sorted(BOUND_REGISTRY) if keys is None else [resolve_registry_key(k) for k in keys]
    return {name: BOUND_REGISTRY[name].runner(count, seed) for name in names}


# --------------------------------------------------------------------------
# local kernel/gradient suprema


def _fd_gradient_logs(
    alpha: MultiIndex, X: np.ndarray, Y: np.ndarray, fd_scale: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """log |grad_x K| and log |grad_y K| for pair rows, one batched call.

    Central differences with step proportional to the separation; each
    pair's 4n kernel values are rescaled by their own maximum before
    differencing, so the arithmetic stays in range regardless of the
    e^{|y|^2-|x|^2} size of the kernel.
    """
    m, n = X.shape
    sep = np.linalg.norm(X - Y, axis=1)
    h = fd_scale * sep
    shifts = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        step = h[:, None] * e[None, :]
        shifts.extend([(X + step, Y), (X - step, Y), (X, Y + step), (X, Y - step)])
    Xs = np.concatenate([s[0] for s in shifts])
    Ys = np.concatenate([s[1] for s in shifts])
    signs, logmags = riesz_kernel_batch(alpha, Xs, Ys)
    # layout: block (j, direction) of size m each, 4 blocks per axis j
    signs = signs.reshape(4 * n, m)
    logmags = logmags.reshape(4 * n, m)
    shift = np.max(logmags, axis=0)
    vals = signs * np.exp(logmags - shift[None, :])
    gx_sq = np.zeros(m)
    gy_sq = np.zeros(m)
    for j in range(n):
        base = 4 * j
        dx = (vals[base] - vals[base + 1]) / (2.0 * h)
        dy = (vals[base + 2] - vals[base + 3]) / (2.0 * h)
        gx_sq += dx * dx
        gy_sq += dy * dy
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(gx_sq) + shift, 0.5 * np.log(gy_sq) + shift


@dataclass
class CZLocalResult:
    """Suprema of |K| |x-y|^n and (|grad_x K| + |grad_y K|) |x-y|^{n+1} over
    seeded local pairs, with doubling drift for both statistics."""

    alpha: tuple
    n: int
    count: int
    log_sup_kernel: float
    log_sup_kernel_base: float
    kernel_rel_change: float
    log_sup_gradient: float
    log_sup_gradient_base: float
    gradient_rel_change: float


def czlocal_supremum(alpha: MultiIndex, count: int, rng: np.random.Generator) -> CZLocalResult:
    n = alpha.dim
    X, Y = sample_local_pairs(rng, n, 2 * count)
    sep = np.linalg.norm(X - Y, axis=1)
    _, log_k = riesz_kernel_batch(alpha, X, Y)
    gx, gy = _fd_gradient_logs(alpha, X, Y)
    return CZLocalResult(
        tuple(alpha),
        n,
        count,
        *_doubling_sup(log_k + n * np.log(sep), count),
        *_doubling_sup(np.logaddexp(gx, gy) + (n + 1) * np.log(sep), count),
    )


# --------------------------------------------------------------------------
# rank-one operator probes


def _rank_one_radial_log(mu: float, nu: float, t: np.ndarray) -> np.ndarray:
    """log of the x-radial factor e^{-t^2} t^{-mu} (1+t)^{-nu} of the
    rank-one kernel L42."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return -t * t - mu * np.log(t) - nu * np.log1p(t)


def rank_one_quasinorm_exact(n: int, mu: float, nu: float) -> float:
    """log of sup_t Tf(t) * measure(B(0,t)) for the rank-one operator with a
    unit-norm input, computed from the closed forms.

    Mirrors the analytic construction: for each level s the super-level set
    is the centered ball whose radius is the largest solution of Tf(t) = s,
    so the supremum over s equals the supremum over t of the product.  The
    boundedness hypotheses are mu + nu >= n - 2 and mu <= n.
    """
    t = np.exp(np.linspace(math.log(1e-10), math.log(40.0), 20000))
    logq = _rank_one_radial_log(mu, nu, t) - 0.5 * n * _LOG_PI + _log_radial_ball_measure(n, t)
    k = int(np.argmax(logq))
    lo = t[max(k - 1, 0)]
    hi = t[min(k + 1, t.size - 1)]

    def neg(log_t: float) -> float:
        tt = np.array([math.exp(log_t)])
        return -float(
            _rank_one_radial_log(mu, nu, tt)[0]
            - 0.5 * n * _LOG_PI
            + _log_radial_ball_measure(n, tt)[0]
        )

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(neg, bounds=(math.log(lo), math.log(hi)), method="bounded")
    return float(-res.fun)


_PROBE_T_MAX = 30.0
_PROBE_T_COUNT = 2**14


def weak_quasinorm_probe(n: int, mu: float, nu: float, t_min: float = 1e-8) -> float:
    """log weak quasi-norm of the rank-one operator (kernel L42) on a
    nonnegative input of unit measure-norm, from a sampled profile.

    Tf(x) is the kernel's radial factor in t = |x| times the integral of
    e^{|y|^2} f(y) dy, which is pi^{-n/2} for every such input, so the probe
    takes no input.  Tf is sampled on 2^14 geometric nodes t_k from t_min
    to 30.  Node k owns the shell t_k <= |x| < t_{k+1} (node 0 also owns
    |x| < t_0, and the last shell is one geometric step wide), measured by
    closed-form centered-ball differences; the level sets at the node values
    come from the sorted-suffix sum of level_set_report, so profiles need not
    be monotone.  Works for n <= 2.
    """
    if not 0.0 < t_min < _PROBE_T_MAX:
        raise ValueError(f"t_min must lie in (0, {_PROBE_T_MAX:g})")
    t = np.exp(np.linspace(math.log(t_min), math.log(_PROBE_T_MAX), _PROBE_T_COUNT))
    log_tf = _rank_one_radial_log(mu, nu, t) - 0.5 * n * _LOG_PI
    # node k's shell: the ball of radius t_{k+1} (one step past t_max for the
    # last node) less the ball of radius t_k, which node 0 keeps whole
    log_shells = _log_radial_ball_measure(n, np.append(t[1:], t[-1] ** 2 / t[-2]))
    log_shells[1:] += np.log(-np.expm1(log_shells[:-1] - log_shells[1:]))
    return float(np.max(log_tf + _log_measures_above(log_tf, log_shells, log_tf)))


# --------------------------------------------------------------------------
# tube counterexample


def tube_axis_basis(n: int) -> np.ndarray:
    """Orthonormal basis whose first column is the diagonal direction."""
    cols = [np.ones(n)]
    for j in range(n - 1):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(e)
    q, r = np.linalg.qr(np.column_stack(cols))
    return q * np.sign(np.diag(r))[None, :]


# circle rule of the ball: first count, log|Tf| change that stops doubling, cap
_BALL_NODES_START = 64
_BALL_GAP = 1e-5
_BALL_NODES_MAX = 2**12


def _tube(n: int, eta: float, perp_half: float = 1.0):
    """The displaced tube of the counterexample, for z = (eta, ..., eta).

    Returns the rotated frame (tube_axis_basis), the axis band
    ((4/3)|z|, (3/2)|z|) of the first rotated coordinate, and the
    half-width of every perpendicular coordinate.
    """
    z_norm = math.sqrt(n) * eta
    return tube_axis_basis(n), (4.0 * z_norm / 3.0, 1.5 * z_norm), perp_half


@dataclass(frozen=True)
class CounterexampleConfig:
    """Growth-law experiment: normalized ball indicator at the diagonal
    point, transform evaluated over the displaced tube, weak quasi-norm
    lower bound per eta, in dimension n = 1 or 2.

    The tube and the ball must be separated: |z|/3 - ball_radius >= 0.5.
    grid_axis is the axis cell count at the smallest eta; larger etas get
    proportionally more cells so the cell length stays constant across the
    sweep (the tube length grows linearly with eta).  Every grid count must
    be at least 1.  ball_radial and ball_angular are validated but nothing
    reads them: the ball's Tf is a boundary integral whose node count
    follows from its own error (`_tube_tf_logs`).
    """

    alpha: MultiIndex
    etas: tuple
    n: int = 2
    ball_radius: float = 1.0
    tube_perp_half: float = 1.0
    grid_axis: int = 64
    grid_perp: int = 16
    ball_radial: int = 20
    ball_angular: int = 48

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        if self.alpha.order < 1:
            raise ValueError("the transform needs |alpha| >= 1")
        if self.n not in (1, 2):
            raise ValueError(f"the tube experiment needs n = 1 or 2, got {self.n}")
        if self.alpha.dim != self.n:
            raise ValueError("alpha dimension must match n")
        if not (_finite_positive(self.ball_radius) and _finite_positive(self.tube_perp_half)):
            raise ValueError("radii must be positive and finite")
        for key in ("grid_axis", "grid_perp", "ball_radial", "ball_angular"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not self.etas or not all(_finite_positive(e) for e in self.etas):
            raise ValueError("etas must be positive and finite")
        for e in self.etas:
            gap = math.sqrt(self.n) * e / 3.0 - self.ball_radius
            if gap < 0.5:
                raise ValueError(
                    f"eta={e} leaves gap {gap:.3f} between tube and ball; "
                    "need at least 0.5"
                )


def _centroid_cells(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight centroid of exp(u^2) per cell plus adjusted log cell size.

    The centroid is exact, int u exp(u^2) du = (exp(b^2) - exp(a^2)) / 2,
    evaluated in the log domain so far-out axis cells cannot overflow; the
    returned log sizes are the exact cell integrals divided by the density
    at the centroid, keeping size * exp(centroid^2) the exact cell weight.
    A cell symmetric around zero gets centroid zero.
    """
    a, b = edges[:-1], edges[1:]
    log_i = _log_gauss_sq_cells(edges)
    hi = np.maximum(a * a, b * b)
    gap = np.abs(b * b - a * a)
    sign = np.sign(b * b - a * a)
    with np.errstate(divide="ignore"):
        log_num = hi + np.log(-np.expm1(-gap)) - math.log(2.0)
    u = np.where(gap == 0.0, 0.0, sign * np.exp(log_num - log_i))
    return u, log_i - u * u


def _tube_grid(cfg: CounterexampleConfig, eta: float):
    """Weight-centroid grid over the tube plus exact cell volumes (log).

    The measure density exp(|x|^2) factorizes across the rotated axes, so
    each cell's true measure is a product of one-dimensional exp(u^2)
    integrals.  Cells carry their weight centroid as the evaluation point
    and volumes are the exact integrals divided by the density there, so
    the mass rule vol * pi^{n/2} * exp(|point|^2) is exact per cell and the
    transform is sampled where the cell's measure actually concentrates
    (a midpoint rule misplaces most of a far-out cell's mass, inflating
    level-set masses at large eta).

    The axis count scales with eta relative to the smallest eta in the
    config, keeping the cell length constant across a sweep; the perp
    extent is eta-independent, so the perp count stays fixed.
    """
    n = cfg.n
    q, (lo, hi), w = _tube(n, eta, cfg.tube_perp_half)
    axis_count = int(math.ceil(cfg.grid_axis * eta / min(cfg.etas)))
    axis_edges = np.linspace(lo, hi, axis_count + 1)
    axis, log_axis = _centroid_cells(axis_edges)
    perp_edges = np.linspace(-w, w, cfg.grid_perp + 1)
    perp, log_perp = _centroid_cells(perp_edges)
    grids = np.meshgrid(axis, *([perp] * (n - 1)), indexing="ij")
    coords = np.stack([g.reshape(-1) for g in grids], axis=-1)
    logs = np.meshgrid(log_axis, *([log_perp] * (n - 1)), indexing="ij")
    log_cell = np.sum([g.reshape(-1) for g in logs], axis=0)
    return coords @ q.T, log_cell


def _tube_tf_logs(cfg: CounterexampleConfig, eta: float):
    """Sign and log of Tf over the tube grid, the effective cell volumes,
    and {"ball_nodes", "ball_quadrature_error"} of the ball rule.

    f is the normalized ball indicator, and with j the first coordinate
    where alpha_j >= 1, Tf is the integral over the ball's sphere of f nu_j
    times the boundary kernel (kernels._riesz_batch, lower = j).  n = 1: the
    two end points, exact.  n = 2: the equispaced circle rule T_M, from
    M = 64, T_M being the mean of T_{M/2} and the rule on its midpoints;
    M doubles while some |log|T_M| - log|T_{M/2}|| exceeds _BALL_GAP, and
    that last gap is the error.
    """
    pts, log_cell = _tube_grid(cfg, eta)
    log_f = -gamma_inv_ball_log(cfg.n, np.full(cfg.n, eta), cfg.ball_radius).logmag
    j = next(i for i, k in enumerate(cfg.alpha) if k)

    def tf(normals, log_w):
        # nu_j goes in as f's sign and log; nodes where it is 0 add nothing
        normals = normals[normals[:, j] != 0.0]
        nu, nodes = normals[:, j], eta + cfg.ball_radius * normals
        log_fw = log_f + log_w + np.log(np.abs(nu))
        return _kernel_sums_log(cfg.alpha, pts, nodes, np.zeros(nu.size), log_fw, np.sign(nu), j)

    def circle(count: int, shift: float):
        # cosdg and sindg are exactly 0 at quarter turns
        degrees = 360.0 * (np.arange(count) + shift) / count
        dirs = np.stack([special.cosdg(degrees), special.sindg(degrees)], axis=1)
        return dirs, math.log(2.0 * math.pi * cfg.ball_radius / count)

    if cfg.n == 1:
        count, gap, (signs, logmags) = 2, 0.0, tf(np.array([[-1.0], [1.0]]), 0.0)
    else:
        count, gap = _BALL_NODES_START // 2, math.inf
        signs, logmags = tf(*circle(count, 0.0))
    while gap > _BALL_GAP and count < _BALL_NODES_MAX:
        mid_signs, mid_logs = tf(*circle(count, 0.5))
        new_signs, new_logs = signed_logsumexp(
            np.stack([logmags, mid_logs], axis=1), np.stack([signs, mid_signs], axis=1)
        )
        new_logs -= math.log(2.0)
        gap = float(np.max(np.where(new_signs == signs, np.abs(new_logs - logmags), np.inf)))
        signs, logmags, count = new_signs, new_logs, 2 * count
    return pts, signs, logmags, log_cell, {"ball_nodes": count, "ball_quadrature_error": gap}


def _eta_report(cfg: CounterexampleConfig, eta: float) -> LevelSetReport:
    pts, _, logmags, log_cell, ball = _tube_tf_logs(cfg, eta)
    # the mass rule of _tube_grid: cell volume * pi^{n/2} * e^{|point|^2}
    log_masses = log_cell + 0.5 * cfg.n * _LOG_PI + np.sum(pts * pts, axis=1)
    return level_set_report(
        logmags,
        log_masses,
        metadata={
            "eta": eta,
            "grid_axis": cfg.grid_axis,
            "grid_perp": cfg.grid_perp,
            "truncation": "tube",
            **ball,
        },
    )


def _eta_job(args) -> tuple[float, LevelSetReport]:
    cfg, eta = args
    return eta, _eta_report(cfg, eta)


@dataclass
class CounterexampleResult:
    config: CounterexampleConfig
    etas: tuple
    log_quasi_norms: np.ndarray
    reports: dict
    slope: float
    residual: float
    expectation: dict
    passed: bool

    @property
    def quasi_norms(self) -> np.ndarray:
        return np.exp(self.log_quasi_norms)


def counterexample_expectation(order: int) -> dict:
    """Pass/fail thresholds for the fitted growth exponent by |alpha|."""
    if order <= 2:
        return {"slope_max": 0.3, "factor_max": 3.0}
    if order == 3:
        return {"slope_min": 0.6}
    if order == 4:
        return {"slope_min": 1.5}
    return {"slope_min": 0.5 * (order - 2)}


def counterexample_lower_bound(
    cfg: CounterexampleConfig, jobs: int | None = None
) -> CounterexampleResult:
    """Tube-restricted weak quasi-norm lower bounds per eta, with growth fit.

    Per-eta work is independent; jobs > 1 runs the etas in a process pool,
    largest eta first, since a task's cost grows with its axis cell count.
    Results merge in eta order, so worker count never changes the output.
    """
    tasks = [(cfg, eta) for eta in sorted(cfg.etas, reverse=True)]
    if jobs is not None and jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            produced = dict(pool.map(_eta_job, tasks))
    else:
        produced = dict(map(_eta_job, tasks))
    etas = tuple(sorted(produced))
    logs = np.array([produced[e].log_quasi_norm for e in etas])
    expectation = counterexample_expectation(cfg.alpha.order)
    if len(etas) >= 3:
        fit = slope_fit(np.array(etas), np.exp(logs))
        slope, residual = fit.slope, fit.residual
        passed = True
        if "slope_min" in expectation:
            passed &= slope >= expectation["slope_min"]
        if "slope_max" in expectation:
            passed &= slope <= expectation["slope_max"]
        if "factor_max" in expectation:
            # growth above the starting level; a decaying family scores 1
            growth = math.exp(float(np.max(logs) - logs[0]))
            passed &= growth < expectation["factor_max"]
            expectation = {**expectation, "factor": growth}
    else:
        slope = residual = math.nan
        passed = False
        expectation = {**expectation, "note": "growth fit needs >= 3 etas"}
    return CounterexampleResult(
        config=cfg,
        etas=etas,
        log_quasi_norms=logs,
        reports={e: produced[e] for e in etas},
        slope=slope,
        residual=residual,
        expectation=expectation,
        passed=bool(passed),
    )


# --------------------------------------------------------------------------
# growth fitting and reports


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float


def slope_fit(etas, values) -> SlopeFit:
    """Least-squares slope of log(value) against log(eta)."""
    etas = np.asarray(etas, dtype=float)
    values = np.asarray(values, dtype=float)
    if etas.size < 3:
        raise ValueError("need at least three points to fit a growth rate")
    if np.any(etas <= 0.0) or np.any(values <= 0.0):
        raise ValueError("growth fitting needs positive etas and values")
    lx, ly = np.log(etas), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((slope * lx + intercept - ly) ** 2)))
    return SlopeFit(slope=float(slope), intercept=float(intercept), residual=resid)


def _experiment_id(cfg: CounterexampleConfig) -> str:
    return "counterexample-alpha" + "-".join(map(str, cfg.alpha)) + f"-n{cfg.n}"


def _exp_safe(log_value: float) -> float:
    if log_value == -math.inf:
        return 0.0
    return math.exp(log_value) if log_value < 700.0 else math.inf


def write_counterexample_report(
    result: CounterexampleResult, csv_path: str, json_path: str
) -> None:
    """CSV of per-eta level-set rows plus a JSON summary with the fit."""
    exp_id = _experiment_id(result.config)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "eta", "s", "measure", "quasi_norm"])
        for eta in result.etas:
            rep = result.reports[eta]
            for ls, lm in zip(rep.log_thresholds, rep.log_measures):
                writer.writerow(
                    [
                        exp_id,
                        f"{eta:.6g}",
                        f"{_exp_safe(ls):.12e}",
                        f"{_exp_safe(lm):.12e}",
                        f"{rep.quasi_norm:.12e}",
                    ]
                )
    summary = {
        "experiment": exp_id,
        "alpha": list(result.config.alpha),
        "n": result.config.n,
        "etas": list(result.etas),
        "quasi_norms": [float(v) for v in result.quasi_norms],
        "ball_nodes": [result.reports[e].metadata["ball_nodes"] for e in result.etas],
        "ball_quadrature_error": [
            result.reports[e].metadata["ball_quadrature_error"] for e in result.etas
        ],
        "slope": result.slope,
        "residual": result.residual,
        "expectation": result.expectation,
        "passed": result.passed,
        "config": {
            "ball_radius": result.config.ball_radius,
            "tube_perp_half": result.config.tube_perp_half,
            "grid_axis": result.config.grid_axis,
            "grid_perp": result.config.grid_perp,
        },
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


BOUND_REGISTRY: dict[str, SweepSpec] = _build_registry()
