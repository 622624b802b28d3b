"""Hermite-coefficient representation and exact spectral action of the
operator's Riesz transforms.

The family {gauss * h_beta} is orthonormal in L^2 of the inverse-Gaussian
measure.  A function is given by its coefficients over that family, which
are synthesized pointwise.  On coefficients the Riesz transforms act by a
degree shift along alpha, which makes this module the trusted oracle
against which the kernel-quadrature path is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rieszlab.geometry import MultiIndex
from rieszlab.hermite import h_normalized_table

__all__ = [
    "SpectralCoefficients",
    "NormBoundResult",
    "total_degree_indices",
    "synthesize",
    "apply_riesz_spectral",
    "riesz_coefficient_factor",
    "l2_norm_bound",
    "orthonormality_defect",
]

def total_degree_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-index tuples with |beta| <= max_degree.

    Ordered by total degree, then descending lexicographic within each
    shell, so every serialization derived from this list is reproducible.
    """
    return [tuple(b) for b in _degree_index_array(n, max_degree).tolist()]


def _degree_index_array(n: int, max_degree: int) -> np.ndarray:
    """total_degree_indices(n, max_degree) as an int array of shape (count, n)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    betas = np.arange(max_degree + 1)[:, None]
    for _ in range(n - 1):
        # prepend every head 0..max_degree - |rest| to each rest
        room = max_degree - betas.sum(axis=1) + 1
        head = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        betas = np.column_stack([head, np.repeat(betas, room, axis=0)])
    return betas[np.lexsort((*(-betas[:, ::-1]).T, betas.sum(axis=1)))]


@dataclass(frozen=True)
class SpectralCoefficients:
    """Finite expansion of a function over {gauss * h_beta}, |beta| <= max_degree.

    Treated as an immutable value: operations return new instances and never
    mutate the coefficient map.  top_shell_fraction records what fraction of
    the squared-coefficient mass sits on the two outermost degree shells, the
    standard truncation-adequacy diagnostic.
    """

    n: int
    max_degree: int
    coeffs: dict[tuple[int, ...], float]
    top_shell_fraction: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.max_degree < 0:
            raise ValueError("need n >= 1 and max_degree >= 0")
        for beta, value in self.coeffs.items():
            if len(beta) != self.n or any(b < 0 for b in beta):
                raise ValueError(f"bad index {beta} for dimension {self.n}")
            if sum(beta) > self.max_degree:
                raise ValueError(f"index {beta} exceeds max degree {self.max_degree}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient at {beta}")

    def coefficient(self, beta: Sequence[int]) -> float:
        return self.coeffs.get(tuple(beta), 0.0)

    def norm(self) -> float:
        """L^2 norm against the inverse-Gaussian measure (Parseval)."""
        return math.sqrt(math.fsum(v * v for v in self.coeffs.values()))


def _top_shell_fraction(coeffs: dict[tuple[int, ...], float], max_degree: int) -> float:
    total = math.fsum(v * v for v in coeffs.values())
    if total == 0.0:
        return 0.0
    top = math.fsum(
        v * v for beta, v in coeffs.items() if sum(beta) >= max(max_degree - 1, 0)
    )
    return top / total


def _tensor_mesh(nodes_1d: np.ndarray, weights_1d: np.ndarray, n: int):
    """Flattened tensor grid and product weights for a per-coordinate rule."""
    grids = np.meshgrid(*([nodes_1d] * n), indexing="ij")
    mesh = np.stack([g.reshape(-1) for g in grids], axis=-1)
    w = np.ones(1)
    for _ in range(n):
        w = np.multiply.outer(w, weights_1d).reshape(-1)
    return mesh, w


def synthesize(c: SpectralCoefficients, x) -> float | np.ndarray:
    """Evaluate sum_beta c_beta (gauss * h_beta) at x ((n,) or (m, n)).

    Plain floats throughout: the common Gaussian factor underflows once
    |x| grows past ~27, which is far outside every synthesis grid used here.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != c.n:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {c.n}")
    tables = [h_normalized_table(c.max_degree, pts[:, j]) for j in range(c.n)]
    acc = np.zeros(pts.shape[0])
    for beta, value in c.coeffs.items():
        if value == 0.0:
            continue
        term = np.full(pts.shape[0], value)
        for j, k in enumerate(beta):
            term = term * tables[j][k]
        acc += term
    gauss = math.pi ** (-0.5 * c.n) * np.exp(-np.sum(pts * pts, axis=1))
    out = acc * gauss
    return out if x.ndim == 2 else float(out[0])


def riesz_coefficient_factor(beta: MultiIndex, alpha: MultiIndex) -> float:
    """Signed factor mapping c_beta to the output coefficient at beta + alpha.

    Magnitude 2^{|alpha|/2} sqrt((beta+alpha)!/beta!) (|beta|+n)^{-|alpha|/2};
    the sign is (-1)^{|alpha|}, the derivative-ladder sign this package
    derives and validates empirically in its test suite.
    """
    order = alpha.order
    if order < 1:
        raise ValueError("need a derivative of order at least 1")
    log_mag = (
        0.5 * order * math.log(2.0)
        + 0.5 * beta.log_factorial_ratio(alpha)
        - 0.5 * order * math.log(beta.order + beta.dim)
    )
    sign = -1.0 if order % 2 else 1.0
    return sign * math.exp(log_mag)


def apply_riesz_spectral(
    c: SpectralCoefficients, alpha: MultiIndex
) -> SpectralCoefficients:
    """Riesz transform on coefficients: a degree shift by alpha with the
    ladder factor; the output degree grows by |alpha|."""
    if alpha.dim != c.n:
        raise ValueError("alpha dimension must match the coefficients")
    if alpha.order < 1:
        raise ValueError("the transform needs |alpha| >= 1")
    coeffs: dict[tuple[int, ...], float] = {}
    for beta_t, value in c.coeffs.items():
        beta = MultiIndex(beta_t)
        out_index = (beta + alpha).entries
        coeffs[out_index] = value * riesz_coefficient_factor(beta, alpha)
    max_degree = c.max_degree + alpha.order
    return SpectralCoefficients(
        n=c.n,
        max_degree=max_degree,
        coeffs=coeffs,
        top_shell_fraction=_top_shell_fraction(coeffs, max_degree),
    )


@dataclass(frozen=True)
class NormBoundResult:
    """Supremum of the coefficient amplification sqrt(ratio) over |beta| <= B.

    sup_located reports that the last tenth of the shell sweep set no new
    record, i.e. the supremum was found earlier and the sweep is not still
    climbing when it stops.
    """

    value: float
    argmax: tuple[int, ...]
    sup_located: bool


def l2_norm_bound(alpha: MultiIndex, b_max: int) -> NormBoundResult:
    """sup over |beta| <= b_max of sqrt(2^{|alpha|} (beta+alpha)!/beta! /
    (|beta|+n)^{|alpha|}), n = alpha.dim, the exact operator norm on the
    truncation span.

    Also reports the maximizing beta (the first in total_degree_indices
    order) and whether the last tenth of the shell sweep set no new record
    (sup located, not still climbing).  Every ratio is formed as a product
    of factors 2(beta_j + i)/(|beta| + n), which is overflow-free and, for
    n = 1 with |alpha| = 1, exactly 2 in floating point.
    """
    n = alpha.dim
    if b_max < 0:
        raise ValueError("b_max must be non-negative")
    if n > 2 and b_max > 120:
        raise ValueError("enumeration above degree 120 is impractical for n >= 3")
    betas = _degree_index_array(n, b_max).astype(float)
    denom = np.sum(betas, axis=1) + n
    ratio = np.ones(len(betas))
    for j, aj in enumerate(alpha):
        for i in range(1, aj + 1):
            ratio *= 2.0 * (betas[:, j] + i) / denom
    # total_degree_indices lists the shells in order, so each starts where
    # the degree first reaches it
    shell_max = np.maximum.reduceat(ratio, np.searchsorted(denom, np.arange(b_max + 1) + n))
    best = int(np.argmax(ratio))
    tail_start = max(len(shell_max) - max(len(shell_max) // 10, 2), 0)
    if tail_start == 0:
        located = True
    else:
        head_best = float(np.max(shell_max[:tail_start]))
        located = bool(
            np.all(shell_max[tail_start:] <= head_best * (1.0 + 1e-12))
        )
    return NormBoundResult(
        value=math.sqrt(ratio[best]),
        argmax=tuple(int(b) for b in betas[best]),
        sup_located=located,
    )


def orthonormality_defect(n: int, max_degree: int) -> float:
    """max |<gauss h_a, gauss h_b> - delta_ab| over |a|, |b| <= max_degree.

    The pairing against the inverse-Gaussian measure reduces to
    pi^{-n/2} * integral of h_a h_b exp(-|x|^2), evaluated by a tensor
    Gauss-Hermite rule of max(2 max_degree + 2, 24) points per axis (exact
    up to rounding, since that exceeds max_degree).
    """
    order = max(2 * max_degree + 2, 24)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    mesh, w = _tensor_mesh(nodes, weights, n)
    table = h_normalized_table(max_degree, nodes)
    indices = total_degree_indices(n, max_degree)
    rows = np.empty((len(indices), mesh.shape[0]))
    counts = np.arange(mesh.shape[0])
    strides = [order ** (n - 1 - j) for j in range(n)]
    for i, beta in enumerate(indices):
        row = np.ones(mesh.shape[0])
        for j, k in enumerate(beta):
            row = row * table[k][(counts // strides[j]) % order]
        rows[i] = row
    gram = math.pi ** (-0.5 * n) * (rows * w) @ rows.T
    return float(np.max(np.abs(gram - np.eye(len(indices)))))
