"""Local/global splitting of pairs (x, y).

A pair is local at scale delta when |x - y| (1 + |x| + |y|) <= delta.  The
smooth cutoff chi is 1 on the delta = 1 region, 0 outside the delta = 2
region, and rides a quintic smoothstep in between, which keeps
|grad chi| = O(1/|x - y|) on the transition shell.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "membership_u",
    "in_N",
    "chi",
    "chi_batch",
    "sample_local_pairs",
    "sample_global_pairs",
]


def membership_u(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(x - y) * (1.0 + np.linalg.norm(x) + np.linalg.norm(y)))


def in_N(delta: float, x: np.ndarray, y: np.ndarray) -> bool:
    """Membership in the local region at scale delta (delta 1 or 2 in use)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return membership_u(x, y) <= delta


def _smoothstep(t: float) -> float:
    # quintic ramp: value and first two derivatives vanish at both ends
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def chi(x: np.ndarray, y: np.ndarray) -> float:
    """Smooth cutoff: 1 on the inner local region, 0 on the global one."""
    return 1.0 - _smoothstep(membership_u(x, y) - 1.0)


def chi_batch(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """chi(x, y) for one x against many y; Y has shape (m, n)."""
    x = np.asarray(x, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    u = np.linalg.norm(Y - x, axis=1) * (
        1.0 + np.linalg.norm(x) + np.linalg.norm(Y, axis=1)
    )
    t = np.clip(u - 1.0, 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


# candidate rows per draw call; fixed, so a sample's first rows never depend
# on how many are asked for
_DRAW_BLOCK = 1024


def _membership_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """membership_u of each row pair of X and Y, both of shape (m, n)."""
    norm = np.linalg.norm
    return norm(X - Y, axis=1) * (1.0 + norm(X, axis=1) + norm(Y, axis=1))


def _unit_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m rows of uniform directions in R^n."""
    D = rng.normal(size=(m, n))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def _draw_pairs(
    rng: np.random.Generator, n: int, count: int, draw
) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) rows of shape (count, n) from repeated draw(rng, m) -> (X, Y,
    keep) on blocks of m = _DRAW_BLOCK candidate rows; the rows where the
    boolean keep is set are accepted, in draw order.

    Row k depends only on the blocks before it, so the first rows of a larger
    sample equal a smaller sample from the same seed.
    """
    Xs, Ys, got = [np.empty((0, n))], [np.empty((0, n))], 0
    while got < count:
        X, Y, keep = draw(rng, _DRAW_BLOCK)
        Xs.append(X[keep])
        Ys.append(Y[keep])
        got += len(Xs[-1])
    return np.concatenate(Xs)[:count], np.concatenate(Ys)[:count]


def sample_local_pairs(
    rng: np.random.Generator,
    n: int,
    count: int,
    delta: float = 2.0,
    radius: float = 6.0,
    min_dist: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair rows (X, Y) inside the scale-delta local region.

    Distances are drawn log-uniformly down to min_dist so samples crowd the
    near-diagonal where singular behaviour lives.  Prefixes of the returned
    rows are themselves valid (smaller) samples: doubling count extends
    rather than reshuffles.
    """

    def draw(rng, m):
        X = rng.uniform(-radius, radius, size=(m, n))
        cap = delta / (1.0 + 2.0 * np.linalg.norm(X, axis=1) + 1.0)
        dist = np.exp(rng.uniform(math.log(min_dist), np.log(cap)))
        Y = X + dist[:, None] * _unit_rows(rng, m, n)
        return X, Y, _membership_rows(X, Y) <= delta

    return _draw_pairs(rng, n, count, draw)


def sample_global_pairs(
    rng: np.random.Generator,
    n: int,
    count: int,
    radius: float = 8.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair rows (X, Y) in the global region (complement of the
    delta=1 set), prefix-nested like the local sampler."""

    def draw(rng, m):
        X = rng.uniform(-radius, radius, size=(m, n))
        Y = rng.uniform(-radius, radius, size=(m, n))
        keep = (np.linalg.norm(X, axis=1) >= 1e-9) & (_membership_rows(X, Y) > 1.0)
        return X, Y, keep

    return _draw_pairs(rng, n, count, draw)
