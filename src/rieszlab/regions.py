"""Seeded samplers of pair rows (x, y) in the local and global regions.

A pair is local at scale delta when |x - y| (1 + |x| + |y|) <= delta; the
local sampler draws inside the delta = 2 region, the global one outside the
delta = 1 region.  Every sampler draws fixed-size candidate blocks, so a
larger sample from the same seed extends a smaller one.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sample_local_pairs", "sample_global_pairs"]


# candidate rows per draw call; fixed, so a sample's first rows never depend
# on how many are asked for
_DRAW_BLOCK = 1024


def _membership_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """|x - y| (1 + |x| + |y|) for each row pair of X and Y, both (m, n)."""
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
    rng: np.random.Generator, n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair rows (X, Y) inside the delta = 2 local region, with the
    coordinates of x uniform on [-6, 6].

    Distances are drawn log-uniformly down to 1e-5 so samples crowd the
    near-diagonal where singular behaviour lives.  Prefixes of the returned
    rows are themselves valid (smaller) samples: doubling count extends
    rather than reshuffles.
    """

    def draw(rng, m):
        X = rng.uniform(-6.0, 6.0, size=(m, n))
        cap = 2.0 / (1.0 + 2.0 * np.linalg.norm(X, axis=1) + 1.0)
        dist = np.exp(rng.uniform(math.log(1e-5), np.log(cap)))
        Y = X + dist[:, None] * _unit_rows(rng, m, n)
        return X, Y, _membership_rows(X, Y) <= 2.0

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
