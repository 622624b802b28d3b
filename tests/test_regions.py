"""Seeded pair samplers for the local and global regions."""

import math

import numpy as np
import pytest

from rieszlab.regions import (
    _DRAW_BLOCK,
    _draw_pairs,
    _membership_rows,
    sample_global_pairs,
    sample_local_pairs,
)


def in_N(delta: float, x: np.ndarray, y: np.ndarray) -> bool:
    """Scalar membership in the local region at scale delta: the samplers'
    reference, written apart from their vectorized masks."""
    u = np.linalg.norm(x - y) * (1.0 + np.linalg.norm(x) + np.linalg.norm(y))
    return float(u) <= delta


def test_membership_scale():
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 0.5])
    want = 0.5 * (1.0 + 1.0 + math.sqrt(1.25))
    assert _membership_rows(x[None, :], y[None, :])[0] == pytest.approx(want, rel=1e-14)
    assert in_N(2.0, x, y)
    assert not in_N(1.0, x, y)
    # the row form agrees with the scalar form on every row
    rng = np.random.default_rng(21)
    X, Y = rng.uniform(-4, 4, size=(2, 50, 3))
    rows = _membership_rows(X, Y)
    for k, (x, y) in enumerate(zip(X, Y)):
        assert in_N(rows[k] * (1 + 1e-14), x, y)
        assert not in_N(rows[k] * (1 - 1e-14), x, y)


def test_local_sampler_properties():
    rng = np.random.default_rng(31)
    X, Y = sample_local_pairs(rng, 2, 200)
    assert X.shape == Y.shape == (200, 2)
    for x, y in zip(X, Y):
        assert in_N(2.0, x, y)
    # prefix-nesting: the first half of a double draw equals the single draw
    a = sample_local_pairs(np.random.default_rng(5), 2, 50)
    b = sample_local_pairs(np.random.default_rng(5), 2, 100)
    for rows_a, rows_b in zip(a, b):
        np.testing.assert_array_equal(rows_a, rows_b[:50])


def test_global_sampler_properties():
    rng = np.random.default_rng(33)
    X, Y = sample_global_pairs(rng, 2, 200)
    assert X.shape == Y.shape == (200, 2)
    for x, y in zip(X, Y):
        assert not in_N(1.0, x, y)


def test_draw_pairs_skips_empty_blocks_and_keeps_order():
    # a stub draw numbers its candidate rows; the first block accepts none,
    # later ones every third row, so the sample spans two accepting blocks
    sizes = []

    def draw(rng, m):
        start = len(sizes) * m
        sizes.append(m)
        X = np.arange(start, start + m, dtype=float)[:, None]
        keep = X[:, 0] % 3 == 0 if start else np.zeros(m, dtype=bool)
        return X, -X, keep

    X, Y = _draw_pairs(np.random.default_rng(0), 1, 500, draw)
    assert sizes == [_DRAW_BLOCK] * 3
    want = [v for v in range(_DRAW_BLOCK, 3 * _DRAW_BLOCK) if v % 3 == 0][:500]
    np.testing.assert_array_equal(X[:, 0], want)
    np.testing.assert_array_equal(Y, -X)
    empty = _draw_pairs(np.random.default_rng(0), 2, 0, draw)
    assert empty[0].shape == empty[1].shape == (0, 2)
