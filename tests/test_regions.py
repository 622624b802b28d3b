"""Local/global region splitting and the smooth cutoff."""

import math

import numpy as np
import pytest

from rieszlab.regions import (
    _DRAW_BLOCK,
    _draw_pairs,
    chi,
    chi_batch,
    in_N,
    membership_u,
    sample_global_pairs,
    sample_local_pairs,
)


def test_membership_scale():
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 0.5])
    want = 0.5 * (1.0 + 1.0 + math.sqrt(1.25))
    assert membership_u(x, y) == pytest.approx(want, rel=1e-14)
    assert in_N(2.0, x, y)
    assert not in_N(1.0, x, y)
    with pytest.raises(ValueError):
        in_N(0.0, x, y)


def test_chi_plateaus_and_range():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        x = rng.uniform(-4, 4, size=n)
        y = x + rng.normal(size=n) * math.exp(rng.uniform(-6, 1))
        u = membership_u(x, y)
        c = chi(x, y)
        assert 0.0 <= c <= 1.0
        if u <= 1.0:
            assert c == 1.0
        elif u >= 2.0:
            assert c == 0.0


def test_chi_batch_matches_scalar():
    rng = np.random.default_rng(23)
    x = rng.uniform(-2, 2, size=2)
    Y = x[None, :] + rng.normal(size=(40, 2)) * 0.3
    batch = chi_batch(x, Y)
    for i in range(40):
        assert batch[i] == pytest.approx(chi(x, Y[i]), rel=1e-13, abs=1e-13)


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
