"""Multi-indices, polar splitting, and the algebraic identity residuals."""

import math

import numpy as np
import pytest

from rieszlab.geometry import MultiIndex, identity_residuals
from rieszlab.weaktype import _polar_batch


def test_multiindex_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))
    with pytest.raises(ValueError):
        MultiIndex((1.5,))
    mi = MultiIndex.of(2, 0, 1)
    assert mi.order == 3 and mi.dim == 3
    assert tuple(mi) == (2, 0, 1)


def test_multiindex_add():
    total = MultiIndex.of(1, 2) + MultiIndex.of(0, 3)
    assert total.entries == (1, 5)
    with pytest.raises(ValueError):
        MultiIndex.of(1) + MultiIndex.of(1, 0)


def test_log_factorial_against_lgamma():
    rng = np.random.default_rng(2)
    for _ in range(50):
        entries = tuple(int(e) for e in rng.integers(0, 30, size=rng.integers(1, 4)))
        mi = MultiIndex(entries)
        want = sum(math.lgamma(e + 1) for e in entries)
        assert mi.log_factorial() == pytest.approx(want, abs=1e-12)


def test_log_factorial_ratio_large_entries():
    rng = np.random.default_rng(4)
    for _ in range(50):
        base = tuple(int(e) for e in rng.integers(0, 10_000, size=2))
        step = tuple(int(e) for e in rng.integers(0, 4, size=2))
        b, s = MultiIndex(base), MultiIndex(step)
        got = b.log_factorial_ratio(s)
        want = (b + s).log_factorial() - b.log_factorial()
        # lgamma differencing loses digits at 1e4; the ratio form must not
        assert got == pytest.approx(want, rel=1e-10, abs=1e-8)
    with pytest.raises(ValueError):
        MultiIndex.of(1).log_factorial_ratio(MultiIndex.of(1, 0))


def test_decompose_reconstruction():
    # the row-wise split of y along the ray through x that every kernel
    # bound uses: r0 x + y_perp = y with y_perp orthogonal to x
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        X = rng.normal(size=(200, n))
        X[np.linalg.norm(X, axis=1) < 1e-3] += 0.5
        Y = rng.normal(size=(200, n)) * np.exp(rng.uniform(-2, 2, size=(200, 1)))
        r0, yperp_sq, sin_theta, y_norm = _polar_batch(X, Y)
        want_r0 = np.sum(X * Y, axis=1) / np.sum(X * X, axis=1)
        np.testing.assert_allclose(r0, want_r0, rtol=1e-12)
        y_perp = Y - r0[:, None] * X
        assert np.all(np.abs(np.sum(y_perp * X, axis=1)) < 1e-10)
        np.testing.assert_allclose(yperp_sq, np.sum(y_perp * y_perp, axis=1), atol=1e-10)
        np.testing.assert_allclose(y_norm, np.linalg.norm(Y, axis=1), rtol=1e-14)
        assert np.all((0.0 <= sin_theta) & (sin_theta <= 1.0 + 1e-12))
        np.testing.assert_allclose(sin_theta * y_norm, np.sqrt(yperp_sq), atol=1e-10)


def test_decompose_degenerate_inputs():
    with pytest.raises(ValueError):
        _polar_batch(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))
    r0, yperp_sq, sin_theta, y_norm = _polar_batch(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    assert r0[0] == 0.0 and yperp_sq[0] == 0.0
    assert sin_theta[0] == 0.0 and y_norm[0] == 0.0


def test_identity_residuals_tiny():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        res = identity_residuals(rng, n, 4000)
        assert set(res) == {"exponent", "peak_split", "peak_distance", "gap_slack"}
        assert res["exponent"] <= 1e-12
        assert res["peak_split"] <= 1e-12
        assert res["peak_distance"] <= 1e-12
        assert res["gap_slack"] >= 1.0
