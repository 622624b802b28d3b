"""Hermite polynomials, the Gaussian weights, and their tail-safe products."""

import math

import numpy as np
import pytest

from rieszlab.geometry import MultiIndex
from rieszlab.hermite import (
    gamma_h,
    gauss_density,
    h_normalized,
    h_normalized_table,
    hermite1d,
    hermite_multi,
    log_h_norm_const,
)


def _explicit(k: int, s: float) -> float:
    if k == 0:
        return 1.0
    if k == 1:
        return 2.0 * s
    if k == 2:
        return 4.0 * s * s - 2.0
    if k == 3:
        return 8.0 * s**3 - 12.0 * s
    if k == 4:
        return 16.0 * s**4 - 48.0 * s * s + 12.0
    raise ValueError(k)


def test_hermite1d_matches_explicit_polynomials():
    rng = np.random.default_rng(6)
    for _ in range(100):
        s = float(rng.uniform(-4, 4))
        for k in range(5):
            assert hermite1d(k, s) == pytest.approx(
                _explicit(k, s), rel=1e-12, abs=1e-10
            )


def test_three_term_recurrence():
    rng = np.random.default_rng(8)
    s = rng.uniform(-5, 5, size=64)
    table = np.stack([hermite1d(k, s) for k in range(33)])
    for k in range(1, 31):
        lhs = table[k + 1]
        rhs = 2.0 * s * table[k] - 2.0 * k * table[k - 1]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-6)


def test_tables_match_scalar_path():
    # the rescaled recurrence against 2^{-k/2} (k!)^{-1/2} H_k
    s = np.linspace(-3, 3, 11)
    table = h_normalized_table(6, s)
    for k in range(7):
        np.testing.assert_allclose(
            table[k], h_normalized(MultiIndex.of(k), s[:, None]), rtol=1e-13, atol=1e-15
        )


def test_normalized_orthonormality_via_gauss_hermite():
    # weight e^{-s^2}; the family is orthonormal against pi^{-1/2} e^{-s^2}
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    table = h_normalized_table(10, nodes)
    gram = (table * weights[None, :]) @ table.T / math.sqrt(math.pi)
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_hermite_multi_is_a_tensor_product():
    rng = np.random.default_rng(10)
    alpha = MultiIndex.of(2, 1, 3)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=3)
        want = hermite1d(2, x[0]) * hermite1d(1, x[1]) * hermite1d(3, x[2])
        assert hermite_multi(alpha, x) == pytest.approx(want, rel=1e-12)
    # batched evaluation agrees with the scalar loop
    X = rng.uniform(-2, 2, size=(20, 3))
    batch = hermite_multi(alpha, X)
    for i in range(20):
        assert batch[i] == pytest.approx(hermite_multi(alpha, X[i]), rel=1e-12)


def test_norm_const():
    for entries in [(0,), (3,), (2, 1), (4, 0, 2)]:
        beta = MultiIndex(entries)
        want = -0.5 * beta.order * math.log(2.0) - 0.5 * sum(
            math.lgamma(e + 1) for e in entries
        )
        assert log_h_norm_const(beta) == pytest.approx(want, abs=1e-13)


def test_densities_are_reciprocal():
    # gauss_density is pi^{-n/2} e^{-|x|^2}, the reciprocal of the
    # inverse-Gaussian measure weight pi^{n/2} e^{|x|^2}
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=int(rng.integers(1, 4)))
        g = gauss_density(x)
        assert g.sign == 1
        want = math.pi ** (-0.5 * x.size) * math.exp(-float(x @ x))
        assert g.to_float() == pytest.approx(want, rel=1e-12)
        weight = math.pi ** (0.5 * x.size) * math.exp(float(x @ x))
        assert g.to_float() * weight == pytest.approx(1.0, rel=1e-12)


def test_gamma_h_matches_direct_product():
    rng = np.random.default_rng(14)
    beta = MultiIndex.of(2, 1)
    for _ in range(50):
        x = rng.uniform(-2.5, 2.5, size=2)
        want = h_normalized(beta, x) * gauss_density(x).to_float()
        got = gamma_h(beta, x).to_float()
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_gamma_h_deep_tail_stays_finite():
    # e^{-900} underflows a float; the log form must not
    beta = MultiIndex.of(3)
    val = gamma_h(beta, np.array([30.0]))
    assert val.sign != 0
    assert val.logmag == pytest.approx(
        -900.0 + math.log(abs(h_normalized(beta, np.array([30.0]))))
        - 0.5 * math.log(math.pi),
        rel=1e-12,
    )
    # a Hermite zero maps to an exact log-scaled zero
    assert gamma_h(MultiIndex.of(1), np.array([0.0])).sign == 0
