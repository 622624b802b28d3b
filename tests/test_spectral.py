"""Eigenbasis expansions and the coefficient-space transform."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszlab.geometry import MultiIndex
from rieszlab.hermite import gamma_h, h_normalized
from rieszlab.spectral import (
    SpectralCoefficients,
    apply_riesz_spectral,
    l2_norm_bound,
    orthonormality_defect,
    riesz_coefficient_factor,
    synthesize,
    total_degree_indices,
)


def test_total_degree_indices_counts():
    idx = total_degree_indices(2, 3)
    assert len(idx) == 10  # C(2+3, 2)
    assert len(set(idx)) == 10
    assert all(sum(b) <= 3 for b in idx)
    assert total_degree_indices(1, 0) == [(0,)]


def test_orthonormality_defect_small():
    assert orthonormality_defect(1, 10) <= 1e-10
    assert orthonormality_defect(2, 8) <= 1e-9


def test_synthesize_round_trip():
    # synthesis of a hand-built expansion against the direct sum of
    # gauss * h_beta terms
    rng = np.random.default_rng(3)
    c = SpectralCoefficients(n=2, max_degree=5, coeffs={(0, 1): 0.8, (2, 0): 0.3})
    pts = rng.uniform(-2.0, 2.0, size=(30, 2))
    gauss = math.pi**-1.0 * np.exp(-np.sum(pts * pts, axis=1))
    want = gauss * sum(
        value * h_normalized(MultiIndex(beta), pts) for beta, value in c.coeffs.items()
    )
    np.testing.assert_allclose(synthesize(c, pts), want, atol=1e-12)
    assert c.norm() == pytest.approx(math.sqrt(0.64 + 0.09), rel=1e-14)
    assert synthesize(c, pts[0]) == pytest.approx(want[0], abs=1e-12)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        SpectralCoefficients(n=1, max_degree=1, coeffs={(2,): 1.0})
    with pytest.raises(ValueError):
        SpectralCoefficients(n=1, max_degree=1, coeffs={(0, 0): 1.0})


def test_derivative_ladder_sign_and_magnitude():
    # d/dx (gauss h_k) = -sqrt(2(k+1)) gauss h_{k+1}; checked by central
    # differences, which pins the ladder sign the transform inherits
    h = 1e-5
    rng = np.random.default_rng(5)
    for k in range(5):
        beta = MultiIndex.of(k)
        up = MultiIndex.of(k + 1)
        for _ in range(5):
            x = float(rng.uniform(-2.0, 2.0))
            fd = (
                gamma_h(beta, np.array([x + h])).to_float()
                - gamma_h(beta, np.array([x - h])).to_float()
            ) / (2.0 * h)
            want = -math.sqrt(2.0 * (k + 1)) * gamma_h(up, np.array([x])).to_float()
            assert fd == pytest.approx(want, rel=1e-7, abs=1e-10)


def test_derivative_ladder_in_two_dimensions():
    h = 1e-5
    beta = MultiIndex.of(1, 2)
    up = MultiIndex.of(2, 2)
    x = np.array([0.6, -1.1])
    e = np.array([h, 0.0])
    fd = (gamma_h(beta, x + e).to_float() - gamma_h(beta, x - e).to_float()) / (2 * h)
    want = -math.sqrt(2.0 * 2) * gamma_h(up, x).to_float()
    assert fd == pytest.approx(want, rel=1e-7)


def test_riesz_coefficient_factor_values():
    # beta = 0, n = 1: order 1 gives -sqrt(2), order 2 gives +2 sqrt(2)
    assert riesz_coefficient_factor(
        MultiIndex.of(0), MultiIndex.of(1)
    ) == pytest.approx(-math.sqrt(2.0), rel=1e-14)
    assert riesz_coefficient_factor(
        MultiIndex.of(0), MultiIndex.of(2)
    ) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    # general entry matches the ladder-over-eigenvalue composition
    beta, alpha = MultiIndex.of(3, 1), MultiIndex.of(1, 0)
    want = -math.sqrt(2.0 * 4) / math.sqrt(4 + 2)
    assert riesz_coefficient_factor(beta, alpha) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        riesz_coefficient_factor(MultiIndex.of(0), MultiIndex.of(0))


def test_apply_riesz_spectral_shifts_degrees():
    c = SpectralCoefficients(n=2, max_degree=1, coeffs={(0, 0): 1.0, (1, 0): 0.5})
    out = apply_riesz_spectral(c, MultiIndex.of(1, 1))
    assert out.max_degree == 3
    assert set(out.coeffs) == {(1, 1), (2, 1)}
    want00 = riesz_coefficient_factor(MultiIndex.of(0, 0), MultiIndex.of(1, 1))
    assert out.coefficient((1, 1)) == pytest.approx(want00, rel=1e-14)
    with pytest.raises(ValueError):
        apply_riesz_spectral(c, MultiIndex.of(1))


def test_l2_norm_bound_closed_forms():
    first = l2_norm_bound(MultiIndex.of(1), 10_000)
    assert abs(first.value - math.sqrt(2.0)) <= 1e-12
    assert first.argmax == (0,) and first.sup_located
    second = l2_norm_bound(MultiIndex.of(2), 10_000)
    assert abs(second.value - math.sqrt(8.0)) <= 1e-12
    assert second.argmax == (0,) and second.sup_located
    # the balanced two-dimensional case peaks at 1 on every even shell
    cross = l2_norm_bound(MultiIndex.of(1, 1), 200)
    assert cross.value == pytest.approx(1.0, abs=1e-12)
    assert cross.argmax == (0, 0) and cross.sup_located
    with pytest.raises(ValueError):
        l2_norm_bound(MultiIndex.of(1, 0, 0), 500)


def _norm_bound_by_composition(alpha, b_max):
    """(value, argmax, sup_located) of l2_norm_bound, one composition at a
    time: the ratio is the product over j and i = 1..alpha_j of
    2 (beta_j + i) / (|beta| + n), and the argmax is the first maximizer in
    the order of total degree, then descending lexicographic."""
    n = len(alpha)
    betas = sorted(
        (b for b in itertools.product(range(b_max + 1), repeat=n) if sum(b) <= b_max),
        key=lambda b: (sum(b), [-bj for bj in b]),
    )
    shell_max = [0.0] * (b_max + 1)
    best, best_beta = -1.0, None
    for beta in betas:
        ratio = 1.0
        for bj, aj in zip(beta, alpha):
            for i in range(1, aj + 1):
                ratio *= 2.0 * (bj + i) / (sum(beta) + n)
        shell_max[sum(beta)] = max(shell_max[sum(beta)], ratio)
        if ratio > best:
            best, best_beta = ratio, beta
    # located: the last tenth of the shells (at least two) set no new record
    tail = max(len(shell_max) // 10, 2)
    head = shell_max[:-tail]
    located = not head or all(v <= max(head) * (1.0 + 1e-12) for v in shell_max[-tail:])
    return math.sqrt(best), best_beta, located


@st.composite
def _norm_bound_cases(draw):
    n = draw(st.integers(1, 3))
    alpha = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda a: sum(a) <= 4))
    return tuple(alpha), draw(st.integers(0, 30))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_norm_bound_cases())
@example(((1, 1), 30))
@example(((2, 2), 7))
@example(((1, 1, 1), 30))
@example(((4,), 0))
def test_l2_norm_bound_matches_per_composition_loop(case):
    # same factors in the same order, so the values agree exactly, and
    # shell ties resolve to the first beta in total_degree_indices order
    alpha, b_max = case
    res = l2_norm_bound(MultiIndex.of(*alpha), b_max)
    assert (res.value, res.argmax, res.sup_located) == _norm_bound_by_composition(alpha, b_max)
