"""Heat and transform kernels against closed forms."""

import math

import numpy as np
import pytest

from rieszlab.geometry import MultiIndex
from rieszlab.hermite import gamma_h
from rieszlab.kernels import (
    heat_kernel,
    riesz_integrand,
    riesz_kernel,
    riesz_kernel_batch,
)
from rieszlab.quadrature import NonConvergenceError, QuadratureConfig
from rieszlab.regions import in_N
from rieszlab.weaktype import _fd_gradient_logs

_GL = np.polynomial.legendre.leggauss(220)


def _line_integral(fn) -> float:
    nodes, weights = _GL
    return float(sum(w * fn(9.0 * t) for t, w in zip(nodes, 9.0 * weights)))


def test_heat_kernel_masses():
    x = np.array([0.7])
    t = 0.4
    mass_y = _line_integral(lambda z: heat_kernel(t, x, np.array([z])).to_float())
    mass_x = _line_integral(lambda z: heat_kernel(t, np.array([z]), x).to_float())
    assert mass_y == pytest.approx(1.0, rel=1e-10)
    assert mass_x == pytest.approx(math.exp(-t), rel=1e-10)
    with pytest.raises(ValueError):
        heat_kernel(0.0, x, x)


def test_heat_semigroup_composition():
    s, t = 0.35, 0.6
    x, y = np.array([1.0]), np.array([0.7])
    conv = _line_integral(
        lambda z: heat_kernel(s, x, np.array([z])).to_float()
        * heat_kernel(t, np.array([z]), y).to_float()
    )
    direct = heat_kernel(s + t, x, y).to_float()
    assert conv == pytest.approx(direct, rel=1e-10)


def test_heat_eigenrelation():
    beta = MultiIndex.of(2)
    t = 0.6
    lam = beta.order + 1
    for x in (0.3, 1.2):
        lhs = _line_integral(
            lambda z: heat_kernel(t, np.array([x]), np.array([z])).to_float()
            * gamma_h(beta, np.array([z])).to_float()
        )
        rhs = math.exp(-t * lam) * gamma_h(beta, np.array([x])).to_float()
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_riesz_kernel_input_validation():
    x = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        riesz_kernel(MultiIndex.of(1, 0), x, x)
    with pytest.raises(ValueError):
        riesz_kernel(MultiIndex.of(0, 0), x, x + 0.1)
    with pytest.raises(ValueError):
        riesz_kernel(MultiIndex.of(1), x, x + 0.1)
    with pytest.raises(ValueError):
        riesz_kernel(MultiIndex.of(1, 0), x, x + 0.1, form="nope")


def test_integrand_forms_differ_by_the_shared_factor():
    # at every fixed r: direct = factored * e^{-|x|^2 + |y|^2}
    rng = np.random.default_rng(41)
    alpha = MultiIndex.of(2, 1)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        r = float(rng.uniform(0.05, 0.95))
        d = riesz_integrand(alpha, r, x, y, "direct")
        f = riesz_integrand(alpha, r, x, y, "factored")
        if d.sign == 0:
            assert f.sign == 0
            continue
        shift = -float(x @ x) + float(y @ y)
        assert d.sign == f.sign
        assert d.logmag - f.logmag == pytest.approx(shift, abs=1e-10)


def test_kernel_forms_agree():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(1, 3))
        alpha = MultiIndex.axis(int(rng.integers(1, 3)), n)
        x = rng.uniform(-2, 2, size=n)
        y = x + rng.normal(size=n) * math.exp(rng.uniform(-4, 1))
        d = riesz_kernel(alpha, x, y, form="direct").value
        f = riesz_kernel(alpha, x, y, form="factored").value
        assert d.sign == f.sign
        assert d.logmag == pytest.approx(f.logmag, abs=1e-9)


def test_auto_form_follows_the_region():
    alpha = MultiIndex.of(1)
    near = riesz_kernel(alpha, np.array([0.3]), np.array([0.35]))
    far = riesz_kernel(alpha, np.array([3.0]), np.array([-3.0]))
    assert near.form == "direct"
    assert far.form == "factored"
    assert in_N(2.0, np.array([0.3]), np.array([0.35]))
    assert not in_N(2.0, np.array([3.0]), np.array([-3.0]))


def test_batch_matches_scalar_kernel():
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(20):
        n = int(rng.integers(1, 3))
        alpha = MultiIndex.axis(int(rng.integers(1, 4)), n)
        x = rng.uniform(-3, 3, size=n)
        y = x + rng.normal(size=n) * math.exp(rng.uniform(-6, 1))
        pairs.append((alpha, x, y))
    # and a deliberately tiny separation
    pairs.append((MultiIndex.of(1), np.array([0.5]), np.array([0.5 + 1e-3])))
    for alpha, x, y in pairs:
        kv = riesz_kernel(alpha, x, y)
        s, lm = riesz_kernel_batch(alpha, x[None, :], y[None, :])
        assert int(s[0]) == kv.value.sign
        assert lm[0] == pytest.approx(kv.value.logmag, abs=1e-7)


def test_batch_kernel_rows_independent_of_chunk():
    # each row's value comes from the same arithmetic whatever block it
    # lands in, so the block size cannot change a single bit
    rng = np.random.default_rng(5)
    for alpha in (MultiIndex.of(3), MultiIndex.of(2, 1), MultiIndex.of(1, 0, 2)):
        X = rng.uniform(-3, 3, size=(37, alpha.dim))
        Y = X + rng.normal(size=X.shape) * np.exp(rng.uniform(-6, 1, size=(37, 1)))
        s, lm = riesz_kernel_batch(alpha, X, Y)
        for chunk in (1, 8, 36):
            s_c, lm_c = riesz_kernel_batch(alpha, X, Y, chunk=chunk)
            assert np.array_equal(s_c, s) and np.array_equal(lm_c, lm)
        s_one, lm_one = riesz_kernel_batch(alpha, X[11], Y[11])
        assert s_one[0] == s[11] and lm_one[0] == lm[11]


def test_scalar_kernel_near_diagonal_envelope():
    # below separations of roughly 1e-3 the adaptive path cannot certify the
    # default tolerance against the boundary layer at the top of the time
    # integral; it must refuse rather than return a wrong value (the capped
    # subdivision count keeps the refusal fast)
    cfg = QuadratureConfig(max_subdivisions=300)
    with pytest.raises(NonConvergenceError):
        riesz_kernel(MultiIndex.of(1), np.array([0.5]), np.array([0.5 + 1e-5]), cfg=cfg)


def test_kernel_gradient_step_consistency():
    # halving the step keeps the central difference; no analytic gradient
    # exists, so consistency across Richardson scales is the check
    alpha = MultiIndex.of(1, 1)
    X = np.array([[0.8, -0.2]])
    Y = np.array([[0.5, 0.1]])
    g1x, g1y = _fd_gradient_logs(alpha, X, Y, fd_scale=1e-4)
    g2x, g2y = _fd_gradient_logs(alpha, X, Y, fd_scale=5e-5)
    np.testing.assert_allclose(np.exp(g1x - g2x), 1.0, rtol=1e-5)
    np.testing.assert_allclose(np.exp(g1y - g2y), 1.0, rtol=1e-5)
    with pytest.raises(ValueError):
        _fd_gradient_logs(alpha, X, X)


def test_batch_kernel_rejects_undefined_inputs():
    # the kernel is undefined on the diagonal and for non-finite points;
    # one bad row among good ones must raise rather than return a number
    alpha = MultiIndex.of(1, 0)
    X = np.array([[0.2, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError, match="diagonal"):
        riesz_kernel_batch(alpha, X, np.array([[0.6, 0.5], [0.5, 0.5]]))
    for bad in (math.nan, math.inf, -math.inf):
        Y = np.array([[0.6, 0.5], [0.5, bad]])
        with pytest.raises(ValueError, match="finite"):
            riesz_kernel_batch(alpha, X, Y)
        with pytest.raises(ValueError, match="finite"):
            riesz_kernel_batch(alpha, Y, X)


def test_scalar_kernels_reject_non_finite_inputs():
    # a NaN or inf coordinate must raise at once, before any quadrature
    alpha = MultiIndex.of(1, 0)
    x = np.array([0.2, 0.1])
    for bad in (math.nan, math.inf, -math.inf):
        y = np.array([bad, 0.0])
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="finite"):
                riesz_kernel(alpha, a, b)
            with pytest.raises(ValueError, match="finite"):
                heat_kernel(0.4, a, b)
        with pytest.raises(ValueError, match="finite"):
            heat_kernel(bad, x, x + 0.1)


def test_kernel_value_diagnostics():
    kv = riesz_kernel(MultiIndex.of(1), np.array([0.4]), np.array([0.9]))
    assert kv.subdivisions >= 0
    assert kv.err_logmag <= kv.value.logmag + math.log(1e-8)
