"""The composite Gauss-Legendre builder, and the effort and error estimates
reported by the QUADPACK-backed Riesz kernel."""

import math

import numpy as np
import pytest

import rieszlab.weaktype as wt
from rieszlab.geometry import MultiIndex
from rieszlab.kernels import riesz_kernel
from rieszlab.quadrature import gauss_legendre


def test_info_reports_effort():
    # near the diagonal the integrand piles up at small w, so QUADPACK must
    # subdivide; the error it reports stays within the requested tolerance
    kv = riesz_kernel(MultiIndex.of(1), np.array([0.5]), np.array([0.5001]))
    assert kv.subdivisions >= 1
    assert math.isfinite(kv.err_logmag)
    assert kv.err_logmag <= kv.value.logmag + math.log(1e-8)


@pytest.mark.parametrize("order", [1, 3, 12])
def test_builder_is_exact_on_polynomials(order):
    # panels of mixed width; degree 2 * order - 1 is integrated exactly on
    # each, so the composite rule is exact over their union
    edges = np.array([-1.3, -1.0, 0.0, 0.25, 2.0, 2.01])
    nodes, weights = gauss_legendre(edges, order)
    assert nodes.shape == weights.shape == (order * (edges.size - 1),)
    assert np.all((edges[0] < nodes) & (nodes < edges[-1]))
    for degree in range(2 * order):
        want = (edges[-1] ** (degree + 1) - edges[0] ** (degree + 1)) / (degree + 1)
        got = weights @ nodes**degree
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_builder_weights_sum_to_span():
    edges = np.array([0.0, 1e-6, 0.5, 3.0, 40.0])
    for order in (2, 16, 64):
        _, weights = gauss_legendre(edges, order)
        assert np.all(weights > 0.0)
        assert math.fsum(weights) == pytest.approx(40.0, rel=1e-14)


def test_second_half_panels_unchanged():
    # the former per-panel loop: 12-point panels between edges that halve
    # from 1/2 while above 1e-14, listed from the widest panel down
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    edges = [0.5]
    while edges[-1] > 1e-14:
        edges.append(edges[-1] * 0.5)
    us, ws = [], []
    for hi, lo in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        us.append(mid + half * gl_nodes)
        ws.append(np.log(half * gl_weights))
    want_u, want_logw = np.concatenate(us), np.concatenate(ws)
    # the builder lists the same panels from the narrowest up
    order = np.argsort(wt._U_NODES)
    want = np.argsort(want_u)
    np.testing.assert_allclose(wt._U_NODES[order], want_u[want], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(wt._U_LOGW[order], want_logw[want], rtol=1e-15, atol=0.0)
