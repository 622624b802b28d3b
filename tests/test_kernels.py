"""Heat and transform kernels against closed forms and mpmath references."""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from rieszlab import kernels
from rieszlab.geometry import MultiIndex
from rieszlab.hermite import gamma_h
from rieszlab.kernels import heat_kernel, riesz_kernel, riesz_kernel_batch
from rieszlab.logscaled import NEGLIGIBLE_LOGMAG
from rieszlab.quadrature import NonConvergenceError
from rieszlab.weaktype import _fd_gradient_logs, _tube

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import oracle  # noqa: E402

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
    with pytest.raises(ValueError, match="diagonal"):
        riesz_kernel(MultiIndex.of(1, 0), x, x)
    with pytest.raises(ValueError, match="order"):
        riesz_kernel(MultiIndex.of(0, 0), x, x + 0.1)
    with pytest.raises(ValueError, match="dimension"):
        riesz_kernel(MultiIndex.of(1), x, x + 0.1)


def test_scalar_kernel_matches_stored_oracle_pairs():
    # the 48 stored 30-digit mpmath references span separations 1e-6 to
    # 1e-1, orders 1-4, n = 2
    with open(os.path.join(BENCH, oracle.PAIRS_FILE)) as fh:
        pairs = json.load(fh)["pairs"]
    assert len(pairs) == 48
    riesz_kernel(MultiIndex.of(1), np.array([0.5]), np.array([1.0]))  # loads scipy
    start = time.perf_counter()
    for p in pairs:
        kv = riesz_kernel(MultiIndex.of(*p["alpha"]), np.array(p["x"]), np.array(p["y"]))
        ref = (p["sign"], p["log_value"], p["log_scale"])
        assert oracle.relative_error(kv.value.sign, kv.value.logmag, ref) <= 1e-12, p
    assert time.perf_counter() - start < 0.2 * len(pairs)


def test_scalar_kernel_cancelling_case():
    # n = 1 with an even order cancels near the diagonal: the integral is
    # far below the integral of |integrand|, so a purely relative
    # tolerance cannot be met there
    alpha, x, y = MultiIndex.of(2), np.array([0.5]), np.array([0.5 + 1e-6])
    kv = riesz_kernel(alpha, x, y)
    ref = oracle.kernel_reference((2,), x.tolist(), y.tolist())
    assert ref[1] < ref[2] - 5.0
    assert oracle.relative_error(kv.value.sign, kv.value.logmag, ref) <= 1e-12


def test_scalar_kernel_refusal_reports_state(monkeypatch):
    # a QUADPACK failure (ier != 0) must raise with its effort and error
    # estimate, not return the unconverged value
    import scipy.integrate

    def failing_quad(*args, **kwargs):
        return 0.25, 1e-3, {"last": 7}, "the maximum number of subdivisions has been achieved"

    monkeypatch.setattr(scipy.integrate, "quad", failing_quad)
    with pytest.raises(NonConvergenceError, match="subdivisions") as info:
        riesz_kernel(MultiIndex.of(1), np.array([0.5]), np.array([0.9]))
    assert info.value.subdivisions == 7
    assert math.isfinite(info.value.err_logmag)


def test_batch_matches_scalar_kernel():
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(20):
        n = int(rng.integers(1, 3))
        alpha = MultiIndex.of(int(rng.integers(1, 4)), *[0] * (n - 1))
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


def _log_mass(alpha, x, y) -> float:
    """log of the prefactor times the integral of |integrand| over r."""
    from scipy.integrate import quad

    def log_abs(t):
        g, h = kernels._log_integrand(alpha, x, y, t)
        with np.errstate(divide="ignore"):
            return g + np.log(np.abs(h))

    pts = kernels._breakpoints(x, y)
    shift = float(log_abs(pts).max())
    mass, _ = quad(
        lambda t: math.exp(log_abs(np.array([t]))[0] - shift),
        0.0,
        NEGLIGIBLE_LOGMAG,
        points=pts,
        limit=200,
        epsrel=1e-6,
    )
    return math.log(mass) + shift + kernels._riesz_prefactor(x.size, alpha.order).logmag


def test_batch_kernel_error_sweep():
    # the bound the riesz_kernel_batch docstring and the README state for
    # separations 1e-3 to 1e-1; the error is largest near 3e-3, not at 1e-3
    rng = np.random.default_rng(29)
    alphas = [MultiIndex.of(k) for k in range(1, 6)] + [
        MultiIndex.of(*a) for a in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2))
    ]
    worst = 0.0
    for alpha in alphas:
        for _ in range(16):
            x = rng.normal(size=alpha.dim)
            x *= 10.0 ** rng.uniform(math.log10(0.2), math.log10(8.0)) / np.linalg.norm(x)
            step = rng.normal(size=alpha.dim)
            y = x + step * 10.0 ** rng.uniform(-3.0, -1.0) / np.linalg.norm(step)
            kv = riesz_kernel(alpha, x, y).value
            s, lm = riesz_kernel_batch(alpha, x[None, :], y[None, :])
            scale = _log_mass(alpha, x, y)
            err = abs(s[0] * math.exp(lm[0] - scale) - kv.sign * math.exp(kv.logmag - scale))
            worst = max(worst, err)
    assert worst <= 3e-7


def _tube_ball_pairs(eta: float, count: int, rng):
    """count (x, y) with x in the n = 2 counterexample tube and y in the
    unit ball at (eta, eta)."""
    q, (lo, hi), w = _tube(2, eta)
    for _ in range(count):
        x = np.array([rng.uniform(lo, hi), rng.uniform(-w, w)]) @ q.T
        d = rng.normal(size=2)
        y = np.full(2, eta) + d / np.linalg.norm(d) * math.sqrt(rng.uniform())
        yield x, y


def test_batch_kernel_tube_pairs_match_scalar():
    # far tube/ball pairs, where a large share of the rule's terms lie more
    # than NEGLIGIBLE_LOGMAG below their row's largest and are summed as 0;
    # the bound is the worst error of the all-terms sum (1.48e-12, at eta
    # 20).  Against a long-double sum of the same rule, which leaves the
    # rule's own error out, the worst is one ulp of log|K| at eta 20
    # (1.14e-13, its ulp on [-1024, -512)); the bound adds one more
    rng = np.random.default_rng(31)
    worst, worst_rule, dead = 0.0, 0.0, []
    for eta in (4.0, 10.0, 20.0):
        for entries in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2)):
            alpha = MultiIndex.of(*entries)
            r, inv_s, logw = kernels._batch_rule(2, alpha.order)
            for x, y in _tube_ball_pairs(eta, 3, rng):
                kv = riesz_kernel(alpha, x, y).value
                s, lm = riesz_kernel_batch(alpha, x[None, :], y[None, :])
                scale = _log_mass(alpha, x, y)
                err = abs(s[0] * math.exp(lm[0] - scale) - kv.sign * math.exp(kv.logmag - scale))
                worst = max(worst, err)
                s_ld, lm_ld = _rule_sum_long_double(alpha, x, y)
                err = abs(s[0] * math.exp(lm[0] - scale) - s_ld * math.exp(lm_ld - scale))
                worst_rule = max(worst_rule, err)
                u = (x[:, None] - np.outer(y, r)) * inv_s
                g = logw - (u * u).sum(axis=0)
                dead.append(np.mean(g - g.max() < -NEGLIGIBLE_LOGMAG))
    assert np.mean(dead) >= 0.4
    assert worst <= 1.5e-12
    assert worst_rule <= 2.3e-13


def test_batch_kernel_exp_stays_off_underflow(monkeypatch):
    # np.exp is 10-100x slower on arguments below about -708; at eta = 20
    # most nodes of these pairs lie far below that against their row max
    seen = []

    class _RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(a, *args, **kwargs):
            seen.append(float(np.min(a)))
            return np.exp(a, *args, **kwargs)

    pairs = list(_tube_ball_pairs(20.0, 64, np.random.default_rng(3)))
    X = np.array([x for x, _ in pairs])
    Y = np.array([y for _, y in pairs])
    nodes = kernels._batch_rule(2, 3)[0].size
    monkeypatch.setattr(kernels, "_BLOCK_PAIR_NODES", 16 * nodes)
    monkeypatch.setattr(kernels, "np", _RecordingNumpy())
    riesz_kernel_batch(MultiIndex.of(2, 1), X, Y)
    assert seen and min(seen) >= -NEGLIGIBLE_LOGMAG


def test_batch_kernel_zero_hermite_factor():
    # H_1(u_1) = 2 u_1 = 0 at every node when x_1 = y_1 = 0: an exact zero,
    # which leaves the other rows of its block alone
    alpha = MultiIndex.of(1, 0)
    X = np.array([[0.0, 0.3], [0.2, 0.3]])
    Y = np.array([[0.0, 0.9], [0.4, 0.9]])
    s, lm = riesz_kernel_batch(alpha, X, Y)
    assert s[0] == 0 and lm[0] == -np.inf
    s_one, lm_one = riesz_kernel_batch(alpha, X[1], Y[1])
    assert s[1] == s_one[0] != 0 and lm[1] == lm_one[0]


def test_batch_kernel_hermite_overflow():
    # H_40 overflows at the far rule nodes of this pair, where the Gaussian
    # leaves nothing: those terms are 0, and the value matches a 30-digit
    # mpmath reference, kernel_reference((40,), [0.5], [1.5])
    x, y = np.array([[0.5]]), np.array([[1.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, lm = riesz_kernel_batch(MultiIndex.of(40), x, y)
    ref = (-1, 65.74151517305586, 65.74151517305587)
    assert oracle.relative_error(int(s[0]), float(lm[0]), ref) <= 1e-8
    # H_300 overflows where the terms live: no number is right, so it raises
    with pytest.raises(ValueError, match="order 300"):
        riesz_kernel_batch(MultiIndex.of(300), x, y)


def test_scalar_kernel_hermite_overflow():
    # H_40 overflows at t -> 0, where the Gaussian leaves nothing, and the
    # mass sits toward r = 0 (t near 19); the batch kernel's value agrees
    # with the 30-digit mpmath reference to 6.4e-10
    x, y = np.array([0.5]), np.array([1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kv = riesz_kernel(MultiIndex.of(40), x, y)
    s, lm = riesz_kernel_batch(MultiIndex.of(40), x[None, :], y[None, :])
    assert kv.value.sign == s[0] == -1
    assert abs(kv.value.logmag - lm[0]) <= 1e-9
    with pytest.raises(ValueError, match="order 300"):
        riesz_kernel(MultiIndex.of(300), x, y)


def test_scalar_kernel_zero_hermite_factor():
    # H_1(u_1) = 2 u_1 = 0 at every node when x_1 = y_1 = 0: an exact zero,
    # as the batch kernel gives, not a QUADPACK call with no tolerance left
    kv = riesz_kernel(MultiIndex.of(1, 0), np.array([0.0, 0.3]), np.array([0.0, 0.9]))
    assert kv.value.sign == 0 and kv.value.logmag == -math.inf


def test_row_blocks_cover_rows_once_in_order():
    budget = kernels._BLOCK_PAIR_NODES
    for m, nodes in ((0, 432), (5, 432), (75, 432), (1000, 432), (3, budget + 1), (7, 2 * budget)):
        blocks = kernels._row_blocks(m, nodes)
        rows = np.concatenate([np.arange(m)[b] for b in blocks] or [np.arange(0)])
        assert np.array_equal(rows, np.arange(m))
        assert all(b.stop - b.start == max(1, budget // nodes) for b in blocks[:-1])
        if nodes > budget:
            assert len(blocks) == m
    assert [b.stop for b in kernels._row_blocks(10, 432, 4)] == [4, 8, 10]


def test_batch_kernel_zero_rows():
    s, lm = riesz_kernel_batch(MultiIndex.of(2, 1), np.empty((0, 2)), np.empty((0, 2)))
    assert s.shape == lm.shape == (0,)


def test_batch_kernel_rows_independent_of_chunk(monkeypatch):
    # each row's value comes from the same arithmetic whatever block it
    # lands in, so the block size cannot change a single bit; single-row
    # calls take the lone-row product, and the boundary form (lower = 0)
    # runs the same blocks, with no u at all for alpha (1,0)
    rng = np.random.default_rng(5)
    cases = [(MultiIndex.of(3), None), (MultiIndex.of(2, 1), None), (MultiIndex.of(1, 0, 2), None)]
    cases += [(MultiIndex.of(1, 0), 0), (MultiIndex.of(2, 1), 0)]
    for alpha, lower in cases:
        X = rng.uniform(-3, 3, size=(37, alpha.dim))
        Y = X + rng.normal(size=X.shape) * np.exp(rng.uniform(-6, 1, size=(37, 1)))
        s, lm = kernels._riesz_batch(alpha, X, Y, lower)
        nodes = kernels._exponent_rule(alpha.dim, alpha.order, lower is not None)[0].shape[1]
        with monkeypatch.context() as patch:
            for chunk in (1, 8, 36):
                patch.setattr(kernels, "_BLOCK_PAIR_NODES", chunk * nodes)
                s_c, lm_c = kernels._riesz_batch(alpha, X, Y, lower)
                assert np.array_equal(s_c, s) and np.array_equal(lm_c, lm)
        for i in range(len(X)):
            s_one, lm_one = kernels._riesz_batch(alpha, X[i], Y[i], lower)
            assert s_one[0] == s[i] and lm_one[0] == lm[i]


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


_NO_SCIPY = """
import sys
import numpy as np
import rieszlab, rieszlab.cli
print('scipy.integrate' in sys.modules)
from rieszlab import MultiIndex
from rieszlab.apply import GridFunction, PVConfig, apply_riesz
from rieszlab.kernels import riesz_kernel_batch
from rieszlab.spectral import SpectralCoefficients, synthesize
riesz_kernel_batch(MultiIndex.of(2, 1), np.array([[0.5, 1.0]]), np.array([[1.5, 0.2]]))
c = SpectralCoefficients(
    n=1, max_degree=3, coeffs={(0,): 0.9, (2,): -0.35, (3,): 0.2}, top_shell_fraction=0.0
)
f = GridFunction(
    n=1, points=np.zeros((1, 1)), values=np.zeros(1),
    evaluator=lambda pts: synthesize(c, np.atleast_2d(pts)),
    support_center=np.zeros(1), support_radius=8.5,
)
print(np.isfinite(apply_riesz(MultiIndex.of(1), f, np.array([0.7]), pv=PVConfig(rel_tol=5e-3))))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs about a third of a second to import; only
    # riesz_kernel needs it, so it loads on the first call.  scipy.special,
    # another quarter second and 17 MiB, loads only in the weaktype
    # functions that call it: importing the package and the CLI, a batch
    # kernel call and a principal-value point, as in the `pv` benchmark
    # workload, load no scipy module at all
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(BENCH), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == ["False", "True", "[]"]


def _full_rule(monkeypatch, alpha, X, Y):
    """riesz_kernel_batch with every row's window the whole rule."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_WINDOW_CUT", math.inf)
        return riesz_kernel_batch(alpha, X, Y)


def _shell_pairs(seps, rng, n: int = 2):
    """(x, y) with |x| from 0.2 to 4 and y at distance sep in a random
    direction, as on a principal-value shell around x."""
    for sep in seps:
        x = rng.normal(size=n)
        x *= rng.uniform(0.2, 4.0) / np.linalg.norm(x)
        d = rng.normal(size=n)
        yield x, x + sep * d / np.linalg.norm(d)


def test_batch_kernel_window_matches_full_rule(monkeypatch):
    # the window drops segments whose probe is more than e^-40 below the
    # row's largest; the error that leaves is far below the rule's own
    rng = np.random.default_rng(41)
    pairs = []
    for entries in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2)):
        alpha = MultiIndex.of(*entries)
        for eta in (4.0, 10.0, 20.0):
            pairs += [(alpha, x, y) for x, y in _tube_ball_pairs(eta, 3, rng)]
        pairs += [(alpha, x, y) for x, y in _shell_pairs(np.geomspace(1.6e-3, 1.0, 6), rng)]
    for k in (1, 2, 3):
        alpha = MultiIndex.of(k)
        pairs += [(alpha, x, y) for x, y in _shell_pairs(np.geomspace(1.6e-3, 1.0, 4), rng, 1)]
    worst = 0.0
    for alpha, x, y in pairs:
        s, lm = riesz_kernel_batch(alpha, x[None, :], y[None, :])
        s_full, lm_full = _full_rule(monkeypatch, alpha, x[None, :], y[None, :])
        assert s[0] == s_full[0]
        scale = _log_mass(alpha, x, y)
        err = abs(s[0] * math.exp(lm[0] - scale) - s_full[0] * math.exp(lm_full[0] - scale))
        worst = max(worst, err)
    assert worst <= 1e-13


def test_batch_kernel_guard_sums_cancelled_rows_over_the_whole_rule(monkeypatch):
    # at x = 6, y = 6.1 the n = 1, alpha (2) sum cancels to 2e-15 of its
    # largest term, which sends the row to the whole rule; the cancelling
    # pair of the scalar kernel's test gives the full-rule bits as well
    alpha = MultiIndex.of(2)
    segs = kernels._batch_rule(1, 2)[0].size // kernels._SEGMENT
    windows = []
    window_sums = kernels._window_sums

    def spy(ks, rule, F, args, lo, hi, *rest):
        windows.append((int(lo.min()), int(hi.max())))
        return window_sums(ks, rule, F, args, lo, hi, *rest)

    for x, y, redone in ((0.5, 0.5 + 1e-6, False), (6.0, 6.1, True)):
        X, Y = np.array([[x]]), np.array([[y]])
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_window_sums", spy)
            windows.clear()
            s, lm = riesz_kernel_batch(alpha, X, Y)
        assert (len(windows) == 2 and windows[1] == (0, segs)) == redone
        s_full, lm_full = _full_rule(monkeypatch, alpha, X, Y)
        assert s[0] == s_full[0] and lm[0] == lm_full[0]


def test_batch_kernel_rows_independent_of_block_mates():
    # a far tube row has a narrow window and a near-diagonal row a wide
    # one; in one block each must keep the bits it has alone
    alpha = MultiIndex.of(2, 1)
    (x_far, y_far), = _tube_ball_pairs(10.0, 1, np.random.default_rng(7))
    x_near = np.array([0.7, -0.4])
    y_near = x_near + np.array([0.6, 0.8]) * 1e-5
    X, Y = np.array([x_far, x_near]), np.array([y_far, y_near])
    rule = kernels._exponent_rule(2, alpha.order)
    lo, hi, _ = kernels._windows(rule, kernels._features(X, Y))
    assert hi[0] - lo[0] < hi[1] - lo[1]
    s, lm = riesz_kernel_batch(alpha, X, Y)
    for i in (0, 1):
        s_one, lm_one = riesz_kernel_batch(alpha, X[i], Y[i])
        assert s_one[0] == s[i] and lm_one[0] == lm[i]


def test_batch_rule_is_sorted_by_r():
    for n, order in ((1, 1), (1, 4), (2, 3), (3, 5)):
        r, inv_s, logw = kernels._batch_rule(n, order)
        assert r.size == inv_s.size == logw.size
        assert r.size % kernels._SEGMENT == 0
        assert np.all(np.diff(r) >= 0.0) and 0.0 < r[0] and r[-1] <= 1.0
        assert np.all(np.isfinite(inv_s)) and np.all(np.isfinite(logw))


def _peak_pairs(count: int, rng, n: int = 2):
    """(x, y) whose peak r* = x.y/|y|^2 lies in (0.05, 0.95): x = r* y plus
    a part orthogonal to y."""
    for _ in range(count):
        y = rng.normal(size=n)
        y *= rng.uniform(1.0, 5.0) / np.linalg.norm(y)
        e = rng.normal(size=n)
        e -= (e @ y) / (y @ y) * y
        yield rng.uniform(0.05, 0.95) * y + rng.uniform(0.05, 1.0) * e, y


def _exponent_long_double(alpha, x, y):
    """(g, u) over the whole rule, in long double from the rule's own nodes:
    g = log weight - |u|^2, u = ((x - y) + w y)/s, w = 1 - r."""
    nodes = kernels._rule_nodes(x.size, alpha.order, False)
    r, w, s2, logw = (a.astype(np.longdouble) for a in nodes)
    x, y = x.astype(np.longdouble), y.astype(np.longdouble)
    u = ((x - y)[:, None] + np.outer(y, w)) / np.sqrt(s2)
    return logw - (u * u).sum(axis=0), u


def _rule_sum_long_double(alpha, x, y) -> tuple[int, float]:
    """(sign, log|K|) from a long-double sum over the whole batch rule."""
    g, u = _exponent_long_double(alpha, x, y)
    h = np.ones_like(g)
    for k, uj in zip(alpha, u):
        prev, cur = np.ones_like(uj), 2 * uj
        for j in range(1, k):
            prev, cur = cur, 2 * uj * cur - 2 * j * prev
        h *= cur if k else prev
    shift = g.max()
    total = np.sum(np.exp(g - shift) * h)
    pref = kernels._riesz_prefactor(x.size, alpha.order)
    return int(np.sign(total)) * pref.sign, float(np.log(np.abs(total)) + shift + pref.logmag)


def test_batch_exponent_matches_long_double(monkeypatch):
    # g - shift and u_j as _window_sums forms them, caught on their way
    # into _panel_sums with the row's shift (its largest probe): with
    # alpha = e_j the Hermite product is 2 u_j exactly.  On live nodes (g
    # within 750 of the row's largest) both match a long-double evaluation
    # to 1e-11 (measured 9.0e-13 and 1.1e-14)
    rng = np.random.default_rng(43)
    pairs = [p for eta in (4.0, 10.0, 20.0, 40.0) for p in _tube_ball_pairs(eta, 4, rng)]
    pairs += list(_shell_pairs(np.repeat(np.geomspace(1e-6, 1.0, 7), 2), rng))
    pairs += list(_peak_pairs(8, rng))
    seen = []
    panel_sums = kernels._panel_sums

    def spy(g, cuts, lo, hi, dead, h, shift):
        nodes = slice(cuts[lo.min()], cuts[hi.max()])
        seen.append((nodes, g[0] + np.longdouble(shift[0]), h[0] / 2.0))
        return panel_sums(g, cuts, lo, hi, dead, h, shift)

    worst_g = worst_u = 0.0
    for x, y in pairs:
        g_ref, u_ref = _exponent_long_double(MultiIndex.of(1, 0), x, y)
        live = g_ref >= g_ref.max() - 750.0
        for j in (0, 1):
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_panel_sums", spy)
                riesz_kernel_batch(MultiIndex.of(*np.eye(2, dtype=int)[j]), x[None], y[None])
            assert seen
            for nodes, g, u in seen:
                keep = live[nodes]
                worst_g = max(worst_g, float(np.abs(g - g_ref[nodes])[keep].max()))
                worst_u = max(worst_u, float(np.abs(u - u_ref[j, nodes])[keep].max()))
    assert worst_g <= 1e-11 and worst_u <= 1e-11



def test_batch_kernel_probe_shift_headroom(monkeypatch):
    # each row's terms are e^(g - shift) with shift its largest probe, not
    # its window's largest g: over tube pairs (eta 4-40, both forms) and
    # near-diagonal pairs (separations 1e-8 to 10, n = 1 and 2) the window
    # max exceeds the probe max by at most 17.1 (measured), far from exp's
    # overflow at 709, so no row takes the exact-max redo
    rng = np.random.default_rng(47)
    tube = [p for eta in (4.0, 10.0, 20.0, 40.0) for p in _tube_ball_pairs(eta, 8, rng)]
    seps = np.repeat(np.geomspace(1e-8, 10.0, 10), 2)
    families = [
        (tube, ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2))),
        (list(_shell_pairs(seps, rng)), ((1, 0), (2, 1), (3, 2))),
        (list(_shell_pairs(seps, rng, 1)), ((1,), (2,), (5,))),
    ]
    heads = []
    panel_sums = kernels._panel_sums

    def spy(g, cuts, lo, hi, dead, h, shift):
        assert shift is not None
        first = cuts[lo.min()]
        heads.extend(g[i, cuts[lo[i]] - first : cuts[hi[i]] - first].max() for i in range(len(g)))
        return panel_sums(g, cuts, lo, hi, dead, h, shift)

    monkeypatch.setattr(kernels, "_panel_sums", spy)
    for pairs, alphas in families:
        X, Y = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
        for entries in alphas:
            alpha = MultiIndex.of(*entries)
            for lower in (None, 0):
                heads.clear()
                s, lm = kernels._riesz_batch(alpha, X, Y, lower)
                assert np.all(s != 0) and np.isfinite(lm).all()
                assert len(heads) >= len(X) and max(heads) <= 100.0


def test_batch_kernel_redoes_overflowing_rows_under_their_exact_max(monkeypatch):
    # a probe max 800 below the window's largest g overflows exp; the row
    # is then summed again under its exact max, and only a Hermite factor
    # that overflows at a live node still raises
    rng = np.random.default_rng(53)
    pairs = list(_tube_ball_pairs(10.0, 4, rng)) + list(_shell_pairs([1e-6, 1e-2, 1.0], rng))
    X, Y = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    alpha = MultiIndex.of(2, 1)
    s, lm = riesz_kernel_batch(alpha, X, Y)
    x, y = np.array([[0.5]]), np.array([[1.5]])
    windows = kernels._windows

    def low_shift(rule, F):
        lo, hi, neg_shift = windows(rule, F)
        return lo, hi, neg_shift + 800.0

    monkeypatch.setattr(kernels, "_windows", low_shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s_low, lm_low = riesz_kernel_batch(alpha, X, Y)
        s_40, lm_40 = riesz_kernel_batch(MultiIndex.of(40), x, y)
    assert np.array_equal(s_low, s) and np.max(np.abs(lm_low - lm)) <= 1e-13
    ref = (-1, 65.74151517305586, 65.74151517305587)
    assert oracle.relative_error(int(s_40[0]), float(lm_40[0]), ref) <= 1e-8
    with pytest.raises(ValueError, match="order 300"):
        riesz_kernel_batch(MultiIndex.of(300), x, y)
