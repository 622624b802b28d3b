"""Tests for the transform apply path: excised ladder, support sums, and the
refusal of undefined input."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import rieszlab.apply as apply_mod
from rieszlab import MultiIndex
from rieszlab.apply import GridFunction, PVConfig, apply_riesz, ball_indicator
from rieszlab.hermite import gamma_h
from rieszlab.kernels import riesz_kernel, riesz_kernel_batch
from rieszlab.logscaled import LogScaled, log_sum, signed_logsumexp
from rieszlab.quadrature import NonConvergenceError

RADIUS = 8.5


def gaussian_fn(n: int) -> GridFunction:
    """Normalized Gaussian as a GridFunction with an analytic evaluator.

    This is the lowest member of the expansion family, so the transform of
    it has a closed form through the coefficient ladder.
    """

    def evaluator(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return math.pi ** (-0.5 * n) * np.exp(-np.sum(pts * pts, axis=1))

    return GridFunction(
        n=n,
        points=np.empty((0, n)),
        values=np.empty(0),
        evaluator=evaluator,
        support_center=np.zeros(n),
        support_radius=RADIUS,
    )


class TestValidation:
    def test_needs_evaluator(self):
        f = GridFunction(n=1, points=np.zeros((1, 1)), values=np.ones(1))
        with pytest.raises(ValueError):
            apply_riesz(MultiIndex.of(1), f, np.array([0.5]))

    def test_dimension_mismatch(self):
        f = gaussian_fn(2)
        with pytest.raises(ValueError):
            apply_riesz(MultiIndex.of(1), f, np.array([0.5, 0.5]))

    def test_order_zero_rejected(self):
        f = gaussian_fn(1)
        with pytest.raises(ValueError):
            apply_riesz(MultiIndex.of(0), f, np.array([0.5]))

    def test_even_order_on_support_rejected(self):
        # components all even: the excised limit misses a diagonal term,
        # so the pointwise path refuses anywhere near the support
        f = gaussian_fn(1)
        with pytest.raises(ValueError):
            apply_riesz(MultiIndex.of(2), f, np.array([0.5]))

    def test_dimension_three_excised_not_implemented(self):
        f = gaussian_fn(3)
        with pytest.raises(NotImplementedError):
            apply_riesz(MultiIndex.of(1, 0, 0), f, np.array([0.5, 0.0, 0.0]))

    def test_dimension_three_off_support_not_implemented(self):
        f = gaussian_fn(3)
        with pytest.raises(NotImplementedError):
            apply_riesz(MultiIndex.of(1, 0, 0), f, np.array([RADIUS + 2.0, 0.0, 0.0]))

    def test_pv_config_validation(self):
        with pytest.raises(ValueError):
            PVConfig(rel_tol=0.0)

    def test_nan_point_rejected(self):
        f = gaussian_fn(1)
        with pytest.raises(ValueError):
            apply_riesz(MultiIndex.of(1), f, np.array([math.nan]))

    def test_pv_config_nan_tolerance_rejected(self):
        # a NaN tolerance would make every ladder check pass
        with pytest.raises(ValueError):
            PVConfig(rel_tol=math.nan)

    def test_pv_config_infinite_tolerance_rejected(self):
        with pytest.raises(ValueError):
            PVConfig(rel_tol=math.inf)

    def test_nan_support_radius_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(
                n=1,
                points=np.empty((0, 1)),
                values=np.empty(0),
                support_center=np.zeros(1),
                support_radius=math.nan,
            )


class TestCoefficientLadderOracle:
    """The transform of the lowest family member has a closed form: the
    order-1 transform maps it to -sqrt(2) times the next member, and the
    general factor is (-1)^|a| 2^{|a|/2} sqrt((b+a)!/b!) (|b|+n)^{-|a|/2}."""

    def test_order_one_dimension_one(self):
        f = gaussian_fn(1)
        alpha = MultiIndex.of(1)
        for x in (0.5, 1.0, 2.0):
            got = apply_riesz(alpha, f, np.array([x]))
            want = -math.sqrt(2.0) * gamma_h(alpha, np.array([x])).to_float()
            assert abs(got - want) <= 1e-5 * abs(want)

    def test_order_three_dimension_one(self):
        f = gaussian_fn(1)
        got = apply_riesz(MultiIndex.of(3), f, np.array([0.5]))
        factor = -2.0 * math.sqrt(2.0) * math.sqrt(6.0)
        want = factor * gamma_h(MultiIndex.of(3), np.array([0.5])).to_float()
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_mixed_order_dimension_two(self):
        f = gaussian_fn(2)
        # (1,0): factor -2^{1/2} * sqrt(1) * 2^{-1/2} = -1
        got = apply_riesz(MultiIndex.of(1, 0), f, np.array([0.7, -0.3]))
        want = -1.0 * gamma_h(MultiIndex.of(1, 0), np.array([0.7, -0.3])).to_float()
        assert abs(got - want) <= 5e-4 * abs(want)

    def test_order_two_mixed_dimension_two(self):
        f = gaussian_fn(2)
        # (1,1): factor (+1) * 2 * sqrt(1) * 2^{-1} = 1
        alpha = MultiIndex.of(1, 1)
        for pt in ([0.4, 0.9], [-1.2, 0.5]):
            got = apply_riesz(alpha, f, np.array(pt))
            want = gamma_h(alpha, np.array(pt)).to_float()
            assert abs(got - want) <= 5e-4 * abs(want)


class TestClearancePath:
    def test_even_order_off_support_matches_direct_quadrature(self):
        # far from the support the even-order guard does not apply; the
        # support sum must match a scalar adaptive quadrature of the same
        # truncated integral (log-shifted so floats stay representable)
        f = gaussian_fn(1)
        alpha = MultiIndex.of(2)
        x = np.array([9.5])
        got = apply_riesz(alpha, f, x)
        shift = 9.5**2

        def integrand(y: float) -> float:
            kv = riesz_kernel(alpha, x, np.array([y]))
            fy = math.pi**-0.5 * math.exp(-y * y)
            return kv.value.sign * math.exp(kv.value.logmag + shift) * fy

        want, err = quad(integrand, -RADIUS, RADIUS, limit=300, epsrel=1e-11)
        assert err <= 1e-9 * abs(want)
        assert abs(got * math.exp(shift) - want) <= 1e-9 * abs(want)


class TestKernelSums:
    def test_row_chunks_are_bit_identical_and_within_budget(self, monkeypatch):
        # a budget of 40 pairs puts 3 rows of 12 nodes in each kernel call,
        # so 8 rows take three calls; every row's sum is its own, so the
        # chunked call, one-row calls and the one-x form that broadcasts x
        # over the nodes give the same bits
        alpha = MultiIndex.of(2, 1)
        rng = np.random.default_rng(4)
        nodes = rng.normal(size=(12, 2)) * 0.5
        logw = rng.uniform(-3.0, 0.0, size=12)
        log_f = rng.uniform(-1.0, 1.0, size=12)
        f_sign = rng.choice([-1.0, 1.0], size=12)
        X = rng.normal(size=(8, 2)) + 3.0
        pairs = []

        def counted(alpha, X, Y):
            pairs.append(X.shape[0])
            return riesz_kernel_batch(alpha, X, Y)

        monkeypatch.setattr(apply_mod, "_SUM_PAIRS", 40)
        monkeypatch.setattr(apply_mod, "riesz_kernel_batch", counted)
        signs, logmags = apply_mod._kernel_sums_log(alpha, X, nodes, logw, log_f, f_sign)
        assert pairs == [36, 36, 24]
        for i, x in enumerate(X):
            s1, l1 = apply_mod._kernel_sums_log(alpha, x[None, :], nodes, logw, log_f, f_sign)
            assert (s1[0], l1[0]) == (signs[i], logmags[i])
            k_sign, k_log = riesz_kernel_batch(alpha, np.broadcast_to(x, nodes.shape), nodes)
            s2, l2 = signed_logsumexp(
                (k_log + logw + log_f)[None, :], (k_sign * f_sign)[None, :], axis=1
            )
            assert (s2[0], l2[0]) == (signs[i], logmags[i])
        assert max(pairs) <= 40


    def test_batched_ladder_matches_per_shell_sums(self, monkeypatch):
        # the four ladder shells go to the kernel in one call; kernel rows
        # do not depend on their block-mates, so each rung keeps the bits of
        # the per-shell loop below, one kernel call per shell.  A signed f
        # and an indicator whose zeros drop nodes cover both node filters
        def signed(n):
            g = gaussian_fn(n)
            g.evaluator = lambda pts, e=g.evaluator: e(pts) * (np.atleast_2d(pts)[:, 0] - 0.3)
            return g

        def per_shell(alpha, f, x):
            dist = float(np.linalg.norm(x - f.support_center))
            eps = [apply_mod._PV_EPSILON / 2.0**i for i in range(apply_mod._PV_LEVELS)]
            ladder = []
            for lo, hi in zip(eps, [dist + f.support_radius, *eps[:-1]]):
                radial = apply_mod._radial_rule(lo, hi, geometric=True)
                pts, logw = apply_mod._polar_nodes(x, *radial, apply_mod._ANGULAR_NODES)
                fv = f.evaluator(pts)
                live = fv != 0.0
                shell = LogScaled.zero()
                if live.any():
                    s, lm = apply_mod._kernel_sums_log(
                        alpha, x[None, :], pts[live], logw[live],
                        np.log(np.abs(fv[live])), np.sign(fv[live]),
                    )
                    shell = LogScaled.from_log(float(lm[0]), int(s[0]))
                ladder.append(log_sum([ladder[-1], shell]) if ladder else shell)
            return ladder

        seen, calls = [], []
        extrapolate = apply_mod._extrapolate_ladder

        def spy(values, eps, rel_tol):
            seen.append(values)
            return extrapolate(values, eps, rel_tol)

        def counted(alpha, X, Y):
            calls.append(len(X))
            return riesz_kernel_batch(alpha, X, Y)

        cases = [
            (MultiIndex.of(1), signed(1), np.array([0.4])),
            (MultiIndex.of(3), gaussian_fn(1), np.array([-0.7])),
            (MultiIndex.of(2, 1), signed(2), np.array([0.5, -0.2])),
            (MultiIndex.of(1, 0), ball_indicator(2, [0.3, 0.0], 0.5), np.array([0.75, 0.1])),
        ]
        for alpha, f, x in cases:
            seen.clear()
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(apply_mod, "_extrapolate_ladder", spy)
                patch.setattr(apply_mod, "riesz_kernel_batch", counted)
                apply_mod._apply_log(alpha, f, x, PVConfig(rel_tol=1.0))
            assert len(seen) == 1 and len(calls) == 1
            want = per_shell(alpha, f, x)
            assert [(v.sign, v.logmag) for v in seen[0]] == [(v.sign, v.logmag) for v in want]


class TestLadderFailure:
    def test_coarse_ladder_raises(self):
        # the four-level ladder's two fits disagree by about 2e-7 here, so
        # a tolerance of 1e-9 must fire the disagreement check
        f = gaussian_fn(1)
        pv = PVConfig(rel_tol=1e-9)
        with pytest.raises(NonConvergenceError) as info:
            apply_riesz(MultiIndex.of(1), f, np.array([0.5]), pv=pv)
        assert info.value.subdivisions == 4


class TestBallIndicator:
    def test_evaluator_and_support(self):
        f = ball_indicator(2, [1.0, 0.0], 0.5)
        pts = np.array([[1.0, 0.0], [1.4, 0.0], [1.6, 0.0], [1.0, 0.49]])
        np.testing.assert_allclose(f.evaluator(pts), [1.0, 1.0, 0.0, 1.0])
        assert f.support_radius == 0.5
        np.testing.assert_allclose(f.support_center, [1.0, 0.0])

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            ball_indicator(1, [0.0], 0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError):
            ball_indicator(1, [0.0], radius)

    def test_nan_center_rejected(self):
        # with a NaN center the indicator is 0 everywhere and the transform
        # would read 0.0
        with pytest.raises(ValueError):
            ball_indicator(1, [math.nan], 0.5)
