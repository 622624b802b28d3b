"""Tests for measures, level sets, comparison kernels, sweeps, and the tube
growth experiment."""

import json
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq

import rieszlab.weaktype as wt
from rieszlab import MultiIndex
from rieszlab.apply import _kernel_sums_log, _polar_nodes, apply_riesz, ball_indicator
from rieszlab.kernels import _riesz_batch, riesz_kernel_batch
from rieszlab.logscaled import signed_logsumexp
from rieszlab.quadrature import gauss_legendre
from rieszlab.regions import sample_global_pairs, sample_local_pairs
from test_regions import in_N


class TestBallMeasure:
    def test_dimension_one_closed_form(self):
        # centered: pi * erfi(t)
        for t in (0.3, 1.3, 2.5):
            got = wt.gamma_inv_ball_log(1, [0.0], t).to_float()
            want = math.pi * special.erfi(t)
            assert abs(got - want) <= 1e-12 * want

    def test_dimension_two_closed_form(self):
        # centered: pi^2 (e^{R^2} - 1)
        for r in (0.5, 1.1, 2.0):
            got = wt.gamma_inv_ball_log(2, [0.0, 0.0], r).to_float()
            want = math.pi**2 * math.expm1(r * r)
            assert abs(got - want) <= 1e-12 * want

    def test_dimension_one_off_center_closed_form(self):
        # sqrt(pi) int_{c-r}^{c+r} e^{x^2} dx = (pi/2) (erfi(c+r) - erfi(c-r))
        for c, r in ((0.8, 0.3), (-1.7, 1.2), (3.0, 0.5)):
            got = wt.gamma_inv_ball_log(1, [c], r).to_float()
            want = 0.5 * math.pi * (special.erfi(c + r) - special.erfi(c - r))
            assert abs(got - want) <= 1e-12 * want

    def test_off_center_matches_scipy_quadrature(self):
        # pi * int over the ball of e^{|x|^2}, in polar coordinates around c
        c = np.array([0.8, -0.4])
        r = 0.7
        got = wt.gamma_inv_ball_log(2, c, r).to_float()

        def density(theta, rho):
            x = c + rho * np.array([math.cos(theta), math.sin(theta)])
            return math.pi * math.exp(float(x @ x)) * rho

        want, err = dblquad(density, 0.0, r, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-12)
        assert err <= 1e-11 * want
        assert abs(got - want) <= 1e-10 * want

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            wt.gamma_inv_ball_log(1, [0.0], 0.0)

    def test_non_finite_radius_or_center_rejected(self):
        # a NaN would otherwise give the measure of the empty set, LogScaled(0)
        for center, radius in (([0.0], math.nan), ([0.0], math.inf), ([math.nan], 1.0)):
            with pytest.raises(ValueError):
                wt.gamma_inv_ball_log(1, center, radius)

    def test_radial_measure_branches_agree(self):
        # the asymptotic branch takes over at t = 25; erfi(26) still fits
        # in a float, so both expressions are computable there
        got = float(wt._log_radial_ball_measure(1, np.array([26.0]))[0])
        want = math.log(math.pi) + math.log(float(special.erfi(26.0)))
        assert abs(got - want) <= 1e-6

    def test_dimension_three_not_implemented(self):
        # the closed-form direction integral exists for n <= 2 only
        with pytest.raises(NotImplementedError):
            wt.gamma_inv_ball_log(3, [0.0, 0.0, 0.0], 1.0)


class TestGaussSquareCells:
    def test_cells_match_adaptive_quadrature(self):
        edges = np.array([-1.5, -0.3, 0.0, 0.4, 2.0])
        got = wt._log_gauss_sq_cells(edges)
        for (a, b), lg in zip(zip(edges[:-1], edges[1:]), got):
            want, _ = quad(lambda u: math.exp(u * u), a, b, epsrel=1e-13)
            assert abs(math.exp(lg) - want) <= 1e-12 * want

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            wt._log_gauss_sq_cells(np.array([0.0, 1.0, 0.5]))


class TestLevelSetReport:
    def make_cells(self, values):
        # |Tf| per cell and the cell masses of 0.01-wide cells on [0.4, 0.8]
        values = np.asarray(values, dtype=float)
        points = np.linspace(0.4, 0.8, values.size)
        masses = 0.01 * math.sqrt(math.pi) * np.exp(points**2)
        with np.errstate(divide="ignore"):
            return values, np.log(values), masses

    def test_masses_must_match_values(self):
        with pytest.raises(ValueError):
            wt.level_set_report(np.zeros(3), np.zeros(2))

    def test_explicit_grid_is_exact(self):
        # on its 64 thresholds the report measures each super-level set
        # exactly: the quasi-norm is the best s * measure{|Tf| > s} there
        values, log_tf, masses = self.make_cells([3.0, 3.0, 1.0])
        rep = wt.level_set_report(log_tf, np.log(masses))
        log_s = rep.log_thresholds
        assert log_s[-1] == np.log(3.0)
        measures = [masses[np.log(values) > ls].sum() for ls in log_s]
        np.testing.assert_allclose(np.exp(rep.log_measures), measures, rtol=1e-12)
        want = max(math.exp(ls) * m for ls, m in zip(log_s, measures))
        assert abs(rep.quasi_norm - want) <= 1e-12 * want
        assert np.all(np.diff(rep.log_measures) <= 1e-12)

    def test_default_grid_brackets_constant_input(self):
        # constant |Tf| = c: the true quasi-norm is c * M; the grid's best
        # threshold sits one spacing below the top
        _, log_tf, masses = self.make_cells([2.0, 2.0, 2.0])
        rep = wt.level_set_report(log_tf, np.log(masses))
        truth = 2.0 * masses.sum()
        spacing = 6.0 * math.log(10.0) / 63.0
        assert rep.quasi_norm <= truth * (1.0 + 1e-12)
        assert rep.quasi_norm >= truth * math.exp(-spacing) * (1.0 - 1e-12)
        assert rep.log_thresholds.size == 64
        assert rep.metadata["cells"] == 3

    def test_all_zero_input(self):
        _, log_tf, masses = self.make_cells([0.0, 0.0])
        rep = wt.level_set_report(log_tf, np.log(masses))
        assert rep.quasi_norm == 0.0
        assert rep.log_thresholds.size == 0

    def test_step_function_with_tied_value(self):
        # |Tf| = 2, 4, 1, 2 on cells of mass 3, 1, 8, 5: measure{|Tf| > s}
        # is 17 below 1, 9 on [1, 2), 1 on [2, 4) and 0 from 4 on, so
        # sup_s s * measure{|Tf| > s} = 2 * 9 = 18, approached as s -> 2-
        log_tf = np.log([2.0, 4.0, 1.0, 2.0])
        log_masses = np.log([3.0, 1.0, 8.0, 5.0])
        s = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
        got = wt._log_measures_above(log_tf, log_masses, np.log(s))
        with np.errstate(divide="ignore"):
            want = np.log([17.0, 9.0, 9.0, 1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        below = np.log([1.0, 2.0, 4.0]) - 1e-12
        sup = np.max(below + wt._log_measures_above(log_tf, log_masses, below))
        assert abs(sup - math.log(18.0)) <= 2e-12


def _first_half(a):
    return lambda X, Y: wt._first_half_integral_log(a, X, Y)


def _second_half(a, piece="full"):
    return lambda X, Y: wt._second_half_integral_log(a, X, Y, piece)


def _catalog(delta):
    return lambda X, Y: wt.lemma_kernel_batch(delta, X, Y)


class TestLemmaKernels:
    def test_first_half_erf_oracle(self):
        # n=1, a=0: int_0^{1/2} e^{-(rx-y)^2} dr has an error-function form
        x = np.array([1.7])
        for y in (0.6, -0.9, 2.4):
            got = float(wt._first_half_integral_log(0, x[None, :], np.array([[y]]))[0])
            want = (
                math.sqrt(math.pi)
                / (2.0 * 1.7)
                * (special.erf(1.7 / 2.0 - y) - special.erf(-y))
            )
            assert abs(math.exp(got) - want) <= 1e-13 * want

    def test_first_half_weighted_oracle(self):
        x = np.array([1.1, -0.4])
        y = np.array([0.3, 0.8])
        got = float(wt._first_half_integral_log(2, x[None, :], y[None, :])[0])

        def integrand(r):
            return (
                r
                * float(np.sum((x - r * y) ** 2))
                * math.exp(-float(np.sum((r * x - y) ** 2)))
            )

        want, _ = quad(integrand, 0.0, 0.5, epsrel=1e-12)
        assert abs(math.exp(got) - want) <= 1e-12 * want

    def test_second_half_pieces_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            a = int(rng.integers(0, 3))
            x = rng.normal(size=n) * rng.uniform(0.5, 4.0)
            Y = rng.normal(size=(8, n)) * rng.uniform(0.3, 4.0)
            X = np.broadcast_to(x, Y.shape)
            full = wt._second_half_integral_log(a, X, Y, "full")
            parts = np.stack(
                [wt._second_half_integral_log(a, X, Y, p) for p in ("near", "mid", "edge")]
            )
            combo = np.logaddexp.reduce(parts, axis=0)
            live = np.isfinite(full)
            assert np.all(np.abs(combo[live] - full[live]) <= 1e-10)
            assert np.all(~np.isfinite(combo[~live]))

    def test_rotation_invariance(self):
        # every catalog kernel depends on x, y through rotation invariants
        rng = np.random.default_rng(8)
        theta = 0.83
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        x = np.array([1.4, -0.6])
        Y = rng.normal(size=(12, 2)) * 1.5
        X = np.broadcast_to(x, Y.shape)
        kernels = [
            _catalog(0.7),
            _first_half(1),
            _second_half(1),
        ]
        for kernel in kernels:
            base = kernel(X, Y)
            turned = kernel(X @ rot.T, Y @ rot.T)
            live = np.isfinite(base)
            assert np.array_equal(live, np.isfinite(turned))
            np.testing.assert_allclose(turned[live], base[live], atol=1e-9)

    def test_one_x_per_row_matches_row_by_row(self):
        # a block of pair rows with distinct x gives each row the value of
        # its own single-x call; the arithmetic is per row, so equal to
        # rounding of the row sums
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 2)) * 2.0
        Y = rng.normal(size=(10, 2)) * 2.0
        kernels = [
            _catalog(0.7),
            _first_half(2),
            _second_half(1, "mid"),
        ]
        for kernel in kernels:
            rows = kernel(X, Y)
            single = [kernel(x[None, :], y[None, :])[0] for x, y in zip(X, Y)]
            np.testing.assert_allclose(rows, single, rtol=1e-13, atol=1e-13)

    def test_sweep_integrals_identical_across_row_blocks(self):
        # the sweep integrals run rows sorted by window in blocks of the
        # windows' union, half the kernel's pair-node budget (256 rows of the
        # 64-node rule, at least 29 and 26 of the 552- and 616-node rules);
        # nodes outside a row's own window are exact zeros, so a multi-block
        # call gives each row the bits of its own one-row call
        rng = np.random.default_rng(13)
        for n in (1, 2):
            X = rng.normal(size=(600, n)) * 2.0
            Y = rng.normal(size=(600, n)) * 2.0
            integrals = [partial(wt.near_diagonal_profile_integral, 1.5, 0.5)]
            for a in (0, 2):
                integrals.append(_first_half(a))
                integrals += [_second_half(a, p) for p in ("full", "near", "mid", "edge")]
            for integral in integrals:
                rows = integral(X, Y)
                single = np.concatenate([integral(X[i : i + 1], Y[i : i + 1]) for i in range(600)])
                assert np.array_equal(rows, single)

    def test_masked_kernels_vanish_off_sector(self):
        x = np.array([3.0, 0.0])
        Y = np.array([[2.0, 0.4], [3.5, 0.0], [2.9, 0.0]])
        vals = wt.lemma_kernel_batch(1.0, x, Y)
        assert math.isfinite(vals[0])
        assert vals[1] == -math.inf  # y_par beyond |x|
        assert vals[2] == -math.inf  # peak too close: |x| d_par < 1

    def test_eval_wraps_zero(self):
        out = wt.lemma_kernel_batch(1.0, [3.0, 0.0], [3.5, 0.0])
        assert out.tolist() == [-math.inf]

    def test_point_dimension_must_match(self):
        with pytest.raises(ValueError):
            wt.lemma_kernel_batch(1.0, [3.0, 0.0, 1.0], [[2.0, 0.4]])

    def test_delta_must_be_positive(self):
        for delta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                wt.lemma_kernel_batch(delta, [3.0, 0.0], [2.0, 0.4])

    def test_unknown_piece_rejected(self):
        # pieces belong to the second-half integral alone, which names them
        X, Y = np.array([[1.5]]), np.array([[1.2]])
        with pytest.raises(ValueError):
            wt._second_half_integral_log(0, X, Y, "nearby")


class TestProfileAndBlocks:
    def test_near_diagonal_profile_matches_quadrature(self):
        n, mu, nu = 2, 1.0, 0.5
        x = np.array([1.2, 0.0])
        y = np.array([0.4, 0.3])
        got = wt.near_diagonal_profile_integral(mu, nu, x[None, :], y[None, :])[0]

        def integrand(r):
            d2 = float(np.sum((x - r * y) ** 2))
            s2 = 1.0 - r * r
            return d2 ** (nu / 2.0) * s2 ** (-(n + mu) / 2.0) * math.exp(-d2 / s2)

        want, _ = quad(integrand, 0.0, 1.0, epsrel=1e-12, limit=300)
        assert abs(math.exp(got) - want) <= 1e-9 * want

    def test_near_diagonal_window_matches_whole_rule(self):
        # peaks r* = x.y/|y|^2 near 1/2 with |y| from 30 to 60 put the top
        # probe in the r in (1/2, 3/4) panel and the mass in the r < 1/2
        # panel, which the window keeps only if the two panels neighbour;
        # the first row is (x, y) = (19.6, 40), r* = 0.49
        rng = np.random.default_rng(17)
        for n in (1, 2):
            norms, peaks = rng.uniform(30.0, 60.0, 200), rng.uniform(0.45, 0.55, 200)
            Y = rng.normal(size=(200, n))
            Y *= (norms / np.linalg.norm(Y, axis=1))[:, None]
            X = peaks[:, None] * Y + 0.1 * rng.normal(size=(200, n)) * (n > 1)
            X[0], Y[0] = 19.6, 40.0
            # every node of the 616-node rule, |x - r y|^2 = |d + w y|^2 from
            # the row dots of d = x - y and y, w = 1 - r from the rule's nodes
            w = np.concatenate([1.0 - wt._R_NODES, wt._U_NODES])
            logw = np.concatenate([wt._R_LOGW, wt._U_LOGW])
            D = X - Y
            dd, dy, y2 = (np.sum(P * Q, axis=1)[:, None] for P, Q in ((D, D), (D, Y), (Y, Y)))
            d2 = np.maximum(dd + 2.0 * w * dy + w * w * y2, 0.0)
            s2 = w * (2.0 - w)
            for mu, nu in ((3.0, 0.0), (1.0, 0.5), (1.5, 2.0)):
                got = wt.near_diagonal_profile_integral(mu, nu, X, Y)
                logs = -0.5 * (n + mu) * np.log(s2) - d2 / s2 + logw + 0.5 * nu * np.log(d2)
                top = logs.max(axis=1)
                want = np.log(np.exp(logs - top[:, None]).sum(axis=1)) + top
                assert np.max(np.abs(got - want)) <= 1e-13

    def test_near_diagonal_profile_matches_mpmath(self):
        # a 30-digit quadrature in w = 1 - r with geometric breakpoints down
        # to 2^-60, at the local-integral sweep's mu = 3, nu = 0, down to
        # sample_local_pairs' floor separation of 1e-5
        mu = 3.0
        rng = np.random.default_rng(29)
        for n in (1, 2):
            for sep in (1e-2, 1e-3, 1e-4, 1e-5):
                x = rng.normal(size=n)
                x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
                d = rng.normal(size=n)
                y = x + sep * d / np.linalg.norm(d)
                got = wt.near_diagonal_profile_integral(mu, 0.0, x[None, :], y[None, :])[0]
                with mpmath.workdps(30):
                    dm = [mpmath.mpf(float(a)) - mpmath.mpf(float(b)) for a, b in zip(x, y)]
                    ym = [mpmath.mpf(float(b)) for b in y]

                    def integrand(w):
                        q = mpmath.fsum((a + w * b) ** 2 for a, b in zip(dm, ym))
                        s2 = w * (2 - w)
                        return s2 ** (-(n + mu) / 2) * mpmath.exp(-q / s2)

                    pts = [0] + [mpmath.mpf(2) ** -k for k in range(60, -1, -1)]
                    want = float(mpmath.log(mpmath.quad(integrand, pts)))
                assert abs(got - want) <= 1e-12, (n, sep, got - want)

    def test_near_diagonal_profile_rejects_diagonal_rows(self):
        # the integral diverges at x = y; the other rows do not hide it
        X = np.array([[1.0, 1.0], [1.0, 0.5]])
        Y = np.array([[1.0, 1.0], [0.5, 1.0]])
        for bad in (slice(0, 1), slice(0, 2)):
            with pytest.raises(ValueError):
                wt.near_diagonal_profile_integral(3.0, 0.0, X[bad], Y[bad])
        assert np.isfinite(wt.near_diagonal_profile_integral(3.0, 0.0, X[1:], Y[1:])).all()

    def test_window_integral_matches_quadrature(self):
        x_norm, r0 = 2.2, 0.6
        got = wt.window_gaussian_integral_log(x_norm, r0)
        s = 1.0 - r0

        def integrand(r):
            return math.exp(-wt._EXPONENT_C * x_norm**2 * (r - r0) ** 2 / s)

        want, _ = quad(integrand, r0 - s / 2.0, r0 + s / 2.0, epsrel=1e-13)
        assert abs(math.exp(got) - want) <= 1e-12 * want

    def test_window_validation(self):
        with pytest.raises(ValueError):
            wt.window_gaussian_integral_log(1.0, 1.0)
        with pytest.raises(ValueError):
            wt.window_gaussian_integral_log(0.0, 0.5)

    def test_window_rejects_non_finite_input(self):
        for x_norm, r0 in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(ValueError):
                wt.window_gaussian_integral_log(x_norm, r0)
            with pytest.raises(ValueError):
                wt.window_gaussian_integral_log([2.0, x_norm], [0.3, r0])

    @staticmethod
    def peak_rows(r0, yperp_sq):
        # pair rows with x = (2, 0) and y = r0 x + y_perp
        r0, yperp_sq = np.asarray(r0), np.asarray(yperp_sq)
        X = np.tile([2.0, 0.0], (r0.size, 1))
        return X, np.stack([2.0 * r0, np.sqrt(yperp_sq)], axis=1)

    def test_blocks_coincide_at_weight_zero(self):
        X, Y = self.peak_rows([0.2, 0.7, 0.95], [0.0, 0.3, 1.1])
        a_block = wt._log_block_a(0, X, Y)
        b_block = wt._log_block_b(0, X, Y)
        assert np.all(np.isfinite(a_block))
        np.testing.assert_allclose(a_block, b_block, atol=1e-12)

    def test_blocks_vanish_past_the_peak(self):
        X, Y = self.peak_rows([1.0, 1.5], [0.0, 0.0])
        for block in (wt._log_block_a, wt._log_block_b):
            assert np.all(block(1, X, Y) == -math.inf)


def _second_half_whole_rule(a, X, Y, piece):
    # every node of the 552-node rule, masked as the pieces read in r, summed
    # as plain floats under each row's largest term
    n = X.shape[1]
    D = X - Y
    x2, xy, y2, d2, dy, dx = (
        np.sum(P * Q, axis=1)[:, None]
        for P, Q in ((X, X), (X, Y), (Y, Y), (D, D), (D, Y), (D, X))
    )
    r0 = xy / x2
    s = 1.0 - r0
    u = wt._U_NODES[None, :]
    r = 1.0 - u
    # (r - r0)^2 |x|^2 + |y_perp|^2 = |r x - y|^2 = |d - u x|^2, d = x - y
    logs = np.maximum(u * (u * x2 - 2.0 * dx) + d2, 0.0) * (-0.5 / u)
    logs = logs + (wt._U_LOGW - 0.5 * (n + a + 2) * np.log(u))
    with np.errstate(divide="ignore", invalid="ignore"):
        if a:
            logs = logs + 0.5 * a * np.log(np.maximum(u * (u * y2 + 2.0 * dy) + d2, 0.0))
        inside = {
            "full": np.ones(logs.shape, dtype=bool),
            "near": (s > 0.0) & (np.abs(r - r0) < 0.5 * s),
            "mid": np.where(s > 0.0, r < 0.5 * (3.0 * r0 - 1.0), u > 1.5 * (r0 - 1.0)),
            "edge": np.where(s > 0.0, u <= 0.5 * s, u <= 1.5 * (r0 - 1.0)),
        }[piece]
        logs = np.where(inside, logs, -np.inf)
        top = logs.max(axis=1)
        top = np.where(np.isfinite(top), top, 0.0)
        return np.log(np.exp(logs - top[:, None]).sum(axis=1)) + top


def _second_half_quad(a, x, y):
    # QUADPACK in t = log u over the rule's span (2^-47, 1/2), the integrand
    # shifted by its largest value on a grid, with breakpoints around it
    # with |r x - y|^2 and |x - r y|^2 from d = x - y, as the rule forms them
    n = x.size
    d = x - y
    x2, y2, d2, dx, dy = x @ x, y @ y, d @ d, d @ x, d @ y

    def log_f(t):
        u = math.exp(t)
        out = -0.5 * max(d2 - 2.0 * u * dx + u * u * x2, 0.0) / u - 0.5 * (n + a) * t
        return out + 0.5 * a * math.log(d2 + 2.0 * u * dy + u * u * y2) if a else out

    lo, hi = -47.0 * math.log(2.0), math.log(0.5)
    grid = np.linspace(lo, hi, 2001)
    logs = [log_f(t) for t in grid]
    peak, shift = grid[int(np.argmax(logs))], max(logs)
    offsets = np.array([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    points = [p for p in peak + offsets if lo < p < hi]
    value, _ = quad(
        lambda t: math.exp(log_f(t) - shift),
        lo,
        hi,
        points=points,
        limit=400,
        epsabs=0.0,
        epsrel=2e-14,
    )
    return math.log(value) + shift


def _half_integrals_long_double(a, X, Y):
    # (first, second) half over their whole rules, in long double, with
    # |x - r y|^2 = |d|^2 + 2w d.y + w^2|y|^2 and |r x - y|^2 =
    # |d - w x|^2 for d = x - y, w = 1 - r: no cancelling dots
    n = X.shape[1]
    X, Y = X.astype(np.longdouble), Y.astype(np.longdouble)
    D = X - Y
    dot = [np.sum(P * Q, axis=1)[:, None] for P, Q in ((D, D), (D, Y), (D, X), (X, X), (Y, Y))]
    d2, dy, dx, x2, y2 = dot
    r = wt._R_NODES.astype(np.longdouble)[None, :]
    u = wt._U_NODES.astype(np.longdouble)[None, :]
    first = (n - 1) * np.log(r) + wt._R_LOGW - (d2 - 2 * (1 - r) * dx + (1 - r) ** 2 * x2)
    second = -0.5 * (d2 - 2 * u * dx + u * u * x2) / u - 0.5 * (n + a + 2) * np.log(u)
    second = second + wt._U_LOGW
    out = []
    for logs, w in ((first, 1 - r), (second, u)):
        logs = logs + 0.5 * a * np.log(d2 + 2 * w * dy + w * w * y2)
        top = logs.max(axis=1)
        out.append((np.log(np.exp(logs - top[:, None]).sum(axis=1)) + top).astype(float))
    return out


class TestSecondHalfWindow:
    def test_window_matches_whole_rule_on_sweep_rows(self):
        # the rows that case-2.2, case-2.3.1-2.3.3 and decomposition draw at
        # count 384, seed 7: case i of an entry draws 2 * 384 * factor rows
        # from the stream [7, i]; the per-a entries' case i has a = i, and
        # decomposition's one case takes a = 0..3
        per_a = [(i, (i,)) for i in range(3)]
        entries = (
            ("peak-high", "full", 16, per_a),
            ("peak-below-1", "near", 1, per_a),
            ("peak-around-1", "mid", 4, per_a),
            ("peak-around-1", "edge", 4, per_a),
            ("global", "full", 1, [(0, (0, 1, 2, 3))]),
        )
        empty = dict.fromkeys(("near", "mid", "edge"), 0)
        for sampler, piece, factor, cases in entries:
            for stream, a_values in cases:
                X, Y = REGISTRY_SAMPLERS[sampler](np.random.default_rng([7, stream]), 768 * factor)
                for a in a_values:
                    got = wt._second_half_integral_log(a, X, Y, piece)
                    want = np.concatenate(
                        [
                            _second_half_whole_rule(a, X[b], Y[b], piece)
                            for b in np.array_split(np.arange(len(X)), len(X) // 1024 + 1)
                        ]
                    )
                    assert np.array_equal(got == -np.inf, want == -np.inf)
                    live = want > -np.inf
                    assert np.max(np.abs(got[live] - want[live])) <= 1e-13
                    if piece in empty:
                        empty[piece] += int(np.sum(~live))
        # the mid piece is empty for r0 > 4/3 and r0 < 2/3, as near is past the peak
        assert empty["mid"] > 1000 and empty["near"] == 0

    def test_near_diagonal_rows_match_long_double(self):
        # |x - r y| and |r x - y| come from d = x - y: from the dots of x
        # and y instead, the second half was off by 2e-5 in log here
        rng = np.random.default_rng(17)
        for n in (1, 2):
            X = rng.normal(size=(40, n))
            X *= rng.uniform(0.5, 3.0, size=(40, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
            D = rng.normal(size=X.shape)
            D *= np.geomspace(1e-5, 1e-3, 40)[:, None] / np.linalg.norm(D, axis=1, keepdims=True)
            Y = X + D
            for a in (1, 2):
                first, second = _half_integrals_long_double(a, X, Y)
                got_first = wt._first_half_integral_log(a, X, Y)
                got_second = wt._second_half_integral_log(a, X, Y)
                assert np.max(np.abs(got_first - first)) <= 1e-12
                assert np.max(np.abs(got_second - second)) <= 1e-12

    def test_full_rule_matches_quad_oracle(self):
        rng = np.random.default_rng(5)
        for n in (1, 2):
            X, Y = wt._sampler_peak(n, _THIRD, 0.99)(rng, 16)
            for a in (0, 1, 2):
                got = wt._second_half_integral_log(a, X, Y)
                want = [_second_half_quad(a, x, y) for x, y in zip(X, Y)]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-13)

    def test_non_finite_rows_rejected(self):
        # a NaN or inf row would read as ratio 0 in a sweep, or corrupt a window
        X = np.array([[1.0, 0.1], [1.5, 0.2]])
        Y = np.array([[0.9, 0.2], [1.2, 0.1]])
        integrals = [
            _first_half(1),
            _second_half(1),
            _second_half(0, "mid"),
            partial(wt.near_diagonal_profile_integral, 1.5, 0.5),
        ]
        for bad in (math.nan, math.inf, -math.inf):
            for which in (0, 1):
                P, Q = X.copy(), Y.copy()
                (P, Q)[which][1, 0] = bad
                for integral in integrals:
                    with pytest.raises(ValueError):
                        integral(P, Q)


class TestBoundRatioSweep:
    @staticmethod
    def sampler(rng, count):
        # rows x = 1, 2, ..., count against y = 0
        return np.arange(1.0, count + 1.0)[:, None], np.zeros((count, 1))

    def test_constant_ratio_is_stable(self):
        res = wt.bound_ratio_sweep(
            lambda X, Y: np.log(X[:, 0]),
            lambda X, Y: np.log(2.0 * X[:, 0]),
            self.sampler,
            count=16,
            rng=np.random.default_rng(0),
        )
        assert res.stable
        assert abs(res.log_max_ratio + math.log(2.0)) <= 1e-12
        assert res.rel_change == 0.0
        assert res.count == 16

    def test_growing_ratio_is_unstable(self):
        res = wt.bound_ratio_sweep(
            lambda X, Y: np.log(X[:, 0]),
            lambda X, Y: np.zeros(len(X)),
            self.sampler,
            count=16,
            rng=np.random.default_rng(0),
        )
        # sup doubles when the sample doubles: rel change is exactly 1
        assert not res.stable
        assert abs(res.rel_change - 1.0) <= 1e-12
        assert res.argmax == ([32.0], [0.0])

    def test_dead_target_not_stable(self):
        res = wt.bound_ratio_sweep(
            lambda X, Y: np.full(len(X), -np.inf),
            lambda X, Y: np.zeros(len(X)),
            self.sampler,
            count=8,
            rng=np.random.default_rng(0),
        )
        assert not res.stable

    def test_vanishing_bound_with_live_target(self):
        res = wt.bound_ratio_sweep(
            lambda X, Y: np.zeros(len(X)),
            lambda X, Y: np.full(len(X), -np.inf),
            self.sampler,
            count=8,
            rng=np.random.default_rng(0),
        )
        assert not res.stable
        assert res.log_max_ratio == math.inf


_THIRD = 1.0 / 3.0 + 1e-9
REGISTRY_SAMPLERS = {
    "shell-far": wt._sampler_shell(2, 2.0, 4.0),
    "shell-near": wt._sampler_shell(2, 0.05, 2.0),
    "peak-low": wt._sampler_peak(2, 0.02, 1.0 / 3.0),
    "peak-below-1": wt._sampler_peak(2, _THIRD, 1.0 - 1e-9),
    "peak-around-1": wt._sampler_peak(2, _THIRD, 2.0),
    "peak-high": wt._sampler_peak(2, 2.0, 4.0),
    "local-n1": lambda rng, count: sample_local_pairs(rng, 1, count),
    "local-n2": lambda rng, count: sample_local_pairs(rng, 2, count),
    "global": lambda rng, count: sample_global_pairs(rng, 2, count, radius=6.0),
}


@pytest.mark.parametrize("name", sorted(REGISTRY_SAMPLERS))
def test_registry_sampler_is_prefix_nested(name):
    # the doubling check compares a sample with its own first half, so the
    # first c rows of a larger draw must be the c draw from the same seed;
    # 700 against 2500 rows crosses several draw blocks
    sampler = REGISTRY_SAMPLERS[name]
    for small, large in ((40, 80), (700, 2500)):
        X1, Y1 = sampler(np.random.default_rng(21), small)
        X2, Y2 = sampler(np.random.default_rng(21), large)
        assert X1.shape == Y1.shape == (small, X1.shape[1])
        assert X2.shape == Y2.shape == (large, X1.shape[1])
        np.testing.assert_array_equal(X2[:small], X1)
        np.testing.assert_array_equal(Y2[:small], Y1)


def _peak_window(lo, hi):
    def accepts(x, y):
        # y = r0 x + perp with perp orthogonal to x
        r0 = (x @ y) / (x @ x)
        return lo - 1e-12 <= r0 <= hi + 1e-12 and not in_N(1.0, x, y)

    return accepts


def _shell_band(lo, hi):
    def accepts(x, y):
        ratio = np.linalg.norm(y) / np.linalg.norm(x)
        return lo - 1e-12 <= ratio <= hi + 1e-12

    return accepts


REGISTRY_ACCEPTS = {
    "shell-far": _shell_band(2.0, 4.0),
    "shell-near": _shell_band(0.05, 2.0),
    "peak-low": _peak_window(0.02, 1.0 / 3.0),
    "peak-below-1": _peak_window(_THIRD, 1.0 - 1e-9),
    "peak-around-1": _peak_window(_THIRD, 2.0),
    "peak-high": _peak_window(2.0, 4.0),
    "local-n1": lambda x, y: in_N(2.0, x, y),
    "local-n2": lambda x, y: in_N(2.0, x, y),
    "global": lambda x, y: not in_N(1.0, x, y),
}


@pytest.mark.parametrize("name", sorted(REGISTRY_SAMPLERS))
def test_registry_sampler_rows_pass_its_acceptance_test(name):
    # every returned row, over several draw blocks, satisfies the scalar
    # form of the sampler's acceptance predicate
    X, Y = REGISTRY_SAMPLERS[name](np.random.default_rng(4), 2500)
    accepts = REGISTRY_ACCEPTS[name]
    assert np.all(np.isfinite(X)) and np.all(np.isfinite(Y))
    assert all(accepts(x, y) for x, y in zip(X, Y))


class TestRegistry:
    def test_contents(self):
        assert sorted(wt.BOUND_REGISTRY) == [
            "A-growth",
            "A10",
            "A11",
            "A2-large",
            "A2-small",
            "B-angular",
            "B-growth",
            "case-2.1",
            "case-2.2",
            "case-2.3.1",
            "case-2.3.2",
            "case-2.3.3",
            "cz-gradient",
            "cz-kernel",
            "decomposition",
            "local-integral",
            "step1-far",
            "step1-near",
            "stimaint",
        ]

    def test_resolve_key(self):
        assert wt.resolve_registry_key("step1-far") == "step1-far"
        assert wt.resolve_registry_key("5.2.3.2") == "case-2.3.2"
        assert wt.resolve_registry_key("2.1") == "case-2.1"
        with pytest.raises(KeyError):
            wt.resolve_registry_key("5.9.9")

    def test_small_sweep_runs_stable(self):
        res = wt.run_all_bound_sweeps(["step1-far"], count=64)["step1-far"]
        assert res.stable
        assert math.isfinite(res.log_max_ratio)

    def test_czlocal_reproducible(self):
        a = wt.czlocal_supremum(MultiIndex.of(1, 0), 128, np.random.default_rng(9))
        b = wt.czlocal_supremum(MultiIndex.of(1, 0), 128, np.random.default_rng(9))
        assert a == b
        assert a.n == 2
        assert a.kernel_rel_change <= 0.2
        assert a.gradient_rel_change <= 0.2


class TestRankOneProbes:
    def test_probe_matches_exact_for_monotone_profiles(self):
        cases = [(1, 1.0, 0.0), (1, 0.5, 0.0), (2, 1.0, -1.0), (2, 1.5, 0.5)]
        for n, mu, nu in cases:
            exact = wt.rank_one_quasinorm_exact(n, mu, nu)
            probe = wt.weak_quasinorm_probe(n, mu, nu)
            assert abs(math.expm1(probe - exact)) <= 1e-4

    def test_exact_matches_hand_closed_forms(self):
        # at mu = n, nu = 0 the product Tf(t) * measure(B(0, t)) decreases
        # in t: (1 - e^{-t^2}) pi / t^2 in n = 2, sqrt(pi) e^{-t^2} erfi(t) / t
        # in n = 1, whose suprema are their t -> 0 limits pi and 2
        assert abs(wt.rank_one_quasinorm_exact(2, 2.0, 0.0) - math.log(math.pi)) <= 1e-12
        assert abs(wt.rank_one_quasinorm_exact(1, 1.0, 0.0) - math.log(2.0)) <= 1e-12

    def test_non_monotone_profile_against_root_finding(self):
        # mu < 0 makes Tf rise then fall, so its super-level sets are
        # annuli; the oracle solves Tf(t) = s on both sides of the peak and
        # uses the closed-form measure of the resulting annulus
        annulus = {
            1: lambda t1, t2: math.pi * (special.erfi(t2) - special.erfi(t1)),
            2: lambda t1, t2: math.pi**2 * (math.exp(t2 * t2) - math.exp(t1 * t1)),
        }
        # (n, mu, nu): both satisfy mu + nu >= n - 2
        for n, mu, nu in ((1, -0.5, 0.0), (2, -0.5, 1.0)):
            probe = wt.weak_quasinorm_probe(n, mu, nu)

            def phi(t):
                return math.exp(-t * t) * t**-mu * (1.0 + t) ** -nu

            t_peak = brentq(lambda t: -2.0 * t - mu / t - nu / (1.0 + t), 1e-6, 10.0)
            norm = math.pi ** (0.5 * n)
            peak = phi(t_peak) / norm
            best = -math.inf
            for s in np.exp(np.linspace(math.log(peak) - 9.0, math.log(peak) - 1e-4, 400)):
                level = s * norm
                t1 = brentq(lambda t: phi(t) - level, 1e-12, t_peak)
                t2 = brentq(lambda t: phi(t) - level, t_peak, 50.0)
                best = max(best, math.log(s) + math.log(annulus[n](t1, t2)))
            assert abs(math.expm1(probe - best)) <= 2e-2

    def test_growth_exponent_outside_regime(self):
        # mu = n + 1: shrinking the inner cutoff grows the estimate like
        # t_min^{-1}, the numerical signature of unboundedness
        t_mins = [1e-2, 1e-3, 1e-4]
        vals = [wt.weak_quasinorm_probe(1, 2.0, 0.0, t_min=tm) for tm in t_mins]
        slope = float(np.polyfit(np.log(t_mins), vals, 1)[0])
        assert abs(slope + 1.0) <= 1e-2

    def test_unbounded_at_infinity_rejected(self):
        # mu + nu < n - 2: s * measure{|Tf| > s} grows as s -> 0, past the
        # grids' ends at t = 30 and 40, which would return a finite number
        # (2.845 for the probe at n = 2, mu = -0.5, nu = 0)
        for rank_one in (wt.weak_quasinorm_probe, wt.rank_one_quasinorm_exact):
            for n, mu, nu in ((2, -0.5, 0.0), (1, -1.5, 0.0), (2, 1.0, -1.5), (1, math.nan, 0.0)):
                with pytest.raises(ValueError, match="unbounded at infinity"):
                    rank_one(n, mu, nu)
            # on the boundary mu + nu = n - 2 both still return a value
            assert math.isfinite(rank_one(1, -1.0, 0.0))

    def test_probe_t_min_must_lie_below_t_max(self):
        for t_min in (0.0, -1.0, 30.0, 50.0, math.nan):
            with pytest.raises(ValueError):
                wt.weak_quasinorm_probe(1, 1.0, 0.0, t_min=t_min)

    def test_probe_dimension_limit(self):
        # the closed-form ball measure exists for n <= 2 only
        for rank_one in (wt.weak_quasinorm_probe, wt.rank_one_quasinorm_exact):
            with pytest.raises(NotImplementedError):
                rank_one(3, 1.0, 0.5)


class TestTubeGeometry:
    def test_axis_basis(self):
        for n in (1, 2, 3):
            q = wt.tube_axis_basis(n)
            np.testing.assert_allclose(q @ q.T, np.eye(n), atol=1e-14)
            np.testing.assert_allclose(q[:, 0], np.ones(n) / math.sqrt(n))

    def test_membership(self):
        # the shared tube: axis band ((4/3)|z|, (3/2)|z|) along the diagonal
        # and the perpendicular half-width, in the rotated frame
        n, eta = 2, 4.0
        zn = math.sqrt(n) * eta
        q, (lo, hi), w = wt._tube(n, eta, perp_half=0.75)
        np.testing.assert_array_equal(q, wt.tube_axis_basis(n))
        assert (lo, hi, w) == (4.0 * zn / 3.0, 1.5 * zn, 0.75)
        assert wt._tube(n, eta)[2] == 1.0
        inside = 1.45 * zn * q[:, 0] + 0.5 * q[:, 1]
        low = 1.2 * zn * q[:, 0]
        wide = 1.45 * zn * q[:, 0] + 1.5 * q[:, 1]
        coords = np.stack([inside, low, wide]) @ q
        member = (lo < coords[:, 0]) & (coords[:, 0] < hi) & (np.abs(coords[:, 1]) < w)
        assert member.tolist() == [True, False, False]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            wt.CounterexampleConfig(alpha=MultiIndex.of(0, 0), etas=(4.0,), n=2)
        with pytest.raises(ValueError):
            wt.CounterexampleConfig(alpha=MultiIndex.of(1), etas=(4.0,), n=2)
        # the ball nodes exist for n <= 2 only: refused here, not after the
        # tube grid is built or inside a pool worker
        with pytest.raises(ValueError, match="n = 1 or 2"):
            wt.CounterexampleConfig(alpha=MultiIndex.of(1, 0, 0), etas=(4.0,), n=3)
        with pytest.raises(ValueError):
            wt.CounterexampleConfig(alpha=MultiIndex.of(2, 1), etas=(2.0,), n=2)
        with pytest.raises(ValueError):
            wt.CounterexampleConfig(alpha=MultiIndex.of(2, 1), etas=(), n=2)
        with pytest.raises(ValueError):
            wt.CounterexampleConfig(
                alpha=MultiIndex.of(2, 1), etas=(4.0,), n=2, ball_radius=-1.0
            )
        for key in ("grid_axis", "grid_perp", "ball_radial", "ball_angular"):
            for bad in (0, -3):
                with pytest.raises(ValueError, match=key):
                    wt.CounterexampleConfig(
                        alpha=MultiIndex.of(2, 1), etas=(4.0,), n=2, **{key: bad}
                    )

    @pytest.mark.parametrize(
        "field, bad",
        [
            (key, value)
            for key in ("etas", "ball_radius", "tube_perp_half")
            for value in (math.nan, math.inf)
        ],
    )
    def test_config_rejects_non_finite(self, field, bad):
        kwargs = {"etas": (4.0, 6.0)}
        kwargs[field] = (4.0, bad) if field == "etas" else bad
        with pytest.raises(ValueError):
            wt.CounterexampleConfig(alpha=MultiIndex.of(2, 1), n=2, **kwargs)

    def test_grid_points_inside_tube_with_exact_mass(self):
        # n = 1 grids come from the same product of axis and perp cells
        for alpha, eta in ((MultiIndex.of(3), 6.0), (MultiIndex.of(2, 1), 4.0)):
            n = alpha.dim
            cfg = wt.CounterexampleConfig(alpha=alpha, etas=(eta,), n=n, grid_axis=12, grid_perp=4)
            pts, log_cell = wt._tube_grid(cfg, eta)
            q, (lo, hi), w = wt._tube(n, eta, cfg.tube_perp_half)
            coords = pts @ q
            assert pts.shape == (12 * 4 ** (n - 1), n)
            assert np.all((lo < coords[:, 0]) & (coords[:, 0] < hi))
            assert np.all(np.abs(coords[:, 1:]) < w)
            # total mass: pi^{n/2} times a product of one-dimensional
            # integrals of e^{u^2}, via int_0^x e^{u^2} du = e^{x^2} dawsn(x)
            f_log = lambda u: u * u + math.log(special.dawsn(u))
            log_axis = f_log(hi) + math.log1p(-math.exp(f_log(lo) - f_log(hi)))
            log_perp = math.log(2.0 * math.exp(w * w) * special.dawsn(w))
            want = log_axis + (n - 1) * log_perp
            mass_logs = log_cell + np.sum(pts * pts, axis=1)
            got = float(signed_logsumexp(mass_logs[None, :], axis=1)[1][0])
            assert abs(got - want) <= 1e-10

    def test_cell_points_are_weight_centroids(self):
        # each cell's point is the centroid of e^{u^2}, checked against
        # direct quadrature, including a negative cell and one symmetric
        # around zero (centroid exactly zero)
        edges = np.array([-0.5, 0.2, 1.0, 1.7, 9.0, 9.3])
        u, log_i = wt._centroid_cells(edges)
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            num = quad(lambda t: t * math.exp(t * t - b * b), a, b)[0]
            den = quad(lambda t: math.exp(t * t - b * b), a, b)[0]
            assert u[k] == pytest.approx(num / den, rel=1e-10, abs=1e-13)
            assert log_i[k] + u[k] ** 2 == pytest.approx(
                math.log(den) + b * b, abs=1e-10
            )
        sym, _ = wt._centroid_cells(np.array([-0.7, 0.7]))
        assert sym[0] == 0.0

    def test_axis_count_scales_with_eta(self):
        # cell length stays constant across a sweep: doubling eta doubles
        # the axis cell count relative to the smallest eta in the config
        cfg = wt.CounterexampleConfig(
            alpha=MultiIndex.of(2, 1),
            etas=(4.0, 8.0),
            n=2,
            grid_axis=12,
            grid_perp=4,
        )
        pts4, _ = wt._tube_grid(cfg, 4.0)
        pts8, _ = wt._tube_grid(cfg, 8.0)
        assert pts4.shape[0] == 12 * 4
        assert pts8.shape[0] == 24 * 4


class TestTubeTransform:
    def test_matches_apply_global_path(self):
        # the tube is disjoint from the ball, so the whole integral is global:
        # the tube's boundary integral and apply_riesz's volume rule over
        # the ball must land on the same value
        cfg = wt.CounterexampleConfig(
            alpha=MultiIndex.of(2, 1),
            etas=(4.0,),
            n=2,
            grid_axis=12,
            grid_perp=4,
        )
        pts, signs, logmags, *_ = wt._tube_tf_logs(cfg, 4.0)
        z = np.full(2, 4.0)
        f = ball_indicator(2, z, cfg.ball_radius)
        log_meas = wt.gamma_inv_ball_log(2, z, cfg.ball_radius).logmag
        for idx in (0, pts.shape[0] // 2, pts.shape[0] - 1):
            ref = apply_riesz(MultiIndex.of(2, 1), f, pts[idx])
            assert np.sign(ref) == signs[idx]
            assert abs(math.expm1(math.log(abs(ref)) - log_meas - logmags[idx])) <= 1e-9

    def test_kernel_sign_and_size_on_tube(self):
        # on pairs x in the tube, y in the ball B(z, 1), K has the sign
        # (-1)^{|alpha|} and a finite log ratio to |z|^{|alpha|-1} e^{-|x|^2+|y|^2}
        eta, count = 4.0, 128
        for alpha in (MultiIndex.of(2, 1), MultiIndex.of(2, 1, 0)):
            n, rng = alpha.dim, np.random.default_rng(11)
            q, (lo, hi), w = wt._tube(n, eta)
            axis = rng.uniform(lo, hi, size=count)
            perp = rng.uniform(-w, w, size=(count, n - 1))
            X = np.concatenate([axis[:, None], perp], axis=1) @ q.T
            d = rng.normal(size=(count, n))
            d /= np.linalg.norm(d, axis=1)[:, None]
            Y = eta + d * (rng.uniform(size=count) ** (1.0 / n))[:, None]
            signs, logmags = riesz_kernel_batch(alpha, X, Y)
            assert np.sum(signs != (-1) ** alpha.order) == 0
            ref = (
                (alpha.order - 1) * math.log(math.sqrt(n) * eta)
                - np.sum(X * X, axis=1)
                + np.sum(Y * Y, axis=1)
            )
            assert math.isfinite(float(np.min(logmags - ref)))

    def test_single_eta_reports_without_fit(self):
        cfg = wt.CounterexampleConfig(
            alpha=MultiIndex.of(2, 1),
            etas=(4.0,),
            n=2,
            grid_axis=12,
            grid_perp=4,
            ball_radial=8,
            ball_angular=16,
        )
        res = wt.counterexample_lower_bound(cfg)
        assert math.isnan(res.slope)
        assert not res.passed
        assert "note" in res.expectation
        rep = res.reports[4.0]
        assert rep.log_thresholds.size == 64
        assert math.isfinite(res.log_quasi_norms[0])

    def test_report_files_deterministic(self, tmp_path):
        cfg = wt.CounterexampleConfig(
            alpha=MultiIndex.of(2, 1),
            etas=(4.0,),
            n=2,
            grid_axis=12,
            grid_perp=4,
            ball_radial=8,
            ball_angular=16,
        )
        res = wt.counterexample_lower_bound(cfg)
        paths = [
            (tmp_path / f"a{i}.csv", tmp_path / f"a{i}.json") for i in range(2)
        ]
        for csv_path, json_path in paths:
            wt.write_counterexample_report(res, str(csv_path), str(json_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
        lines = paths[0][0].read_text().splitlines()
        assert lines[0] == "experiment,eta,s,measure,quasi_norm"
        assert len(lines) == 65
        summary = json.loads(paths[0][1].read_text())
        assert summary["experiment"] == "counterexample-alpha2-1-n2"
        assert summary["passed"] is False
        assert math.isnan(summary["slope"])

    def test_worker_count_leaves_result_unchanged(self, monkeypatch):
        # the pool takes the largest eta first but merges in eta order, so
        # one worker and two give the same bits; this grid is too small to
        # repay a worker, so the pool is forced
        monkeypatch.setattr(wt, "_POOL_PAIRS_PER_WORKER", 1)
        cfg = wt.CounterexampleConfig(
            alpha=MultiIndex.of(1, 1),
            etas=(4.0, 5.0, 6.0),
            n=2,
            grid_axis=4,
            grid_perp=2,
            ball_radial=4,
            ball_angular=8,
        )
        one = wt.counterexample_lower_bound(cfg, jobs=1)
        two = wt.counterexample_lower_bound(cfg, jobs=2)
        assert one.etas == two.etas == (4.0, 5.0, 6.0)
        assert np.array_equal(one.log_quasi_norms, two.log_quasi_norms)
        assert one.slope == two.slope and one.residual == two.residual
        assert one.passed == two.passed
        for eta in one.etas:
            a, b = one.reports[eta], two.reports[eta]
            assert np.array_equal(a.log_thresholds, b.log_thresholds)
            assert np.array_equal(a.log_measures, b.log_measures)
            assert a.log_quasi_norm == b.log_quasi_norm
            assert a.argmax_log_threshold == b.argmax_log_threshold
            assert a.metadata == b.metadata

    def test_small_grid_starts_no_worker(self, monkeypatch):
        # 224 tube cells times 64 ball nodes do not repay a worker's start,
        # so jobs=2 runs in this process; check 6's default grid keeps its
        # pool of 2
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool worker was started")

        monkeypatch.setattr(wt, "ProcessPoolExecutor", no_pool)
        small = wt.CounterexampleConfig(
            alpha=MultiIndex.of(2, 1),
            etas=(4.0, 6.0, 8.0, 10.0),
            grid_axis=8,
            grid_perp=4,
        )
        res = wt.counterexample_lower_bound(small, jobs=2)
        serial = wt.counterexample_lower_bound(small, jobs=1)
        assert np.array_equal(res.log_quasi_norms, serial.log_quasi_norms)
        default = wt.CounterexampleConfig(alpha=MultiIndex.of(2, 1), etas=small.etas)
        assert wt._pool_workers(default, 2) == 2 and wt._pool_workers(default, 1) == 1


class TestBoundaryForm:
    # Tf of the ball indicator summed over the sphere with the lowered
    # kernel, against volume rules over the ball with riesz_kernel_batch

    @staticmethod
    def volume_tf(cfg, eta, pts, nodes, logw):
        z = np.full(cfg.n, eta)
        log_f = -wt.gamma_inv_ball_log(cfg.n, z, cfg.ball_radius).logmag
        return _kernel_sums_log(cfg.alpha, pts, nodes, logw, log_f, 1)

    @pytest.mark.parametrize("alpha", [(1, 0), (1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("eta", [4.0, 10.0])
    def test_circle_matches_volume_rule(self, alpha, eta):
        # every 16th cell of the default grid, against the 20 x 48 polar rule
        cfg = wt.CounterexampleConfig(alpha=MultiIndex.of(*alpha), etas=(4.0, eta), n=2)
        pts, signs, logmags, _, ball = wt._tube_tf_logs(cfg, eta)
        radii, w_r = gauss_legendre([0.0, cfg.ball_radius], 20)
        nodes, logw = _polar_nodes(np.full(2, eta), radii, w_r, 48)
        want_signs, want_logs = self.volume_tf(cfg, eta, pts[::16], nodes, logw)
        assert np.array_equal(signs[::16], want_signs)
        assert np.max(np.abs(logmags[::16] - want_logs)) <= 1e-10
        assert ball["ball_nodes"] == 64

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [6.0, 20.0])
    def test_end_points_match_volume_rule(self, order, eta):
        # n = 1: the two end points against 8 Gauss-Legendre panels of 32
        cfg = wt.CounterexampleConfig(alpha=MultiIndex.of(order), etas=(eta,), n=1)
        pts, signs, logmags, _, ball = wt._tube_tf_logs(cfg, eta)
        y, w = gauss_legendre(np.linspace(eta - 1.0, eta + 1.0, 9), 32)
        want_signs, want_logs = self.volume_tf(cfg, eta, pts, y[:, None], np.log(w))
        assert np.array_equal(signs, want_signs)
        assert np.max(np.abs(logmags - want_logs)) <= 1e-10
        assert ball == {"ball_nodes": 2, "ball_quadrature_error": 0.0}

    def test_reported_error_bounds_the_true_error(self, monkeypatch):
        # 64 x 4 cells per eta; the reference is the 256-node circle rule
        alpha = MultiIndex.of(2, 1)
        for eta in (4.0, 10.0, 20.0, 40.0):
            cfg = wt.CounterexampleConfig(
                alpha=alpha, etas=(eta,), n=2, grid_axis=64, grid_perp=4
            )
            _, signs, logmags, _, ball = wt._tube_tf_logs(cfg, eta)
            with monkeypatch.context() as m:
                m.setattr(wt, "_BALL_NODES_START", 256)
                _, ref_signs, ref_logs, _, ref_ball = wt._tube_tf_logs(cfg, eta)
            assert ref_ball["ball_nodes"] == 256
            assert np.array_equal(signs, ref_signs)
            true_error = float(np.max(np.abs(logmags - ref_logs)))
            assert true_error <= ball["ball_quadrature_error"] <= wt._BALL_GAP
            if eta <= 10.0:
                assert ball["ball_nodes"] == 64

    def test_lowering_needs_a_derivative(self):
        X, Y = np.array([[4.0, 5.0]]), np.array([[1.0, 1.0]])
        with pytest.raises(ValueError, match="alpha_j"):
            _riesz_batch(MultiIndex.of(2, 0), X, Y, 1)


class TestSlopeFit:
    def test_exact_power_law(self):
        etas = np.array([4.0, 6.0, 8.0, 10.0])
        fit = wt.slope_fit(etas, etas**2)
        assert abs(fit.slope - 2.0) <= 1e-12
        assert fit.residual <= 1e-12

    def test_constant(self):
        etas = np.array([4.0, 6.0, 8.0])
        fit = wt.slope_fit(etas, np.full(3, 5.0))
        assert abs(fit.slope) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            wt.slope_fit([4.0, 6.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            wt.slope_fit([4.0, 6.0, 8.0], [1.0, -2.0, 3.0])
