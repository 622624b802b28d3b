"""Log-scaled arithmetic against plain-float oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszlab.logscaled import NEGLIGIBLE_LOGMAG, LogScaled, log_sum, signed_logsumexp


def test_constructors_and_invariants():
    z = LogScaled.zero()
    assert z.sign == 0 and z.logmag == -math.inf
    one = LogScaled.from_float(1.0)
    assert one.sign == 1 and one.logmag == 0.0
    assert LogScaled.from_log(0.5, -1) == LogScaled(-1, 0.5)
    assert LogScaled.from_log(1.0, 0).sign == 0
    with pytest.raises(ValueError):
        LogScaled(2, 0.0)
    with pytest.raises(ValueError):
        LogScaled(0, 1.0)
    with pytest.raises(ValueError):
        LogScaled(1, -math.inf)
    with pytest.raises(ValueError):
        LogScaled.from_float(math.inf)


def test_float_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = float(rng.normal() * math.exp(rng.uniform(-300, 300)))
        if v == 0.0:
            continue
        back = LogScaled.from_float(v).to_float()
        # exp(log v) costs |log v| * eps in relative terms, up to ~1.5e-13
        # at magnitude exp(300); the round trip cannot beat that
        assert back == pytest.approx(v, rel=1e-12)
    assert LogScaled.from_float(0.0).sign == 0
    assert LogScaled.from_log(-math.inf).to_float() == 0.0


def test_to_float_overflow_is_an_error():
    big = LogScaled.from_log(800.0)
    with pytest.raises(OverflowError):
        big.to_float()
    # just below the cutoff still converts
    assert math.isfinite(LogScaled.from_log(708.0).to_float())


def test_arithmetic_matches_floats():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = float(rng.normal() * math.exp(rng.uniform(-20, 20)))
        b = float(rng.normal() * math.exp(rng.uniform(-20, 20)))
        if a == 0.0 or b == 0.0:
            continue
        la, lb = LogScaled.from_float(a), LogScaled.from_float(b)
        assert (la * lb).to_float() == pytest.approx(a * b, rel=1e-13)
        assert (la * 2.5).to_float() == pytest.approx(a * 2.5, rel=1e-13)
        assert (2.5 * la).to_float() == pytest.approx(2.5 * a, rel=1e-13)
        # the sign of a product is the product of the signs, exactly
        assert (la * lb).sign == (1 if a * b > 0 else -1)


def test_zero_propagation_and_errors():
    z = LogScaled.zero()
    one = LogScaled.from_float(1.0)
    assert (z * one).sign == 0
    assert (one * z).sign == 0
    assert (one * 0.0).sign == 0
    assert (LogScaled.from_float(-3.0) * LogScaled.from_float(-3.0)).sign == 1
    with pytest.raises(ValueError):
        one * math.nan


def test_log_sum_matches_fsum():
    rng = np.random.default_rng(5)
    for _ in range(100):
        vals = rng.normal(size=rng.integers(1, 12)) * math.exp(rng.uniform(-8, 8))
        got = log_sum([LogScaled.from_float(float(v)) for v in vals]).to_float()
        assert got == pytest.approx(math.fsum(vals), rel=1e-12, abs=1e-300)
    assert log_sum([]).sign == 0
    # exact cancellation collapses to zero
    assert log_sum([LogScaled.from_float(1.5), LogScaled.from_float(-1.5)]).sign == 0


def test_log_sum_survives_extreme_magnitudes():
    # the same relative layout shifted 1000 log-units up must give the
    # shifted answer, which float accumulation cannot represent at all
    base = [LogScaled.from_log(0.0), LogScaled.from_log(-1.0, -1)]
    high = [LogScaled.from_log(1000.0), LogScaled.from_log(999.0, -1)]
    lo = log_sum(base)
    hi = log_sum(high)
    assert hi.sign == lo.sign == 1
    assert hi.logmag - lo.logmag == pytest.approx(1000.0, abs=1e-10)


def test_signed_logsumexp_against_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        logs = rng.uniform(-5.0, 5.0, size=(m, k))
        signs = rng.choice([-1.0, 1.0], size=(m, k))
        sgn, lm = signed_logsumexp(logs, signs, axis=1)
        dense = np.sum(signs * np.exp(logs), axis=1)
        assert np.array_equal(sgn, np.sign(dense).astype(int))
        np.testing.assert_allclose(np.exp(lm) * sgn, dense, rtol=1e-12)


def test_signed_logsumexp_edge_cases():
    # all -inf slice reduces to an exact zero
    sgn, lm = signed_logsumexp(np.full((2, 3), -np.inf), axis=1)
    assert np.all(sgn == 0) and np.all(lm == -np.inf)
    # positive-only default and a huge shift stay finite
    sgn, lm = signed_logsumexp(np.array([[1000.0, 1000.0]]), axis=1)
    assert sgn[0] == 1
    assert lm[0] == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
    # mixed signs cancelling exactly
    sgn, lm = signed_logsumexp(
        np.array([[2.0, 2.0]]), np.array([[1.0, -1.0]]), axis=1
    )
    assert sgn[0] == 0 and lm[0] == -np.inf
    # axis handling matches a transposed reduction
    logs = np.arange(6.0).reshape(2, 3)
    s0, l0 = signed_logsumexp(logs, axis=0)
    s1, l1 = signed_logsumexp(logs.T, axis=1)
    np.testing.assert_allclose(l0, l1)
    assert np.array_equal(s0, s1)


def _old_signed_logsumexp(logmags, signs):
    # the all-terms formula: every entry exponentiated against the row max
    shift = np.max(logmags, axis=1, keepdims=True)
    total = np.sum(np.exp(logmags - shift) * signs, axis=1)
    return np.sign(total).astype(int), np.log(np.abs(total)) + shift[:, 0]


def test_signed_logsumexp_wide_spread_drops_negligible_terms():
    # entries over [-3000, 0]: those more than NEGLIGIBLE_LOGMAG below the
    # row max add exactly 0, and the rest sum as a dense float sum does
    rng = np.random.default_rng(13)
    logs = rng.uniform(-3000.0, 0.0, size=(40, 64))
    logs[:, 0] = 0.0
    signs = rng.choice([-1.0, 1.0], size=logs.shape)
    signs[:, 0] = 1.0
    sgn, lm = signed_logsumexp(logs, signs, axis=1)
    kept = logs >= -NEGLIGIBLE_LOGMAG
    dense = np.sum(np.where(kept, signs * np.exp(np.where(kept, logs, 0.0)), 0.0), axis=1)
    assert np.array_equal(sgn, np.sign(dense).astype(int))
    np.testing.assert_allclose(np.exp(lm) * sgn, dense, rtol=1e-15)


def test_signed_logsumexp_denormal_band():
    # terms 708-745 below the max are denormal as floats; they are dropped,
    # a change of at most 1e-304 of the max term
    logs = np.array([[0.0, -710.0, -720.0, -744.0], [-710.0, -720.0, -740.0, -744.0]])
    sgn, lm = signed_logsumexp(logs, axis=1)
    assert np.array_equal(sgn, [1, 1])
    assert lm[0] == 0.0
    assert lm[1] == pytest.approx(-710.0 + math.log1p(math.exp(-10.0) + math.exp(-30.0)), abs=1e-14)
    sgn, lm = signed_logsumexp(np.full((1, 4), -np.inf), np.ones((1, 4)), axis=1)
    assert sgn[0] == 0 and lm[0] == -np.inf


def test_signed_logsumexp_unchanged_above_the_cutoff():
    # with every entry within NEGLIGIBLE_LOGMAG of its row max, the result
    # is bit-identical to the all-terms formula
    rng = np.random.default_rng(17)
    logs = rng.uniform(-NEGLIGIBLE_LOGMAG, 0.0, size=(30, 50)) + rng.uniform(-50, 50, size=(30, 1))
    signs = rng.choice([-1.0, 1.0], size=logs.shape)
    sgn, lm = signed_logsumexp(logs, signs, axis=1)
    old_sgn, old_lm = _old_signed_logsumexp(logs, signs)
    assert np.array_equal(sgn, old_sgn) and np.array_equal(lm, old_lm)


_EPS = 2.0**-52
_LOGS = st.one_of(st.floats(-3000.0, 700.0), st.just(-math.inf))


@st.composite
def _signed_slices(draw):
    """(logs, signs) of shape (rows, cols); cells are often drawn from a
    small shared pool, so equal magnitudes of opposite sign, and hence
    cancellation, come up often."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    pool = draw(st.lists(_LOGS, min_size=1, max_size=4))
    cell = st.one_of(_LOGS, st.sampled_from(pool))
    logs = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    signs = draw(
        st.lists(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(logs), np.array(signs)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_signed_slices())
@example((np.full((2, 5), -math.inf), np.ones((2, 5))))
@example((np.array([[700.0, 700.0, -3000.0]]), np.array([[1.0, -1.0, 1.0]])))
def test_signed_logsumexp_matches_mpmath_fsum(case):
    # against a 50-digit sum of the exact terms: the error is at most a few
    # ulp per term of the largest term, plus the rounding of a logmag of
    # size |logmag| (an absolute error of |logmag| ulp in the log)
    logs, signs = case
    got_sign, got_log = signed_logsumexp(logs, signs, axis=1)
    t_sign, t_log = signed_logsumexp(logs.T, signs.T, axis=0)
    assert np.array_equal(got_sign, t_sign) and np.array_equal(got_log, t_log)
    with mpmath.workdps(50):
        for row in range(logs.shape[0]):
            terms = [
                s * mpmath.exp(mpmath.mpf(v))
                for v, s in zip(logs[row], signs[row])
                if v != -math.inf
            ]
            if not terms:
                assert got_sign[row] == 0 and got_log[row] == -math.inf
                continue
            exact = mpmath.fsum(terms)
            scale = mpmath.fsum(abs(t) for t in terms)
            got = got_sign[row] * mpmath.exp(mpmath.mpf(got_log[row]))
            tol = 4 * len(terms) * _EPS * scale
            if exact != 0:
                tol += 4 * (abs(mpmath.log(abs(exact))) + 1) * _EPS * abs(exact)
            assert abs(got - exact) <= tol
            if abs(exact) > tol:
                assert got_sign[row] == mpmath.sign(exact)
