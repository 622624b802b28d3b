"""End-to-end acceptance suite.

Each test here covers one headline guarantee of the package and prints a
single PASS or FAIL line (visible with pytest -rA, -s, or on failure); the
assert carries the same condition so pytest records the verdict.  Every
check also enforces a wall-clock budget, asserted after the mathematical
condition so a slow box is diagnosed as a budget miss, not a wrong value.

Expected values follow the rest of the test suite: closed forms, independent
quadrature oracles, or cross-validation between two unrelated code paths.
Nothing here is tuned to the implementation's output.
"""

import math
import os
import time

import numpy as np

import rieszlab.cli as cli
import rieszlab.weaktype as wt
from rieszlab import MultiIndex
from rieszlab.apply import GridFunction, PVConfig, apply_riesz
from rieszlab.cli import suite_semigroup
from rieszlab.geometry import identity_residuals
from rieszlab.spectral import (
    SpectralCoefficients,
    apply_riesz_spectral,
    l2_norm_bound,
    orthonormality_defect,
    synthesize,
)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} [acceptance] {name} ({detail})")
    return ok


def test_1_exact_identities():
    # the three algebraic identities behind every kernel bound, at random
    # triples in the regime each identity is quoted for
    t0 = time.monotonic()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    slack = math.inf
    for n in (1, 2, 3):
        res = identity_residuals(rng, n, 10_000)
        worst = max(worst, res["exponent"], res["peak_split"], res["peak_distance"])
        slack = min(slack, res["gap_slack"])
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and slack >= 1.0
    assert report(
        "exact-identities",
        ok,
        f"max_residual={worst:.3e} min_gap_slack={slack:.3f} {elapsed:.1f}s",
    )
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"


def test_2_eigenbasis_and_heat():
    # Gram defect of the weighted Hermite family through degree 10, then the
    # heat semigroup: composition s+t and the eigenvalue relation on a member
    t0 = time.monotonic()
    defect = max(orthonormality_defect(n, 10) for n in (1, 2))
    checks = suite_semigroup(7, 384)
    heat_ok = all(ok for _, ok, _ in checks)
    elapsed = time.monotonic() - t0
    ok = defect <= 1e-8 and heat_ok
    assert report(
        "eigenbasis-and-heat",
        ok,
        f"gram_defect={defect:.3e} heat_checks={sum(o for _, o, _ in checks)}/"
        f"{len(checks)} {elapsed:.1f}s",
    )
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


def test_3_closed_form_amplifications():
    # coefficient amplification suprema with known exact values: sqrt(2) for
    # a first derivative, sqrt(8) for a second, both attained at the lowest
    # shell; the sweep runs to shell 10^4 so the sup is located, not assumed
    t0 = time.monotonic()
    r1 = l2_norm_bound(MultiIndex.of(1), 10_000)
    r2 = l2_norm_bound(MultiIndex.of(2), 10_000)
    e1 = abs(r1.value - math.sqrt(2.0))
    e2 = abs(r2.value - math.sqrt(8.0))
    elapsed = time.monotonic() - t0
    ok = e1 <= 1e-10 and e2 <= 1e-10 and r1.sup_located and r2.sup_located
    assert report(
        "closed-form-amplifications",
        ok,
        f"err_sqrt2={e1:.3e} err_sqrt8={e2:.3e} located={r1.sup_located and r2.sup_located}"
        f" {elapsed:.1f}s",
    )
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"


MIX1 = {(0,): 0.9, (2,): -0.35, (3,): 0.2}
MIX2 = {(0, 0): 0.9, (1, 1): -0.3, (2, 1): 0.2}


def _mixture(n: int, coeffs: dict):
    c = SpectralCoefficients(
        n=n,
        max_degree=max(sum(b) for b in coeffs),
        coeffs=dict(coeffs),
        top_shell_fraction=0.0,
    )
    f = GridFunction(
        n=n,
        points=np.zeros((1, n)),
        values=np.zeros(1),
        evaluator=lambda pts: synthesize(c, np.atleast_2d(pts)),
        support_center=np.zeros(n),
        support_radius=8.5,
    )
    return c, f


def test_4_spectral_vs_quadrature():
    # the transform of a fixed eigenfunction mixture, computed two unrelated
    # ways: the exact coefficient ladder versus pointwise principal-value
    # quadrature, compared in relative l2 over 50 random points per case.
    # rel_tol on the excision ladder is loosened to 5e-3 because the pointwise
    # consistency estimate degrades near accidental zeros of the output (the
    # absolute error stays at the ladder scale, which l2 comparison absorbs).
    t0 = time.monotonic()
    cases = [
        (1, (1,), MIX1),
        (1, (3,), MIX1),
        (2, (1, 0), MIX2),
        (2, (1, 1), MIX2),
        (2, (2, 1), MIX2),
    ]
    print(
        "NOTE [acceptance] spectral-vs-quadrature: n=1 alpha=(2,) is not in the"
        " case list: with every component of alpha even the excision path"
        " refuses on-support points (the excised limit needs a diagonal"
        " correction term this package does not implement); test_apply.py"
        " checks that alpha off the support against direct quadrature instead"
    )
    pv = PVConfig(rel_tol=5e-3)
    rels = []
    for k, (n, a, mix) in enumerate(cases):
        alpha = MultiIndex.of(*a)
        c, f = _mixture(n, mix)
        pts = np.random.default_rng(100 + k).uniform(-2.5, 2.5, size=(50, n))
        want = synthesize(apply_riesz_spectral(c, alpha), pts)
        got = np.array([apply_riesz(alpha, f, p, pv=pv) for p in pts])
        rels.append(float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    elapsed = time.monotonic() - t0
    ok = max(rels) <= 1e-3
    detail = " ".join(
        f"n={n},alpha={a}:{r:.2e}" for (n, a, _), r in zip(cases, rels)
    )
    assert report("spectral-vs-quadrature", ok, f"{detail} {elapsed:.0f}s")
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.0f}s"


def test_5_local_kernel_suprema():
    # scale-invariant kernel and gradient statistics over local pairs: the
    # running supremum must move less than 20 percent when the sample doubles
    # from 1000 to 2000 pairs, the finite-sample form of "these sups exist"
    t0 = time.monotonic()
    results = [
        wt.czlocal_supremum(MultiIndex.of(*a), 1000, np.random.default_rng(11))
        for a in ((1, 0), (1, 1), (2, 1))
    ]
    drift = max(
        max(abs(r.kernel_rel_change), abs(r.gradient_rel_change)) for r in results
    )
    finite = all(
        math.isfinite(r.log_sup_kernel) and math.isfinite(r.log_sup_gradient)
        for r in results
    )
    elapsed = time.monotonic() - t0
    ok = finite and drift <= 0.2
    assert report(
        "local-kernel-suprema",
        ok,
        f"max_doubling_drift={drift:.4f} finite={finite} {elapsed:.1f}s",
    )
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"


# log quasi-norms at eta 4, 6, 8, 10 on the default grid, with Tf summed by
# a 20 x 48 polar volume rule over the ball: a path that shares no ball
# nodes with the boundary integral the experiment now uses
VOLUME_RULE_LOG_QUASI_NORMS = {
    (1, 0): (-2.172557156667601, -2.612261856214161, -2.962626132888147, -3.178467473526837),
    (1, 1): (-0.0808533694400353, -0.042013772216193956, -0.020090498029276205, -0.009255026656717291),
    (2, 1): (1.7404822708651437, 2.118182375186734, 2.407999643228493, 2.6362164425047467),
    (2, 2): (3.3456272014226442, 4.06769180112218, 4.641550389506165, 5.123902014151781),
}


def test_6_growth_dichotomy():
    # the headline experiment: displaced-tube quasi-norm lower bounds against
    # the diagonal ball family.  Orders 1 and 2 must stay flat (slope <= 0.3,
    # total spread < 3x); order 3 must grow with slope >= 0.6 and order 4
    # with slope >= 1.5, separating bounded from unbounded cleanly.  Every
    # quasi-norm matches the volume rule's within 1e-9 in its log
    t0 = time.monotonic()
    jobs = min(4, os.cpu_count() or 1)
    lines = []
    all_ok = True
    for spec in ((1, 0), (1, 1), (2, 1), (2, 2)):
        cfg = wt.CounterexampleConfig(
            alpha=MultiIndex.of(*spec), etas=(4.0, 6.0, 8.0, 10.0), n=2
        )
        res = wt.counterexample_lower_bound(cfg, jobs=jobs)
        all_ok &= res.passed
        drift = float(np.max(np.abs(res.log_quasi_norms - VOLUME_RULE_LOG_QUASI_NORMS[spec])))
        all_ok &= drift <= 1e-9
        extra = (
            f" factor={res.expectation['factor']:.2f}"
            if "factor" in res.expectation
            else ""
        )
        lines.append(f"alpha={spec}:slope={res.slope:.3f}{extra} drift={drift:.1e}")
    elapsed = time.monotonic() - t0
    assert report("growth-dichotomy", all_ok, " ".join(lines) + f" {elapsed:.0f}s")
    assert elapsed < 1800.0, f"budget exceeded: {elapsed:.0f}s"


def test_7_rank_one_quasinorms():
    # weak quasi-norm probe versus the closed-form value for the rank-one
    # comparison operator, on the hypothesis boundary and in the interior;
    # the probe measures its level sets with the sorted-suffix sum that the
    # growth experiment of check 6 uses, the reference is a closed form
    t0 = time.monotonic()
    pairs = {
        1: [(1.0, 0.0), (1.0, -2.0), (0.5, 0.0), (0.0, 0.0)],
        2: [(2.0, 0.0), (1.0, -1.0), (1.0, 0.0), (1.5, 0.5), (0.0, 1.0)],
    }
    worst = 0.0
    count = 0
    for n, lst in pairs.items():
        for mu, nu in lst:
            # the boundedness hypotheses of the rank-one kernel
            assert mu + nu >= n - 2 and mu <= n
            exact = wt.rank_one_quasinorm_exact(n, mu, nu)
            probe = wt.weak_quasinorm_probe(n, mu, nu)
            worst = max(worst, abs(math.expm1(probe - exact)))
            count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 0.02
    assert report(
        "rank-one-quasinorms",
        ok,
        f"cases={count} max_rel={worst:.2e} {elapsed:.1f}s",
    )
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"


def test_8_bound_sweeps():
    # every registered bound ratio sweep is finite and stable under sample
    # doubling, both through the library call and through the CLI gate
    t0 = time.monotonic()
    sweeps = wt.run_all_bound_sweeps()
    bad = sorted(
        k
        for k, v in sweeps.items()
        if not (v.stable and math.isfinite(v.log_max_ratio))
    )
    rc = cli.main(["verify", "lemma-bounds", "--all"])
    elapsed = time.monotonic() - t0
    ok = not bad and rc == 0
    assert report(
        "bound-sweeps",
        ok,
        f"registered={len(sweeps)} unstable={bad or 'none'} cli_rc={rc} {elapsed:.0f}s",
    )
    assert elapsed < 1200.0, f"budget exceeded: {elapsed:.0f}s"
