"""Tests of the benchmark itself: every workload runs in short mode and prints
a result line matching BENCHMARK.json, every correctness check rejects a
perturbed output, and the mpmath references reproduce.  No test looks at a
timing."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads as W  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["growth", "pv", "verify"])
def test_short_mode_result_line_matches_schema(workload, trace):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_json_names_the_benchmark():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == ["growth", "pv", "verify"]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mib", "setup_s"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pv", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# every check can fail


def test_kernel_check_rejects_a_value_perturbed_by_1e_5():
    inp = W.growth_inputs(5, short=True)
    sample = [inp.sample[0], inp.sample[-1]]
    values = W.batch_values([(a, x, y) for a, _, x, y in sample])
    assert W.kernel_sample_failures(sample, values)[0] == []
    perturbed = [(s, lm + math.log1p(1e-5)) for s, lm in values]
    bad, worst = W.kernel_sample_failures(sample, perturbed)
    assert len(bad) == len(sample) and worst > W.GROWTH_ORACLE_TOL


def test_slope_check_rejects_a_flat_order_3():
    etas = W.GROWTH_ETAS
    grows = {(2, 1): (etas, np.log(np.asarray(etas)) * 1.2), (1, 0): (etas, np.zeros(4))}
    assert W.slope_failures(grows) == []
    flat = {(2, 1): (etas, np.full(4, 0.1))}
    assert len(W.slope_failures(flat)) == 1
    growing_order_1 = {(1, 0): (etas, np.log(np.asarray(etas)) * 0.8)}
    assert len(W.slope_failures(growing_order_1)) == 1


def test_pv_check_rejects_a_perturbed_value():
    cases = W.pv_inputs(5, short=True)
    exact = [W.synthesize(c.transformed, c.points) for c in cases]
    assert W.pv_check(cases, exact)[2] == []
    perturbed = [v.copy() for v in exact]
    perturbed[-1][0] += 2e-3 * np.linalg.norm(exact[-1])
    assert len(W.pv_check(cases, perturbed)[2]) == 1


def test_pv_check_counts_a_refused_point_as_failed():
    cases = W.pv_inputs(5, short=True)
    out = [W.synthesize(c.transformed, c.points) for c in cases]
    out[0][0] = math.nan
    ops, failed, bad = W.pv_check(cases, out)
    assert failed == 1 and ops == sum(len(c.points) for c in cases) and bad == []


def test_verify_check_rejects_a_drifting_sweep():
    inp = W.verify_inputs(5, short=True)
    kernel = [(r[0], r[1]) for r in inp.refs]
    text = (
        "PASS [lemma-bounds] bound cz-kernel (max_ratio=1.2e+00 rel_change=0.0100)\n"
        "PASS [cz-local] kernel size supremum finite (log_sup=1.0)\n"
        "PASS [cz-local] kernel size supremum stable (rel_change=0.0100)\n"
        "PASS [cz-local] kernel gradient supremum stable (rel_change=0.0100)\n"
    )
    good = {"codes": [0, 0], "text": text, "kernel": kernel}
    ops, failed, bad = W.verify_check(inp, good)
    assert bad == [] and failed == 0 and ops == 1 + 3 + len(inp.pairs)
    sweep_line = "bound cz-kernel (max_ratio=1.2e+00 rel_change=0.0100)"
    drifting = dict(good, text=text.replace(sweep_line, sweep_line.replace("0.0100", "0.3000")))
    assert len(W.verify_check(inp, drifting)[2]) == 1
    cz_line = "gradient supremum stable (rel_change=0.0100)"
    cz_drift = dict(good, text=text.replace(cz_line, cz_line.replace("0.0100", "0.2500")))
    assert len(W.verify_check(inp, cz_drift)[2]) == 1
    assert len(W.verify_check(inp, dict(good, codes=[0, 4]))[2]) == 1


# ---------------------------------------------------------------------------
# the oracle


def test_stored_references_reproduce():
    assert os.path.basename(W.ORACLE_PAIRS) == oracle.PAIRS_FILE
    pairs, refs = W.load_oracle_pairs()
    for i in (0, 17, 40):
        alpha, x, y = pairs[i]
        got = oracle.kernel_reference(alpha, x, y)
        assert got[0] == refs[i][0]
        assert oracle.relative_error(got[0], got[1], refs[i]) <= 1e-13
        assert abs(got[2] - refs[i][2]) <= 1e-12


def test_oracle_agrees_with_itself_at_two_precisions():
    pairs, _ = W.load_oracle_pairs()
    alpha, x, y = pairs[5]
    assert oracle.self_check(alpha, x, y) <= 1e-20


def test_oracle_peak_radius_is_the_exponent_minimum():
    import mpmath

    with mpmath.workdps(oracle.DPS):
        x, y = [mpmath.mpf(19.0), mpmath.mpf(18.0)], [mpmath.mpf(10.3), mpmath.mpf(9.6)]
        r = oracle.peak_radius(x, y)

        def expo(t):
            return sum((a - t * b) ** 2 for a, b in zip(x, y)) / (1 - t * t)

        assert abs(mpmath.diff(expo, r)) < 1e-20 * expo(r)
        assert expo(r) < expo(r * 0.999) and expo(r) < expo(r * 1.001)


def test_oracle_rejects_the_diagonal():
    with pytest.raises(ValueError):
        oracle.kernel_reference((1, 0), [0.5, 0.5], [0.5, 0.5])
