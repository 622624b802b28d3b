"""rieszlab benchmark: the command-line entry point.

    python3 bench/run.py --workload {growth,pv,verify} --seed N --seconds S --trace {0,1} [--short]

Builds nothing: it imports rieszlab from the checkout's src/ and exits with
code 2, printing no result, when that is missing.  The run generates the
workload's inputs from the seed (set-up), repeats whole rounds of the
workload until S seconds have passed (the timed part, at least one round),
then checks every round's outputs.  With --trace 1 it adds one traced round
with spans at the import sites of every layer, and reports per-layer figures
instead of the end-to-end ones.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(section: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json lists under `section`,
    the one place their names and units are written."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def as_metrics(values: dict, section: str) -> dict:
    units = metric_units(section)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest peak resident set among this process and its reaped workers
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def layer_metrics(W, tracer, sampler, traced_wall, reference_s, busy_share, oracle_err):
    st = tracer.stats
    kb = st["kernels.batch"]
    lse = st["logscaled.signed_logsumexp"]
    tube = st["weaktype.tube_tf"].by_key
    apply_st = st["apply"]
    points = apply_st.calls
    sweep_key = st["weaktype.sweep_key"].by_key

    def per_point(x):
        return x / points if points else 0.0

    def median_of(key):
        vals = apply_st.by_key.get(key)
        return statistics.median(vals) if vals else 0.0

    values = {
        "kernels.batch.calls": kb.calls,
        "kernels.batch.pairs": int(kb.counters["pairs"]),
        "kernels.batch.pair_nodes": int(kb.counters["pair_nodes"]),
        "kernels.batch.self_s": kb.self_s,
        "kernels.batch.ns_per_pair_node": (
            1e9 * kb.self_s / kb.counters["pair_nodes"] if kb.counters["pair_nodes"] else 0.0
        ),
        "kernels.batch.wall_share": kb.total_s / traced_wall,
        "kernels.batch.live_node_share": W.live_node_share(sampler.subset(512)),
        "kernels.batch.oracle_max_rel_err": oracle_err,
        "logscaled.signed_logsumexp.calls": lse.calls,
        "logscaled.signed_logsumexp.elements": int(lse.counters["elements"]),
        "logscaled.signed_logsumexp.self_s": lse.self_s,
        "weaktype.level_set_report.self_s": st["weaktype.level_set_report"].self_s,
        "weaktype.pool.busy_share": busy_share,
        "weaktype.sweep.pairs": int(st["weaktype.sweep"].counters["pairs"]),
        "weaktype.sweep.self_s": st["weaktype.sweep"].self_s,
        "weaktype.lemma_kernel_batch.calls": st["weaktype.lemma_kernel_batch"].calls,
        "weaktype.lemma_kernel_batch.rows": int(st["weaktype.lemma_kernel_batch"].counters["rows"]),
        "weaktype.lemma_kernel_batch.self_s": st["weaktype.lemma_kernel_batch"].self_s,
        "weaktype.czlocal.self_s": st["weaktype.czlocal"].self_s,
        "regions.sample_local_pairs.calls": st["regions.sample_local_pairs"].calls,
        "regions.sample_local_pairs.self_s": st["regions.sample_local_pairs"].self_s,
        "apply.point_s.n1": median_of(1),
        "apply.point_s.n2": median_of(2),
        "apply.kernel_calls_per_point": per_point(kb.calls),
        "apply.pairs_per_point": per_point(kb.counters["pairs"]),
        "apply.self_s": apply_st.self_s,
        "spectral.synthesize.calls": st["spectral.synthesize"].calls,
        "spectral.synthesize.self_s": st["spectral.synthesize"].self_s,
        "cli.verify.self_s": st["cli.verify"].self_s,
        "trace.reference_s": reference_s,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_share": traced_wall / reference_s - 1.0,
    }
    for eta in W.GROWTH_ETAS:
        values[f"weaktype.tube_tf.eta{eta:g}_s"] = sum(tube.get(eta, []))
    for key in W.SWEEP_KEYS:
        values[f"weaktype.sweep.{key}_s"] = sum(sweep_key.get(key, []))
    return as_metrics(values, "per_layer")


def traced_round(W, wl, inputs, seed):
    """One round with spans, run serially so that no span is in a worker."""
    from spans import Tracer

    sampler = W.KernelSampler(seed)
    with Tracer() as tracer:
        W.patch_common(tracer, sampler)
        wl.patch(tracer)
        t0 = time.perf_counter()
        out = wl.run(inputs, 1)
        wall = time.perf_counter() - t0
    return out, wall, tracer, sampler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rieszlab benchmark")
    parser.add_argument("--workload", required=True, choices=("growth", "pv", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rieszlab", "__init__.py")):
        print(f"rieszlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads as W  # imports rieszlab, which builds BOUND_REGISTRY

    wl = W.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, args.short)
    setup_s = time.perf_counter() - _T0

    walls, cpus, outs = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        c0, t0 = _cpu_s(), time.perf_counter()
        outs.append(wl.run(inputs, wl.jobs))
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - c0)
    peak_rss = _peak_rss_mib()
    wall_s, cpu_s = statistics.median(walls), statistics.median(cpus)

    problems: list[str] = []
    oracle_err = 0.0
    if args.workload == "growth":
        problems, oracle_err = W.growth_static_check(inputs)

    if args.trace:
        out, traced_wall, tracer, sampler = traced_round(W, wl, inputs, args.seed)
        outs.append(out)

    attempted = failed = 0
    for out in outs:
        ops, bad_ops, bad = wl.check(inputs, out)
        attempted += ops
        failed += bad_ops
        problems += bad

    if args.trace:
        if args.workload == "verify":
            oracle_err = max(W.oracle_pair_errors(inputs, outs[-1]["kernel"]))
        elif args.workload == "pv":
            rows = sampler.subset(4)
            sample = [(a, None, x, y) for a, x, y in rows]
            oracle_err = max(W.kernel_oracle_errors(sample, W.batch_values(rows)))
        # the traced round is serial, so a pooled workload's untraced
        # reference is its rounds' CPU time rather than their wall time
        reference_s = cpu_s if wl.jobs > 1 else wall_s
        busy_share = cpu_s / (wl.jobs * wall_s)
        metrics = layer_metrics(W, tracer, sampler, traced_wall, reference_s, busy_share, oracle_err)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, **tracer.summary()}, fh, indent=1, sort_keys=True)
    else:
        values = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mib": peak_rss, "setup_s": setup_s}
        metrics = as_metrics(values, "end_to_end")

    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
