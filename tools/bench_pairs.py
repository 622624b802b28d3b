"""Alternating parent/change runs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_15.json --pairs 10 \
        --workload growth --workload pv [--parent HEAD] [--seed 1] [--seconds 25]

The change is this checkout, working tree included; the parent is the commit
`--parent` (default HEAD), exported with `git archive` to a temporary
directory that is removed at the end.  For each workload the tool runs

    python3 bench/run.py --workload W --seed S --seconds T

once on each side per pair, the parent first in even pairs and the change
first in odd ones, one run at a time, and waits for each run to end.  The
file holds the machine, the parent's sha, the command, every run, and per
side the median and quartiles (`statistics.quantiles`, inclusive) of each
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "cpu_s", "peak_rss_mib", "setup_s")
SIDES = ("parent", "change")


def export(rev: str, dest: str) -> str:
    """Extract the tree of `rev` into dest; returns its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "-o", archive, sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "tree"), filter="data")
    os.remove(archive)
    return sha


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", f"{seconds:g}"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": runs}


def bench_workload(roots: dict, workload: str, pairs: int, seed: int, seconds: float) -> dict:
    results = {side: [] for side in SIDES}
    order = []
    for i in range(pairs):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(sides[0])
        for side in sides:
            res = run_once(roots[side], workload, seed, seconds)
            results[side].append(res)
            wall = res["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {i + 1}/{pairs} {side}: wall_s {wall:.4f}", file=sys.stderr)
    out = {"pairs": pairs, "first_in_pair": order}
    for side in SIDES:
        out[f"{side}_failed_of_attempted_per_run"] = [
            f"{r['failed']}/{r['attempted']}" for r in results[side]
        ]
        out[f"{side}_correct"] = all(r["correct"] for r in results[side])
    for name in METRICS:
        out[name] = {
            side: summary([round(r["metrics"][name]["value"], 4) for r in results[side]])
            for side in SIDES
        }
    walls = [out["wall_s"][side]["runs"] for side in SIDES]
    out["change_wall_s_lower_in_pairs"] = sum(c < p for p, c in zip(*walls))
    return out


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("growth", "pv", "verify"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--what", default="", help="one line on what the change is")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        sha = export(args.parent, tmp)
        roots = {"parent": os.path.join(tmp, "tree"), "change": ROOT}
        report = {
            "what": args.what,
            "machine": machine(),
            "parent_sha": sha,
            "command": f"python3 bench/run.py --workload W --seed {args.seed} "
            f"--seconds {args.seconds:g}",
            "workloads": {
                w: bench_workload(roots, w, args.pairs, args.seed, args.seconds)
                for w in args.workload
            },
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
