"""Alternating parent/change runs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_16.json --pairs 10 \
        --workload growth --workload pv [--parent HEAD] [--seed 1] [--seconds 25] \
        [--tube-tf] [--outputs] [--tier1] [--traced W ...]

The change is this checkout, working tree included; the parent is the commit
`--parent` (default HEAD), exported with `git archive` to a temporary
directory that is removed at the end.  For each workload the tool runs

    python3 bench/run.py --workload W --seed S --seconds T

once on each side per pair, the parent first in even pairs and the change
first in odd ones, one run at a time, and waits for each run to end.  The
file holds the machine, the parent's sha, the command, every run, and per
side the median and quartiles (`statistics.quantiles`, inclusive) of each
end-to-end metric, with the number of pairs in which the change ran lower
and whether the gain rule holds: lower in at least 9 of 10 pairs, and the
parent's median above the change's by more than the parent's quartile
spread.  Each side also gets, on request, and with the same
alternation of sides (each side's `wc -l src/rieszlab/*.py` total is always
written, as `src_lines`):

  --tube-tf  seconds of one default-grid weaktype._tube_tf_logs call for
             alpha (2,1) at eta 4 and 10, one fresh process per call;
  --outputs  sha256 of the `pv` round's 44 values (float64 bytes) and of a
             `verify` round's CLI text (UTF-8) at the seed;
  --tier1    the tier-1 test run (`pytest -q -rA`): its summary line and the
             seconds that acceptance check 6 (growth-dichotomy) reports;
  --traced W the per-layer metrics of one traced round of workload W
             (`bench/run.py --workload W --seed S --seconds 0 --trace 1`).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
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


def run_once(root: str, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", f"{seconds:g}", "--trace", str(int(trace))]
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
        out[name].update(gain_rule(out[name]["parent"], out[name]["change"]))
    return out


def gain_rule(parent: dict, change: dict) -> dict:
    """How often the change ran lower, and whether that is a gain: lower in
    at least 9 of 10 pairs, and the medians further apart than the parent's
    quartiles."""
    lower = sum(c < p for p, c in zip(parent["runs"], change["runs"]))
    gap = parent["median"] - change["median"]
    return {
        "change_lower_in_pairs": lower,
        "gain_rule_holds": 10 * lower >= 9 * len(parent["runs"])
        and gap > parent["q3"] - parent["q1"],
    }


TUBE_TF = """
import sys, time
sys.path.insert(0, "src")
import rieszlab.weaktype as wt
from rieszlab.geometry import MultiIndex
cfg = wt.CounterexampleConfig(alpha=MultiIndex.of(2, 1), etas=(4.0, 6.0, 8.0, 10.0), n=2)
t0 = time.perf_counter()
wt._tube_tf_logs(cfg, float(sys.argv[1]))
print(time.perf_counter() - t0)
"""

OUTPUTS = """
import hashlib, json, sys
import numpy as np
sys.path[:0] = ["src", "bench"]
import workloads as W
seed = int(sys.argv[1])
pv = np.concatenate(W.pv_run(W.pv_inputs(seed, False), 1)).astype(np.float64)
text = W.verify_run(W.verify_inputs(seed, False), 1)["text"]
print(json.dumps({
    "pv_values": int(pv.size),
    "pv_values_sha256": hashlib.sha256(pv.tobytes()).hexdigest(),
    "verify_text_sha256": hashlib.sha256(text.encode()).hexdigest(),
}))
"""

_CHECK6 = re.compile(r"\[acceptance\] growth-dichotomy \(.* (\d+)s\)")


def run_script(root: str, script: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=root, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"script in {root} exited {done.returncode}: {done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def src_lines(root: str) -> int:
    """Total of `wc -l src/rieszlab/*.py`: newline characters in those files."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "rieszlab", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def tier1(root: str) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "--continue-on-collection-errors"]
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    lines = done.stdout.strip().splitlines()
    check6 = [m.group(1) for m in map(_CHECK6.search, lines) if m]
    return {"summary": lines[-1], "check6_s": int(check6[0]) if check6 else None}


def side_extras(
    roots: dict, seed: int, tube_tf: bool, outputs: bool, tier: bool, traced: list
) -> dict:
    """The size of src/ and the requested per-side figures; the parent goes
    first, then the change, and timed figures get a second round in the
    other order."""
    out = {"src_lines": {side: src_lines(roots[side]) for side in SIDES}}
    if tube_tf:
        out["tube_tf_default_grid_s"] = {
            f"eta{eta}": {side: [] for side in SIDES} for eta in (4, 10)
        }
        for sides in (SIDES, SIDES[::-1]):
            for eta in (4, 10):
                for side in sides:
                    t = float(run_script(roots[side], TUBE_TF, str(eta)))
                    out["tube_tf_default_grid_s"][f"eta{eta}"][side].append(round(t, 3))
    if outputs:
        out["outputs"] = {
            side: json.loads(run_script(roots[side], OUTPUTS, str(seed))) for side in SIDES
        }
    if tier:
        out["tier1"] = {side: tier1(roots[side]) for side in SIDES}
    for workload in traced:
        rounds = {side: run_once(roots[side], workload, seed, 0, True) for side in SIDES}
        out[f"traced_{workload}_round"] = {
            side: {name: m["value"] for name, m in rounds[side]["metrics"].items()}
            for side in SIDES
        }
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
    parser.add_argument("--tube-tf", action="store_true", help="time _tube_tf_logs per side")
    parser.add_argument("--outputs", action="store_true", help="hash pv and verify outputs")
    parser.add_argument("--tier1", action="store_true", help="run tier-1 per side")
    parser.add_argument("--traced", action="append", default=[],
                        choices=("growth", "pv", "verify"), help="one traced round per side")
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
            **side_extras(
                roots, args.seed, args.tube_tf, args.outputs, args.tier1, args.traced
            ),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
