"""Command-line front end: kernel tables, the tube counterexample, and the
verification suites.

Exit codes: 0 success, 2 invalid input, 3 quadrature non-convergence,
4 a verification check or growth expectation failed.  Outputs are plain
text or JSON with sorted keys and fixed float formatting, so a given
configuration always produces byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from rieszlab.geometry import MultiIndex, identity_residuals
from rieszlab.kernels import heat_kernel, riesz_kernel
from rieszlab.quadrature import NonConvergenceError, gauss_legendre
from rieszlab.spectral import l2_norm_bound, orthonormality_defect
from rieszlab.hermite import gamma_h
from rieszlab.weaktype import (
    CounterexampleConfig,
    counterexample_lower_bound,
    czlocal_supremum,
    resolve_registry_key,
    run_all_bound_sweeps,
    write_counterexample_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4

SUITES = (
    "identities",
    "orthonormality",
    "semigroup",
    "cz-local",
    "lemma-bounds",
    "l2-norms",
)

_CONFIG_KEYS = {
    "seed": int,
    "count": int,
    "jobs": int,
    "ball_radius": float,
    "tube_perp_half": float,
    "grid_axis": int,
    "grid_perp": int,
}


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}") from exc


def _parse_alpha(text: str) -> MultiIndex:
    try:
        return MultiIndex.of(*[int(p) for p in text.split(",") if p.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"cannot parse multi-index {text!r}") from exc


def _load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_KEYS[key](val)
    return values


def _resolve_config(args) -> dict:
    """Precedence: defaults < config file < flags."""
    cfg = {"seed": 7, "count": 384, "jobs": 1}
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


# --------------------------------------------------------------------------
# kernel tables


def _kernel_rows(alpha: MultiIndex, pairs):
    rows = []
    for x, y in pairs:
        kv = riesz_kernel(alpha, x, y)
        rows.append(
            (
                ",".join(f"{v:.12g}" for v in x),
                ",".join(f"{v:.12g}" for v in y),
                f"{kv.value.logmag:.12e}",
                f"{kv.value.sign:+d}",
                f"subdivisions={kv.subdivisions} err_log={kv.err_logmag:.3e}",
            )
        )
    return rows


def _read_pair_file(path: str, dim: int):
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ";" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'x1,..;y1,..'")
            xs, _, ys = line.partition(";")
            x, y = _parse_vector(xs), _parse_vector(ys)
            if x.size != dim or y.size != dim:
                raise ValueError(f"{path}:{lineno}: wrong dimension")
            pairs.append((x, y))
    return pairs


def cmd_kernel(args) -> int:
    alpha = _parse_alpha(args.alpha)
    n = alpha.dim
    if args.batch:
        pairs = _read_pair_file(args.batch, n)
    else:
        if args.x is None or args.y is None:
            raise ValueError("need --x and --y, or --batch")
        pairs = [(_parse_vector(args.x), _parse_vector(args.y))]
        if pairs[0][0].size != n or pairs[0][1].size != n:
            raise ValueError("point dimension must match alpha")
    rows = _kernel_rows(alpha, pairs)
    print("x;y;log_value;sign;diagnostics")
    for row in rows:
        print(";".join(row))
    return EXIT_OK


# --------------------------------------------------------------------------
# counterexample


def cmd_counterexample(args) -> int:
    cfg_values = _resolve_config(args)
    alpha = _parse_alpha(args.alpha)
    etas = tuple(float(p) for p in args.etas.split(","))
    overrides = {
        key: cfg_values[key]
        for key in ("ball_radius", "tube_perp_half", "grid_axis", "grid_perp")
        if key in cfg_values
    }
    cfg = CounterexampleConfig(alpha=alpha, etas=etas, n=alpha.dim, **overrides)
    result = counterexample_lower_bound(cfg, jobs=cfg_values["jobs"])
    for eta, logq in zip(result.etas, result.log_quasi_norms):
        print(f"eta={eta:g} quasi_norm={math.exp(logq):.6e}")
    print(f"slope={result.slope:.4f} residual={result.residual:.4f}")
    expect = ", ".join(
        f"{k}={v:g}" if isinstance(v, (int, float)) else f"{k}={v}"
        for k, v in sorted(result.expectation.items())
    )
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} growth expectation ({expect})")
    if args.out:
        write_counterexample_report(
            result, args.out + ".csv", args.out + ".json"
        )
        print(f"wrote {args.out}.csv and {args.out}.json")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# verification suites


def suite_identities(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    triples = max(count * 8, 4000)
    checks = []
    for n in (1, 2, 3):
        res = identity_residuals(rng, n, triples)
        for name in ("exponent", "peak_split", "peak_distance"):
            checks.append(
                (
                    f"identity {name} n={n}",
                    res[name] <= 1e-12,
                    f"residual={res[name]:.3e}",
                )
            )
        checks.append(
            (
                f"global separation n={n}",
                res["gap_slack"] >= 1.0,
                f"slack={res['gap_slack']:.6f}",
            )
        )
    return checks


def suite_orthonormality(seed: int, count: int) -> list:
    checks = []
    for n in (1, 2):
        defect = orthonormality_defect(n, 8)
        checks.append(
            (
                f"eigenbasis orthonormality n={n} deg<=8",
                defect <= 1e-8,
                f"defect={defect:.3e}",
            )
        )
    return checks


def suite_semigroup(seed: int, count: int) -> list:
    checks = []
    z, w = gauss_legendre([-9.0, 9.0], 220)
    s, t = 0.35, 0.6
    for x, y in ((0.2, -0.4), (1.0, 0.7), (-1.5, 2.0)):
        conv = sum(
            wi * heat_kernel(s, np.array([x]), np.array([zi])).to_float()
            * heat_kernel(t, np.array([zi]), np.array([y])).to_float()
            for zi, wi in zip(z, w)
        )
        direct = heat_kernel(s + t, np.array([x]), np.array([y])).to_float()
        rel = abs(conv - direct) / abs(direct)
        checks.append(
            (
                f"semigroup composition at ({x:g},{y:g})",
                rel <= 1e-6,
                f"rel={rel:.3e}",
            )
        )
    beta = MultiIndex.of(2)
    lam = 1 + beta.order
    for x in (0.3, 1.2):
        lhs = sum(
            wi * heat_kernel(t, np.array([x]), np.array([zi])).to_float()
            * gamma_h(beta, np.array([zi])).to_float()
            for zi, wi in zip(z, w)
        )
        rhs = math.exp(-t * lam) * gamma_h(beta, np.array([x])).to_float()
        rel = abs(lhs - rhs) / abs(rhs)
        checks.append(
            (
                f"heat eigenrelation beta={tuple(beta)} at x={x:g}",
                rel <= 1e-6,
                f"rel={rel:.3e}",
            )
        )
    return checks


def suite_cz_local(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    result = czlocal_supremum(MultiIndex.of(1, 1), max(count, 500), rng)
    return [
        (
            "kernel size supremum finite",
            math.isfinite(result.log_sup_kernel),
            f"log_sup={result.log_sup_kernel:.4f}",
        ),
        (
            "kernel size supremum stable",
            result.kernel_rel_change <= 0.2,
            f"rel_change={result.kernel_rel_change:.4f}",
        ),
        (
            "kernel gradient supremum stable",
            result.gradient_rel_change <= 0.2,
            f"rel_change={result.gradient_rel_change:.4f}",
        ),
    ]


def suite_lemma_bounds(seed: int, count: int, which: str | None = None) -> list:
    keys = None if which is None else [which]
    results = run_all_bound_sweeps(keys, count=count, seed=seed)
    checks = []
    for key, res in results.items():
        ok = res.stable and math.isfinite(res.log_max_ratio)
        checks.append(
            (
                f"bound {key}",
                ok,
                f"max_ratio={res.max_ratio:.4e} rel_change={res.rel_change:.4f}",
            )
        )
    return checks


def suite_l2_norms(seed: int, count: int) -> list:
    first = l2_norm_bound(MultiIndex.of(1), 10_000)
    second = l2_norm_bound(MultiIndex.of(2), 10_000)
    cross = l2_norm_bound(MultiIndex.of(1, 1), 400)
    return [
        (
            "order-1 norm equals sqrt(2)",
            abs(first.value - math.sqrt(2.0)) <= 1e-10,
            f"value={first.value:.12f}",
        ),
        (
            "order-2 norm equals sqrt(8) at beta=0",
            abs(second.value - math.sqrt(8.0)) <= 1e-10 and second.argmax == (0,),
            f"value={second.value:.12f} argmax={second.argmax}",
        ),
        (
            "mixed-order sweep located its supremum",
            cross.sup_located,
            f"value={cross.value:.6f} argmax={cross.argmax}",
        ),
    ]


_SUITE_RUNNERS = {
    "identities": suite_identities,
    "orthonormality": suite_orthonormality,
    "semigroup": suite_semigroup,
    "cz-local": suite_cz_local,
    "lemma-bounds": suite_lemma_bounds,
    "l2-norms": suite_l2_norms,
}


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    which = None
    if args.which is not None:
        if args.suite != "lemma-bounds":
            raise ValueError("--which applies to the lemma-bounds suite")
        if args.all:
            raise ValueError("--which and --all are mutually exclusive")
        which = resolve_registry_key(args.which)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    report = {"config": {**cfg, "suite": args.suite, "which": which}, "suites": {}}
    all_ok = True
    for suite in suites:
        runner = _SUITE_RUNNERS[suite]
        if suite == "lemma-bounds":
            checks = runner(cfg["seed"], cfg["count"], which)
        else:
            checks = runner(cfg["seed"], cfg["count"])
        entries = []
        for name, ok, detail in checks:
            all_ok &= bool(ok)
            print(f"{'PASS' if ok else 'FAIL'} [{suite}] {name} ({detail})")
            entries.append({"name": name, "ok": bool(ok), "detail": detail})
        report["suites"][suite] = entries
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("all checks passed" if all_ok else "some checks FAILED")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riesz-lab",
        description="numerical laboratory for inverse-Gaussian Riesz transforms",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--count", type=int, help="sample count override")
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="at most N worker processes; a run too small to repay one stays in-process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="tabulate kernel values")
    k.add_argument("--alpha", required=True, help="multi-index, e.g. 2,1")
    k.add_argument("--x", help="evaluation point, comma-separated")
    k.add_argument("--y", help="second point, comma-separated")
    k.add_argument("--batch", help="file of 'x1,..;y1,..' pairs")
    k.set_defaults(func=cmd_kernel)

    c = sub.add_parser("counterexample", help="tube growth experiment")
    c.add_argument("--alpha", required=True, help="multi-index, e.g. 2,1")
    c.add_argument("--etas", default="4,6,8,10", help="comma-separated etas")
    c.add_argument("--out", help="output prefix for CSV and JSON reports")
    c.set_defaults(func=cmd_counterexample)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suite", choices=SUITES + ("all",))
    v.add_argument("--which", help="single named bound (lemma-bounds only)")
    v.add_argument("--all", action="store_true", help="every bound in the registry")
    v.add_argument("--out", help="JSON report path")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
