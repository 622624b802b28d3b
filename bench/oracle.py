"""Independent mpmath reference for the Riesz kernel of the inverse-Gaussian
Laplacian.

The kernel is the one-dimensional r-integral

    K(x, y) = (-1)^|a| / (Gamma(|a|/2) pi^{n/2})
              * int_0^1 r^{n-1} (-log r)^{|a|/2-1} (1-r^2)^{-(n+|a|)/2}
                        H_a(u) exp(-|u|^2) dr,     u = (x - r y)/sqrt(1-r^2),

with H_a the product of physicists' Hermite polynomials.  Nothing here is
imported from rieszlab: the integrand, the Hermite recurrence and the
breakpoints are written out again so that an error in the package cannot
reach its reference.

The exponent |x - r y|^2/(1 - r^2) has a single minimum r* in (0, 1), a root
of (x.y) r^2 - (|x|^2+|y|^2) r + x.y = 0.  The integrand is sharply peaked
there (far tube pairs) or spread over many decades of 1 - r (near-diagonal
pairs), so mpmath.quad gets breakpoints at r*, at r* +- k sigma for the
Gaussian width sigma, and geometrically in 1 - r on both sides of 1 - r*.
Without them tanh-sinh is off by up to 180% on eta = 10 tube pairs.
"""

from __future__ import annotations

import mpmath

DPS = 30


def _hermite(k: int, u):
    h_prev, h = mpmath.mpf(1), 2 * u
    if k == 0:
        return h_prev
    for j in range(1, k):
        h_prev, h = h, 2 * u * h - 2 * j * h_prev
    return h


def _dot(a, b):
    return mpmath.fsum(p * q for p, q in zip(a, b))


def peak_radius(x, y):
    """Minimiser r* of |x - r y|^2/(1 - r^2) over [0, 1)."""
    p = _dot(x, y)
    if p <= 0:
        return mpmath.mpf(0)
    s = _dot(x, x) + _dot(y, y)
    diff = [a - b for a, b in zip(x, y)]
    total = [a + b for a, b in zip(x, y)]
    d, t = mpmath.sqrt(_dot(diff, diff)), mpmath.sqrt(_dot(total, total))
    # (s^2 - 4p^2) = |x-y|^2 |x+y|^2, and the smaller root is 2p/(s + sqrt(.))
    return 2 * p / (s + d * t)


def _breakpoints(x, y):
    r_star = peak_radius(x, y)
    one = mpmath.mpf(1)

    def expo(r):
        diff = [a - r * b for a, b in zip(x, y)]
        return _dot(diff, diff) / (1 - r * r)

    pts = {mpmath.mpf("0.5")}
    if 0 < r_star < 1:
        pts.add(r_star)
        curv = mpmath.diff(expo, r_star, 2)
        if curv > 0:
            sigma = 1 / mpmath.sqrt(curv)
            for k in (1, 2, 4, 8, 16, 32):
                pts.add(r_star - k * sigma)
                pts.add(r_star + k * sigma)
        gap = one - r_star
    else:
        gap = mpmath.mpf("0.5")
    for k in range(-12, 13):
        pts.add(one - gap * mpmath.mpf(4) ** k)
    inner = sorted(p for p in pts if 0 < p < 1)
    return [mpmath.mpf(0)] + inner + [one]


def _integrand(alpha, x, y, absolute: bool):
    n = len(x)
    order = sum(alpha)
    half = mpmath.mpf(order) / 2

    def f(r):
        if r <= 0 or r >= 1:
            return mpmath.mpf(0)
        one_m_r2 = (1 - r) * (1 + r)
        scale = mpmath.sqrt(one_m_r2)
        u = [(a - r * b) / scale for a, b in zip(x, y)]
        h = mpmath.mpf(1)
        for k, uj in zip(alpha, u):
            h *= _hermite(k, uj)
        if absolute:
            h = abs(h)
        return (
            r ** (n - 1)
            * (-mpmath.log(r)) ** (half - 1)
            * one_m_r2 ** (-(n + order) / mpmath.mpf(2))
            * h
            * mpmath.exp(-_dot(u, u))
        )

    return f


def _integrals(alpha, x, y, dps: int):
    """(int integrand dr, int |integrand| dr) as mpmath numbers at dps digits."""
    with mpmath.workdps(dps):
        xm = [mpmath.mpf(float(v)) for v in x]
        ym = [mpmath.mpf(float(v)) for v in y]
        if all(a == b for a, b in zip(xm, ym)):
            raise ValueError("kernel undefined on the diagonal")
        pts = _breakpoints(xm, ym)
        value = mpmath.quad(_integrand(alpha, xm, ym, False), pts)
        mass = mpmath.quad(_integrand(alpha, xm, ym, True), pts)
        return +value, +mass


def _check_args(alpha, x, y) -> tuple:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != len(x) or len(x) != len(y):
        raise ValueError("dimension mismatch")
    if sum(alpha) < 1:
        raise ValueError("order must be at least 1")
    return alpha


def kernel_reference(alpha, x, y):
    """(sign, log|K|, log of the prefactor times int |integrand| dr).

    The third value is the natural scale for an error: a pair whose kernel
    sits near a sign change of the integral keeps a finite reference scale.
    """
    alpha = _check_args(alpha, x, y)
    order = sum(alpha)
    value, mass = _integrals(alpha, x, y, DPS)
    with mpmath.workdps(DPS):
        log_pref = -mpmath.loggamma(mpmath.mpf(order) / 2) - len(alpha) * mpmath.log(mpmath.pi) / 2
        sign = (-1) ** order * int(mpmath.sign(value))
        log_value = mpmath.log(abs(value)) + log_pref if value != 0 else -mpmath.inf
        return sign, float(log_value), float(mpmath.log(mass) + log_pref)


def relative_error(sign: int, logmag: float, ref) -> float:
    """|K - K_ref| / (prefactor * int |integrand|) for K = sign * exp(logmag)."""
    ref_sign, ref_log, ref_scale = ref
    with mpmath.workdps(DPS):
        got = sign * mpmath.exp(mpmath.mpf(logmag) - ref_scale) if sign else 0
        want = ref_sign * mpmath.exp(mpmath.mpf(ref_log) - ref_scale) if ref_sign else 0
        return float(abs(got - want))


def self_check(alpha, x, y) -> float:
    """Disagreement of the reference with itself at DPS and at DPS + 10
    digits, on the scale of int |integrand|; both sides stay in mpmath, so
    the figure is not floored at double rounding."""
    alpha = _check_args(alpha, x, y)
    lo, _ = _integrals(alpha, x, y, DPS)
    hi, mass = _integrals(alpha, x, y, DPS + 10)
    with mpmath.workdps(DPS + 10):
        return float(abs(lo - hi) / mass)


# ---------------------------------------------------------------------------
# the stored near-diagonal pairs of the verify workload

PAIRS_FILE = "oracle_pairs.json"
PAIRS_SEED = 190603827
PAIRS_ALPHAS = ((1, 0), (1, 1), (2, 1), (2, 2))
PAIRS_PER_ALPHA = 12


def near_diagonal_pairs():
    """Fixed pairs: n = 2, orders 1-4, separations log-uniform in [1e-6, 1e-1],
    x uniform in [-3, 3]^2 and a uniform direction for y - x."""
    import numpy as np

    rng = np.random.default_rng(PAIRS_SEED)
    out = []
    for alpha in PAIRS_ALPHAS:
        for _ in range(PAIRS_PER_ALPHA):
            x = rng.uniform(-3.0, 3.0, size=2)
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            sep = 10.0 ** rng.uniform(-6.0, -1.0)
            out.append((alpha, x.tolist(), (x + sep * d).tolist(), sep))
    return out


def main() -> int:
    """Regenerate the stored references of the near-diagonal oracle pairs."""
    import json
    import os

    rows = []
    for alpha, x, y, sep in near_diagonal_pairs():
        sign, log_value, log_scale = kernel_reference(alpha, x, y)
        rows.append(
            {
                "alpha": list(alpha),
                "x": x,
                "y": y,
                "separation": sep,
                "sign": sign,
                "log_value": log_value,
                "log_scale": log_scale,
                "self_check": self_check(alpha, x, y),
            }
        )
        print(f"alpha={alpha} sep={sep:.2e} self_check={rows[-1]['self_check']:.1e}")
    doc = {
        "command": "python3 bench/oracle.py",
        "dps": DPS,
        "seed": PAIRS_SEED,
        "pairs": rows,
    }
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), PAIRS_FILE), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
