"""Multi-indices and the algebraic identities behind the kernel analysis,
among them the split of y into components parallel and orthogonal to a
reference point x."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MultiIndex", "identity_residuals"]


@dataclass(frozen=True)
class MultiIndex:
    """Tuple of non-negative integer entries with componentwise addition."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("multi-index needs at least one entry")
        if any((not isinstance(e, int)) or e < 0 for e in self.entries):
            raise ValueError(f"entries must be non-negative ints, got {self.entries}")

    @staticmethod
    def of(*entries: int) -> "MultiIndex":
        return MultiIndex(tuple(int(e) for e in entries))

    @property
    def order(self) -> int:
        return sum(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def log_factorial(self) -> float:
        return sum(math.lgamma(e + 1) for e in self.entries)

    def log_factorial_ratio(self, step: "MultiIndex") -> float:
        """log((self + step)! / self!) as a sum of logs of small integers.

        Never forms the factorials themselves, so it stays exact to rounding
        even when entries reach 10^4.
        """
        if self.dim != step.dim:
            raise ValueError("dimension mismatch")
        total = 0.0
        for b, a in zip(self.entries, step.entries):
            for i in range(1, a + 1):
                total += math.log(b + i)
        return total

    def __iter__(self):
        return iter(self.entries)


def identity_residuals(rng: np.random.Generator, n: int, count: int) -> dict:
    """Residuals of the algebraic identities behind the kernel analysis.

    Over random triples (x, y, r) with r in (0, 1):
      exponent      |rx-y|^2/(1-r^2) - |x-ry|^2/(1-r^2) = |y|^2 - |x|^2
      peak_split    |rx-y|^2 = (r-r0)^2 |x|^2 + |y_perp|^2
      peak_distance |1-r0| = |x - y_par| / |x|
    plus the separation guarantee on the global region,
      gap_slack     2 |x-y| (1+|x|) >= 1 whenever |x-y|(1+|x|+|y|) > 1.

    Residuals are relative to the largest intermediate magnitude, which is
    the honest scale when 1/(1-r^2) amplifies both sides alike.  Returned
    keys: the three residual maxima and the minimum gap_slack (want >= 1).
    """
    X = rng.normal(size=(count, n)) * rng.uniform(0.2, 4.0, size=(count, 1))
    X[np.linalg.norm(X, axis=1) < 1e-6] += 0.5
    Y = rng.normal(size=(count, n)) * rng.uniform(0.0, 4.0, size=(count, 1))
    r = rng.uniform(0.0, 1.0, size=count)

    x2 = np.sum(X * X, axis=1)
    y2 = np.sum(Y * Y, axis=1)
    xy = np.sum(X * Y, axis=1)
    s2 = (1.0 - r) * (1.0 + r)
    rxy = r * r * x2 - 2.0 * r * xy + y2
    xry = x2 - 2.0 * r * xy + r * r * y2
    lhs = rxy / s2 - xry / s2
    rhs = y2 - x2
    scale = np.maximum(np.maximum(rxy, xry) / s2 + x2 + y2, 1.0)
    exponent = float(np.max(np.abs(lhs - rhs) / scale))

    r0 = xy / x2
    yperp_sq = y2 - r0 * r0 * x2
    split = (r - r0) ** 2 * x2 + yperp_sq
    scale = np.maximum(np.maximum(rxy, split), 1.0)
    peak_split = float(np.max(np.abs(rxy - split) / scale))

    ypar_dist = np.linalg.norm(X - r0[:, None] * X, axis=1)
    lhs = np.abs(1.0 - r0)
    rhs = ypar_dist / np.sqrt(x2)
    peak_distance = float(np.max(np.abs(lhs - rhs) / np.maximum(lhs, 1.0)))

    sep = np.linalg.norm(X - Y, axis=1)
    in_global = sep * (1.0 + np.sqrt(x2) + np.sqrt(y2)) > 1.0
    slack = 2.0 * sep * (1.0 + np.sqrt(x2))
    gap_slack = float(np.min(slack[in_global])) if np.any(in_global) else math.inf

    return {
        "exponent": exponent,
        "peak_split": peak_split,
        "peak_distance": peak_distance,
        "gap_slack": gap_slack,
    }
