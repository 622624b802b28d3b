"""Sign/log-magnitude scalars and signed log-sum-exp reductions.

Kernel values here routinely carry factors like exp(-|x|^2 + |y|^2), which
leave the double-precision range as soon as |y| exceeds ~27.  Every
kernel-valued quantity is therefore handled as a sign plus the log of its
magnitude, and sums are taken with a max-shift so only ratios ever get
exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["LogScaled", "log_sum", "signed_logsumexp", "OVERFLOW_LOGMAG", "NEGLIGIBLE_LOGMAG"]

# exp() overflows just above this; to_float refuses rather than returning inf
OVERFLOW_LOGMAG = 709.0
# a term this far below the largest of its sum is summed as exactly 0: it is
# below 1e-304 of that term, and np.exp is 10-100x slower on arguments that
# underflow (below about -708)
NEGLIGIBLE_LOGMAG = 700.0


@dataclass(frozen=True)
class LogScaled:
    """A real number stored as (sign, log|value|)."""

    sign: int
    logmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.logmag == -math.inf):
            raise ValueError("zero requires sign=0 and logmag=-inf together")

    @staticmethod
    def zero() -> "LogScaled":
        return LogScaled(0, -math.inf)

    @staticmethod
    def from_float(value: float) -> "LogScaled":
        if value == 0.0:
            return LogScaled.zero()
        if not math.isfinite(value):
            raise ValueError(f"cannot represent {value!r}")
        return LogScaled(1 if value > 0 else -1, math.log(abs(value)))

    @staticmethod
    def from_log(logmag: float, sign: int = 1) -> "LogScaled":
        if logmag == -math.inf or sign == 0:
            return LogScaled.zero()
        return LogScaled(sign, float(logmag))

    def to_float(self) -> float:
        """Convert back to a plain float.

        Exact to one ulp of exp/log while the magnitude is representable;
        raises OverflowError beyond that instead of returning inf.  Values
        below the denormal range underflow to signed zero.
        """
        if self.sign == 0:
            return 0.0
        if self.logmag > OVERFLOW_LOGMAG:
            raise OverflowError(f"logmag {self.logmag:.6g} exceeds float range")
        return self.sign * math.exp(self.logmag)

    def __mul__(self, other: "LogScaled | float") -> "LogScaled":
        if isinstance(other, (int, float)):
            other = LogScaled.from_float(float(other))
        if self.sign == 0 or other.sign == 0:
            return LogScaled.zero()
        return LogScaled(self.sign * other.sign, self.logmag + other.logmag)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScaled(0)"
        return f"LogScaled({'+' if self.sign > 0 else '-'}exp({self.logmag:.6g}))"


def log_sum(values: Iterable[LogScaled]) -> LogScaled:
    """Signed sum of log-scaled values via max-shift.

    The shifted partial sums are accumulated with fsum, so the result matches
    the exact signed sum to within a few ulp of the dominant magnitude.
    Cancellation below that resolution collapses to zero.  An empty iterable
    sums to zero.
    """
    vals = [v for v in values if v.sign != 0]
    if not vals:
        return LogScaled.zero()
    shift = max(v.logmag for v in vals)
    if shift == -math.inf:
        return LogScaled.zero()
    acc = math.fsum(v.sign * math.exp(v.logmag - shift) for v in vals)
    if acc == 0.0:
        return LogScaled.zero()
    return LogScaled(1 if acc > 0 else -1, shift + math.log(abs(acc)))


def signed_logsumexp(
    logmags: np.ndarray, signs: np.ndarray | None = None, axis: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized signed log-sum-exp along one axis.

    Parameters
    ----------
    logmags : array of log-magnitudes; -inf entries mean exact zeros.
    signs : matching array of {-1, 0, +1}, or None for all-positive terms.
    axis : reduction axis.

    Returns
    -------
    (signs, logmags) of the reduced array.  All-zero slices reduce to
    (0, -inf).  Terms more than NEGLIGIBLE_LOGMAG below their slice's
    largest add exactly 0, so exp never sees an argument below -700.
    That pays in the sweeps' second-half integrals, where 88% of the
    entries lie that far below; the other callers have few or none.
    """
    logmags = np.asarray(logmags, dtype=float)
    shift = np.max(logmags, axis=axis, keepdims=True)
    # slices that are entirely -inf would produce nan in the subtraction
    dead = ~np.isfinite(shift)
    safe_shift = np.where(dead, 0.0, shift)
    scaled = logmags - safe_shift
    kept = scaled >= -NEGLIGIBLE_LOGMAG
    np.maximum(scaled, -NEGLIGIBLE_LOGMAG, out=scaled)
    np.exp(scaled, out=scaled)
    scaled *= kept
    if signs is not None:
        scaled = scaled * np.asarray(signs)
    total = np.sum(scaled, axis=axis)
    shift = np.squeeze(safe_shift, axis=axis)
    out_sign = np.sign(total).astype(int)
    with np.errstate(divide="ignore"):
        out_logmag = np.where(total != 0.0, np.log(np.abs(np.where(total != 0.0, total, 1.0))) + shift, -np.inf)
    out_logmag = np.where(np.squeeze(dead, axis=axis), -np.inf, out_logmag)
    out_sign = np.where(np.squeeze(dead, axis=axis), 0, out_sign)
    return out_sign, out_logmag
