"""Effort and error estimates reported by the QUADPACK-backed Riesz kernel."""

import math

import numpy as np

from rieszlab.geometry import MultiIndex
from rieszlab.kernels import riesz_kernel


def test_info_reports_effort():
    # near the diagonal the integrand piles up at small w, so QUADPACK must
    # subdivide; the error it reports stays within the requested tolerance
    kv = riesz_kernel(MultiIndex.of(1), np.array([0.5]), np.array([0.5001]))
    assert kv.subdivisions >= 1
    assert math.isfinite(kv.err_logmag)
    assert kv.err_logmag <= kv.value.logmag + math.log(1e-8)
