"""Numerical laboratory for the Riesz transforms of the inverse-Gaussian
Laplacian: log-domain kernel evaluation, Hermite spectral calculus, singular
quadrature, and weak-type (1,1) probes."""

from rieszlab.logscaled import LogScaled, log_sum
from rieszlab.geometry import MultiIndex, identity_residuals
from rieszlab.quadrature import NonConvergenceError
from rieszlab.hermite import gamma_h, gauss_density, h_normalized
from rieszlab.kernels import (
    KernelValue,
    heat_kernel,
    riesz_kernel,
    riesz_kernel_batch,
)
from rieszlab.spectral import (
    SpectralCoefficients,
    apply_riesz_spectral,
    l2_norm_bound,
    orthonormality_defect,
    synthesize,
)
from rieszlab.apply import (
    GridFunction,
    PVConfig,
    apply_riesz,
    ball_indicator,
)
from rieszlab.weaktype import (
    BOUND_REGISTRY,
    CounterexampleConfig,
    LevelSetReport,
    counterexample_lower_bound,
    czlocal_supremum,
    gamma_inv_ball_log,
    level_set_report,
    rank_one_quasinorm_exact,
    slope_fit,
    weak_quasinorm_probe,
)

__all__ = [
    "LogScaled",
    "log_sum",
    "MultiIndex",
    "identity_residuals",
    "NonConvergenceError",
    "gamma_h",
    "gauss_density",
    "h_normalized",
    "KernelValue",
    "heat_kernel",
    "riesz_kernel",
    "riesz_kernel_batch",
    "SpectralCoefficients",
    "apply_riesz_spectral",
    "l2_norm_bound",
    "orthonormality_defect",
    "synthesize",
    "GridFunction",
    "PVConfig",
    "apply_riesz",
    "ball_indicator",
    "BOUND_REGISTRY",
    "CounterexampleConfig",
    "LevelSetReport",
    "counterexample_lower_bound",
    "czlocal_supremum",
    "gamma_inv_ball_log",
    "level_set_report",
    "rank_one_quasinorm_exact",
    "slope_fit",
    "weak_quasinorm_probe",
]
