"""Numerical laboratory for quantum Brownian motion in the
independent-oscillator (system + harmonic bath) model.

Subpackages by topic:

- :mod:`qbmlab.bath` -- spectral densities, thermal correlation kernels
- :mod:`qbmlab.coefficients` -- time-dependent master-equation coefficients
- :mod:`qbmlab.dynamics` -- Gaussian moment propagation for all equation variants
- :mod:`qbmlab.fock` -- brute-force density-matrix propagation (cross-check oracle)
- :mod:`qbmlab.positivity` -- complete-positivity audits of the generators
- :mod:`qbmlab.stochastic` -- stochastic Schroedinger unravelings, colored noise
- :mod:`qbmlab.scenario` / :mod:`qbmlab.cli` -- JSON scenario runner
"""

__version__ = "0.1.0"

from .bath import (
    CorrelationKernel,
    CutoffKind,
    PhysicalConstants,
    SpectralDensity,
    ThermalBathSpec,
    delta_limit_strength,
    eval_correlation,
    eval_spectral_density,
    high_temperature_closed_form,
)
from .coefficients import (
    HPZCoefficients,
    OscillatorKernels,
    compute_coefficients,
    delta_limit_coefficients,
    dressed_kernel,
)
from .dynamics import (
    MasterEquationSpec,
    MomentTrajectory,
    QuadraticGenerator,
    SystemSpec,
    Variant,
    ground_state_moments,
    integrate_moments,
    moment_rhs,
    rs_uncertainty,
    squeezed_state_moments,
    thermal_state_moments,
)
from .positivity import CPAuditReport, audit_cp
from .stochastic import (
    NoiseSpec,
    SSEConfig,
    ensemble_run,
    sample_colored_noise,
    sse_trajectory,
)

__all__ = [
    "__version__",
    "CorrelationKernel",
    "CutoffKind",
    "PhysicalConstants",
    "SpectralDensity",
    "ThermalBathSpec",
    "delta_limit_strength",
    "eval_correlation",
    "eval_spectral_density",
    "high_temperature_closed_form",
    "HPZCoefficients",
    "OscillatorKernels",
    "compute_coefficients",
    "delta_limit_coefficients",
    "dressed_kernel",
    "MasterEquationSpec",
    "MomentTrajectory",
    "QuadraticGenerator",
    "SystemSpec",
    "Variant",
    "ground_state_moments",
    "integrate_moments",
    "moment_rhs",
    "rs_uncertainty",
    "squeezed_state_moments",
    "thermal_state_moments",
    "CPAuditReport",
    "audit_cp",
    "NoiseSpec",
    "SSEConfig",
    "ensemble_run",
    "sample_colored_noise",
    "sse_trajectory",
]
