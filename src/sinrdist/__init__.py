"""Exact SINR distributions for multi-antenna MMSE receivers in
non-homogeneous Poisson interference fields.

The package computes the CDF, PDF and outage probability of the
post-combining SINR at an L-antenna linear-MMSE receiver when interferer
locations follow a radially symmetric (generally non-homogeneous) planar
Poisson point process under Rayleigh fading and power-law path loss, and
ships a Monte-Carlo network simulator for validating the analytic results.
"""

from .specfun import (
    AccuracyError,
    QuadratureSpec,
    DEFAULT_QUADRATURE,
    ln_gamma,
    regularized_upper_gamma,
    hyp2f1_first_unit,
    integrate_radial,
    integrate_log_panels,
)
from .intensity import (
    DivergenceError,
    DiskRegion,
    FULL_PLANE,
    PowerLaw,
    PiecewisePowerLaw,
    PolynomialWithTail,
    GaussianCluster,
    IntensityModel,
    mean_count,
    location_pdf,
    sample_location,
    fit_polynomial,
)
from .interference import (
    PsiEvaluator,
    psi_power_law,
    psi_piecewise,
    psi_polynomial,
    psi_gaussian,
    psi_quadrature,
    psi_quadrature_radial,
    psi_derivative,
)
from .distribution import (
    BracketingError,
    LinkConfig,
    SinrDistribution,
    cdf_gamma,
    cdf_gamma_double_sum,
    pdf_gamma,
    outage_probability,
    antenna_gain_delta,
    scaling_limit,
    regularized_gamma_limit_scan,
)
from .simulator import (
    SimConfig,
    TrialResult,
    EmpiricalDistribution,
    trial_rng,
    draw_network,
    draw_channels,
    mmse_sinr,
    run_trial,
    run_trials,
    run_campaign,
    default_truncation_radius,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "ln_gamma",
    "regularized_upper_gamma",
    "hyp2f1_first_unit",
    "integrate_radial",
    "integrate_log_panels",
    "DivergenceError",
    "DiskRegion",
    "FULL_PLANE",
    "PowerLaw",
    "PiecewisePowerLaw",
    "PolynomialWithTail",
    "GaussianCluster",
    "IntensityModel",
    "mean_count",
    "location_pdf",
    "sample_location",
    "fit_polynomial",
    "PsiEvaluator",
    "psi_power_law",
    "psi_piecewise",
    "psi_polynomial",
    "psi_gaussian",
    "psi_quadrature",
    "psi_quadrature_radial",
    "psi_derivative",
    "BracketingError",
    "LinkConfig",
    "SinrDistribution",
    "cdf_gamma",
    "cdf_gamma_double_sum",
    "pdf_gamma",
    "outage_probability",
    "antenna_gain_delta",
    "scaling_limit",
    "regularized_gamma_limit_scan",
    "SimConfig",
    "TrialResult",
    "EmpiricalDistribution",
    "trial_rng",
    "draw_network",
    "draw_channels",
    "mmse_sinr",
    "run_trial",
    "run_trials",
    "run_campaign",
    "default_truncation_radius",
    "__version__",
]
