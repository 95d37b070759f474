"""Exact MISE analysis of kernel distribution function estimators.

The kernel estimator F_nh(x) = n^-1 sum_j K((x - X_j)/h) of a CDF F has
a mean integrated squared error with exact Fourier-domain expressions
for its variance and squared-bias parts.  This package evaluates them
for a catalog of kernels (normal, trapezoidal flat-top, sinc) and
targets (a band-limited polynomial-tail family and the normal family),
locates MISE-minimizing bandwidths, reproduces the limiting bandwidth
and efficiency results for band-limited targets, and validates every
formula against a seeded Monte Carlo oracle.
"""

import logging

from .bandwidth import (
    BandwidthResult,
    EfficiencyCurve,
    SandwichReport,
    SearchConfig,
    asymptotic_relative_efficiency,
    bandwidth_sandwich_check,
    default_search,
    efficiency_curve,
    limit_bandwidth,
    optimal_bandwidth,
    optimal_bandwidths,
    relative_efficiency,
    sinc_critical_bandwidths,
)
from .distributions import (
    JDLVP_PSI_F,
    TargetDistribution,
    make_jdlvp,
    make_normal,
    psi_f_fourier,
    rescale,
    sample,
)
from .estimator import (
    MonteCarloMise,
    Sample,
    draw_sample,
    estimate_cdf,
    ise,
    monte_carlo_mise,
)
from .kernels import (
    KERNEL_NAMES,
    Kernel,
    kernel_by_name,
    psi_k,
)
from .mise import (
    MISE_METHODS,
    MiseReport,
    mise,
    mise_normal_normal_closed,
    mise_normal_sinc_closed,
    mise_profile,
)
from .numerics import (
    QuadratureResult,
    integrate,
    sine_integral,
    std_normal_cdf,
)

__version__ = "0.1.0"

# Search telemetry goes to the "cdf_mise" logger at DEBUG level; it is
# silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BandwidthResult",
    "EfficiencyCurve",
    "JDLVP_PSI_F",
    "KERNEL_NAMES",
    "Kernel",
    "MISE_METHODS",
    "MiseReport",
    "MonteCarloMise",
    "QuadratureResult",
    "Sample",
    "SandwichReport",
    "SearchConfig",
    "TargetDistribution",
    "asymptotic_relative_efficiency",
    "bandwidth_sandwich_check",
    "default_search",
    "draw_sample",
    "efficiency_curve",
    "estimate_cdf",
    "integrate",
    "ise",
    "kernel_by_name",
    "limit_bandwidth",
    "make_jdlvp",
    "make_normal",
    "mise",
    "mise_normal_normal_closed",
    "mise_normal_sinc_closed",
    "mise_profile",
    "monte_carlo_mise",
    "optimal_bandwidth",
    "optimal_bandwidths",
    "psi_f_fourier",
    "psi_k",
    "relative_efficiency",
    "rescale",
    "sample",
    "sine_integral",
    "sinc_critical_bandwidths",
    "std_normal_cdf",
]
