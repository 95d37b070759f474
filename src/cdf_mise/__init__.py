"""Exact MISE analysis of kernel distribution function estimators.

The kernel estimator F_nh(x) = n^-1 sum_j K((x - X_j)/h) of a CDF F has
a mean integrated squared error with exact Fourier-domain expressions
for its variance and squared-bias parts.  This package evaluates them
for a catalog of kernels (normal, trapezoidal flat-top, sinc) and
targets (a band-limited polynomial-tail family and the normal family),
locates MISE-minimizing bandwidths, reproduces the limiting bandwidth
and efficiency results for band-limited targets, and validates every
formula against a seeded Monte Carlo oracle.

The package exports only ``__version__``; import from its modules.
"""

import logging

__version__ = "0.1.0"

# Search telemetry goes to the "cdf_mise" logger at DEBUG level; it is
# silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
