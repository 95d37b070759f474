"""Shared special functions, adaptive quadrature and fixed panel rules.

:func:`integrate` wraps QUADPACK's adaptive Gauss-Kronrod subdivision
(21-point rule with largest-error bisection and epsilon extrapolation).
Semi-infinite ranges are handled by QUADPACK's rational variable
transformation; known interior breakpoints can be passed so each panel
stays smooth.  Only the quadrature cross-checks ``psi_k`` and
``psi_f_fourier`` of the catalog constants use it.  Every MISE runs
fixed rules on panels chosen a priori instead: ``mise`` and
``mise_profile`` apply the Gauss-Kronrod 15 table below themselves, and
the sample ISE at h > 0 its embedded 7-point Gauss rule.  No caller in
the package is left for :func:`gauss_panels` or
:func:`gauss_kronrod_panels`; the tests' oracles use them, and the
benchmark's tracer looks them up by name.

The sine integral uses the normalization Si(x) = int_0^x sin(z)/(pi z) dz,
so Si(x) -> 1/2 as x -> +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "MAX_SUBDIVISIONS",
    "QuadratureResult",
    "sine_integral",
    "std_normal_cdf",
    "integrate",
    "gauss_panels",
    "gauss_kronrod_panels",
]

# Error targets for adaptive quadrature: convergence is declared when
# each segment's error estimate falls below max(ABS_TOL, REL_TOL *
# |segment value|), within a budget of MAX_SUBDIVISIONS panels.
# integrate() maps infinite tails through a variable transform and does
# not truncate.
ABS_TOL = 1e-12
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration."""

    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def sine_integral(x):
    """Sine integral Si(x) = int_0^x sin(z)/(pi z) dz.

    Odd in x, with limits +-1/2 at +-infinity.  Accepts scalars or
    arrays; accuracy is at machine level (well below 1e-12 absolute on
    |x| <= 1e4).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("sine_integral requires finite input")
    si, _ = scipy.special.sici(x)
    out = si / math.pi
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal distribution function Phi(x), accurate to ~1e-16."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("std_normal_cdf requires finite input")
    out = scipy.special.ndtr(x)
    return float(out) if out.ndim == 0 else out


def _run_quad(f, lower: float, upper: float, points):
    # imported here: mise(), the searches, figures and Monte Carlo never
    # reach QUADPACK, so they need not load scipy.integrate
    import scipy.integrate

    kwargs = dict(
        epsabs=ABS_TOL,
        epsrel=REL_TOL,
        limit=MAX_SUBDIVISIONS,
        full_output=True,
    )
    if points:
        kwargs["points"] = points
    out = scipy.integrate.quad(f, lower, upper, **kwargs)
    value, error, info = out[0], out[1], out[2]
    ier = 0 if len(out) == 3 else 1
    return value, error, int(info.get("last", 0)), ier


def integrate(f, lower, upper, points=None) -> QuadratureResult:
    """Adaptively integrate a scalar function over (lower, upper).

    Either endpoint may be infinite; infinite tails are mapped to a
    finite interval by QUADPACK's 1/u transformation, so the caller only
    has to guarantee integrable decay.  `points` lists known interior
    breakpoints (kinks of the integrand); the range is split there so
    every panel is smooth.  QUADPACK never evaluates the endpoints.

    An unbounded range is integrated as up to three segments, each to
    max(ABS_TOL, REL_TOL * |segment value|); error_estimate is their
    sum.  A segment that misses its tolerance within MAX_SUBDIVISIONS
    panels is reported through ``converged=False``, never silently.
    """
    lower = float(lower)
    upper = float(upper)
    if lower > upper:
        raise ValueError("integrate requires lower <= upper")
    if lower == upper:
        return QuadratureResult(0.0, 0.0, 0, True)

    interior = []
    if points is not None:
        interior = sorted(p for p in set(float(p) for p in points) if lower < p < upper)

    total = 0.0
    err = 0.0
    subs = 0
    converged = True
    lo_inf = math.isinf(lower)
    hi_inf = math.isinf(upper)

    if not lo_inf and not hi_inf:
        segments = [(lower, upper, interior)]
    else:
        # Split unbounded ranges at the outermost breakpoints so that
        # the finite middle keeps its interior points and each infinite
        # tail is a clean transformed integral.  The cuts must stay
        # inside [lower, upper], falling back to +-1 only when allowed.
        cut_lo = lower
        cut_hi = upper
        if lo_inf:
            cut_lo = interior[0] if interior else (-1.0 if hi_inf else min(-1.0, upper))
        if hi_inf:
            cut_hi = interior[-1] if interior else (1.0 if lo_inf else max(1.0, lower))
        segments = []
        if lo_inf:
            segments.append((lower, cut_lo, None))
        mid_pts = [p for p in interior if cut_lo < p < cut_hi]
        if cut_lo < cut_hi:
            segments.append((cut_lo, cut_hi, mid_pts))
        if hi_inf:
            segments.append((cut_hi, upper, None))

    for a, b, pts in segments:
        if a == b:
            continue
        v, e, s, ier = _run_quad(f, a, b, pts)
        total += v
        err += e
        subs += s
        # Each segment was given the tolerance on its own, so each is
        # held to it on its own; the summed estimate may exceed it.
        converged = converged and ier == 0 and e <= max(ABS_TOL, REL_TOL * abs(v))

    return QuadratureResult(total, err, subs, converged)


# 15-point Gauss-Kronrod rule (nodes and weights on [-1, 1]) with the
# embedded 7-point Gauss weights, for vectorized fixed-panel integration:
# the fixed rule of mise_profile and gauss_kronrod_panels.  Standard
# QUADPACK table.
_GK15_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK15_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

# The embedded 7-point Gauss rule sits on the odd-indexed Kronrod nodes;
# _G7_WEIGHTS spreads its weights over all 15 nodes for the K15 - G7
# error estimate.
_G7_NODES = _GK15_NODES[1::2].copy()
_G7_ONLY_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = _G7_ONLY_WEIGHTS


def _panel_values(fvec, edges, nodes: np.ndarray, chunk: int | None):
    # Yield (half-widths, integrand values) for the rule with `nodes` on
    # [-1, 1] mapped onto each panel, chunk panels (all when None) per
    # fvec call.
    edges = np.asarray(edges, dtype=float)
    panels = edges.size - 1
    step = max(panels, 1) if chunk is None else chunk
    for i in range(0, panels, step):
        sub = edges[i:i + step + 1]
        a = sub[:-1]
        b = sub[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        xs = mid[:, None] + half[:, None] * nodes[None, :]
        yield half, np.asarray(fvec(xs.ravel()), dtype=float).reshape(xs.shape)


def gauss_panels(fvec, edges: np.ndarray, chunk: int | None = None) -> float:
    """Fixed 7-point Gauss integration over consecutive panels.

    Same calling convention as :func:`gauss_kronrod_panels` but without
    the embedded error estimate, at roughly half the integrand
    evaluations, for panel widths chosen a priori to resolve the
    integrand.
    """
    total = 0.0
    for half, vals in _panel_values(fvec, edges, _G7_NODES, chunk):
        total += float(np.sum(half * (vals @ _G7_ONLY_WEIGHTS)))
    return total


def gauss_kronrod_panels(fvec, edges: np.ndarray, chunk: int | None = None):
    """Fixed Gauss-Kronrod 15 integration over consecutive panels.

    fvec must accept a flat array of abscissae and return the integrand
    values.  Returns (value, error_estimate) where the error estimate is
    the summed |K15 - G7| difference over panels.  Panel order is fixed,
    so the result is deterministic; chunk caps the panels evaluated per
    fvec call, bounding intermediate memory when fvec builds matrices.
    """
    total = 0.0
    err = 0.0
    for half, vals in _panel_values(fvec, edges, _GK15_NODES, chunk):
        k15 = vals @ _GK15_WEIGHTS
        g7 = vals @ _G7_WEIGHTS
        total += float(np.sum(half * k15))
        err += float(np.sum(half * np.abs(k15 - g7)))
    return total, err
