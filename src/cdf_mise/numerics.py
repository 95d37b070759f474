"""Shared special functions, adaptive quadrature and fixed panel rules.

:func:`integrate` wraps QUADPACK's adaptive Gauss-Kronrod subdivision
(21-point rule with largest-error bisection and epsilon extrapolation)
from a finite lower bound to a finite or infinite upper one; the
infinite tail goes through QUADPACK's rational variable transformation,
and known interior breakpoints can be passed so each panel stays
smooth.  Its one caller in the package is :func:`roughness`, the
Fourier identity behind the cross-checks ``psi_k`` and
``psi_f_fourier`` of the catalog constants.  Every MISE runs fixed
rules on panels chosen a priori instead: ``mise`` and ``mise_profile``
apply the Gauss-Kronrod 15 table below themselves, and the sample ISE
at h > 0 its embedded 7-point Gauss rule, each on runs of whole blocks
of panels that ``_block_runs`` groups: at most 512 panels a run in
``mise`` and max(64, 2^15 / n) in the ISE.  No caller in the package is
left for :func:`gauss_panels` or :func:`gauss_kronrod_panels`; the
tests' oracles use them and :func:`integrate`.  All three keep their
names and their place here because the benchmark's tracer looks them
up in this module by name.

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
    "roughness",
    "gauss_panels",
    "gauss_kronrod_panels",
]

# Error targets for adaptive quadrature: convergence is declared when
# each segment's error estimate falls below max(ABS_TOL, REL_TOL *
# |segment value|), within a budget of MAX_SUBDIVISIONS panels.
# integrate() maps an infinite tail through a variable transform and
# does not truncate it.
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


def integrate(f, lower, upper, points=None) -> QuadratureResult:
    """Adaptively integrate a scalar function over (lower, upper).

    lower must be finite and upper may be +inf.  `points` lists known
    interior breakpoints (kinks of the integrand), where the range is
    split so every panel is smooth; QUADPACK never evaluates the
    endpoints.  An infinite range is cut at its last breakpoint (at
    max(1, lower) without one), and the tail is mapped to a finite
    interval by QUADPACK's 1/u transformation.  Each segment is held to
    max(ABS_TOL, REL_TOL * |segment value|) within MAX_SUBDIVISIONS
    panels on its own, and one that misses it is reported through
    ``converged=False``, never silently; error_estimate is their sum.
    """
    lower = float(lower)
    upper = float(upper)
    if not (math.isfinite(lower) and lower <= upper):
        raise ValueError("integrate requires a finite lower <= upper")
    # imported here: mise(), the searches, figures and Monte Carlo never
    # reach QUADPACK, so they need not load scipy.integrate
    import scipy.integrate

    knots = sorted(p for p in set(map(float, () if points is None else points))
                   if lower < p < upper)
    segments = [(lower, upper, knots)]
    if math.isinf(upper):
        cut = knots.pop() if knots else max(1.0, lower)
        segments = [(lower, cut, knots), (cut, upper, None)]
    total = err = 0.0
    subs = 0
    converged = True
    for a, b, pts in segments:
        if a < b:
            out = scipy.integrate.quad(f, a, b, epsabs=ABS_TOL, epsrel=REL_TOL,
                                       limit=MAX_SUBDIVISIONS, points=pts or None,
                                       full_output=True)
            # a fourth item is QUADPACK's warning that it missed the tolerance
            v, e, info = out[:3]
            total += v
            err += e
            subs += int(info.get("last", 0))
            converged = converged and len(out) == 3 and e <= max(ABS_TOL, REL_TOL * abs(v))
    return QuadratureResult(total, err, subs, converged)


def roughness(phi, lower: float, knots, name: str) -> float:
    """psi(W) = int W(1-W) = (2 pi)^-1 int t^-2 {1 - phi(t)^2} dt.

    W is a target CDF or an integrated kernel with real, even transform
    phi; the integrand vanishes on (0, lower), so QUADPACK runs on
    [lower, inf), split at the knots of phi.  Raises RuntimeError naming
    `name` when the quadrature does not converge.
    """
    def integrand(t: float) -> float:
        p = float(phi(t))
        return (1.0 - p * p) / (t * t)

    res = integrate(integrand, lower, math.inf, points=knots)
    if not res.converged:
        raise RuntimeError(f"{name} quadrature failed to converge")
    return res.value / math.pi


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


def _block_runs(bounds, limit: int):
    # Runs of whole blocks from an ascending iterable of block boundaries,
    # read lazily: each run is the list of its blocks' boundaries, at most
    # limit panels unless one block alone is larger, and empty blocks are
    # skipped.
    run = []
    for b in bounds:
        if run and b == run[-1]:
            continue
        if len(run) > 1 and b - run[0] > limit:
            yield run
            run = run[-1:]
        run.append(b)
    if len(run) > 1:
        yield run


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
