"""Kernel CDF estimators on data and the Monte Carlo MISE oracle.

The estimator F_nh(x) = n^-1 sum_j K((x - X_j)/h) is evaluated through
the kernel's integrated function, so the sinc path is automatically
1/2 + n^-1 sum_j Si((x - X_j)/h).  At h = 0 it degenerates to the
empirical CDF.  The integrated squared error of one sample against the
target, int {F_nh(x) - F(x)}^2 dx, is averaged over independently
seeded replications to validate the exact MISE formulas end to end.

Sinc estimates are reported as-is: they may leave [0, 1] slightly and
are neither clipped nor monotonized, since the exact-MISE identities
hold for the raw estimator only.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .distributions import TargetDistribution, sample as draw_values
from .kernels import Kernel
from .mise import _validate_h
from .numerics import (
    _GK15_NODES,
    _GK15_WEIGHTS,
    TAIL_CUTOFF_TOL,
    gauss_kronrod_panels,
    gauss_panels,
)

__all__ = [
    "Sample",
    "MonteCarloMise",
    "draw_sample",
    "estimate_cdf",
    "ise",
    "monte_carlo_mise",
]


@dataclass(frozen=True)
class Sample:
    """A sorted i.i.d. sample with its seed and source distribution."""

    values: np.ndarray
    seed: int
    source: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if np.any(np.diff(values) < 0.0):
            raise ValueError("values must be sorted ascending")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MonteCarloMise:
    """Mean and standard error of the ISE over seeded replications."""

    estimate: float
    std_error: float
    replications: int
    h: float
    n: int

    def __post_init__(self) -> None:
        if self.replications < 2:
            raise ValueError("replications must be >= 2")
        if not (self.std_error >= 0.0):
            raise ValueError("std_error must be nonnegative")


def draw_sample(dist: TargetDistribution, n: int, seed: int,
                rep: int | None = None) -> Sample:
    """Sorted sample of size n; rep selects an independent replication stream."""
    entropy = int(seed) if rep is None else (int(seed), int(rep))
    values = np.sort(draw_values(dist, n, entropy))
    return Sample(values=values, seed=int(seed), source=dist.name)


def estimate_cdf(sample: Sample, kernel: Kernel, h: float, x):
    """F_nh(x) = n^-1 sum_j K((x - X_j)/h), the empirical CDF at h = 0.

    x may be a scalar or an array; the return matches.  The h = 0 path
    counts sample points at or below x by binary search.
    """
    _validate_h(h)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs1 = np.atleast_1d(xs)
    if h == 0.0:
        out = np.searchsorted(sample.values, xs1, side="right") / sample.n
    else:
        out = kernel.integrated_fn(
            (xs1[:, None] - sample.values[None, :]) / h).mean(axis=1)
    return float(out[0]) if scalar else out


def ise(sample: Sample, kernel: Kernel, h: float, dist: TargetDistribution) -> float:
    """Integrated squared error int {F_nh(x) - F(x)}^2 dx of one sample.

    The integral is split into a core window around the data, where the
    estimator is evaluated exactly on oscillation-resolving panels, and
    two tail regions where it has settled to 0/1 beyond recovery of the
    quadrature tolerance, leaving only the target's own F^2 / (1-F)^2
    mass (integrated out to the tail-cutoff quantile and beyond on
    widening panels).  The core margin is 48h for integrable kernels,
    whose 1 - K(y) envelope has decayed below ~2e-4 there.  The sinc
    estimator approaches 0/1 only at an O(1/x) oscillating rate, so its
    neglected tail mass, (h/pi)^2 |phi_hat(1/h)|^2 cos^2 / x^2 with
    phi_hat the empirical characteristic function, is added back in
    closed form after averaging the squared oscillation.
    """
    _validate_h(h)
    if h == 0.0:
        return _ise_empirical(sample, dist)

    x_lo = float(sample.values[0])
    x_hi = float(sample.values[-1])
    tail = dist.tail_radius(TAIL_CUTOFF_TOL)
    sigma = math.sqrt(dist.variance)
    if kernel.integrable:
        margin = 48.0 * h
    else:
        margin = max(48.0 * h, 20.0)
    core_lo = x_lo - margin
    core_hi = x_hi + margin
    width = min(math.pi * h, sigma)
    panels = int(math.ceil((core_hi - core_lo) / width))
    if panels <= 4096:
        edges = np.linspace(core_lo, core_hi, panels + 1)
    else:
        edges = _jump_anchored_edges(sample.values, h, core_lo, core_hi, sigma)

    def sq_err(xs: np.ndarray) -> np.ndarray:
        diff = estimate_cdf(sample, kernel, h, xs) - dist.cdf(xs)
        return diff * diff

    total = gauss_panels(sq_err, edges, chunk=64)
    reach = max(20.0 * h + tail - margin, 2000.0 * sigma)
    total += _target_tail_mass(dist, core_lo, core_hi, reach)
    if not kernel.integrable:
        # Residual oscillation beyond the core: there the estimator is
        # 1 - (h/pi) |phi_hat| cos(x/h - theta) / (x - c) + O(x^-2), so
        # the neglected squared error integrates to the closed form below.
        amp = float(np.abs(np.mean(np.exp(-1j * sample.values / h))))
        c = float(np.mean(sample.values))
        total += (h * amp) ** 2 / (2.0 * math.pi ** 2) * (
            1.0 / (core_hi - c) + 1.0 / (c - core_lo))
    return total


def _jump_anchored_edges(values: np.ndarray, h: float, core_lo: float,
                         core_hi: float, sigma: float) -> np.ndarray:
    # Small-h fallback: uniform pi*h panels would blow up, but the
    # integrand only varies at scale h near the data points.  Anchor
    # geometrically spaced edges on each point and fill between with
    # sigma-wide panels.
    offsets = h * np.array([-48.0, -32.0, -16.0, -8.0, -4.0, -2.0, -1.0,
                            -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                            32.0, 48.0])
    local = (values[:, None] + offsets[None, :]).ravel()
    coarse = np.linspace(core_lo, core_hi,
                         int(math.ceil((core_hi - core_lo) / sigma)) + 1)
    edges = np.unique(np.concatenate((coarse, np.clip(local, core_lo, core_hi))))
    keep = np.concatenate(([True], np.diff(edges) > 1e-12 * (core_hi - core_lo)))
    edges = edges[keep]
    edges[0] = core_lo
    edges[-1] = core_hi
    return edges


def _target_tail_mass(dist: TargetDistribution, core_lo: float,
                      core_hi: float, reach: float) -> float:
    # int F^2 below the core plus int (1-F)^2 above it, on panels that
    # widen geometrically away from the core so polynomial tails are
    # captured to machine accuracy with ~32 panels a side.
    offsets = np.concatenate(([0.0], np.geomspace(reach * 1e-4, reach, 32)))

    def upper_sq(xs: np.ndarray) -> np.ndarray:
        diff = 1.0 - dist.cdf(xs)
        return diff * diff

    def lower_sq(xs: np.ndarray) -> np.ndarray:
        diff = dist.cdf(xs)
        return diff * diff

    value, _ = gauss_kronrod_panels(upper_sq, core_hi + offsets)
    v_lo, _ = gauss_kronrod_panels(lower_sq, core_lo - offsets[::-1])
    return value + v_lo


def _ise_empirical(sample: Sample, dist: TargetDistribution) -> float:
    # Exact segment decomposition: F_n is constant at i/n between
    # consecutive order statistics, so each segment is a smooth
    # quadrature of (i/n - F)^2 with panel edges aligned to the jumps,
    # evaluated in one vectorized Gauss-Kronrod pass.  Outside the data
    # range F_n is exactly 0/1, leaving the target's own tail mass.
    tail = dist.tail_radius(TAIL_CUTOFF_TOL)
    xs = sample.values
    n = sample.n
    sigma = math.sqrt(dist.variance)
    seg_w = np.diff(xs)
    counts = np.maximum(1, np.ceil(seg_w / sigma).astype(int))
    counts[seg_w <= 0.0] = 0
    total_panels = int(np.sum(counts))
    total = _target_tail_mass(dist, float(xs[0]), float(xs[-1]),
                              max(tail, 2000.0 * sigma))
    if total_panels == 0:
        return total
    starts = np.repeat(xs[:-1], counts)
    widths = np.repeat(seg_w / np.maximum(counts, 1), counts)
    pos = np.arange(total_panels) - np.repeat(
        np.cumsum(counts) - counts, counts)
    a = starts + pos * widths
    levels = np.repeat(np.arange(1, n) / n, counts)
    mid = a + 0.5 * widths
    half = 0.5 * widths
    nodes = mid[:, None] + half[:, None] * _GK15_NODES[None, :]
    diff = levels[:, None] - dist.cdf(nodes.ravel()).reshape(nodes.shape)
    return total + float(np.sum(half * ((diff * diff) @ _GK15_WEIGHTS)))


# Context of the replication loop ``_mc_span``, which runs in process or
# in fork-based pool workers.  Target distributions and kernels hold
# closures, so they cross into workers by fork-time memory inheritance
# rather than pickling; tasks only carry index ranges.
_MC_CONTEXT: tuple | None = None


def _mc_span(span: tuple[int, int]) -> tuple[int, list[float]]:
    dist, kernel, h, n, seed = _MC_CONTEXT
    lo, hi = span
    out = []
    for r in range(lo, hi):
        s = draw_sample(dist, n, seed, rep=r)
        out.append(ise(s, kernel, h, dist))
    return lo, out


def monte_carlo_mise(dist: TargetDistribution, kernel: Kernel, h: float,
                     n: int, replications: int, seed: int, *,
                     workers: int | None = None) -> MonteCarloMise:
    """Mean ISE over independently seeded replications, with standard error.

    Replication r draws its sample from the stream keyed by (seed, r), so
    the estimate is deterministic for a fixed seed.  Replications run
    concurrently across fork-based worker processes (defaulting to the
    CPUs this process may run on); results are placed by replication
    index and reduced in fixed order, so the aggregate is independent of
    worker count and completion order.
    """
    _validate_h(h)
    if replications < 2:
        raise ValueError("replications must be >= 2")
    if workers is None:
        # The affinity mask (taskset, cgroup cpusets) can be narrower
        # than the machine, and os.cpu_count() ignores it.
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), replications))
    if workers > 1:
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:
            workers = 1

    values = np.empty(replications, dtype=float)
    step = max(1, math.ceil(replications / (8 * workers)))
    spans = [(lo, min(lo + step, replications))
             for lo in range(0, replications, step)]
    global _MC_CONTEXT
    _MC_CONTEXT = (dist, kernel, h, n, seed)
    try:
        with mp.Pool(processes=workers) if workers > 1 else nullcontext() as pool:
            run = map if pool is None else pool.imap_unordered
            for lo, chunk in run(_mc_span, spans):
                values[lo:lo + len(chunk)] = chunk
    finally:
        _MC_CONTEXT = None
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(replications))
    return MonteCarloMise(
        estimate=estimate,
        std_error=std_error,
        replications=int(replications),
        h=float(h),
        n=int(n),
    )
