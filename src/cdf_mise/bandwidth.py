"""Optimal-bandwidth search and efficiency analysis.

The MISE of a kernel CDF estimator is minimized over h >= 0 by a dense
log-spaced grid scan (h = 0 is always a candidate, the estimator then
being the empirical CDF) followed by a zoom inside the best grid cell's
bracket.  The scan guards against multi-modal MISE profiles: the sinc
kernel's stationary points are the solutions of |phi_f(1/h)|^2 =
1/(n + 1) and need not be unique.

A search runs on the fixed-rule profile alone, with no QUADPACK call.
MISE(h, n) = A(h)/n + B(h), where A = n IV and B = ISB are n-free, and
``mise_profile`` computes A and B on a whole bandwidth array with a
fixed Gauss-Kronrod rule, accurate to about 1e-13 relative.  The grid is
evaluated once per search however many sample sizes it serves, and the
deterministic scan rule picks each n's best cell.  Each zoom level then
evaluates 9 evenly spaced points across every n's open bracket in one
profile call and keeps the best point's neighbours, a quarter of the
width, until every bracket is at most 1e-6 wide.

For a flat-top kernel (s_k > 0) paired with a band-limited target
(c_f = d_f < inf), the optima h_0n of increasing sample sizes satisfy

    s_k/d_f <= inf_n h_0n,   h_0n -> s_k/d_f,

and the limiting relative efficiency MISE(h_0n)/MISE(0) equals
1 - psi(K) s_k / {psi(F) d_f}.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import TargetDistribution, _check_size
from .kernels import Kernel
from .mise import mise_profile

__all__ = [
    "SearchConfig",
    "BandwidthResult",
    "EfficiencyCurve",
    "SandwichReport",
    "default_search",
    "optimal_bandwidth",
    "optimal_bandwidths",
    "limit_bandwidth",
    "sinc_critical_bandwidths",
    "relative_efficiency",
    "asymptotic_relative_efficiency",
    "efficiency_curve",
    "bandwidth_sandwich_check",
]

# The scan has _GRID_SIZE log-spaced points on [1e-4 h_max, h_max] plus
# h = 0; the zoom then shrinks the best cell's bracket to width _REFINE_TOL.
_GRID_SIZE = 512
_REFINE_TOL = 1e-6
# Points per zoom level, both bracket ends included.  Each level keeps two
# of the 8 spacings, a quarter of the width, so a bracket ends between
# _REFINE_TOL/4 and _REFINE_TOL wide: the profile's rounding noise moves
# the minimum by a few 1e-7, and a narrower bracket would understate that.
_ZOOM_POINTS = 9
_ZOOM_STEPS = np.arange(_ZOOM_POINTS)
# Values within _TIE relative of the minimum are ties, won by the smaller h.
_TIE = 1e-14
_BOUNDARY_FLAGS = ("interior", "at_zero", "at_upper_bracket")
_LIMIT_TOL = 0.2

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchConfig:
    """Upper end of a target's bandwidth search window."""

    h_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h_max) and self.h_max > 0.0):
            raise ValueError(f"h_max must be positive and finite, got {self.h_max}")


@dataclass(frozen=True)
class BandwidthResult:
    """Outcome of a MISE-minimizing bandwidth search.

    mise_at_opt is A(h_opt)/n + B(h_opt) from ``mise_profile``, the
    engine the search ran on; ``mise`` runs the same rule on h_opt alone
    and agrees with it to about 1e-14 relative.
    """

    h_opt: float
    mise_at_opt: float
    n: int
    bracket: tuple[float, float]
    grid_points_scanned: int
    refined_tolerance: float
    boundary_flag: str

    def __post_init__(self) -> None:
        if self.boundary_flag not in _BOUNDARY_FLAGS:
            raise ValueError(f"unknown boundary flag {self.boundary_flag!r}")
        if not (self.bracket[0] <= self.h_opt <= self.bracket[1]):
            raise ValueError(
                f"h_opt {self.h_opt} outside final bracket {self.bracket}")


@dataclass(frozen=True)
class EfficiencyCurve:
    """Relative efficiency MISE(h_0n)/MISE(0) along a sample-size sweep."""

    n_values: tuple[int, ...]
    h_opt: tuple[float, ...]
    rel_eff: tuple[float, ...]
    asymptote: float

    def __post_init__(self) -> None:
        if not (len(self.n_values) == len(self.h_opt) == len(self.rel_eff)):
            raise ValueError("n_values, h_opt and rel_eff must have equal length")
        for r in self.rel_eff:
            if not (0.0 < r <= 1.0 + 1e-12):
                raise ValueError(f"relative efficiency outside (0, 1]: {r}")


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the bandwidth sandwich verification."""

    passed: bool
    lower: float
    upper: float
    n_values: tuple[int, ...]
    h_opt: tuple[float, ...]
    messages: tuple[str, ...]


def default_search(dist: TargetDistribution) -> SearchConfig:
    """dist's search window [0, h_max]: 8a for jdlvp, 4 sigma for normal.

    Optima fall with n; at n = 1 no catalog pair's exceeds 0.47 h_max.
    """
    return SearchConfig(h_max=(4.0 if dist.family == "normal" else 8.0) * dist.scale)


def _search_grid(h_max: float) -> np.ndarray:
    return np.concatenate(([0.0], np.geomspace(h_max * 1e-4, h_max, _GRID_SIZE)))


def _scan(values: np.ndarray) -> np.ndarray:
    # Along the last axis, the first point within _TIE relative of the
    # minimum: ties go to the smaller h.  The profile is accurate to about
    # 1e-13 relative, far inside the gap between a grid's two lowest
    # cells (at least 1.55e-8 relative on every catalog grid).
    low = np.minimum.reduce(values, axis=-1, keepdims=True)
    return (values <= low + _TIE * low).argmax(axis=-1)


def _search(dist: TargetDistribution, kernel: Kernel,
            n_values) -> tuple[BandwidthResult, ...]:
    # The body of every public search; each calls it directly, so
    # stacklevel=3 points a warning at the line that called the search.
    h_max = default_search(dist).h_max
    ns = tuple(_check_size(n) for n in n_values)
    if not ns:
        return ()
    grid = _search_grid(h_max)
    n = np.array(ns, dtype=float)[:, None]
    a, b, _ = mise_profile(dist, kernel, grid)
    values = a / n + b
    best = _scan(values)
    rows = np.arange(len(ns))
    h_opt, v_opt = grid[best], values[rows, best]
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid.size - 1)]
    cells = np.full(len(ns), grid.size)
    # Zoom: each level evaluates _ZOOM_POINTS points across every open
    # bracket, for all n in one profile call, and keeps the best point's
    # two neighbouring spacings.
    while (open_ := np.flatnonzero(hi - lo > _REFINE_TOL)).size:
        # evenly spaced as by np.linspace, and with its bits
        l, u = lo[open_, None], hi[open_, None]
        pts = l + _ZOOM_STEPS * ((u - l) / (_ZOOM_POINTS - 1))
        pts[:, -1] = u[:, 0]
        pts = pts.ravel()
        a, b, _ = mise_profile(dist, kernel, pts)
        values = a.reshape(-1, _ZOOM_POINTS) / n[open_] + b.reshape(-1, _ZOOM_POINTS)
        j = _scan(values)
        at = _ZOOM_POINTS * np.arange(open_.size)
        k = at + np.minimum(np.maximum(j, 1), _ZOOM_POINTS - 2)
        j += at
        h_opt[open_], v_opt[open_] = pts[j], values.ravel()[j]
        lo[open_], hi[open_] = pts[k - 1], pts[k + 1]
        cells[open_] += _ZOOM_POINTS

    results = []
    for n_i, h, v, l, u, c in zip(ns, h_opt.tolist(), v_opt.tolist(), lo.tolist(), hi.tolist(),
                                  cells.tolist()):
        if h == 0.0:
            flag = "at_zero"
        elif h >= h_max - _REFINE_TOL:
            flag = "at_upper_bracket"
            warnings.warn(
                f"bandwidth optimum {h:.6g} sits at the search bound "
                f"h_max={h_max:.6g}",
                stacklevel=3)
        else:
            flag = "interior"
        _log.debug("search %s+%s n=%d: grid of %d cells, %d profile cells",
                   dist.name, kernel.name, n_i, grid.size, c)
        results.append(BandwidthResult(
            h_opt=h,
            mise_at_opt=v,
            n=n_i,
            bracket=(l, u),
            grid_points_scanned=grid.size,
            refined_tolerance=u - l,
            boundary_flag=flag,
        ))
    return tuple(results)


def optimal_bandwidths(dist: TargetDistribution, kernel: Kernel,
                       n_values) -> tuple[BandwidthResult, ...]:
    """Global MISE minimizers over dist's window, one per sample size.

    A dense log-spaced scan (plus the h = 0 candidate) locates the best
    grid cell, and a zoom shrinks the bracket of its two neighbours to a
    width of at most 1e-6; a bracket that needed zooming ends wider than
    2.5e-7.  Both run on the fixed-rule ``mise_profile`` alone: the grid
    is evaluated once for all n, and each zoom level evaluates every n's
    open bracket in one call.  Each result equals a single-n search.  The
    window is ``default_search(dist)``, and every n must be a whole
    number >= 1, else ValueError.  A minimizer landing at h_max is
    flagged at_upper_bracket and warned about, once per such n.  One
    DEBUG record per n goes to the ``cdf_mise.bandwidth`` logger: the
    pair, n, the grid size and the profile cells the search evaluated
    (the grid plus its zoom).
    """
    return _search(dist, kernel, n_values)


def optimal_bandwidth(dist: TargetDistribution, kernel: Kernel, n: int) -> BandwidthResult:
    """Global MISE minimizer over dist's window: ``optimal_bandwidths`` at one n."""
    return _search(dist, kernel, (n,))[0]


def limit_bandwidth(dist: TargetDistribution, kernel: Kernel) -> float:
    """Large-n limit s_k/d_f of the optimal bandwidth sequence.

    Requires the equality cases c_f = d_f and s_k = t_k under which the
    sandwich bounds collapse; by convention s_k/inf = 0, and a kernel
    with s_k = 0 has limit 0 for every target.
    """
    if dist.c_f != dist.d_f:
        raise ValueError(
            "limit bandwidth requires c_f = d_f, got "
            f"c_f={dist.c_f} and d_f={dist.d_f} for {dist.name!r}")
    if kernel.s_k != kernel.t_k:
        raise ValueError(
            "limit bandwidth requires s_k = t_k, got "
            f"s_k={kernel.s_k} and t_k={kernel.t_k} for {kernel.name!r}")
    if kernel.s_k == 0.0 or math.isinf(dist.d_f):
        return 0.0
    return kernel.s_k / dist.d_f


def sinc_critical_bandwidths(dist: TargetDistribution, n: int,
                             bracket: tuple[float, float]) -> list[float]:
    """Stationary points of the sinc-kernel MISE inside a bandwidth bracket.

    Solves |phi_f(1/h)|^2 = 1/(n + 1) by a 1024-point sign scan in
    u = 1/h followed by bisection on each sign change.  Returns the
    roots in increasing h order; an empty list means no stationary
    point in the bracket.
    """
    n = _check_size(n)
    h_lo, h_hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < h_lo < h_hi and math.isfinite(h_hi)):
        raise ValueError(f"bracket must satisfy 0 < h_lo < h_hi < inf, got {bracket}")

    # imported here, where brentq is used: no search loads scipy.optimize
    from scipy import optimize

    target = 1.0 / (n + 1.0)

    def gfun(u: float) -> float:
        amp = float(np.abs(dist.cf(np.atleast_1d(u)))[0])
        return amp * amp - target

    us = np.linspace(1.0 / h_hi, 1.0 / h_lo, 1024)
    gs = np.abs(dist.cf(us)) ** 2 - target

    roots_u: list[float] = []
    for i in range(us.size - 1):
        if gs[i] == 0.0:
            roots_u.append(float(us[i]))
        elif gs[i] * gs[i + 1] < 0.0:
            roots_u.append(float(optimize.brentq(gfun, us[i], us[i + 1], xtol=1e-13)))
    if gs[-1] == 0.0:
        roots_u.append(float(us[-1]))
    return sorted(1.0 / u for u in roots_u)


def relative_efficiency(dist: TargetDistribution, kernel: Kernel, n: int) -> float:
    """MISE(h_0n)/MISE(0) on dist's window; at most 1, since h = 0 is scanned."""
    res = _search(dist, kernel, (n,))[0]
    return res.mise_at_opt / (dist.psi_f / res.n)


def asymptotic_relative_efficiency(dist: TargetDistribution, kernel: Kernel) -> float:
    """Limit of MISE(h_0n)/MISE(0): 1 - psi(K) s_k / {psi(F) d_f}.

    Kernels with s_k = 0, or targets with d_f = inf, gain no first-order
    efficiency and return exactly 1.
    """
    if kernel.s_k == 0.0 or math.isinf(dist.d_f):
        return 1.0
    return 1.0 - kernel.psi_k_analytic * kernel.s_k / (dist.psi_f * dist.d_f)


def efficiency_curve(dist: TargetDistribution, kernel: Kernel, n_values) -> EfficiencyCurve:
    """Optimal bandwidth and relative efficiency at each sample size, on dist's window."""
    results = _search(dist, kernel, n_values)
    return EfficiencyCurve(
        n_values=tuple(res.n for res in results),
        h_opt=tuple(res.h_opt for res in results),
        rel_eff=tuple(res.mise_at_opt / (dist.psi_f / res.n) for res in results),
        asymptote=asymptotic_relative_efficiency(dist, kernel),
    )


def _bound_ratio(num: float, den: float) -> float:
    return 0.0 if math.isinf(den) else num / den


def bandwidth_sandwich_check(dist: TargetDistribution, kernel: Kernel,
                             n_list) -> SandwichReport:
    """Verify the optimal-bandwidth sandwich along a sample-size sweep.

    Every finite-n optimum on dist's window must sit above the limit
    s_k/d_f (up to the refinement tolerance); when s_k > 0 and d_f <
    inf, the largest-n optimum must lie within _LIMIT_TOL = 0.2 of that
    limit and below the complementary bound min{s_k/c_f, t_k/d_f} +
    _LIMIT_TOL.  Violations are itemized in the report messages.
    """
    results = _search(dist, kernel, sorted(n_list))
    if not results:
        raise ValueError("n_list must be non-empty")
    ns = [res.n for res in results]
    hs = [res.h_opt for res in results]

    lower = 0.0 if kernel.s_k == 0.0 or math.isinf(dist.d_f) else kernel.s_k / dist.d_f
    upper = min(_bound_ratio(kernel.s_k, dist.c_f), _bound_ratio(kernel.t_k, dist.d_f))
    messages: list[str] = []
    for n, h in zip(ns, hs):
        if h < lower - _REFINE_TOL:
            messages.append(
                f"h_opt(n={n}) = {h:.9g} fell below the lower bound "
                f"s_k/d_f = {lower:.9g}")

    if kernel.s_k > 0.0 and math.isfinite(dist.d_f):
        h_last = hs[-1]
        if abs(h_last - lower) > _LIMIT_TOL:
            messages.append(
                f"h_opt(n={ns[-1]}) = {h_last:.9g} is not within {_LIMIT_TOL} "
                f"of the limit s_k/d_f = {lower:.9g}")
        if h_last > upper + _LIMIT_TOL:
            messages.append(
                f"h_opt(n={ns[-1]}) = {h_last:.9g} exceeds the bound "
                f"min(s_k/c_f, t_k/d_f) = {upper:.9g} by more than {_LIMIT_TOL}")

    return SandwichReport(
        passed=not messages,
        lower=lower,
        upper=upper,
        n_values=tuple(ns),
        h_opt=tuple(hs),
        messages=tuple(messages),
    )
