"""Kernel CDF estimators on data and the Monte Carlo MISE oracle.

The estimator F_nh(x) = n^-1 sum_j K((x - X_j)/h) is evaluated through
the kernel's integrated function, so the sinc path is automatically
1/2 + n^-1 sum_j Si((x - X_j)/h).  At h = 0 it degenerates to the
empirical CDF.  The integrated squared error of one sample against the
target, int {F_nh(x) - F(x)}^2 dx, is averaged over independently
seeded replications to validate the exact MISE formulas end to end.

For h > 0 the ISE is taken on the Fourier side, like the exact MISE:
by Parseval it is pi^-1 int_0^inf t^-2 |phi_k(t h) phi_n(t) - phi_f(t)|^2 dt
with phi_n the empirical characteristic function, cut at t h =
ft_support_end, or at t h = 8 for the normal kernel, which drops at
most 2 e^-32 h / 8; the sample-free rest past the cut is a sinc-kernel
ISB from ``mise_profile``.  The panels of each span between knots share
one width, so phi_n at the Gauss nodes follows by angle addition from
trig at the panel centres and at the 7 node offsets of each span, and
its means over the sample are matrix products on blocks of 64 panels.
Its cost grows with n max|X_j| / h, and its memory with n only.  The
normal kernel on a normal target takes an energy route instead: F_nh is
then the CDF of a normal mixture, and Cramer's (energy-distance)
identity gives the ISE in closed form from O(n^2) pair terms, at a cost
that does not depend on h.  At h = 0 the ISE of the step function F_n
is Cramer's identity, exact in O(n) through the target's mean absolute
deviation E|x - X|.  No ISE calls QUADPACK.

Each route takes an (R, n) array of sorted samples, one a row, and
``ise`` is a group of one.  ``monte_carlo_mise`` draws its replications
in groups of 2^14 // (14 n), at least one, so that its arrays stay
within about max(2^14, 64 n) elements however many replications it
takes, and runs the route once a group: at h = 0 the target's
mean_abs_dev once over the group, on the Fourier route the trig, the
transforms and the integrand once per run of the group's blocks of 64
panels (``numerics._block_runs``, up to max(64, 2^14 / n) panels a run).
Whatever belongs to one sample is rounded as for that sample alone, so
every replication's ISE has the bits ``ise`` gives it.

Sinc estimates are reported as-is: they may leave [0, 1] slightly and
are neither clipped nor monotonized, since the exact-MISE identities
hold for the raw estimator only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .distributions import TargetDistribution, _check_seed, _check_size, sample as draw_values
from .kernels import Kernel, kernel_by_name
from .mise import _H_RANGE, _h_ok, mise_profile
from .numerics import _G7_NODES, _G7_ONLY_WEIGHTS, _block_runs

__all__ = [
    "Sample",
    "MonteCarloMise",
    "PanelBoundError",
    "draw_sample",
    "estimate_cdf",
    "ise",
    "monte_carlo_mise",
]

# Cutoff t h <= 8 for a kernel transform with unbounded support (the
# normal kernel): beyond it |phi_k(t h)| <= e^-32, so the integrand
# differs from phi_f(t)^2 / t^2 by at most 3 e^-32 / t^2, and pi^-1
# times its integral over (8/h, inf) is below 2 e^-32 h / 8.
_NORMAL_FT_CUTOFF = 8.0

# Panel width times the largest frequency in the ISE integrand: 7-point
# Gauss at this width agrees with 16-point Gauss at a quarter of it to
# 4e-14 relative on every catalog pair, for h from 0.02 to 5 and n from
# 1 to 200.
_PANEL_WIDTH = 1.5

# Most panels one Fourier ISE may take: 2^22 panels are 34 MB of edges.
# The default mc-validate cells take 3 to 237, and jdlvp+normal at
# n = 200, h = 1e-4 takes 2.4e5 to 5.5e5; at n = 50, h = 1e-8 it would
# take 2e9, so the count is checked before anything is allocated.
_MAX_PANELS = 1 << 22

# Panels whose trig tables the Fourier ISE builds at once: its arrays
# hold at most 64 n elements, however many panels it takes.
_PANEL_BLOCK = 64

# Elements of one row block of the energy route's pair differences.  A
# block is whole rows, so it holds at most max(2^16, n - 1) elements: a
# sample of up to 256 points takes one block, and every temporary array
# of a block stays under 0.6 MB up to n = 65537 and 8 n bytes past it.
_PAIR_BLOCK = 1 << 16

# Elements of a temporary array of one group of Monte Carlo
# replications: monte_carlo_mise draws as many at a time as keep the
# Fourier route's (R, n, 14) trig table within 2^14 elements, or one
# where 14 n is more.  The Fourier route takes its panels in runs of at
# most max(64, 2^14 / n), so no array of a group exceeds about
# max(2^14, 64 n) elements, however many replications a cell takes.
_GROUP_ELEMENTS = 1 << 14

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

_SINC = kernel_by_name("sinc")


class PanelBoundError(ValueError):
    """A Fourier ISE that would need more than 2^22 panels."""


def _check_sorted(values: np.ndarray) -> None:
    # Sample's rule on each row of values, along its last axis.  The order
    # test is false at any nan, so an ordered row holds none, and then
    # its two ends bound every value.
    if not np.all(values[..., 1:] >= values[..., :-1]):
        raise ValueError("values must be sorted ascending, with no nan")
    if not np.all(np.isfinite(values[..., [0, -1]])):
        raise ValueError("values must be finite")


@dataclass(frozen=True)
class Sample:
    """A sorted i.i.d. sample of finite values with its seed and source."""

    values: np.ndarray
    seed: int
    source: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        _check_sorted(values)
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
    (seed,) = _check_seed((seed,))  # as one part, so a tuple is refused
    entropy = seed if rep is None else (seed, rep)
    values = np.sort(draw_values(dist, n, entropy))
    return Sample(values=values, seed=seed, source=dist.name)


def estimate_cdf(sample: Sample, kernel: Kernel, h: float, x):
    """F_nh(x) = n^-1 sum_j K((x - X_j)/h), the empirical CDF at h = 0.

    x may be a scalar or an array of finite values; the return matches.
    h must be 0 or in [1e-300, 1e75], the bandwidth range of ``mise``.
    The h = 0 path counts sample points at or below x by binary search.
    """
    if not _h_ok(h):
        raise ValueError(_H_RANGE)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
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

    For h > 0, by Parseval,

        ISE = pi^-1 int_0^inf t^-2 |phi_k(t h) phi_n(t) - phi_f(t)|^2 dt

    with phi_n(t) = n^-1 sum_j exp(i t X_j).  Up to the cutoff T =
    ft_support_end/h (8/h for the normal kernel) 7-point Gauss panels,
    split at every knot of phi_k(t h) and phi_f, resolve the fastest
    oscillation of phi_n; beyond T only the sample-free pi^-1
    int_T^d_f phi_f(t)^2 / t^2 dt is left, which is the ISB B(1/T) of
    the sinc kernel, taken from ``mise_profile``.  The normal kernel's
    cutoff drops at most 2 e^-32 h / 8.  The panels are at most
    1.5/max|X_j| wide, so this route costs O(n max|X_j| / h); it raises
    PanelBoundError, a ValueError, before allocating, where it would
    need over 2^22 panels.

    The panels of a span share one half-width w, so the nodes are t =
    m_p + w x_k, and exp(i t X_j) = exp(i m_p X_j) exp(i w x_k X_j) takes
    trig at the P panel centres and at the 7 offsets of each span: about
    2 P n trig calls where taking trig at every node would make 14 P n.
    The means over j are then (P x n)(n x 14) matrix products, on
    blocks of at most 64 panels, so the route's memory is O(64 n) however
    many panels it takes.  It agrees with trig at every node to 3e-14
    relative.  At n = 200 a replication takes 0.28 ms at h = 2, 1.4 ms
    at h = 0.25 and 0.47 s at h = 1e-3 on jdlvp with the normal kernel
    (numpy 2.4 on a shared 2-vCPU x86-64 box).  The sample-free parts,
    the cutoff, the knots and the tail, are worked out once a call here
    and once a cell in ``monte_carlo_mise``.

    The normal kernel on a normal target N(0, s^2) takes another route,
    whose cost does not depend on h or on max|X_j|.  There F_nh is the
    CDF of the mixture n^-1 sum_j N(X_j, h^2), so Cramer's (energy)
    identity holds at every h, with every term in closed form through
    g(m, r) = E|m + r Z|:

        ISE = n^-1 sum_j g(X_j, sqrt(s^2 + h^2))
              - (2 n^2)^-1 sum_{i,j} g(X_i - X_j, h sqrt(2)) - psi(F).

    Each term is taken less its value at m = 0, G(m, r) = g(m, r) -
    g(0, r) = m erf(m/(r sqrt 2)) + r sqrt(2/pi) expm1(-m^2/(2 r^2)) >= 0,
    which does not cancel at small m, and the constants g(0, r) combine
    in closed form:

        ISE = n^-1 sum_j G(X_j, sqrt(s^2 + h^2))
              - n^-2 sum_{i<j} G(X_j - X_i, h sqrt(2))
              + (h - s)^2 / {sqrt(2 pi) (sqrt(s^2 + h^2) + (s + h)/sqrt(2))}.

    So one point X_1 near 0 at h near s, whose ISE is near 0, keeps its
    relative accuracy; with more points the two sums are O(s) and cancel
    to an ISE near psi(F)/n, as in the h = 0 identity below.  This
    route is within 1e-12 relative of the identity summed at 40 digits
    for n up to 200 (h from 1e-4 to 4 s), and of the Fourier route for n
    up to 10000.  The pair sum costs O(n^2) whatever h is, in row blocks
    that bound its memory: 8 to 12 ms a replication at n = 1000 (h from 2
    down to 0.05) and 0.3 to 0.7 ms at n = 200, where the Fourier route,
    O(n / h), is the faster one from h near 0.05 on at n = 1000 and from
    h near 0.25 on at n = 200 (same box).

    At h = 0 the ISE of the step function F_n is Cramer's identity

        int (F_n - F)^2 = n^-1 sum_j E|X_j - X|
                          - n^-2 sum_i (2i - n - 1) X_(i) - psi(F),

    in closed form through the target's mean_abs_dev, with no cut-off.

    ``ise`` runs the routes ``monte_carlo_mise`` runs on its groups of
    replications, on a group of one sample, so a replication there has
    the bits it has here.  h must be 0 or in [1e-300, 1e75], the
    bandwidth range of ``mise``.
    """
    if not _h_ok(h):
        raise ValueError(_H_RANGE)
    return float(_ise_route(kernel, h, dist)(sample.values[None, :])[0])


def _ise_route(kernel: Kernel, h: float, dist: TargetDistribution):
    # The function that takes the ISE of each row of an (R, n) array of
    # sorted samples of dist, with what does not depend on the sample
    # worked out here, once a cell.
    if h == 0.0:
        return functools.partial(_ise_step, dist=dist)
    if kernel.name == "normal" and dist.family == "normal":
        return lambda xs: np.array([_ise_energy(x, dist.scale, h) for x in xs])
    cutoff = min(kernel.ft_support_end, _NORMAL_FT_CUTOFF) / h
    knots = [k / h for k in (kernel.s_k, *kernel.ft_knots)] + [*dist.cf_knots, dist.d_f]
    bounds = [0.0, *sorted(k for k in set(knots) if 0.0 < k < cutoff), cutoff]

    @functools.cache
    def tail() -> float:
        # The sinc kernel at bandwidth 1/T has phi_k = 1 up to T and 0
        # beyond, so pi B(1/T) = int_T^d_f phi_f^2 / t^2.  It is taken
        # once the first group has passed the panel bound, which every
        # sample fails where 1/T is below the bandwidth range.
        if cutoff < dist.d_f:
            return float(mise_profile(dist, _SINC, [1.0 / cutoff])[1][0])
        return 0.0

    return functools.partial(_ise_fourier, kernel=kernel, h=h, dist=dist,
                             spans=list(zip(bounds[:-1], bounds[1:])), tail=tail)


def _ise_step(xs: np.ndarray, dist: TargetDistribution) -> np.ndarray:
    # The h = 0 route of ise on each row of xs, Cramer's identity.  The
    # rank term is one product a row: a matrix-vector product rounds
    # otherwise.
    n = xs.shape[1]
    ranks = np.arange(1 - n, n, 2, dtype=float)
    order = np.array([ranks @ x for x in xs])
    return np.mean(dist.mean_abs_dev(xs), axis=1) - order / (n * n) - dist.psi_f


def _ise_fourier(xs: np.ndarray, kernel: Kernel, h: float, dist: TargetDistribution,
                 spans: list, tail) -> np.ndarray:
    # The Fourier route of ise at h > 0 on each row of xs, between the
    # knots of spans and with the sample-free tail() past the cutoff.
    rows, n = xs.shape
    # phi_n oscillates at frequencies up to max|X_j|, the larger of the
    # row's two ends, and the Gaussian factors phi_f^2 and phi_k(t h)^2
    # fall off on the scales 1/sigma and 1/h.  Past a knot a > 0 the
    # piece no longer vanishes at t = 0, so the pole of t^-2 limits each
    # panel there to a quarter of a.
    width = _PANEL_WIDTH / np.maximum(np.maximum(-xs[:, 0], xs[:, -1]),
                                      max(2.0 * math.sqrt(dist.variance), 2.0 * h))
    counts = np.stack([(b - a) / (np.minimum(width, a / 4.0) if a > 0.0 else width)
                       for a, b in spans], axis=1)
    need = counts.sum(axis=1)
    if need.max() > _MAX_PANELS:
        raise PanelBoundError(
            f"the Fourier ISE at h = {h:g} needs {need[need > _MAX_PANELS][0]:.3g} panels, "
            f"over its bound of {_MAX_PANELS}")

    totals = [0.0] * rows
    limit = max(_PANEL_BLOCK, _GROUP_ELEMENTS // n)
    for (a, b), panels in zip(spans, np.ceil(counts).astype(int).T):
        # The panels of a span share one half-width w a row, so node k of
        # panel p is t = m_p + w x_k and exp(i t X_j) = exp(i m_p X_j)
        # exp(i w x_k X_j): trig of the 7 offsets once a span, of the
        # centres once a panel, and the means over j are two matrix
        # products a block of at most 64 panels of one row, as is the
        # 7-point weighing.  The rows' panels are taken in runs of
        # blocks (numerics._block_runs), so the trig, the transforms and
        # the integrand are one pass over a run.
        w = 0.5 * (b - a) / panels
        offsets = w[:, None] * _G7_NODES
        wx = xs[:, :, None] * offsets[:, None, :]
        basis = np.concatenate([np.cos(wx), np.sin(wx)], axis=2) / n
        # the rows' panels indexed flat, row r's from starts[r] to stops[r]
        # in blocks of 64; a row's end repeats as the next row's start
        stops = np.cumsum(panels)
        starts = stops - panels
        bounds = (min(first, p1) for p0, p1 in zip(starts.tolist(), stops.tolist())
                  for first in range(p0, p1 + _PANEL_BLOCK, _PANEL_BLOCK))
        half = w.tolist()
        for run in _block_runs(bounds, limit):
            r0 = run[0]
            flat = np.arange(r0, run[-1])
            rid = np.searchsorted(stops, flat, side="right")
            # panel p of a row is centred at a + w (2 p + 1)
            mid = a + w[rid] * (2 * (flat - starts[rid]) + 1)
            mx = mid[:, None] * xs[rid]
            cos_mx, sin_mx = np.cos(mx), np.sin(mx)
            by_cos = np.empty((rid.size, 14))
            by_sin = np.empty((rid.size, 14))
            cuts = [(int(rid[p0 - r0]), p0 - r0, p1 - r0) for p0, p1 in zip(run[:-1], run[1:])]
            for r, lo, hi in cuts:
                np.matmul(cos_mx[lo:hi], basis[r], out=by_cos[lo:hi])
                np.matmul(sin_mx[lo:hi], basis[r], out=by_sin[lo:hi])
            t = mid[:, None] + offsets[rid]
            p = kernel.ft(t * h)
            re = p * (by_cos[:, :7] - by_sin[:, 7:]) - dist.cf(t)
            im = p * (by_sin[:, :7] + by_cos[:, 7:])
            g = (re * re + im * im) / (t * t)
            for r, lo, hi in cuts:
                totals[r] += half[r] * float(np.sum(g[lo:hi] @ _G7_ONLY_WEIGHTS))
    return np.array(totals) / math.pi + tail()


def _ise_energy(xs: np.ndarray, sigma: float, h: float) -> float:
    # The energy route of ise for the normal kernel at h > 0 on the
    # target N(0, sigma^2), from the sorted sample xs.
    n = xs.size
    s1 = math.hypot(sigma, h)
    u = xs / s1
    cross = float(np.mean(xs * scipy.special.erf(u / _SQRT2)
                          + (s1 * _SQRT_2_OVER_PI) * np.expm1(-0.5 * u * u)))
    # G(X_j - X_i, h sqrt 2) = d erf(d/(2h)) + (2h/sqrt(pi)) expm1(-d^2/(4h^2))
    # on d = X_j - X_i >= 0, a block of rows i at a time.  fsum adds the
    # block sums, whose running sum drifted 4.4e-12 relative at n = 10000.
    # z^2 overflows to inf once d/h passes 1e154, where the term is d.
    blocks = []
    rows = max(1, _PAIR_BLOCK // n)
    for r0 in range(0, n - 1, rows):
        r1 = min(r0 + rows, n - 1)
        d = xs[r0 + 1:] - xs[r0:r1, None]
        d = d[np.arange(r0 + 1, n) > np.arange(r0, r1)[:, None]]
        with np.errstate(over="ignore"):
            z = d / (2.0 * h)
            blocks.append(float(np.sum(d * scipy.special.erf(z)
                                       + (h * _TWO_OVER_SQRT_PI) * np.expm1(-z * z))))
    # sqrt(2/pi) {s1 - (s + h)/sqrt 2}, with the difference rationalized
    # and h - s kept as a factor so that nothing overflows at large h
    gap = h - sigma
    return cross - math.fsum(blocks) / (n * n) + gap * (gap / (_SQRT_2PI * (s1 + (h + sigma) / _SQRT2)))


def monte_carlo_mise(dist: TargetDistribution, kernel: Kernel, h: float,
                     n: int, replications: int, seed: int) -> MonteCarloMise:
    """Mean ISE over independently seeded replications, with standard error.

    Replication r draws its sample from the stream keyed by (seed, r),
    as ``draw_sample(dist, n, seed, rep=r)`` does.  The replications are
    drawn in groups, in index order, in this process: as many at a time
    as keep the Fourier route's (R, n, 14) trig table within 2^14
    elements, or one where 14 n is more, so memory does not grow with
    the number of replications.  Each group is sorted row by row and
    checked once by ``Sample``'s rule, and then ``ise``'s route runs
    once on the whole group.  Every replication's ISE has the bits of
    ``ise`` on its sample, and the estimate is deterministic for a fixed
    seed.  h is checked as by ``ise`` before any sample is drawn.
    """
    if not _h_ok(h):
        raise ValueError(_H_RANGE)
    replications = _check_size(replications, "replications")
    if replications < 2:
        raise ValueError("replications must be >= 2")
    n = _check_size(n)
    route = _ise_route(kernel, h, dist)
    group = max(1, _GROUP_ELEMENTS // (14 * n))
    values = np.empty(replications)
    for r0 in range(0, replications, group):
        reps = range(r0, min(r0 + group, replications))
        xs = np.array([draw_values(dist, n, (seed, r)) for r in reps])
        xs.sort(axis=1)
        _check_sorted(xs)
        values[r0:reps.stop] = route(xs)
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(replications))
    return MonteCarloMise(
        estimate=estimate,
        std_error=std_error,
        replications=replications,
        h=float(h),
        n=int(n),
    )
