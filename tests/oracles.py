"""Independent oracles used to pin test expectations.

Every helper recomputes a quantity by a route different from the
library's own: power series instead of scipy's sici, the stdlib erf
instead of ndtr, a triangle self-convolution instead of the closed
piecewise transform, and QUADPACK with analytic oscillatory tails
instead of fixed Gauss panels.  The space-domain IV/ISB oracles
integrate the pre-Fourier displays directly, sharing no transform code
with the library's Fourier route; they take the kernel densities k,
which the library does not carry, from ``kernel_density``.
``mise_mpmath`` evaluates both Fourier displays to 50 digits with
mpmath.  ``jdlvp_cdf_mpmath`` integrates the JdlVP density to 40
digits, the h = 0 ISE oracles integrate the step-function error in
closed form (normal) or with mpmath (JdlVP), ``ise_energy_mpmath``
sums the normal-kernel ISE's energy identity as written, every term at
40 digits, where the library sums it rearranged into nonnegative
parts, ``ise_fourier_direct`` takes the Fourier ISE's empirical CF by
trig at every node, where the library uses angle addition from the
panel centres, and ``mean_abs_dev_quad`` integrates F and 1 - F
instead of the closed form E|x - X|.
``profile_panels`` builds the fixed rule's panels one cell at a time by
a loop on floats, where the library steps every cell's segments at once
on arrays, and ``quadpack_terms`` computes the rule's pi A and pi B by
adaptive QUADPACK subdivision instead.  Agreement between routes is
then evidence, not tautology.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from cdf_mise.distributions import TargetDistribution, _check_size
from cdf_mise.estimator import _MAX_PANELS, _NORMAL_FT_CUTOFF, _PANEL_WIDTH
from cdf_mise.kernels import Kernel, kernel_by_name
from cdf_mise.mise import _GAUSS_CUT, _H_RANGE, _h_ok, mise_profile
from cdf_mise.numerics import (
    _GK15_NODES,
    _GK15_WEIGHTS,
    QuadratureResult,
    gauss_kronrod_panels,
    gauss_panels,
    integrate,
)


def si_classical(x: float) -> float:
    """Sine integral int_0^x sin(t)/t dt by power series / asymptotics.

    The power series is used on |x| <= 25 (alternating, max term ~1e3,
    so roughly 13 digits survive cancellation); beyond that the
    divergent asymptotic expansion truncated at its smallest term gives
    ~1e-10 absolute error.
    """
    if x < 0.0:
        return -si_classical(-x)
    if x == 0.0:
        return 0.0
    if x <= 25.0:
        total = term = x
        k = 0
        while abs(term) > 1e-18 * abs(total) and k < 200:
            k += 1
            term *= -x * x * (2 * k - 1) / ((2 * k + 1) * (2 * k) * (2 * k + 1))
            total += term
        return total
    f = _asymptotic_sum(x, first=0)   # ~ sum (-1)^k (2k)! / x^{2k}
    g = _asymptotic_sum(x, first=1)   # ~ sum (-1)^k (2k+1)! / x^{2k}
    return 0.5 * math.pi - math.cos(x) * f / x - math.sin(x) * g / (x * x)


def ci_asymptotic(x: float) -> float:
    """Cosine integral Ci(x) = -int_x^inf cos(t)/t dt for x >= 25."""
    if x < 25.0:
        raise ValueError("asymptotic cosine integral needs x >= 25")
    f = _asymptotic_sum(x, first=0)
    g = _asymptotic_sum(x, first=1)
    return math.sin(x) * f / x - math.cos(x) * g / (x * x)


def _asymptotic_sum(x: float, first: int) -> float:
    # sum_k (-1)^k (2k + first)! / x^{2k}, truncated at the smallest term.
    total = term = 1.0 if first == 0 else 1.0
    k = 0
    while True:
        k += 1
        nxt = term * -(2 * k + first - 1) * (2 * k + first) / (x * x)
        if abs(nxt) >= abs(term) or k > 40:
            return total
        term = nxt
        total += term


def si_paper(x: float) -> float:
    """Sine integral under the library normalization, limits +-1/2."""
    return si_classical(x) / math.pi


def phi_erf(x: float) -> float:
    """Standard normal CDF through the stdlib's erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def cos_tail_over_x2(a: float, b: float) -> float:
    """int_b^inf cos(a x) / x^2 dx by parts: cos(ab)/b - a(pi/2 - Si(ab))."""
    a = abs(a)
    if a == 0.0:
        return 1.0 / b
    return math.cos(a * b) / b - a * (0.5 * math.pi - si_classical(a * b))


def sin_tail_over_x3(a: float, b: float) -> float:
    """int_b^inf sin(a x) / x^3 dx = sin(ab)/(2b^2) + (a/2) cos-tail."""
    if a < 0.0:
        return -sin_tail_over_x3(-a, b)
    if a == 0.0:
        return 0.0
    return math.sin(a * b) / (2.0 * b * b) + 0.5 * a * cos_tail_over_x2(a, b)


def numeric_cosine_transform(fn, t: float, b: float, limit: int = 2000) -> float:
    """int_{-b}^{b} fn(x) cos(t x) dx for an even fn, by QUADPACK."""
    value, _ = scipy.integrate.quad(
        lambda x: fn(x) * math.cos(t * x), 0.0, b, limit=limit,
        epsabs=1e-12, epsrel=1e-12)
    return 2.0 * value


def jdlvp_density(x):
    """Unit JdlVP density (3/(4 pi)) (sin(x/2)/(x/2))^4, exact at 0."""
    u = 0.5 * np.asarray(x, dtype=float)
    safe = np.where(u == 0.0, 1.0, u)
    ratio = np.where(u == 0.0, 1.0, np.sin(safe) / safe)
    return 0.75 / math.pi * ratio ** 4


def _normal_kernel_density(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _trapezoidal_kernel_density(x):
    # k(x) = (cos x - cos 2x) / (pi x^2), with the removable value
    # k(0) = 3/(2 pi); the series branch avoids cancellation near 0.
    # k decays like x^-2, so it is integrable, but its absolute first
    # moment diverges logarithmically.
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    xs = np.where(small, 1.0, x)
    direct = (np.cos(xs) - np.cos(2.0 * xs)) / (math.pi * xs * xs)
    series = (1.5 - 0.625 * x * x) / math.pi
    return np.where(small, series, direct)


def _sinc_kernel_density(x):
    # sin(x)/(pi x) = sinc(x/pi) in numpy's normalization; exact at 0.  It
    # exists pointwise but is not Lebesgue integrable.
    x = np.asarray(x, dtype=float)
    return np.sinc(x / math.pi) / math.pi


_KERNEL_DENSITIES = {"normal": _normal_kernel_density,
                     "trapezoidal": _trapezoidal_kernel_density,
                     "sinc": _sinc_kernel_density}


def kernel_density(kernel: Kernel):
    """The pointwise density k of a catalog kernel, by its name."""
    return _KERNEL_DENSITIES[kernel.name]


def trapezoid_ft_tail(t: float, b: float) -> float:
    # Beyond b the trapezoidal kernel is (cos x - cos 2x)/(pi x^2); the
    # product with cos(tx) splits into four cos((m +- t)x)/x^2 tails.
    return (cos_tail_over_x2(1.0 - t, b) + cos_tail_over_x2(1.0 + t, b)
            - cos_tail_over_x2(2.0 - t, b) - cos_tail_over_x2(2.0 + t, b)) / math.pi


def jdlvp_cf_convolution(t: float) -> float:
    """Transform of the fourth-power sinc density via triangle overlap.

    The density is the square of the triangular-transform density, so
    its transform is the normalized self-convolution of the triangle
    max(0, 1-|s|): phi(t) = (3/2) int tri(s) tri(t-s) ds.
    """
    t = abs(t)
    if t >= 2.0:
        return 0.0

    def integrand(s: float) -> float:
        return max(0.0, 1.0 - abs(s)) * max(0.0, 1.0 - abs(t - s))

    kinks = sorted({-1.0, 0.0, 1.0, t - 1.0, t, t + 1.0})
    pts = [p for p in kinks if -1.0 < p < 1.0]
    value, _ = scipy.integrate.quad(integrand, -1.0, 1.0, points=pts,
                                    epsabs=1e-14, epsrel=1e-13)
    return 1.5 * value


def psi_space_quad(cdf) -> float:
    """int F(1-F) dx by QUADPACK over the split real line."""

    def integrand(x):
        f = cdf(x)
        return f * (1.0 - f)

    left, _ = scipy.integrate.quad(integrand, -np.inf, 0.0, limit=500)
    right, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=500)
    return left + right


def psi_k_space_trapezoid(integrated_fn, b: float = 200.0 * math.pi) -> float:
    """int K(1-K) dx for the trapezoidal kernel with analytic x^-2 tails.

    By symmetry the integral is 2 int_0^inf; past b, with w = 1 - K,
    int w dx = -b w(b) + (Ci(2b) - Ci(b))/pi by parts, and int w^2 is
    below 1e-12 there.
    """

    def integrand(x):
        k = integrated_fn(x)
        return k * (1.0 - k)

    core, _ = scipy.integrate.quad(integrand, 0.0, b, limit=4000,
                                   epsabs=1e-13, epsrel=1e-12)
    w_b = 1.0 - float(integrated_fn(b))
    tail = -b * w_b + (ci_asymptotic(2.0 * b) - ci_asymptotic(b)) / math.pi
    return 2.0 * (core + tail)


def psi_k_space_sinc(integrated_fn, b: float = 200.0 * math.pi) -> float:
    """int K(1-K) dx for the sinc kernel.

    The tail is only conditionally convergent: with w = 1 - K,
    int_b^inf w dx = cos(b)/pi - b w(b) by parts, while the absolutely
    convergent int_b^inf w^2 dx expands around w ~ cos(x)/(pi x) into
    closed-form cosine/sine tails plus an O(b^-3) remainder.
    """

    def integrand(x):
        k = integrated_fn(x)
        return k * (1.0 - k)

    core, _ = scipy.integrate.quad(integrand, 0.0, b, limit=4000,
                                   epsabs=1e-13, epsrel=1e-12)
    w_b = 1.0 - float(integrated_fn(b))
    tail_w = math.cos(b) / math.pi - b * w_b
    pi2 = math.pi * math.pi
    tail_w2 = (0.5 / b + 0.5 * cos_tail_over_x2(2.0, b)) / pi2
    tail_w2 -= sin_tail_over_x3(2.0, b) / pi2
    return 2.0 * (core + tail_w - tail_w2)


def psi_k_space_normal(integrated_fn) -> float:
    """int K(1-K) dx for the normal kernel (exponential tails)."""

    def integrand(x):
        k = integrated_fn(x)
        return k * (1.0 - k)

    value, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, limit=500)
    return value


def ise_step_function_normal(values: np.ndarray, sigma: float) -> float:
    """Closed-form int (F_n - F)^2 dx for a step CDF vs a normal target.

    Uses int Phi = x Phi + phi and
    int Phi^2 = x Phi^2 + 2 phi Phi - Phi(x sqrt(2))/sqrt(pi), whose
    right-tail limit of x - 2 int Phi + int Phi^2 is -1/sqrt(pi).
    """
    xs = np.sort(np.asarray(values, dtype=float)) / sigma
    n = xs.size

    def phi(u: float) -> float:
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    def cum(u: float) -> float:
        return phi_erf(u)

    def int_phi(u: float) -> float:
        return u * cum(u) + phi(u)

    def int_phi_sq(u: float) -> float:
        return (u * cum(u) ** 2 + 2.0 * phi(u) * cum(u)
                - cum(u * math.sqrt(2.0)) / math.sqrt(math.pi))

    total = int_phi_sq(xs[0])
    for i in range(1, n):
        a, b = xs[i - 1], xs[i]
        level = i / n
        total += (level * level * (b - a)
                  - 2.0 * level * (int_phi(b) - int_phi(a))
                  + int_phi_sq(b) - int_phi_sq(a))
    a = xs[-1]
    total += -1.0 / math.sqrt(math.pi) - (a - 2.0 * int_phi(a) + int_phi_sq(a))
    return sigma * total


def ise_energy_mpmath(values, sigma: float, h: float):
    """int (F_nh - F)^2 dx for the normal kernel at h > 0 vs N(0, sigma^2).

    Cramer's energy identity for the normal mixture F_nh, summed term by
    term at 40 digits as written, with g(m, r) = E|m + r Z| =
    m erf(m/(r sqrt 2)) + r sqrt(2/pi) exp(-m^2/(2 r^2)):

        n^-1 sum_j g(X_j, sqrt(sigma^2 + h^2))
        - (2 n^2)^-1 sum_{i,j} g(X_i - X_j, h sqrt 2) - sigma/sqrt(pi).

    Returns an mpmath number.
    """
    mp = pytest.importorskip("mpmath")
    if h <= 0.0:
        raise ValueError("ise_energy_mpmath needs h > 0")
    with mp.workdps(40):
        xs = [mp.mpf(float(v)) for v in values]
        n = len(xs)
        s = mp.mpf(sigma)
        r1 = mp.sqrt(s * s + mp.mpf(h) ** 2)
        r2 = mp.sqrt(2) * mp.mpf(h)

        root2 = mp.sqrt(2)
        root2_over_pi = mp.sqrt(2 / mp.pi)

        def g(m, r):
            return m * mp.erf(m / (r * root2)) + r * root2_over_pi * mp.exp(-m * m / (2 * r * r))

        cross = mp.fsum(g(x, r1) for x in xs) / n
        # g is even in m: each pair i != j twice, and n diagonal terms g(0, r2)
        pairs = n * g(mp.mpf(0), r2) + 2 * mp.fsum(
            g(xs[j] - xs[i], r2) for i in range(n) for j in range(i + 1, n))
        return cross - pairs / (2 * n * n) - s / mp.sqrt(mp.pi)


def ise_fourier_direct(values, kernel: Kernel, h: float, dist: TargetDistribution) -> float:
    """The Fourier ISE of ``ise`` at h > 0, the empirical CF taken node by node.

    The same cutoff, knots, panel widths, panel bound and sample-free
    tail as the library's Fourier route, but phi_n(t) is the mean of
    cos(t X_j) and sin(t X_j) at every Gauss node t, 14 trig calls per
    panel and sample point, and the panels run through ``gauss_panels``.
    The library takes trig at the panel centres only and recovers the
    nodes by angle addition.
    """
    if h <= 0.0:
        raise ValueError("ise_fourier_direct needs h > 0")
    xs = np.asarray(values, dtype=float)
    cutoff = min(kernel.ft_support_end, _NORMAL_FT_CUTOFF) / h
    knots = [k / h for k in (kernel.s_k, *kernel.ft_knots)] + [*dist.cf_knots, dist.d_f]
    bounds = [0.0, *sorted(k for k in set(knots) if 0.0 < k < cutoff), cutoff]
    width = _PANEL_WIDTH / max(float(np.max(np.abs(xs))),
                               2.0 * math.sqrt(dist.variance), 2.0 * h)
    spans = list(zip(bounds[:-1], bounds[1:]))
    counts = [(b - a) / (min(width, a / 4.0) if a > 0.0 else width) for a, b in spans]
    if sum(counts) > _MAX_PANELS:
        raise ValueError(f"{sum(counts):.3g} panels")
    pieces = [np.linspace(a, b, math.ceil(c) + 1)[:-1] for (a, b), c in zip(spans, counts)]
    edges = np.append(np.concatenate(pieces), cutoff)

    def sq_diff(t: np.ndarray) -> np.ndarray:
        tx = t[:, None] * xs[None, :]
        p = kernel.ft(t * h)
        re = p * np.cos(tx).mean(axis=1) - dist.cf(t)
        im = p * np.sin(tx).mean(axis=1)
        return (re * re + im * im) / (t * t)

    tail = 0.0
    if cutoff < dist.d_f:
        tail = float(mise_profile(dist, kernel_by_name("sinc"), [1.0 / cutoff])[1][0])
    return gauss_panels(sq_diff, edges, chunk=64) / math.pi + tail


def jdlvp_cdf_mpmath(xs) -> np.ndarray:
    """Unit JdlVP distribution function by 40-digit quadrature of its density.

    F(x) = 1/2 + sign(x) int_0^|x| f, with f(v) = (12/pi) sin^4(v/2)/v^4
    written in mpmath.  The integral is cumulated over the sorted |x| by
    tanh-sinh on panels at most pi wide and rounded to float only at the
    end, so it shares nothing with the library's closed form.
    """
    mp = pytest.importorskip("mpmath")
    xs = np.asarray(xs, dtype=float)
    with mp.workdps(40):
        def density(v):
            if v == 0:
                return 3 / (4 * mp.pi)
            return 12 / mp.pi * (mp.sin(v / 2) / v) ** 4

        cum = {}
        total = prev = mp.mpf(0)
        for u in sorted({abs(float(x)) for x in xs.ravel()}):
            panels = max(1, math.ceil((u - float(prev)) / math.pi))
            total += mp.quad(density, mp.linspace(prev, mp.mpf(u), panels + 1))
            cum[u] = total
            prev = mp.mpf(u)
        out = [mp.mpf(0.5) + math.copysign(1.0, x) * cum[abs(float(x))] for x in xs.ravel()]
        return np.array([float(v) for v in out]).reshape(xs.shape)


def jdlvp_cdf_closed_mp(mp, x):
    """Unit JdlVP F(x) in closed form through mpmath's Si, as an mpmath number.

    Evaluated at the caller's working precision; the tests pin it to
    jdlvp_cdf_mpmath's quadrature of the density.
    """
    u = abs(mp.mpf(x))
    if u == 0:
        return mp.mpf(0.5)
    i = ((2 * mp.si(2 * u) - mp.si(u)) / 12 - mp.sin(u / 2) ** 4 / (3 * u ** 3)
         - mp.sin(u) * mp.sin(u / 2) ** 2 / (6 * u ** 2)
         - mp.sin(1.5 * u) * mp.sin(u / 2) / (6 * u))
    return mp.mpf(0.5) + mp.sign(x) * 12 / mp.pi * i


def ise_step_function_jdlvp(values: np.ndarray) -> float:
    """int (F_n - F)^2 dx for a step CDF vs the unit JdlVP target, by mpmath.

    F is the closed form through mpmath's Si at 30 digits.  Each gap
    between order statistics and both tails out to |x| = 40 are
    integrated by Gauss-Legendre on panels at most pi wide; the two tails
    past 40 are equal by symmetry and together about 1e-9.
    """
    mp = pytest.importorskip("mpmath")
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    reach = float(max(40, math.ceil(np.max(np.abs(xs)))))
    with mp.workdps(30):
        def span(f, a, b):
            pts = mp.linspace(a, b, max(1, math.ceil((b - a) / math.pi)) + 1)
            return mp.quad(f, pts, method="gauss-legendre")

        def below(x):
            return jdlvp_cdf_closed_mp(mp, x) ** 2

        def above(x):
            return (1 - jdlvp_cdf_closed_mp(mp, x)) ** 2

        total = (2 * _jdlvp_far_tail(reach) + span(below, -reach, xs[0])
                 + span(above, xs[-1], reach))
        for i in range(1, n):
            level = mp.mpf(i) / n
            total += span(lambda x: (level - jdlvp_cdf_closed_mp(mp, x)) ** 2,
                          xs[i - 1], xs[i])
        return float(total)


@functools.lru_cache(maxsize=None)
def _jdlvp_far_tail(reach: float):
    # int_reach^inf (1 - F)^2 at 30 digits: panels one period (2 pi) wide
    # up to 400, then tanh-sinh to infinity over a remainder near 1e-14,
    # which it gets to 1e-18 (stopping at 100 instead would miss 8e-16).
    import mpmath as mp

    with mp.workdps(30):
        def above(x):
            return (1 - jdlvp_cdf_closed_mp(mp, x)) ** 2

        end = max(400.0, reach)
        pts = mp.linspace(reach, end, max(1, math.ceil((end - reach) / (2 * math.pi))) + 1)
        return mp.quad(above, pts, method="gauss-legendre") + mp.quad(above, [end, mp.inf])


def ks_statistic(values: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov sup |F_n - F|."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    f = cdf(xs)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def mean_abs_dev_quad(dist: TargetDistribution, x: float) -> float:
    """E|x - X| as int_-inf^x F + int_x^inf (1 - F), by quadrature.

    Both integrals run over [-r, r], r = |x| plus 8 pi scale units (JdlVP)
    or 40 sigma (normal), by 32-point Gauss-Legendre on panels pi scale
    units (JdlVP) or one sigma wide.  Past r the normal tails are below
    1e-300.  A JdlVP tail int_r^inf (1 - F) = int_r^inf (v - r) f(v) dv is
    taken from sin^4(v/2a) = (3 - 4 cos(v/a) + cos(2v/a))/8: the constant
    part in closed form, the two cosine parts by QUADPACK's Fourier
    integral (QAWF); the left tail equals it by symmetry.
    """
    if dist.family == "jdlvp":
        a = dist.scale
        r = abs(x) + 8.0 * math.pi * a
        width = math.pi * a

        def cos_part(w: float) -> float:
            # int_r^inf (v - r) v^-4 cos(w v / a) dv with v = r y
            return scipy.integrate.quad(lambda y: (y - 1.0) / y ** 4, 1.0, np.inf,
                                        weight="cos", wvar=w * r / a,
                                        epsabs=1e-14)[0] / (r * r)

        tail = 1.5 * a ** 3 / math.pi * (0.5 / (r * r) - 4.0 * cos_part(1.0)
                                         + cos_part(2.0))
    else:
        r = abs(x) + 40.0 * dist.scale
        width = dist.scale
        tail = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def panels(f, lo: float, hi: float) -> float:
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / width)) + 1)
        half = 0.5 * np.diff(edges)
        v = (edges[:-1] + half)[:, None] + half[:, None] * nodes
        return float(np.sum(half * (f(v) @ weights)))

    return (tail + panels(dist.cdf, -r, x)
            + panels(lambda v: 1.0 - dist.cdf(v), x, r) + tail)


def jdlvp_sinc_critical_points(n: int) -> list[float]:
    """Bandwidths with |phi_f(1/h)|^2 = 1/(n+1) for the band-limited
    density, solved branch by branch.

    On 1 <= u <= 2 the transform is (2-u)^3/4, so u = 2 - (16/(n+1))^(1/6)
    directly; on 0 <= u <= 1 the cubic 1 - 3u^2/2 + 3u^3/4 = (n+1)^(-1/2)
    is bisected (it is strictly decreasing from 1 to 1/4 there, so a
    root exists only when n <= 15).
    """
    target = 1.0 / math.sqrt(n + 1.0)
    roots = []
    u = 2.0 - (16.0 / (n + 1.0)) ** (1.0 / 6.0)
    if 1.0 <= u <= 2.0 and target <= 0.25:
        roots.append(u)
    if target > 0.25:
        lo, hi = 0.0, 1.0

        def branch(v: float) -> float:
            return 1.0 - 1.5 * v * v + 0.75 * v ** 3 - target

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if branch(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return sorted(1.0 / u for u in roots)


# ---------------------------------------------------------------------------
# The fixed rule's panels, cell by cell
# ---------------------------------------------------------------------------

def profile_edges(lo: float, hi: float, knots, rates) -> list[float]:
    """Panel edges of the fixed rule from lo to hi, by a loop on floats.

    The range is split at every knot in between.  A panel starting at
    t > 0 is at most t wide and at most 1/r wide while a Gaussian factor
    of rate r is active (r t < _GAUSS_CUT).
    """
    cuts = sorted({lo, hi, *(k for k in knots if lo < k < hi)})
    edges = [lo]
    for a, b in zip(cuts[:-1], cuts[1:]):
        t = a
        while t < b:
            w = b - t
            if t > 0.0:
                w = min(w, t)
            for r in rates:
                if r * t < _GAUSS_CUT:
                    w = min(w, 1.0 / r)
            t = b if w >= b - t else t + w
            edges.append(t)
    return edges


def profile_panels(dist: TargetDistribution, kernel: Kernel, hs):
    """The fixed rule's panels (lo, hi, cell) of the IV and of the ISB.

    Built one cell at a time from ``profile_edges``: the IV on
    (0, min(ft_support_end/h, t_end)), the ISB on (s_k/h, t_end) where
    that range is not empty, with t_end = d_f, or 9.5/sigma and a
    Gaussian rate sigma for a normal target, and the rate h for the
    normal kernel.
    """
    if math.isfinite(dist.d_f):
        t_end, knots, rates = dist.d_f, [*dist.cf_knots, dist.d_f], []
    else:
        t_end, knots, rates = _GAUSS_CUT / dist.scale, list(dist.cf_knots), [dist.scale]
    iv: tuple[list, list, list] = ([], [], [])
    isb: tuple[list, list, list] = ([], [], [])
    for cell, h in enumerate(float(h) for h in hs):
        cell_knots = [k / h for k in kernel.ft_knots] + knots
        cell_rates = rates + ([h] if kernel.name == "normal" else [])
        ranges = [(iv, 0.0, min(kernel.ft_support_end / h, t_end))]
        if kernel.s_k / h < t_end:
            ranges.append((isb, kernel.s_k / h, t_end))
        for out, lo, hi in ranges:
            edges = profile_edges(lo, hi, cell_knots, cell_rates)
            out[0].extend(edges[:-1])
            out[1].extend(edges[1:])
            out[2].extend([cell] * (len(edges) - 1))
    return tuple((np.array(lo, dtype=float), np.array(hi, dtype=float),
                  np.array(cell, dtype=int)) for lo, hi, cell in (iv, isb))


# ---------------------------------------------------------------------------
# The MISE terms by QUADPACK
# ---------------------------------------------------------------------------

def quadpack_terms(dist: TargetDistribution, kernel: Kernel, h: float):
    """(pi A, pi B, a_err, b_err) at one h > 0 by QUADPACK, or None.

    The adaptive reference for the fixed rule of ``cdf_mise.mise``, in
    the shape of one cell of its ``_fixed_rule``: both Fourier displays
    by ``cdf_mise.numerics.integrate`` on scalar integrands, split at
    the knots of both factors, with QUADPACK's error estimates.  pi A
    runs over (0, ft_support_end/h); the ISB integrand vanishes below
    s_k/h and beyond d_f, so pi B is exactly 0 while h d_f <= s_k.
    None where QUADPACK misses its tolerance (at very small or very
    large h).  Its estimates can understate the actual error: they
    leave out the rounding of 1 - phi_f^2 near t = 0.
    """
    def phi_k(u: float) -> float:
        # the kernel's constants fix phi_k outside (s_k, ft_support_end)
        if u <= kernel.s_k:
            return 1.0
        if u >= kernel.ft_support_end:
            return 0.0
        return float(kernel.ft(u))

    def iv(t: float) -> float:
        p = phi_k(t * h)
        q = float(dist.cf(t))
        return p * p * (1.0 - q * q) / (t * t)

    def isb(t: float) -> float:
        p = phi_k(t * h)
        q = float(dist.cf(t))
        return (1.0 - p) * (1.0 - p) * q * q / (t * t)

    pts = [k / h for k in kernel.ft_knots] + list(dist.cf_knots)
    a = integrate(iv, 0.0, kernel.ft_support_end / h,
                  points=pts + [dist.d_f] if math.isfinite(dist.d_f) else pts)
    if h * dist.d_f <= kernel.s_k:
        b = QuadratureResult(0.0, 0.0, 0, True)
    else:
        b = integrate(isb, kernel.s_k / h, dist.d_f, points=pts)
    if not (a.converged and b.converged):
        return None
    return a.value, b.value, a.error_estimate, b.error_estimate


# ---------------------------------------------------------------------------
# Space-domain oracles (direct quadrature of the pre-Fourier displays)
# ---------------------------------------------------------------------------

def _check_h_n(h: float, n: int) -> None:
    # the oracles take the h and n that mise takes
    _check_size(n)
    if not _h_ok(h):
        raise ValueError(_H_RANGE)


def tail_radius(dist: TargetDistribution, eps: float) -> float:
    """R with 1 - F(R) <= eps for a catalog target (F(-R) by symmetry).

    JdlVP: the tail envelope 12/(pi x^4) integrated and inverted, with a
    floor, valid since sin^4 <= 1.  Normal: ndtri inverted at eps/2 so
    rounding cannot push the mass above eps.
    """
    if dist.family == "jdlvp":
        return dist.scale * max(6.0, (4.0 / (math.pi * eps)) ** (1.0 / 3.0))
    return dist.scale * float(scipy.special.ndtri(1.0 - min(0.5 * eps, 0.499)))


def _kernel_truncation_radius(kernel: Kernel) -> float:
    # The inner y-integrals run over [-B, B] plus exact boundary terms.
    # The normal density is below 1e-15 past 8.5; for the trapezoidal
    # kernel B is a multiple of 2 pi and the boundary completion leaves
    # a residual of order |K(B) - 1| ~ 1/(pi B^2) ~ 3e-5.
    return 8.5 if kernel.name == "normal" else 32.0 * math.pi


def _panel_edges(lo: float, hi: float, width: float) -> np.ndarray:
    m = max(8, int(math.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, m + 1)


def _smoothed_cdf(dist, kernel, h, xs, y_edges, squared_weight: bool):
    """int F(x - h y) w(y) dy for w = k (or w = 2 K k when squared_weight).

    Gauss-Kronrod panels on [-B, B], completed by the exact boundary
    terms of integration by parts: with W the antiderivative of w
    (W = K, or K^2), the tails contribute F(x - hB){1 - W(B)} and
    F(x + hB) W(-B) up to a remainder carrying a factor of the density
    mass beyond the window.
    """
    b_hi = float(y_edges[-1])
    b_lo = float(y_edges[0])
    a = y_edges[:-1]
    b = y_edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ys = (mid[:, None] + half[:, None] * _GK15_NODES[None, :]).ravel()
    w = kernel_density(kernel)(ys)
    if squared_weight:
        w = 2.0 * kernel.integrated_fn(ys) * w
    vals = dist.cdf(xs[:, None] - h * ys[None, :]) * w[None, :]
    vals = vals.reshape(xs.size, a.size, 15)
    core = (vals @ _GK15_WEIGHTS) @ half

    k_hi = float(kernel.integrated_fn(b_hi))
    k_lo = float(kernel.integrated_fn(b_lo))
    w_hi = k_hi * k_hi if squared_weight else k_hi
    w_lo = k_lo * k_lo if squared_weight else k_lo
    return core + dist.cdf(xs - h * b_hi) * (1.0 - w_hi) + dist.cdf(xs + h * b_hi) * w_lo


def isb_space_oracle(dist: TargetDistribution, kernel: Kernel, h: float) -> float:
    """ISB by direct space-domain quadrature (cross-check oracle).

    Evaluates int b_h(x)^2 dx with the pointwise bias
    b_h(x) = int {F(x - h y) - F(x)} k(y) dy, which is the expanded form
    of the double dK-integral of the bias product.  Low accuracy
    (~1e-4); integrable kernels only.
    """
    if not kernel.integrable:
        raise ValueError("space-domain oracle requires an integrable kernel "
                         "(dK must be a finite measure)")
    _check_h_n(h, 1)
    if h == 0.0:
        return 0.0

    b_k = _kernel_truncation_radius(kernel)
    y_edges = _panel_edges(-b_k, b_k, min(math.pi, b_k / 16.0))
    l_x = tail_radius(dist, 1e-6) + h * b_k
    x_edges = _panel_edges(-l_x, l_x, 1.0)

    def bias_sq(xs: np.ndarray) -> np.ndarray:
        smoothed = _smoothed_cdf(dist, kernel, h, xs, y_edges, squared_weight=False)
        b = smoothed - dist.cdf(xs)
        return b * b

    val, _ = gauss_kronrod_panels(bias_sq, x_edges, chunk=24)
    return val


def iv_space_oracle(dist: TargetDistribution, kernel: Kernel, h: float, n: int) -> float:
    """IV by direct space-domain quadrature (cross-check oracle).

    n IV(h) = int [ int F(x - h m) d(K^2)(m) - { int F(x - h y) dK(y) }^2 ] dx,
    where K^2 is the distribution function of y v z = max(y, z) under
    dK x dK, so d(K^2)(m) = 2 K(m) k(m) dm.  Low accuracy (~1e-3);
    integrable kernels only.
    """
    if not kernel.integrable:
        raise ValueError("space-domain oracle requires an integrable kernel "
                         "(dK must be a finite measure)")
    _check_h_n(h, n)

    b_k = _kernel_truncation_radius(kernel)
    l_x = tail_radius(dist, 1e-6) + h * b_k
    x_edges = _panel_edges(-l_x, l_x, 1.0)

    if h == 0.0:
        def integrand0(xs: np.ndarray) -> np.ndarray:
            fx = dist.cdf(xs)
            return fx * (1.0 - fx)

        val, _ = gauss_kronrod_panels(integrand0, x_edges, chunk=24)
        return val / n

    y_edges = _panel_edges(-b_k, b_k, min(math.pi, b_k / 16.0))

    def integrand(xs: np.ndarray) -> np.ndarray:
        mean_smooth = _smoothed_cdf(dist, kernel, h, xs, y_edges, squared_weight=False)
        max_smooth = _smoothed_cdf(dist, kernel, h, xs, y_edges, squared_weight=True)
        return max_smooth - mean_smooth * mean_smooth

    val, _ = gauss_kronrod_panels(integrand, x_edges, chunk=24)
    return val / n


# ---------------------------------------------------------------------------
# 50-digit MISE
# ---------------------------------------------------------------------------

def mise_mpmath(dist: TargetDistribution, kernel: Kernel, h: float, n: int):
    """MISE(h, n) for h > 0 to 50 digits, as an mpmath number.

    The normal target with the normal or sinc kernel takes its closed
    forms.  Every other pair integrates the two Fourier displays,
    pi A = int t^-2 phi_k(th)^2 {1 - phi_f(t)^2} dt and
    pi B = int t^-2 {1 - phi_k(th)}^2 phi_f(t)^2 dt, by tanh-sinh
    quadrature split at every knot of both factors (and at octaves of
    the Gaussian scales), with the infinite Gaussian tails in closed
    form.  Factors are written without cancellation: 1 - phi_f^2 of the
    jdlvp inner piece as a polynomial times t^2, and the Gaussian
    differences through expm1.  MISE = A/n + B.
    """
    mp = pytest.importorskip("mpmath")
    _check_h_n(h, n)
    if h == 0.0:
        raise ValueError("mise_mpmath needs h > 0")
    with mp.workdps(50):
        hh = mp.mpf(h)
        if dist.family == "normal" and kernel.name in ("normal", "sinc"):
            a, b = _normal_closed_parts(mp, kernel.name, mp.mpf(dist.scale), hh)
        else:
            a, b = _fourier_parts(mp, dist, kernel, hh)
        return +(a / n + b)


def _normal_closed_parts(mp, kernel_name, s, h):
    # (A, B) = (n IV, ISB) of N(0, s^2) from the closed-form displays
    if kernel_name == "normal":
        root = mp.sqrt(h * h + s * s)
        return ((root - h) / mp.sqrt(mp.pi),
                (mp.sqrt(2 * h * h + 4 * s * s) - root - s) / mp.sqrt(mp.pi))
    y = s / h
    b = h * mp.exp(-y * y) - s * mp.sqrt(mp.pi) * mp.erfc(y)
    return (s * mp.sqrt(mp.pi) - h + b) / mp.pi, b / mp.pi


def _gauss_tail_mp(mp, v):
    # int_v^inf e^{-u^2} u^-2 du
    return mp.exp(-v * v) / v - mp.sqrt(mp.pi) * mp.erfc(v)


def _fourier_parts(mp, dist, kernel, h):
    # (A, B) by piecewise quadrature of the two displays
    if dist.family == "jdlvp":
        a = mp.mpf(dist.scale)
        t_end = 2 / a
        knots = [1 / a]

        def q(t):
            s = a * t
            if s <= 1:
                return 1 - 1.5 * s * s + 0.75 * s ** 3
            return 0.25 * (2 - s) ** 3 if s < 2 else mp.mpf(0)

        def one_minus_q2_over_t2(t):
            s = a * t
            if s <= 1:
                # 1 - q = s^2 (3/2 - 3s/4)
                return a * a * (1.5 - 0.75 * s) * (1 + q(t))
            return (1 - q(t) ** 2) / (t * t) if s < 2 else 1 / (t * t)
    else:
        sigma = mp.mpf(dist.scale)
        t_end = mp.inf
        knots = [c / sigma for c in (0.5, 1, 2, 4, 8, 16)]

        def q(t):
            return mp.exp(-(sigma * t) ** 2 / 2)

        def one_minus_q2_over_t2(t):
            return -mp.expm1(-(sigma * t) ** 2) / (t * t)

    if kernel.name == "normal":
        k_end = mp.inf
        knots += [c / h for c in (0.5, 1, 2, 4, 8, 16)]

        def p(t):
            return mp.exp(-(t * h) ** 2 / 2)

        def one_minus_p(t):
            return -mp.expm1(-(t * h) ** 2 / 2)
    else:
        k_end = mp.mpf(kernel.ft_support_end) / h
        knots += [mp.mpf(k) / h for k in kernel.ft_knots]

        def p(t):
            u = t * h
            if u <= 1:
                return mp.mpf(1)
            return 2 - u if u < 2 and kernel.name == "trapezoidal" else mp.mpf(0)

        def one_minus_p(t):
            return 1 - p(t)

    def quad(f, lo, hi):
        pts = sorted({lo, hi, *(k for k in knots if lo < k < hi)})
        # octave splits keep every tanh-sinh piece well scaled
        fine = [pts[0]]
        for x, y in zip(pts[:-1], pts[1:]):
            while 0 < 4 * x < y < mp.inf:
                x *= 4
                fine.append(x)
            fine.append(y)
        return mp.quad(f, fine)

    # pi A: up to min(k_end, t_end) with 1 - phi_f^2 in full, then the
    # kernel factor alone over t^2 (phi_f = 0 past d_f)
    iv = quad(lambda t: p(t) ** 2 * one_minus_q2_over_t2(t), mp.mpf(0), min(k_end, t_end))
    if t_end < k_end:
        if kernel.name == "normal":
            iv += h * _gauss_tail_mp(mp, h * t_end)
        else:
            iv += quad(lambda t: p(t) ** 2 / (t * t), t_end, k_end)
    # pi B: from s_k/h, where 1 - phi_k leaves 0, to d_f; for the normal
    # target, whose kernel here has finite support, 1 - phi_k = 1 past
    # k_end and int q^2/t^2 over t > k_end is in closed form
    def bias(t):
        return one_minus_p(t) ** 2 * q(t) ** 2 / (t * t)

    s_k = mp.mpf(kernel.s_k) / h
    if t_end < mp.inf:
        isb = quad(bias, s_k, t_end) if s_k < t_end else mp.mpf(0)
    else:
        sigma = mp.mpf(dist.scale)
        isb = quad(bias, s_k, k_end) + sigma * _gauss_tail_mp(mp, sigma * k_end)
    return iv / mp.pi, isb / mp.pi
