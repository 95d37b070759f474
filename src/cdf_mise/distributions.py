"""Target distribution catalog: Jackson-de la Vallee Poussin and normal.

Each target is its family's unit form at one scale a (sigma for the
normal family), f_a(x) = f(x/a)/a.  It carries its distribution function
F, characteristic function phi_f (real-valued for these symmetric
targets), its mean absolute deviation E|x - X|, the spectral support
constants

    c_f = sup { r >= 0 : phi_f(t) != 0 a.e. on [0, r] },
    d_f = sup { t >= 0 : phi_f(t) != 0 },

the roughness psi(F) = int F(1-F), and an exact seeded sampler.  The
JdlVP target is band-limited (d_f = 2), which is what makes first-order
MISE gains possible for superkernels; the normal target has d_f = inf.
Both distribution functions are in closed form: the normal one through
ndtr, the JdlVP one through the sine integral, and so is E|x - X|.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from .numerics import roughness, sine_integral, std_normal_cdf

__all__ = [
    "JDLVP_PSI_F",
    "TargetDistribution",
    "make_jdlvp",
    "make_normal",
    "rescale",
    "psi_f_fourier",
    "sample",
]

_TWO_PI = 2.0 * math.pi
_SQRT_PI = math.sqrt(math.pi)

# psi(F) for the unit-scale JdlVP distribution, (96 ln 2 - 43) / (8 pi).
JDLVP_PSI_F = (96.0 * math.log(2.0) - 43.0) / (8.0 * math.pi)

# Scales a target may take.  Inside, the MISE is scale covariant to
# rounding; far outside, h^4 underflows in the normal+normal closed form
# (68% off at 1e-100) and t^2 overflows on the Fourier side (1e-200).
_SCALE_RANGE = (1e-60, 1e60)
_FLOAT_MAX = sys.float_info.max


def _check_scale(value: float, what: str = "scale") -> float:
    """value as a float, or ValueError if it lies outside [1e-60, 1e60]."""
    lo, hi = _SCALE_RANGE
    if not lo <= value <= hi:
        raise ValueError(f"{what} must lie in [{lo:g}, {hi:g}], got {value}")
    return float(value)


def _check_size(value, what: str = "sample size n", least: int = 1) -> int:
    """value as an int, or ValueError unless it is a whole number >= least.

    10.0 and np.int64(10) are 10; a bool, 2.5, nan, "10" and 1+0j are
    refused, and so is a whole number above the largest float, 10**400,
    which every caller would turn into a float.
    """
    if type(value) is int and least <= value <= _FLOAT_MAX:  # plain ints on the fast path
        return value
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and least <= value <= _FLOAT_MAX and value == int(value)):
        raise ValueError(f"{what} must be a whole number >= {least} and at most "
                         f"the largest float, got {value!r}")
    return int(value)


def _check_seed(seed):
    """seed with int parts, or ValueError unless each is a whole number >= 0."""
    parts = seed if type(seed) is tuple else (seed,)
    for value in parts:
        if type(value) is not int or value < 0:  # plain ints pass as they are
            whole = tuple(_check_size(v, "seed", 0) for v in parts)
            return whole if parts is seed else whole[0]
    return seed


@dataclass(frozen=True)
class TargetDistribution:
    """Immutable target distribution descriptor.

    cdf, cf and mean_abs_dev are vectorized callables;
    mean_abs_dev(x) = E|x - X| = int_-inf^x F + int_x^inf (1 - F).
    scale is the rescaling parameter a relative to the family's unit
    form (f_a(x) = f(x/a)/a), which is sigma for the normal family.
    cf_knots lists the non-smooth points of phi_f, and sampler draws
    from the distribution given a numpy Generator.
    """

    name: str
    family: str
    cdf: Callable[[np.ndarray], np.ndarray]
    cf: Callable[[np.ndarray], np.ndarray]
    c_f: float
    d_f: float
    psi_f: float
    scale: float
    variance: float
    cf_knots: tuple
    mean_abs_dev: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[int, np.random.Generator], np.ndarray]

    def __post_init__(self) -> None:
        if not (0.0 < self.c_f <= self.d_f):
            raise ValueError("distribution constants must satisfy 0 < c_f <= d_f")
        if not (self.psi_f > 0.0 and math.isfinite(self.psi_f)):
            raise ValueError("psi_f must be positive and finite")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")


# ---------------------------------------------------------------------------
# Jackson-de la Vallee Poussin family
# ---------------------------------------------------------------------------

def _jdlvp_density_unit(x):
    # f(x) = (3/(4 pi)) (sin(x/2) / (x/2))^4; np.sinc handles x = 0.
    x = np.asarray(x, dtype=float)
    return 0.75 / math.pi * np.sinc(x / _TWO_PI) ** 4


def _jdlvp_cf_unit(t):
    # 1 - 1.5 t^2 + 0.75 t^3 on |t| <= 1, 0.25 (2 - |t|)^3 up to 2 and 0
    # beyond.  One power takes both cubes, of min(t, 2 - t) floored at 0
    # (0 at nan too), a base that is never negative: numpy's power is some
    # ten times slower on a negative base.
    t = np.abs(np.asarray(t, dtype=float))
    cube = np.fmin(t, np.fmax(2.0 - t, 0.0)) ** 3
    out = np.where(t <= 1.0, 1.0 - 1.5 * t * t + 0.75 * cube, 0.25 * cube)
    return float(out) if out.ndim == 0 else out


# Taylor coefficients of (12/pi) I(u) / u in powers of u^2, where
# I(u) = int_0^u sin^4(v/2) v^-4 dv = sum_{k>=2} (-1)^k (4^k - 4) u^(2k-3)
# / (8 (2k)! (2k-3)), i.e. u/16 - u^3/288 + u^5/6400 - ...; at u <= 2
# the first omitted term (k = 16) adds at most 1.5e-19 to F.
_JDLVP_SERIES = tuple(
    12.0 / math.pi * (-1) ** k * (4.0 ** k - 4.0)
    / (8.0 * math.factorial(2 * k) * (2 * k - 3)) for k in range(2, 16))


def _jdlvp_cdf_unit(x):
    # F(x) = 1/2 + sign(x) (12/pi) I(|x|).  Three integrations by parts give
    #   I(u) = (2 Si(2u) - Si(u))/12 - sin^4(u/2)/(3u^3)
    #          - sin(u) sin^2(u/2)/(6u^2) - sin(3u/2) sin(u/2)/(6u)
    # (classical Si; 12/pi times the first term is 2 sine_integral(2u) -
    # sine_integral(u) in the package's normalisation).  Every factor is a
    # product of sines over powers of u, so nothing overflows.  Below
    # u = 2 the Taylor series replaces it: it does not cancel there, while
    # scipy's sici is only good to about 3 ulp near the maximum of Si, which
    # would put the closed form 5.7e-16 off at u = 1.26.  F is 1 to rounding
    # far below the cap on u, which keeps 2u finite.
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("jdlvp cdf requires finite input")
    u = np.minimum(np.abs(x), 1e300)
    small = u < 2.0
    v = np.where(small, 2.0, u)
    s = np.sin(0.5 * v)
    s2 = s * s
    closed = (2.0 * sine_integral(2.0 * v) - sine_integral(v)
              - (4.0 / math.pi) * (s2 / v) * (s2 / v) / v
              - (2.0 / math.pi) * (np.sin(v) / v) * (s2 / v)
              - (2.0 / math.pi) * np.sin(1.5 * v) * s / v)
    w = np.where(small, u, 0.0)
    series = w * np.polynomial.polynomial.polyval(w * w, _JDLVP_SERIES)
    out = 0.5 + np.copysign(np.where(small, series, closed), x)
    return float(out) if out.ndim == 0 else out


# Coefficients of the series part of G(u) = int_u^inf (1 - F) below u = 2,
# the term-by-term integral of F - 1/2: c_k u^(2k-2) / (2k-2), k >= 2.
_JDLVP_G_SERIES = tuple(c / (2 * j + 2) for j, c in enumerate(_JDLVP_SERIES))


def _jdlvp_mean_abs_dev_unit(x):
    # E|x - X| = u + 2 G(u) with u = |x| and G(u) = int_u^inf (1 - F).
    # By parts G(u) = int_u^inf v f(v) dv - u (1 - F(u)), and
    #   int_u^inf v f = (3/(2 pi)) [4 sin^4(u/2)/u^2 + 4 sin(u) sin^2(u/2)/u
    #                               + 2 (Ci(2u) - Ci(u))]
    # (classical Ci).  Below u = 2 the series from G(0) = E|X|/2 =
    # 3 ln 2/pi replaces it, as in _jdlvp_cdf_unit; the two meet at u = 2
    # to a few units in the last place of u + 2 G.
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("jdlvp mean_abs_dev requires finite input")
    u = np.abs(x)
    small = u < 2.0
    # G is 0 to rounding long before the cap, which keeps 2v finite.
    v = np.where(small, 2.0, np.minimum(u, 1e300))
    s = np.sin(0.5 * v)
    s2 = s * s
    ci_2v = scipy.special.sici(2.0 * v)[1]
    ci_v = scipy.special.sici(v)[1]
    closed = ((1.5 / math.pi) * (4.0 * (s2 / v) * (s2 / v) + 4.0 * np.sin(v) * s2 / v
                                 + 2.0 * (ci_2v - ci_v))
              - v * (1.0 - _jdlvp_cdf_unit(v)))
    w = np.where(small, u, 0.0)
    series = (3.0 * math.log(2.0) / math.pi - 0.5 * w
              + w * w * np.polynomial.polynomial.polyval(w * w, _JDLVP_G_SERIES))
    out = u + 2.0 * np.where(small, series, closed)
    return float(out) if out.ndim == 0 else out


def _jdlvp_sampler_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    # Rejection from the envelope (3/(4 pi)) min(1, (2/|x|)^4), which
    # dominates f because sin^4(x/2) <= min((x/2)^4, 1).  The envelope is
    # sampled by inverse transform: uniform core on [-2, 2] with mass
    # 3/4, Pareto(3) tails with mass 1/8 each; acceptance rate is pi/4.
    out = np.empty(n, dtype=float)
    have = 0
    budget = 1_000_000 * n
    used = 0
    while have < n:
        m = max(64, int((n - have) * 1.35) + 16)
        used += m
        if used > budget:
            raise RuntimeError("jdlvp rejection sampler exceeded its proposal budget")
        u = rng.random(m)
        w = rng.random(m)
        y = -2.0 + (u / 0.75) * 4.0
        tail = u >= 0.75
        v = (u[tail] - 0.75) / 0.25
        sign = np.where(v < 0.5, 1.0, -1.0)
        frac = np.where(v < 0.5, 2.0 * v, 2.0 * v - 1.0)
        y[tail] = sign * 2.0 * (1.0 - frac) ** (-1.0 / 3.0)
        env = 0.75 / math.pi * np.minimum(1.0, (2.0 / np.maximum(np.abs(y), 1e-300)) ** 4)
        accepted = y[w * env <= _jdlvp_density_unit(y)]
        take = accepted[: n - have]
        out[have:have + take.size] = take
        have += take.size
    return out


def make_jdlvp(scale: float = 1.0) -> TargetDistribution:
    """Jackson-de la Vallee Poussin target, optionally rescaled by `scale`.

    Unit form: f(x) = (3/(4 pi)) (sin(x/2)/(x/2))^4, phi_f piecewise
    cubic with support [-2, 2] (so c_f = d_f = 2), and
    psi(F) = (96 ln 2 - 43)/(8 pi).  F is in closed form: 1/2 + sign(x)
    times 2 Si(2|x|) - Si(|x|) less three products of sines over powers
    of |x| (Si the package's sine integral, limits +-1/2).  It raises
    ValueError on non-finite x, and the constructor on a scale outside
    [1e-60, 1e60].
    """
    a = _check_scale(scale)
    name = "jdlvp" if a == 1.0 else f"jdlvp:scale={a:g}"

    def cdf(x):
        return _jdlvp_cdf_unit(np.asarray(x, dtype=float) / a)

    def cf(t):
        return _jdlvp_cf_unit(a * np.asarray(t, dtype=float))

    def mean_abs_dev(x):
        return a * _jdlvp_mean_abs_dev_unit(np.asarray(x, dtype=float) / a)

    def sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        return a * _jdlvp_sampler_unit(n, rng)

    return TargetDistribution(
        name=name,
        family="jdlvp",
        cdf=cdf,
        cf=cf,
        c_f=2.0 / a,
        d_f=2.0 / a,
        psi_f=a * JDLVP_PSI_F,
        scale=a,
        variance=3.0 * a * a,
        cf_knots=(1.0 / a, 2.0 / a),
        mean_abs_dev=mean_abs_dev,
        sampler=sampler,
    )


# ---------------------------------------------------------------------------
# Normal family
# ---------------------------------------------------------------------------

def make_normal(sigma: float) -> TargetDistribution:
    """Centered normal target N(0, sigma^2) at scale sigma: psi(F) = sigma/sqrt(pi).

    sigma must lie in [1e-60, 1e60], else ValueError.
    """
    s = _check_scale(sigma, "sigma")

    def cdf(x):
        return std_normal_cdf(np.asarray(x, dtype=float) / s)

    def cf(t):
        t = np.asarray(t, dtype=float)
        out = np.exp(-0.5 * (s * t) ** 2)
        return float(out) if out.ndim == 0 else out

    def mean_abs_dev(x):
        # E|x - X| = x (2 Phi(x/s) - 1) + 2 s^2 f(x), with erf for
        # 2 Phi - 1 so that nothing cancels near x = 0.
        x = np.asarray(x, dtype=float)
        u = x / s
        out = (x * scipy.special.erf(x / (s * math.sqrt(2.0)))
               + 2.0 * s * s * (np.exp(-0.5 * u * u) / (s * math.sqrt(_TWO_PI))))
        return float(out) if out.ndim == 0 else out

    def sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        return s * rng.standard_normal(n)

    return TargetDistribution(
        name=f"normal:sigma={s:g}",
        family="normal",
        cdf=cdf,
        cf=cf,
        c_f=math.inf,
        d_f=math.inf,
        psi_f=s / _SQRT_PI,
        scale=s,
        variance=s * s,
        cf_knots=(),
        mean_abs_dev=mean_abs_dev,
        sampler=sampler,
    )


def rescale(dist: TargetDistribution, a: float) -> TargetDistribution:
    """Rescale a target: f_a(x) = f(x/a)/a.

    Transforms phi_{f_a}(t) = phi_f(a t), c/d_{f_a} = c/d_f / a and
    psi_{f_a} = a psi_f.  Rescaling is closed within each family, so the
    result is the family constructor at scale a times dist.scale (so
    rescale(make_normal(1), 3) is make_normal(3), and composition of
    rescales is associative to the last bit); a product scale outside
    [1e-60, 1e60] raises ValueError.
    """
    # The constructor is looked up at call time, not from a table built
    # at import, so a wrapper installed on the module attribute applies.
    if dist.family == "jdlvp":
        return make_jdlvp(dist.scale * a)
    if dist.family == "normal":
        return make_normal(dist.scale * a)
    raise ValueError(f"rescale does not support family {dist.family!r}")


def psi_f_fourier(dist: TargetDistribution) -> float:
    """psi(F) by the Fourier-side identity (2 pi)^-1 int t^-2 {1-phi_f^2} dt.

    Cross-checks the stored analytic psi_f.
    """
    return roughness(dist.cf, 0.0, dist.cf_knots + (dist.d_f,), f"psi_f({dist.name})")


def sample(dist: TargetDistribution, n: int, seed: int | tuple[int, ...]) -> np.ndarray:
    """Draw n i.i.d. values from dist, deterministically for a given seed.

    n must be a whole number >= 1.  seed may be a single whole number
    >= 0 or a tuple of them (a master seed and a replication index);
    anything else raises ValueError before a value is drawn.
    """
    n = _check_size(n)
    rng = np.random.Generator(np.random.PCG64(_check_seed(seed)))
    return dist.sampler(n, rng)
