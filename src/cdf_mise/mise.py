"""Exact MISE of kernel distribution function estimators.

For a kernel estimator F_nh(x) = n^-1 sum K((x - X_j)/h) of a target F,
the mean integrated squared error decomposes as MISE = IV + ISB with

    IV(h)  = (2 pi n)^-1 int t^-2 |phi_k(th)|^2 {1 - |phi_f(t)|^2} dt,
    ISB(h) = (2 pi)^-1   int t^-2 |1 - phi_k(th)|^2 |phi_f(t)|^2 dt.

Every computation path below evaluates these identities or an exact
reduction of them:

* ``fourier``: direct quadrature of both displays, for every pair.  The
  kernel factor is taken as 1 on t h <= s_k and 0 on t h >= the end of
  its transform's support, so the sinc kernel's indicator transform
  needs no route of its own;
* ``linear_segment``: for a superkernel (s_k > 0) and a band-limited
  target (d_f < inf), MISE(h) = {psi(F) - psi(K) h}/n exactly on
  0 <= h <= s_k/d_f, with ISB identically zero;
* ``closed_form_normal_normal`` / ``closed_form_normal_sinc``: the
  N(0, sigma^2) closed forms.

Low-accuracy space-domain oracles for cross-checking live with the
tests, in ``tests/oracles.py``.

h = 0 is a first-class input: the estimator degenerates to the
empirical CDF and MISE(0) = psi(F)/n.

Since n enters only as MISE(h, n) = A(h)/n + B(h), every route is split
into an n-free step, ``mise_terms``, which does the route choice and any
quadrature, and ``MiseTerms.at(n)``; ``mise`` is the two in sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy.special

from .distributions import TargetDistribution
from .kernels import Kernel
from .numerics import QuadratureResult, integrate

__all__ = [
    "MiseReport",
    "MiseTerms",
    "iv_fourier",
    "isb_fourier",
    "mise",
    "mise_terms",
    "mise_normal_normal_closed",
    "mise_normal_sinc_closed",
    "MISE_METHODS",
]

MISE_METHODS = (
    "fourier",
    "closed_form_normal_normal",
    "closed_form_normal_sinc",
    "linear_segment",
)

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class MiseReport:
    """One exact MISE evaluation, split into variance and bias parts.

    error_estimate is the quadrature's absolute error bound on ``mise``
    for the ``fourier`` route and 0.0 for the exact routes.
    """

    h: float
    n: int
    iv: float
    isb: float
    mise: float
    method: str
    error_estimate: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in MISE_METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def _validate_h(h: float) -> None:
    if h < 0.0 or not math.isfinite(h):
        raise ValueError("bandwidth h must be finite and >= 0")


def _validate_n(n: int) -> None:
    if n < 1:
        raise ValueError("sample size n must be >= 1")


def _validate_h_n(h: float, n: int) -> None:
    _validate_h(h)
    _validate_n(n)


def _phi_k(kernel: Kernel, u: float) -> float:
    # phi_k(u) for u >= 0: the kernel's constants fix it outside
    # (s_k, ft_support_end), so its transform is only called in between.
    if u <= kernel.s_k:
        return 1.0
    if u >= kernel.ft_support_end:
        return 0.0
    return float(kernel.ft(u))


def _iv_quad(dist: TargetDistribution, kernel: Kernel, h: float) -> QuadratureResult:
    # pi n IV(h) for h > 0, over (0, ft_support_end/h).
    def integrand(t: float) -> float:
        p = _phi_k(kernel, t * h)
        q = float(dist.cf(t))
        return p * p * (1.0 - q * q) / (t * t)

    upper = kernel.ft_support_end / h
    pts = [k / h for k in kernel.ft_knots] + list(dist.cf_knots)
    if math.isfinite(dist.d_f):
        pts.append(dist.d_f)
    res = integrate(integrand, 0.0, upper, points=pts)
    if not res.converged:
        # At small h the integrand takes its shape at t ~ 1/sigma but
        # runs out to t ~ 1/h; breakpoints at 8 and 64 (and 4/h on an
        # unbounded range) split that long first segment.  Retried only
        # after a failed pass, so every value that converged on the
        # first pass keeps its bits.
        pts += [8.0, 64.0] + ([4.0 / h] if math.isinf(upper) else [])
        res = integrate(integrand, 0.0, upper, points=pts)
    if not res.converged:
        raise RuntimeError("iv_fourier quadrature failed to converge")
    return res


def _isb_quad(dist: TargetDistribution, kernel: Kernel, h: float) -> QuadratureResult:
    # pi ISB(h) for h > 0.  The integrand vanishes identically below
    # s_k/h and beyond d_f, so the ISB is exactly zero (no quadrature)
    # while h d_f <= s_k and the flat segment stays noise-free.
    if h * dist.d_f <= kernel.s_k:
        return QuadratureResult(0.0, 0.0, 0, True)

    def integrand(t: float) -> float:
        p = _phi_k(kernel, t * h)
        q = float(dist.cf(t))
        return (1.0 - p) * (1.0 - p) * q * q / (t * t)

    pts = [k / h for k in kernel.ft_knots] + list(dist.cf_knots)
    res = integrate(integrand, kernel.s_k / h, dist.d_f, points=pts)
    if not res.converged:
        raise RuntimeError("isb_fourier quadrature failed to converge")
    return res


def iv_fourier(dist: TargetDistribution, kernel: Kernel, h: float, n: int) -> float:
    """Integrated variance by Fourier quadrature.

    At h = 0 the kernel factor is 1 and the integral reduces to the
    roughness identity psi(F) = (2 pi)^-1 int t^-2 {1 - |phi_f|^2} dt,
    so the exact value psi_f/n is returned.
    """
    _validate_h_n(h, n)
    if h == 0.0:
        return dist.psi_f / n
    return _iv_quad(dist, kernel, h).value / (math.pi * n)


def isb_fourier(dist: TargetDistribution, kernel: Kernel, h: float) -> float:
    """Integrated squared bias by Fourier quadrature.

    Exactly zero whenever h * d_f <= s_k (the kernel transform is flat
    across the target's whole spectral support); the zero is returned
    without quadrature so the flat segment is noise-free.
    """
    _validate_h(h)
    if h == 0.0:
        return 0.0
    return _isb_quad(dist, kernel, h).value / math.pi


def mise_normal_normal_closed(sigma: float, h: float, n: int) -> float:
    """Closed-form MISE for a N(0, sigma^2) target with the normal kernel.

    sqrt(pi) MISE(h) = n^-1 {sqrt(h^2+s^2) - h}
                       + sqrt(2h^2+4s^2) - sqrt(h^2+s^2) - s.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    _validate_h_n(h, n)
    iv, isb = _normal_normal_parts(sigma, h, n)
    return iv + isb


def _normal_normal_parts(sigma: float, h: float, n: int):
    # Both differences in the display are rationalized so that no O(s)
    # terms cancel: with a = sqrt(h^2+s^2), a - h = s^2/(a+h) and
    # sqrt(2h^2+4s^2) - a - s = (a-s)^2/(sqrt(2h^2+4s^2)+a+s),
    # where a - s = h^2/(a+s).
    a = math.sqrt(h * h + sigma * sigma)
    iv = sigma * sigma / (_SQRT_PI * n * (a + h))
    c = a + sigma
    isb = h ** 4 / (_SQRT_PI * c * c * (math.sqrt(2.0 * h * h + 4.0 * sigma * sigma) + c))
    return iv, isb


def mise_normal_sinc_closed(sigma: float, h: float, n: int) -> float:
    """Closed-form MISE for a N(0, sigma^2) target with the sinc kernel.

    pi MISE(h) = (1 + n^-1) {h e^{-s^2/h^2} + 2 s sqrt(pi) Phi(s sqrt(2)/h)}
                 - n^-1 h - (2 + n^-1) s sqrt(pi),   for h > 0.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if h <= 0.0:
        raise ValueError("the closed form requires h > 0 (h = 0 is the "
                         "empirical branch, MISE = psi_f/n)")
    _validate_h_n(h, n)
    iv, isb = _normal_sinc_parts(sigma, h, n)
    return iv + isb


def _normal_sinc_parts(sigma: float, h: float, n: int):
    # B(h) = pi ISB(h) = h e^{-y^2} - 2 s sqrt(pi) {1 - Phi(y sqrt(2))}
    # with y = s/h; since 1 - Phi(y sqrt(2)) = erfc(y)/2 = e^{-y^2}
    # erfcx(y)/2, B = h e^{-y^2} {1 - sqrt(pi) y erfcx(y)}, which keeps
    # the common factor e^{-y^2} out of the difference.  pi n IV(h) =
    # s sqrt(pi) - h + B(h); their sum reproduces the display in
    # mise_normal_sinc_closed.
    y = sigma / h
    b = h * math.exp(-y * y) * (1.0 - _SQRT_PI * y * float(scipy.special.erfcx(y)))
    iv = (sigma * _SQRT_PI - h + b) / (math.pi * n)
    isb = b / math.pi
    return iv, isb


@dataclass(frozen=True)
class MiseTerms:
    """The n-free part of MISE(h, n) = A(h)/n + B(h) for one bandwidth.

    A = n IV and B = ISB do not depend on n, so one ``MiseTerms`` serves
    every sample size; ``at(n)`` does the remaining arithmetic.  What it
    holds depends on the route:

    * ``fourier`` with h > 0: the quadratures ``a`` = pi A(h) and
      ``b`` = pi B(h), with their absolute error bounds;
    * ``linear_segment`` and h = 0 (reported as ``fourier``):
      ``a`` = A(h) = psi_f - psi_k h, with ``b`` = 0;
    * the normal closed forms: ``sigma``, from which the parts are
      recomputed at each n in microseconds.
    """

    h: float
    method: str
    a: float = 0.0
    b: float = 0.0
    a_error: float = 0.0
    b_error: float = 0.0
    sigma: float = 0.0

    def at(self, n: int) -> MiseReport:
        """The MISE report at sample size n."""
        _validate_n(n)
        h, method = self.h, self.method
        err = 0.0
        if method == "closed_form_normal_normal":
            iv, isb = _normal_normal_parts(self.sigma, h, n)
        elif method == "closed_form_normal_sinc":
            iv, isb = _normal_sinc_parts(self.sigma, h, n)
        elif h == 0.0 or method == "linear_segment":
            iv, isb = self.a / n, 0.0
        else:
            iv = self.a / (math.pi * n)
            isb = self.b / math.pi
            err = self.a_error / (math.pi * n) + self.b_error / math.pi
        return MiseReport(h=h, n=n, iv=iv, isb=isb, mise=iv + isb,
                          method=method, error_estimate=err)


def mise_terms(dist: TargetDistribution, kernel: Kernel, h: float,
               method: str = "auto") -> MiseTerms:
    """The n-free terms of MISE(h, .) for a (target, kernel) pair.

    method="auto" picks the cheapest exact route (linear segment, normal
    closed forms, otherwise Fourier quadrature); method="fourier" forces
    the quadrature for h > 0.
    """
    _validate_h(h)
    if method not in ("auto", "fourier"):
        raise ValueError("method must be 'auto' or 'fourier'")

    if h == 0.0:
        return MiseTerms(h=0.0, method="fourier", a=dist.psi_f)

    if method == "auto":
        # with h > 0, only a superkernel and a band-limited target pass
        if h * dist.d_f <= kernel.s_k:
            return MiseTerms(h=h, method="linear_segment",
                             a=dist.psi_f - kernel.psi_k_analytic * h)

        if dist.family == "normal" and kernel.name == "normal":
            return MiseTerms(h=h, method="closed_form_normal_normal",
                             sigma=dist.sigma)

        if dist.family == "normal" and not kernel.integrable:
            return MiseTerms(h=h, method="closed_form_normal_sinc",
                             sigma=dist.sigma)

    a = _iv_quad(dist, kernel, h)
    b = _isb_quad(dist, kernel, h)
    return MiseTerms(h=h, method="fourier", a=a.value, b=b.value,
                     a_error=a.error_estimate, b_error=b.error_estimate)


def mise(dist: TargetDistribution, kernel: Kernel, h: float, n: int,
         method: str = "auto") -> MiseReport:
    """MISE(h) for a (target, kernel) pair, with automatic fast paths.

    This is ``mise_terms(dist, kernel, h, method).at(n)``.
    method="auto" picks the cheapest exact route (linear segment, normal
    closed forms, otherwise Fourier quadrature); every fast path agrees
    with method="fourier" to well below 1e-9 relative, which the test
    suite pins.
    """
    _validate_n(n)  # before any quadrature
    return mise_terms(dist, kernel, h, method).at(n)
