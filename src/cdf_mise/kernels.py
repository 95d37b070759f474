"""Kernel catalog: normal, trapezoidal superkernel, and sinc.

The catalog is one table of frozen descriptors.  Each kernel carries
its integrated form K(x) = int_{-inf}^x k, its Fourier transform phi_k
(real-valued, since all built-ins are symmetric), and the spectral
flatness constants

    s_k = inf { t >= 0 : phi_k(t) != 1 },
    t_k = inf { r >= 0 : phi_k(t) != 1 a.e. for t >= r }.

A kernel with s_k > 0 (flat transform near the origin) is a superkernel.
The roughness functional psi(K) = int K(1-K) is computed on the Fourier
side, psi(K) = (2 pi)^-1 int t^-2 {1 - phi_k(t)^2} dt, which is finite
for all built-ins even though the sinc kernel itself is not integrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import roughness, sine_integral, std_normal_cdf

__all__ = [
    "Kernel",
    "kernel_by_name",
    "psi_k",
    "KERNEL_NAMES",
]


@dataclass(frozen=True)
class Kernel:
    """Immutable kernel descriptor.

    integrated_fn is K; for the trapezoidal and sinc kernels K is not
    monotone but still has limits 0 and 1 at -/+ infinity.  The sinc
    density exists pointwise but is not Lebesgue integrable, which
    ``integrable=False`` records.

    ft_knots lists the points where phi_k is not smooth, ft_support_end
    is the frequency beyond which phi_k vanishes identically (inf when
    it never does).  psi_k_analytic stores the exact roughness constant
    psi(K); :func:`psi_k` reproduces it by quadrature.
    """

    name: str
    integrated_fn: Callable[[np.ndarray], np.ndarray]
    ft: Callable[[np.ndarray], np.ndarray]
    s_k: float
    t_k: float
    integrable: bool
    psi_k_analytic: float
    ft_knots: tuple = field(default=())
    ft_support_end: float = field(default=math.inf)

    def __post_init__(self) -> None:
        if not (0.0 <= self.s_k <= self.t_k):
            raise ValueError("kernel constants must satisfy 0 <= s_k <= t_k")


def _normal_ft(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * t * t)


def _trapezoidal_integrated(x):
    # Antiderivative of k(x) = (cos x - cos 2x) / (pi x^2) in terms of the
    # sine integral:
    #   K(x) = 1/2 + 2 Si(2x) - Si(x) - (cos x - cos 2x)/(pi x),
    # obtained by integrating by parts.  The series branch handles the
    # removable point at 0.
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    direct = (
        0.5
        + 2.0 * sine_integral(2.0 * xs)
        - sine_integral(xs)
        - (np.cos(xs) - np.cos(2.0 * xs)) / (math.pi * xs)
    )
    # the series only where it is used, so a large x cannot overflow x^3
    x0 = np.where(small, x, 0.0)
    series = 0.5 + (1.5 * x0 - 0.625 * x0 ** 3 / 3.0) / math.pi
    out = np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out


def _trapezoidal_ft(t):
    # Flat top on [-1, 1], linear flanks down to 0 at |t| = 2.
    t = np.abs(np.asarray(t, dtype=float))
    out = np.clip(2.0 - t, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _sinc_integrated(x):
    return 0.5 + sine_integral(x)


def _sinc_ft(t):
    t = np.abs(np.asarray(t, dtype=float))
    out = (t <= 1.0).astype(float)
    return float(out) if out.ndim == 0 else out


_KERNELS = {kernel.name: kernel for kernel in (
    # Standard normal kernel: k = phi, K = Phi, phi_k(t) = exp(-t^2/2).
    Kernel(name="normal", integrated_fn=std_normal_cdf, ft=_normal_ft,
           s_k=0.0, t_k=0.0, integrable=True,
           psi_k_analytic=1.0 / math.sqrt(math.pi)),
    # Trapezoidal superkernel, k(x) = (pi x^2)^-1 {cos x - cos 2x}: its
    # transform equals 1 on [0, 1], falls linearly to 0 at 2, and
    # vanishes beyond.  K is in closed form through the sine integral.
    Kernel(name="trapezoidal", integrated_fn=_trapezoidal_integrated,
           ft=_trapezoidal_ft, s_k=1.0, t_k=1.0, integrable=True,
           psi_k_analytic=(4.0 * math.log(2.0) - 2.0) / math.pi,
           ft_knots=(1.0, 2.0), ft_support_end=2.0),
    # Sinc kernel, k(x) = sin(x)/(pi x): K(x) = 1/2 + Si(x) and phi_k is
    # the indicator of [-1, 1].  k is not Lebesgue integrable, so the
    # estimator and all formulas use K directly.
    Kernel(name="sinc", integrated_fn=_sinc_integrated, ft=_sinc_ft,
           s_k=1.0, t_k=1.0, integrable=False, psi_k_analytic=1.0 / math.pi,
           ft_knots=(1.0,), ft_support_end=1.0),
)}

KERNEL_NAMES = tuple(_KERNELS)


def kernel_by_name(name: str) -> Kernel:
    """Look up a built-in kernel: 'normal' | 'trapezoidal' | 'sinc'."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; available: {', '.join(KERNEL_NAMES)}"
        ) from None


def psi_k(kernel: Kernel) -> float:
    """Roughness psi(K) by quadrature on [s_k, inf), below which phi_k = 1."""
    return roughness(kernel.ft, kernel.s_k, kernel.ft_knots, f"psi_k({kernel.name})")
