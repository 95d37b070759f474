"""Reference values for the benchmark's checks, written apart from cdf_mise.

Nothing here imports cdf_mise.  The module carries its own
characteristic functions of the two target families (jdlvp with scale
a, normal with standard deviation sigma), the Fourier transforms of the
three kernels, the roughness constants psi_f and psi_k, the normal-target
closed forms, and a fixed-panel Gauss-Legendre quadrature of the Fourier
displays

    IV(h)  = (pi n)^-1 int_0^inf t^-2 phi_k(th)^2 {1 - phi_f(t)^2} dt,
    ISB(h) = pi^-1     int_0^inf t^-2 {1 - phi_k(th)}^2 phi_f(t)^2 dt.

The panels are aligned to every knot of both transforms and grow
geometrically away from the origin, so every piece is a polynomial, a
polynomial over t^2, or a Gaussian resolved by panels no wider than its
own scale; 20-point rules then integrate each piece to rounding level.
`self_check()` confirms this by reproducing psi_f, psi_k and the closed
forms from quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
SQRT_PI = math.sqrt(math.pi)
PSI_F_JDLVP_UNIT = (96.0 * LN2 - 43.0) / (8.0 * math.pi)
PSI_K = {
    "normal": 1.0 / SQRT_PI,
    "trapezoidal": (4.0 * LN2 - 2.0) / math.pi,
    "sinc": 1.0 / math.pi,
}
S_K = {"normal": 0.0, "trapezoidal": 1.0, "sinc": 1.0}
KERNEL_KNOTS = {"normal": (), "trapezoidal": (1.0, 2.0), "sinc": (1.0,)}
KERNEL_SUPPORT_END = {"normal": math.inf, "trapezoidal": 2.0, "sinc": 1.0}

# exp(-GAUSS_CUT^2) is below 1e-39: past that argument a Gaussian factor
# is zero to far below double rounding of anything it multiplies.
GAUSS_CUT = 9.5
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


@dataclass(frozen=True)
class Target:
    """A catalog target: family "jdlvp" (scale a) or "normal" (sigma)."""

    family: str
    scale: float

    def __post_init__(self) -> None:
        if self.family not in ("jdlvp", "normal") or not self.scale > 0.0:
            raise ValueError(f"bad reference target {self}")

    @property
    def psi_f(self) -> float:
        if self.family == "jdlvp":
            return self.scale * PSI_F_JDLVP_UNIT
        return self.scale / SQRT_PI

    @property
    def d_f(self) -> float:
        return 2.0 / self.scale if self.family == "jdlvp" else math.inf

    @property
    def knots(self) -> tuple:
        return (1.0 / self.scale, 2.0 / self.scale) if self.family == "jdlvp" else ()

    @property
    def gauss_rate(self) -> float:
        """Rate of the Gaussian factor phi_f^2 = exp(-(rate t)^2), or 0."""
        return self.scale if self.family == "normal" else 0.0

    def phi(self, t):
        u = np.abs(self.scale * np.asarray(t, dtype=float))
        if self.family == "normal":
            return np.exp(-0.5 * u * u)
        inner = 1.0 - 1.5 * u * u + 0.75 * u ** 3
        outer = 0.25 * (2.0 - u) ** 3
        return np.where(u <= 1.0, inner, np.where(u <= 2.0, outer, 0.0))

    def one_minus_phi_sq(self, t):
        """1 - phi_f(t)^2 without cancellation near t = 0."""
        u = np.abs(self.scale * np.asarray(t, dtype=float))
        if self.family == "normal":
            return -np.expm1(-u * u)
        p = self.phi(t)
        one_minus_inner = 1.5 * u * u - 0.75 * u ** 3
        return np.where(u <= 1.0, one_minus_inner * (1.0 + p), 1.0 - p * p)


def phi_k(kernel: str, u):
    u = np.abs(np.asarray(u, dtype=float))
    if kernel == "normal":
        return np.exp(-0.5 * u * u)
    if kernel == "trapezoidal":
        return np.clip(2.0 - u, 0.0, 1.0)
    if kernel == "sinc":
        return (u <= 1.0).astype(float)
    raise ValueError(f"unknown kernel {kernel!r}")


def one_minus_phi_k(kernel: str, u):
    u = np.abs(np.asarray(u, dtype=float))
    if kernel == "normal":
        return -np.expm1(-0.5 * u * u)
    return 1.0 - phi_k(kernel, u)


# ---------------------------------------------------------------------------
# Fixed-panel quadrature
# ---------------------------------------------------------------------------

def _panel_edges(cuts, rates) -> np.ndarray:
    """Edges covering [cuts[0], cuts[-1]], split at every cut.

    Inside a segment a panel starting at t is at most t wide (ratio-2
    geometric growth, which resolves t^-2), and at most 1/rate wide for
    every Gaussian rate still active past t (a rate r is active below
    GAUSS_CUT / r).
    """
    edges = [cuts[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t = lo
        while t < hi:
            caps = [1.0 / r for r in rates if r > 0.0 and t < GAUSS_CUT / r]
            width = min(caps) if caps else hi - lo
            if t > 0.0:
                width = min(width, t)
            t = min(hi, t + width)
            edges.append(t)
    return np.asarray(edges)


def integrate(fn, lo: float, hi: float, knots=(), rates=()) -> float:
    """int_lo^hi fn(t) dt on knot-aligned 20-point Gauss-Legendre panels."""
    if hi <= lo:
        return 0.0
    cuts = sorted({lo, hi, *(k for k in knots if lo < k < hi)})
    edges = _panel_edges(cuts, rates)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X[None, :]
    return float(np.sum(half * (fn(nodes) @ _GL_W)))


def _kernel_rate(kernel: str, h: float) -> float:
    # phi_k(th)^2 = exp(-(h t)^2) for the normal kernel.
    return h if kernel == "normal" else 0.0


def iv_isb(target: Target, kernel: str, h: float, n: int) -> tuple[float, float]:
    """(IV, ISB) of the pair at bandwidth h and sample size n, by quadrature."""
    if h < 0.0 or n < 1:
        raise ValueError("need h >= 0 and n >= 1")
    if h == 0.0:
        return target.psi_f / n, 0.0
    kr = _kernel_rate(kernel, h)
    rates = (target.gauss_rate, kr)
    knots = tuple(k / h for k in KERNEL_KNOTS[kernel]) + target.knots
    if math.isfinite(target.d_f):
        knots += (target.d_f,)

    def iv_fn(t):
        p = phi_k(kernel, t * h)
        return p * p * target.one_minus_phi_sq(t) / (t * t)

    iv_hi = KERNEL_SUPPORT_END[kernel] / h
    if kr > 0.0:
        iv_hi = GAUSS_CUT / kr
    iv = integrate(iv_fn, 0.0, iv_hi, knots, rates) / (math.pi * n)

    def isb_fn(t):
        q = one_minus_phi_k(kernel, t * h)
        p = target.phi(t)
        return q * q * p * p / (t * t)

    isb_lo = S_K[kernel] / h
    isb_hi = target.d_f
    if target.gauss_rate > 0.0:
        isb_hi = GAUSS_CUT / target.gauss_rate
    isb = integrate(isb_fn, isb_lo, isb_hi, knots, rates) / math.pi
    return iv, isb


def mise(target: Target, kernel: str, h: float, n: int) -> float:
    iv, isb = iv_isb(target, kernel, h, n)
    return iv + isb


def psi_f_quadrature(target: Target) -> float:
    """pi^-1 int_0^inf t^-2 {1 - phi_f^2} dt, with the exact 1/T tail."""
    end = target.d_f if math.isfinite(target.d_f) else GAUSS_CUT / target.gauss_rate
    body = integrate(lambda t: target.one_minus_phi_sq(t) / (t * t), 0.0, end,
                     target.knots, (target.gauss_rate,))
    return (body + 1.0 / end) / math.pi


def psi_k_quadrature(kernel: str) -> float:
    """pi^-1 int_{s_k}^inf t^-2 {1 - phi_k^2} dt, with the exact 1/T tail."""
    end = KERNEL_SUPPORT_END[kernel]
    rates = ()
    if not math.isfinite(end):
        end = GAUSS_CUT
        rates = (1.0,)

    def fn(t):
        p = phi_k(kernel, t)
        return (1.0 - p) * (1.0 + p) / (t * t)

    body = integrate(fn, S_K[kernel], end, KERNEL_KNOTS[kernel], rates)
    return (body + 1.0 / end) / math.pi


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def linear_segment_mise(target: Target, kernel: str, h: float, n: int) -> float | None:
    """(psi_f - psi_k h)/n where ISB vanishes (h d_f <= s_k), else None."""
    if S_K[kernel] > 0.0 and h * target.d_f <= S_K[kernel]:
        return (target.psi_f - PSI_K[kernel] * h) / n
    return None


def normal_normal(sigma: float, h: float, n: int) -> tuple[float, float]:
    """(IV, ISB) for N(0, sigma^2) with the normal kernel.

    From int_0^inf (e^{-a t^2} - e^{-b t^2}) t^-2 dt = sqrt(pi)(sqrt b - sqrt a):
    sqrt(pi) n IV = sqrt(s^2 + h^2) - h and
    sqrt(pi) ISB = 2 sqrt(s^2 + h^2/2) - s - sqrt(s^2 + h^2).  Both are
    rewritten without differences of nearly equal roots: with x = h^2/s^2,
    A = sqrt(1 + x/2) and B = sqrt(1 + x), sqrt(pi) ISB = s x^2 / {2 (A+1)(B+1)(A+B)}.
    """
    root = math.hypot(sigma, h)
    iv = sigma * sigma / (root + h) / (SQRT_PI * n)
    x = (h / sigma) ** 2
    a = math.sqrt(1.0 + 0.5 * x)
    b = math.sqrt(1.0 + x)
    isb = sigma * x * x / (2.0 * (a + 1.0) * (b + 1.0) * (a + b)) / SQRT_PI
    return iv, isb


def normal_sinc(sigma: float, h: float, n: int) -> tuple[float, float]:
    """(IV, ISB) for N(0, sigma^2) with the sinc kernel, h > 0.

    With B = int_{1/h}^inf e^{-sigma^2 t^2} t^-2 dt
           = h e^{-sigma^2/h^2} - sigma sqrt(pi) erfc(sigma/h):
    ISB = B/pi and IV = (sigma sqrt(pi) - h + B)/(pi n).
    """
    b = h * math.exp(-(sigma / h) ** 2) - sigma * SQRT_PI * math.erfc(sigma / h)
    return (sigma * SQRT_PI - h + b) / (math.pi * n), b / math.pi


def exact_mise(target: Target, kernel: str, h: float, n: int) -> float | None:
    """A closed-form MISE where one exists (h = 0, linear segment, normal pairs)."""
    if h == 0.0:
        return target.psi_f / n
    lin = linear_segment_mise(target, kernel, h, n)
    if lin is not None:
        return lin
    if target.family == "normal" and kernel == "normal":
        return sum(normal_normal(target.scale, h, n))
    if target.family == "normal" and kernel == "sinc":
        return sum(normal_sinc(target.scale, h, n))
    return None


def asymptotic_efficiency(target: Target, kernel: str) -> float:
    """1 - psi_k s_k / (psi_f d_f); 1 when s_k = 0 or d_f = inf."""
    if S_K[kernel] == 0.0 or not math.isfinite(target.d_f):
        return 1.0
    return 1.0 - PSI_K[kernel] * S_K[kernel] / (target.psi_f * target.d_f)


def golden_min(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimiser of a unimodal fn on [lo, hi] by golden-section search."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = fn(d)
    return 0.5 * (lo + hi)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def self_check() -> list[str]:
    """Problems found when the quadrature is run on values known in closed form."""
    problems = []
    for target in (Target("jdlvp", 1.0), Target("jdlvp", 0.7), Target("normal", 1.0),
                   Target("normal", 1.9)):
        q = psi_f_quadrature(target)
        if not rel_close(q, target.psi_f, 1e-12):
            problems.append(f"psi_f {target}: quadrature {q!r} vs closed {target.psi_f!r}")
    for kernel in PSI_K:
        q = psi_k_quadrature(kernel)
        if not rel_close(q, PSI_K[kernel], 1e-12):
            problems.append(f"psi_k {kernel}: quadrature {q!r} vs closed {PSI_K[kernel]!r}")
    for sigma, h, n in ((1.0, 0.3, 100), (1.7, 2.5, 10), (0.6, 1e-3, 10 ** 7)):
        t = Target("normal", sigma)
        for kernel, closed in (("normal", normal_normal), ("sinc", normal_sinc)):
            qiv, qisb = iv_isb(t, kernel, h, n)
            civ, cisb = closed(sigma, h, n)
            if not rel_close(qiv + qisb, civ + cisb, 1e-11):
                problems.append(f"{kernel} closed form sigma={sigma} h={h} n={n}: "
                                f"quadrature {qiv + qisb!r} vs closed {civ + cisb!r}")
    for kernel in ("trapezoidal", "sinc"):
        t = Target("jdlvp", 1.3)
        h = 0.6
        if not rel_close(mise(t, kernel, h, 500), linear_segment_mise(t, kernel, h, 500), 1e-12):
            problems.append(f"linear segment {kernel}: quadrature disagrees")
    return problems


if __name__ == "__main__":
    found = self_check()
    for line in found:
        print(line)
    print("reference self-check:", "FAILED" if found else "ok")
    raise SystemExit(1 if found else 0)
