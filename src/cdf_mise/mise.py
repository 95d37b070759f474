"""Exact MISE of kernel distribution function estimators.

For a kernel estimator F_nh(x) = n^-1 sum K((x - X_j)/h) of a target F,
the MISE, the mean over samples of int (F_nh - F)^2 dx, splits as
MISE = IV + ISB with

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
empirical CDF and MISE(0) = psi(F)/n.  Every function of the package
that takes a bandwidth takes h = 0 or h in [1e-300, 1e75], by one rule,
``_h_ok``.

n enters only as MISE(h, n) = A(h)/n + B(h), with A = n IV and B = ISB.
``mise`` and ``mise_profile`` pick their routes by the same two tests,
``_on_linear_segment`` and ``_closed_form``, on a float or on an array:
the exact routes take closed forms, the ``fourier`` route gets pi A and
pi B, with their error bounds, from the fixed Gauss-Kronrod rule.
``mise_profile`` computes A and B on a whole bandwidth array with that
rule and an error bound, and the bandwidth search runs on it alone; the
exact routes there are computed on arrays, with the same bits as
``mise``.  For the other cells one pass over arrays builds every cell's
panels (a loop on floats for one or two cells), and the rule sums them a
block of cells at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .distributions import TargetDistribution, _check_size
from .kernels import Kernel
from .numerics import _G7_WEIGHTS, _GK15_NODES, _GK15_WEIGHTS

__all__ = [
    "MiseReport",
    "mise",
    "mise_profile",
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

    error_estimate bounds the absolute error of ``mise`` on the
    ``fourier`` route: the fixed rule's bounds on pi A and pi B at h
    (those of ``mise_profile``), which count the panels' |K15 - G7|
    differences, rounding on every computed factor and a normal
    target's cut tails.  The exact routes (h = 0, the linear segment
    and the normal closed forms) report the rounding allowance 8 eps
    times ``mise``, the bound ``mise_profile`` gives their cells.
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


# The bandwidths h > 0 every function of the package takes.  Between
# these the fixed rule's knots k/h and its t^2 at t ~ 1/h, and the normal
# closed form's h^4, are finite normal floats.  MISE is psi_f/n to
# rounding at the lower end, and MISE/h is at its large-h limit at the
# upper.
_H_MIN, _H_MAX = 1e-300, 1e75
_H_RANGE = f"bandwidth h must be 0 or lie in [{_H_MIN:g}, {_H_MAX:g}] for MISE"


def _h_ok(h):
    # True where h is a bandwidth the package takes, on a float or
    # elementwise on an array; false at nan.  Callers raise
    # ValueError(_H_RANGE) where it is false.
    return (h == 0.0) | ((h >= _H_MIN) & (h <= _H_MAX))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    # The C library's fn (math.exp, math.log, a power) on every element:
    # numpy's SIMD loops for these round differently, and every array
    # cell must carry the bits of the scalar call.
    return np.array([fn(v) for v in x.tolist()])


def _normal_normal_parts(sigma: float, h: np.ndarray, n: int):
    # (IV, ISB) on an array of h for a N(0, s^2) target with the normal
    # kernel, the closed form
    #
    #     sqrt(pi) MISE(h) = n^-1 {sqrt(h^2+s^2) - h}
    #                        + sqrt(2h^2+4s^2) - sqrt(h^2+s^2) - s.
    #
    # Both differences in the display are rationalized so that no O(s)
    # terms cancel: with a = sqrt(h^2+s^2), a - h = s^2/(a+h) and
    # sqrt(2h^2+4s^2) - a - s = (a-s)^2/(sqrt(2h^2+4s^2)+a+s), where
    # a - s = h^2/(a+s).
    a = np.sqrt(h * h + sigma * sigma)
    iv = sigma * sigma / (_SQRT_PI * n * (a + h))
    c = a + sigma
    isb = _libm(lambda v: v ** 4, h) / (
        _SQRT_PI * c * c * (np.sqrt(2.0 * h * h + 4.0 * sigma * sigma) + c))
    return iv, isb


def _normal_sinc_parts(sigma: float, h: np.ndarray, n: int):
    # (IV, ISB) on an array of h > 0 for a N(0, s^2) target with the sinc
    # kernel, the closed form
    #
    #     pi MISE(h) = (1 + n^-1) {h e^{-s^2/h^2} + 2 s sqrt(pi) Phi(s sqrt(2)/h)}
    #                  - n^-1 h - (2 + n^-1) s sqrt(pi).
    #
    # B(h) = pi ISB(h) = h e^{-y^2} - 2 s sqrt(pi) {1 - Phi(y sqrt(2))}
    # with y = s/h; since 1 - Phi(y sqrt(2)) = erfc(y)/2 =
    # e^{-y^2} erfcx(y)/2, B = h e^{-y^2} {1 - sqrt(pi) y erfcx(y)}, which
    # keeps the common factor e^{-y^2} out of the difference.
    # pi n IV(h) = s sqrt(pi) - h + B(h); their sum reproduces the display.
    y = sigma / h
    # y^2 overflows to inf below h ~ 1e-154 sigma, where e^{-y^2} is 0
    with np.errstate(over="ignore"):
        b = h * _libm(math.exp, -y * y) * (1.0 - _SQRT_PI * y * scipy.special.erfcx(y))
    iv = (sigma * _SQRT_PI - h + b) / (math.pi * n)
    isb = b / math.pi
    return iv, isb


_CLOSED_FORMS = {
    "closed_form_normal_normal": _normal_normal_parts,
    "closed_form_normal_sinc": _normal_sinc_parts,
}


def _closed_form(dist: TargetDistribution, kernel: Kernel) -> str | None:
    # The pair's closed-form route off the linear segment, or None.
    if dist.family == "normal" and kernel.name == "normal":
        return "closed_form_normal_normal"
    if dist.family == "normal" and not kernel.integrable:
        return "closed_form_normal_sinc"
    return None


def _on_linear_segment(dist: TargetDistribution, kernel: Kernel, h):
    # True where A = psi_f - psi_k h and B = 0 exactly, on a float or
    # elementwise on an array: at h = 0, and for a superkernel on a
    # band-limited target up to h = s_k/d_f.  h d_f is only formed for a
    # finite d_f, since 0 inf is nan.
    if math.isfinite(dist.d_f):
        return (h == 0.0) | (h * dist.d_f <= kernel.s_k)
    return h == 0.0


def mise(dist: TargetDistribution, kernel: Kernel, h: float, n: int,
         method: str = "auto") -> MiseReport:
    """MISE(h) for a (target, kernel) pair, with automatic fast paths.

    method="auto" picks the cheapest exact route (linear segment, normal
    closed forms, otherwise Fourier quadrature); method="fourier" forces
    the quadrature for h > 0.  At h = 0 both report the exact value
    psi_f/n as ``fourier``.  Every fast path agrees with method="fourier"
    to well below 1e-9 relative, which the test suite pins.  h must be 0
    or in [1e-300, 1e75], the one bandwidth range of the package, and n a
    whole number >= 1, else ValueError.
    """
    n = _check_size(n)
    if not _h_ok(h):
        raise ValueError(_H_RANGE)
    if method not in ("auto", "fourier"):
        raise ValueError("method must be 'auto' or 'fourier'")

    if h == 0.0 or method == "auto":
        if _on_linear_segment(dist, kernel, h):
            iv = (dist.psi_f - kernel.psi_k_analytic * h) / n
            return MiseReport(h=h, n=n, iv=iv, isb=0.0, mise=iv,
                              method="fourier" if h == 0.0 else "linear_segment",
                              error_estimate=_ROUNDING * iv)
        route = _closed_form(dist, kernel)
        if route is not None:
            iv, isb = (float(x[0]) for x in
                       _CLOSED_FORMS[route](dist.scale, np.array([h], dtype=float), n))
            return MiseReport(h=h, n=n, iv=iv, isb=isb, mise=iv + isb, method=route,
                              error_estimate=_ROUNDING * (iv + isb))
    a, b, a_err, b_err = (float(x[0]) for x in _fixed_rule(dist, kernel, np.array([h])))
    iv = a / (math.pi * n)
    isb = b / math.pi
    return MiseReport(h=h, n=n, iv=iv, isb=isb, mise=iv + isb, method="fourier",
                      error_estimate=a_err / (math.pi * n) + b_err / math.pi)


# ---------------------------------------------------------------------------
# Fixed-rule MISE profile over a bandwidth array
# ---------------------------------------------------------------------------

# Past t = _GAUSS_CUT/r a Gaussian factor e^{-(r t)^2} is below 1e-39.
_GAUSS_CUT = 9.5
# Cells per evaluation of the rule: at most about 40 panels a cell and 15
# nodes a panel keep every temporary array of the rule under 0.2 MB.
_PROFILE_CELLS = 32
# Rounding allowance per operation chain: 8 units in the last place.
_ROUNDING = 8.0 * float(np.finfo(float).eps)
# Up to this many rows _panels builds the panels by a loop on floats.
_LOOP_ROWS = 4


def _gauss_tail(v: np.ndarray) -> np.ndarray:
    # int_v^inf e^{-u^2} u^-2 du = e^{-v^2}/v - sqrt(pi) erfc(v) for v > 0,
    # with erfcx keeping the factor e^{-v^2} out of the difference.
    return _libm(math.exp, -v * v) * (1.0 / v - _SQRT_PI * scipy.special.erfcx(v))


# A normal target's factor cut at t = _GAUSS_CUT/sigma leaves at most
# sigma times this in each display.
_GAUSS_CUT_TAIL = float(_gauss_tail(np.array([_GAUSS_CUT]))[0])


def _kernel_sq_tail(kernel: Kernel, v: np.ndarray) -> np.ndarray:
    # int_v^inf phi_k(u)^2 u^-2 du for v > 0, in closed form per kernel.
    if kernel.name == "normal":
        return _gauss_tail(v)
    if kernel.name == "sinc":
        return np.maximum(1.0 / v - 1.0, 0.0)
    if kernel.name == "trapezoidal":
        # 1/u^2 up to 1, then (2 - u)^2/u^2 = 4/u^2 - 4/u + 1 up to 2
        return np.where(v <= 1.0, 1.0 / v + 2.0 - 4.0 * math.log(2.0),
                        np.where(v < 2.0, 4.0 / v + 4.0 * _libm(math.log, 0.5 * v) - v, 0.0))
    raise ValueError(f"no closed-form transform tail for kernel {kernel.name!r}")


def _panels(lo: np.ndarray, hi: np.ndarray, knots, rates):
    # Panels of every row's range [lo, hi], split at each of the row's
    # knots in between: arrays (lo, hi, row), ordered by row and then by
    # t.  knots and rates hold one value or array of rows each.  A panel
    # starting at t > 0 is at most t wide, so the t^-2 pole at 0 stays a
    # panel-length away, and at most 1/r wide while a Gaussian factor of
    # rate r is active (r t < _GAUSS_CUT).  Every segment between two cuts
    # steps forward at once, by the arithmetic of a loop over one segment.
    if lo.size <= _LOOP_ROWS:
        return _panels_by_loop(lo, hi, knots, rates)
    cuts = np.sort(np.array([lo, *(np.minimum(np.maximum(k, lo), hi) for k in knots), hi]).T,
                   axis=1)
    row, col = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    seg = np.arange(row.size)
    t, b = cuts[row, col], cuts[row, col + 1]
    rates = [np.broadcast_to(r, lo.shape)[row] for r in rates]
    steps = [(seg[:0], t[:0], t[:0])]
    while t.size:
        w = b - t
        w = np.where(t > 0.0, np.minimum(w, t), w)
        for r in rates:
            w = np.where(r * t < _GAUSS_CUT, np.minimum(w, 1.0 / r), w)
        t_next = np.where(w >= b - t, b, t + w)
        steps.append((seg, t, t_next))
        go = t_next < b
        seg, t, b = seg[go], t_next[go], b[go]
        rates = [r[go] for r in rates]
    seg, p_lo, p_hi = (np.concatenate(x) for x in zip(*steps))
    order = np.argsort(seg, kind="stable")
    return p_lo[order], p_hi[order], row[seg[order]]


def _panels_by_loop(lo: np.ndarray, hi: np.ndarray, knots, rates):
    # _panels by that loop on floats, row by row: the same panels, bit for
    # bit and in the same order.  The array pass costs some 20 numpy calls
    # a step, which the one cell of a mise() call does not amortize.
    knots = [np.broadcast_to(k, lo.shape).tolist() for k in knots]
    rates = [np.broadcast_to(r, lo.shape).tolist() for r in rates]
    p_lo, p_hi, rows = [], [], []
    for i, (start, end) in enumerate(zip(lo.tolist(), hi.tolist())):
        cuts = sorted([start, *(min(max(k[i], start), end) for k in knots), end])
        row_rates = [r[i] for r in rates]
        for t, b in zip(cuts[:-1], cuts[1:]):
            while t < b:
                w = b - t
                if t > 0.0:
                    w = min(w, t)
                for r in row_rates:
                    if r * t < _GAUSS_CUT:
                        w = min(w, 1.0 / r)
                t_next = b if w >= b - t else t + w
                p_lo.append(t)
                p_hi.append(t_next)
                rows.append(i)
                t = t_next
    return (np.array(p_lo, dtype=float), np.array(p_hi, dtype=float),
            np.array(rows, dtype=np.intp))


def _target_end(dist: TargetDistribution):
    # (t_end, cut, knots, rates) of the fixed rule.  Past t_end the target
    # factor is zero: exactly beyond d_f, or below 1e-39 beyond 9.5/sigma
    # for a normal target, whose cut tail is at most `cut` in each display.
    if math.isfinite(dist.d_f):
        return dist.d_f, 0.0, [*dist.cf_knots, dist.d_f], []
    return (_GAUSS_CUT / dist.scale, dist.scale * _GAUSS_CUT_TAIL, list(dist.cf_knots),
            [dist.scale])


def _profile_panels(dist: TargetDistribution, kernel: Kernel, hs: np.ndarray):
    # The panels of both displays on bandwidths h > 0: (lo, hi, cell) of
    # the IV on (0, min(ft_support_end/h, t_end)), then of the ISB on
    # (s_k/h, t_end) for the cells where that range is not empty.
    t_end, _, knots, rates = _target_end(dist)
    isb = np.flatnonzero(kernel.s_k / hs < t_end)
    cells = np.concatenate([np.arange(hs.size), isb])
    h = hs[cells]
    lo = np.concatenate([np.zeros(hs.size), kernel.s_k / hs[isb]])
    hi = np.concatenate([np.minimum(kernel.ft_support_end / hs, t_end),
                         np.full(isb.size, t_end)])
    p_lo, p_hi, row = _panels(lo, hi, [k / h for k in kernel.ft_knots] + knots,
                              rates + ([h] if kernel.name == "normal" else []))
    split = np.searchsorted(row, hs.size)
    return ((p_lo[:split], p_hi[:split], cells[row[:split]]),
            (p_lo[split:], p_hi[split:], cells[row[split:]]))


def _rule_on_panels(integrand, panels, hs: np.ndarray):
    # Gauss-Kronrod 15 on every panel, summed per cell into values and
    # error bounds.  integrand(t, h) returns the values f and the size g
    # of what their subtractions cancel; the bound is |K15 - G7| plus
    # rounding, 8 eps times the rule's sum of |f| + g.  The rule runs on
    # the panels of _PROFILE_CELLS cells at a time.
    lo, hi, cell = panels
    val = np.empty(lo.size)
    err = np.empty(lo.size)
    ends = np.searchsorted(cell, np.arange(0, hs.size + _PROFILE_CELLS, _PROFILE_CELLS))
    for p0, p1 in zip(ends[:-1].tolist(), ends[1:].tolist()):
        if p0 == p1:
            continue
        half = 0.5 * (hi[p0:p1] - lo[p0:p1])
        t = (0.5 * (hi[p0:p1] + lo[p0:p1]))[:, None] + half[:, None] * _GK15_NODES
        f, g = integrand(t, hs[cell[p0:p1]][:, None])
        k15 = (f @ _GK15_WEIGHTS) * half
        g7 = (f @ _G7_WEIGHTS) * half
        noise = ((np.abs(f) + g) @ _GK15_WEIGHTS) * half
        val[p0:p1] = k15
        err[p0:p1] = np.abs(k15 - g7) + _ROUNDING * noise
    return np.bincount(cell, val, hs.size), np.bincount(cell, err, hs.size)


def _fixed_rule(dist: TargetDistribution, kernel: Kernel, hs: np.ndarray):
    # pi A and pi B on an array of bandwidths h > 0 by the fixed rule of
    # mise_profile, with separate error bounds: arrays (a, b, a_err, b_err).
    t_end, cut, _, _ = _target_end(dist)

    def iv(t, h):
        p = kernel.ft(t * h)
        q = dist.cf(t)
        pp = p * p / (t * t)
        return pp * (1.0 - q * q), pp * q * q

    def isb(t, h):
        p = kernel.ft(t * h)
        qq = dist.cf(t) ** 2 / (t * t)
        return (1.0 - p) ** 2 * qq, np.abs(1.0 - p) * p * qq

    iv_panels, isb_panels = _profile_panels(dist, kernel, hs)
    a, a_err = _rule_on_panels(iv, iv_panels, hs)
    b, b_err = _rule_on_panels(isb, isb_panels, hs)
    # Once 1 - phi_f^2 = 1 the IV is finished in closed form.
    tail = np.zeros(hs.size)
    past = t_end < kernel.ft_support_end / hs
    tail[past] = hs[past] * _kernel_sq_tail(kernel, hs[past] * t_end)
    return tail + a, b, cut + _ROUNDING * tail + a_err, cut + b_err


def mise_profile(dist: TargetDistribution, kernel: Kernel, hs):
    """A = n IV and B = ISB over a bandwidth array, by a fixed rule.

    MISE(h, n) = A/n + B for every n.  Cells where ``mise`` needs
    no quadrature (h = 0, the linear segment, the normal closed forms)
    get those exact terms, picked by mask and computed on arrays.
    Elsewhere Gauss-Kronrod 15 evaluates both Fourier displays
    on fixed panels split at every knot (s_k/h and the transform knots
    over h, the target's knots, d_f); a panel is at most t wide past t,
    which resolves the t^-2 pole, and at most 1/r wide while a Gaussian
    factor e^{-(r t)^2} is above 1e-39.  The panels of all cells are
    built in one pass over arrays, every segment between two knots
    stepping forward at once (for one or two cells, by the same steps
    in a loop on floats), and the rule runs on them 32 cells at a
    time, which bounds the temporary arrays.  Once 1 - phi_f^2 = 1 (past
    d_f, or past 9.5/sigma, where a normal target's factor is below
    1e-39) the IV is finished in closed form, h int phi_k(u)^2 u^-2 du
    over u > h t.

    Every h must be 0 or in [1e-300, 1e75], as for ``mise``.
    Returns arrays (A, B, err); err bounds |error of A| + |error of B|,
    hence the error of A/n + B at every n >= 1.  It sums the panels'
    |K15 - G7| differences, a rounding allowance of 8 units in the last
    place on every computed factor, and the normal target's cut tails.
    The bandwidth search runs on this profile alone, and the
    ``fourier`` route of ``mise`` runs the same rule on its one h.
    """
    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 1:
        raise ValueError("hs must be a one-dimensional array of bandwidths")
    if not _h_ok(hs).all():
        raise ValueError(_H_RANGE)
    linear = _on_linear_segment(dist, kernel, hs)
    rest = ~linear
    a = np.zeros(hs.size)
    b = np.zeros(hs.size)
    a[linear] = dist.psi_f - kernel.psi_k_analytic * hs[linear]
    route = _closed_form(dist, kernel)
    if route is not None:
        a[rest], b[rest] = _CLOSED_FORMS[route](dist.scale, hs[rest], 1)
    err = _ROUNDING * (a + b)
    if route is not None or not rest.any():
        return a, b, err
    pa, pb, pa_err, pb_err = _fixed_rule(dist, kernel, hs[rest])
    a[rest] = pa / math.pi
    b[rest] = pb / math.pi
    err[rest] = (pa_err + pb_err) / math.pi
    return a, b, err
