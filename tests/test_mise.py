"""Tests for exact MISE computation: Fourier route, fast paths, oracles."""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
import scipy.integrate

import cdf_mise
import cdf_mise.bandwidth as bw
import cdf_mise.mise as MISE_MODULE

from cdf_mise.distributions import make_jdlvp, make_normal, psi_f_fourier, rescale
from cdf_mise.kernels import kernel_by_name, psi_k
from cdf_mise.mise import MiseReport, mise, mise_profile
from cdf_mise.numerics import MAX_SUBDIVISIONS, QuadratureResult

from oracles import (
    fixed_rule_by_blocks,
    isb_space_oracle,
    iv_space_oracle,
    mise_mpmath,
    profile_edges,
    profile_panels,
    quadpack_terms,
)

JDLVP = make_jdlvp()
NORMAL1 = make_normal(1.0)
NORMAL_K = kernel_by_name("normal")
TRAP = kernel_by_name("trapezoidal")
SINC = kernel_by_name("sinc")

SQRT_PI = math.sqrt(math.pi)
EPS = np.finfo(float).eps
PACKAGE_MODULES = ["cdf_mise"] + [f"cdf_mise.{m.name}"
                                  for m in pkgutil.iter_modules(cdf_mise.__path__)]

ALL_PAIRS = [
    (JDLVP, NORMAL_K),
    (JDLVP, TRAP),
    (JDLVP, SINC),
    (NORMAL1, NORMAL_K),
    (NORMAL1, TRAP),
    (NORMAL1, SINC),
]


def rule_terms(dist, kernel, h: float) -> tuple[float, float, float, float]:
    # (pi A, pi B, a_err, b_err) of the fixed rule's one cell at h
    return tuple(float(x[0]) for x in MISE_MODULE._fixed_rule(dist, kernel, np.array([h])))


def fourier_report(terms, h: float, n: int) -> MiseReport:
    # the fourier route's report from its terms (pi A, pi B, a_err, b_err)
    a, b, a_err, b_err = terms
    iv, isb = a / (math.pi * n), b / math.pi
    return MiseReport(h=h, n=n, iv=iv, isb=isb, mise=iv + isb, method="fourier",
                      error_estimate=a_err / (math.pi * n) + b_err / math.pi)


def exact_route(dist, kernel, h: float):
    # the route of mise(method="auto") at h when it needs no quadrature,
    # or None, by the module's two route tests
    if MISE_MODULE._on_linear_segment(dist, kernel, h):
        return "linear_segment"
    return MISE_MODULE._closed_form(dist, kernel)


def exact_terms(dist, kernel, route: str, h: float, n: int) -> tuple[float, float]:
    # (IV, ISB) at n on an exact route of exact_route
    if route == "linear_segment":
        return (dist.psi_f - kernel.psi_k_analytic * h) / n, 0.0
    iv, isb = MISE_MODULE._CLOSED_FORMS[route](dist.scale, np.array([h]), n)
    return float(iv[0]), float(isb[0])


def closed_iv_normal_normal(sigma: float, h: float, n: int) -> float:
    # the 1/n coefficient of the closed form
    return (math.sqrt(h * h + sigma * sigma) - h) / (SQRT_PI * n)


def closed_isb_normal_normal(sigma: float, h: float) -> float:
    # the n-free term of the closed form
    return (
        math.sqrt(2.0 * h * h + 4.0 * sigma * sigma)
        - math.sqrt(h * h + sigma * sigma)
        - sigma
    ) / SQRT_PI


class TestZeroBandwidth:
    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_reduces_to_empirical_value(self, dist, kernel, n):
        r = mise(dist, kernel, 0.0, n)
        assert r.mise == pytest.approx(dist.psi_f / n, rel=1e-14, abs=0.0)
        assert r.isb == 0.0
        assert r.iv == r.mise

    def test_iv_fourier_exact_at_zero(self):
        r = mise(JDLVP, TRAP, 0.0, 10, method="fourier")
        assert (r.iv, r.isb, r.method) == (JDLVP.psi_f / 10, 0.0, "fourier")


class TestLinearSegment:
    @pytest.mark.parametrize("kernel", [TRAP, SINC], ids=lambda k: k.name)
    @pytest.mark.parametrize("h", [0.1, 0.25, 0.4])
    def test_affine_value(self, kernel, h):
        n = 50
        expected = (JDLVP.psi_f - psi_k(kernel) * h) / n
        r = mise(JDLVP, kernel, h, n)
        assert r.method == "linear_segment"
        assert r.mise == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert r.isb == 0.0

    @pytest.mark.parametrize("kernel", [TRAP, SINC], ids=lambda k: k.name)
    def test_three_points_collinear(self, kernel):
        n = 200
        h1, h2, h3 = 0.05, 0.2, 0.45
        m1 = mise(JDLVP, kernel, h1, n).mise
        m2 = mise(JDLVP, kernel, h2, n).mise
        m3 = mise(JDLVP, kernel, h3, n).mise
        slope_a = (m2 - m1) / (h2 - h1)
        slope_b = (m3 - m2) / (h3 - h2)
        assert slope_a == pytest.approx(slope_b, rel=1e-10, abs=0.0)
        assert slope_a == pytest.approx(-psi_k(kernel) / n, rel=1e-10, abs=0.0)

    def test_published_point(self):
        # (psi_f - psi_k * 0.3) / 1000 for the band-limited target
        r = mise(JDLVP, TRAP, 0.3, 1000)
        expected = (JDLVP.psi_f - psi_k(TRAP) * 0.3) / 1000.0
        assert r.mise == pytest.approx(expected, rel=1e-12, abs=0.0)
        f = mise(JDLVP, TRAP, 0.3, 1000, method="fourier")
        assert f.mise == pytest.approx(r.mise, rel=1e-9, abs=0.0)

    def test_segment_extends_with_rescaling(self):
        # doubling the scale halves d_f, so the segment reaches h = 1
        wide = rescale(JDLVP, 2.0)
        n = 80
        r = mise(wide, TRAP, 0.8, n)
        assert r.method == "linear_segment"
        assert r.mise == pytest.approx(
            (wide.psi_f - psi_k(TRAP) * 0.8) / n, rel=1e-10, abs=0.0
        )

    def test_iv_is_segment_below_threshold(self):
        for h in (0.05, 0.15, 0.25):
            val = mise(JDLVP, TRAP, h, 25, method="fourier").iv
            assert val == pytest.approx(
                (JDLVP.psi_f - psi_k(TRAP) * h) / 25.0, rel=1e-9, abs=0.0
            )


class TestIsbBoundary:
    @pytest.mark.parametrize("h", [0.0, 0.1, 0.3, 0.5])
    def test_vanishes_up_to_threshold(self, h):
        assert mise(JDLVP, TRAP, h, 1, method="fourier").isb == 0.0
        assert mise(JDLVP, SINC, h, 10).isb == 0.0

    def test_positive_past_threshold(self):
        assert mise(JDLVP, TRAP, 0.51, 1, method="fourier").isb > 0.0
        assert mise(JDLVP, SINC, 0.51, 10).isb > 0.0

    def test_isb_independent_of_n(self):
        a = mise(JDLVP, TRAP, 0.8, 10).isb
        b = mise(JDLVP, TRAP, 0.8, 10_000).isb
        assert a == b


class TestClosedFormNormalNormal:
    def test_zero_bandwidth(self):
        assert mise(make_normal(2.0), NORMAL_K, 0.0, 5).mise == pytest.approx(
            2.0 / (SQRT_PI * 5.0), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("h", [0.1, 0.3, 0.9, 2.0])
    def test_matches_fourier(self, sigma, h):
        dist = make_normal(sigma)
        n = 100
        closed = mise(dist, NORMAL_K, h, n)
        assert closed.method == "closed_form_normal_normal"
        four = mise(dist, NORMAL_K, h, n, method="fourier")
        assert closed.mise == pytest.approx(four.mise, rel=1e-9, abs=0.0)

    def test_auto_routes_to_closed_form(self):
        r = mise(NORMAL1, NORMAL_K, 0.2, 50)
        assert r.method == "closed_form_normal_normal"
        assert r.mise == pytest.approx(float(mise_mpmath(NORMAL1, NORMAL_K, 0.2, 50)),
                                       rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [10, 1000])
    def test_iv_isb_split_matches_coefficients(self, n):
        # IV is the 1/n coefficient, ISB the n-free term
        h = 0.5
        r = mise(NORMAL1, NORMAL_K, h, n, method="fourier")
        assert r.iv == pytest.approx(closed_iv_normal_normal(1.0, h, n), rel=1e-9, abs=0.0)
        assert r.isb == pytest.approx(closed_isb_normal_normal(1.0, h), rel=1e-9, abs=0.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            mise(make_normal(-1.0), NORMAL_K, 0.5, 10)
        with pytest.raises(ValueError):
            mise(make_normal(0.0), NORMAL_K, 0.5, 10)
        # outside the target scales [1e-60, 1e60] h^4 underflows: at
        # sigma = 1e-100 the value was 68% off, at 1e-150 a nan
        for kernel in (NORMAL_K, SINC):
            for sigma in (1e-100, 1e-150, 1e61, math.nan):
                with pytest.raises(ValueError, match="sigma must lie in"):
                    mise(make_normal(sigma), kernel, 0.7 * sigma, 10)


class TestClosedFormNormalSinc:
    def test_small_h_limit(self):
        r = mise(NORMAL1, SINC, 1e-8, 10)
        assert r.method == "closed_form_normal_sinc"
        assert r.mise == pytest.approx(1.0 / (SQRT_PI * 10.0), rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("sigma,h,n", [(1.0, 0.4, 100), (2.0, 0.7, 25), (0.5, 1.5, 10)])
    def test_matches_sinc_fourier(self, sigma, h, n):
        closed = mise(make_normal(sigma), SINC, h, n)
        assert closed.method == "closed_form_normal_sinc"
        report = mise(make_normal(sigma), SINC, h, n, method="fourier")
        assert closed.mise == pytest.approx(report.mise, rel=1e-9, abs=0.0)

    def test_auto_routes_to_closed_form(self):
        r = mise(NORMAL1, SINC, 0.4, 100)
        assert r.method == "closed_form_normal_sinc"
        assert r.mise == pytest.approx(float(mise_mpmath(NORMAL1, SINC, 0.4, 100)),
                                       rel=1e-14, abs=0.0)


class TestClosedFormsAgainstMpmath:
    """The normal-target closed forms against 50-digit evaluations of
    their displays, where double-precision cancellation would show."""

    RATIOS = np.logspace(-2.0, 1.5, 120)  # h / sigma

    @staticmethod
    def exact_parts(mpmath, kernel_name, sigma, h):
        # (n IV, ISB) straight from the displays in cdf_mise.mise
        with mpmath.workdps(50):
            s, hh = mpmath.mpf(sigma), mpmath.mpf(h)
            a = mpmath.sqrt(hh * hh + s * s)
            if kernel_name == "normal":
                root_pi = mpmath.sqrt(mpmath.pi)
                iv = (a - hh) / root_pi
                isb = (mpmath.sqrt(2 * hh * hh + 4 * s * s) - a - s) / root_pi
            else:
                y = s / hh
                b = hh * mpmath.exp(-y * y) - s * mpmath.sqrt(mpmath.pi) * mpmath.erfc(y)
                iv = (s * mpmath.sqrt(mpmath.pi) - hh + b) / mpmath.pi
                isb = b / mpmath.pi
            return float(iv), float(isb)

    @pytest.mark.parametrize("kernel", [NORMAL_K, SINC], ids=lambda k: k.name)
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    def test_isb_nonnegative_and_accurate(self, kernel, sigma):
        mpmath = pytest.importorskip("mpmath")
        dist = make_normal(sigma)
        for ratio in self.RATIOS:
            h = float(sigma * ratio)
            r = mise(dist, kernel, h, 1)
            assert r.method.startswith("closed_form_normal_")
            iv, isb = self.exact_parts(mpmath, kernel.name, sigma, h)
            assert r.isb >= 0.0, f"h={h!r}"
            if isb > 1e-300:
                assert r.isb == pytest.approx(isb, rel=1e-12, abs=0.0), f"h={h!r}"
            assert r.iv == pytest.approx(iv, rel=1e-12, abs=0.0), f"h={h!r}"


class TestSincFourier:
    # The sinc kernel has no route of its own: its indicator transform
    # runs through the same Fourier integrals as every other kernel.
    def test_zero_bandwidth_is_empirical(self):
        r = mise(JDLVP, SINC, 0.0, 100, method="fourier")
        assert r.mise == pytest.approx(JDLVP.psi_f / 100.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5])
    def test_band_limited_target_collapses_to_segment(self, h):
        # past 1/h >= d_f the bias integral vanishes identically
        n = 60
        r = mise(JDLVP, SINC, h, n, method="fourier")
        assert r.mise == pytest.approx((JDLVP.psi_f - h / math.pi) / n, rel=1e-10, abs=0.0)
        assert r.isb == 0.0

    def test_reports_split_and_error(self):
        r = mise(JDLVP, SINC, 0.9, 100, method="fourier")
        assert r.method == "fourier"
        assert r.isb > 0.0
        assert r.iv + r.isb == pytest.approx(r.mise, abs=1e-12)
        assert 0.0 <= r.error_estimate < 1e-10

    def test_auto_routing_for_wide_bandwidth(self):
        auto = mise(JDLVP, SINC, 0.9, 100)
        assert auto.method == "fourier"
        assert auto == mise(JDLVP, SINC, 0.9, 100, method="fourier")


class TestPathAgreement:
    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_auto_agrees_with_fourier_on_grid(self, dist, kernel):
        n = 40
        for h in np.linspace(0.0, 2.0, 21):
            auto = mise(dist, kernel, float(h), n)
            four = mise(dist, kernel, float(h), n, method="fourier")
            assert auto.mise == pytest.approx(four.mise, rel=1e-9, abs=0.0), f"h={h}"

    def test_exact_routes_within_both_error_bounds(self):
        # a dense seeded draw over the exact routes: scales log-uniform in
        # [0.5, 2], h log-uniform in [1e-4, 1] h_max, n log-uniform in
        # [10, 1e7]; on every cell that auto sends to an exact route, the
        # gap to the fixed rule is within the sum of both error estimates
        rng = np.random.default_rng(7)
        cells, worst, worst_rel = {}, (0.0, None), 0.0
        for family, kernel in ((make_jdlvp, TRAP), (make_jdlvp, SINC),
                               (make_normal, NORMAL_K), (make_normal, SINC)):
            for log_scale, log_h, log_n in rng.uniform((-1.0, -4.0, 1.0), (1.0, 0.0, 7.0),
                                                       (1500, 3)).tolist():
                dist = family(2.0 ** log_scale)
                h = bw.default_search(dist).h_max * 10.0 ** log_h
                n = int(round(10.0 ** log_n))
                auto = mise(dist, kernel, h, n)
                if auto.method == "fourier":
                    continue
                four = mise(dist, kernel, h, n, method="fourier")
                ratio = abs(auto.mise - four.mise) / (auto.error_estimate + four.error_estimate)
                cells[auto.method] = cells.get(auto.method, 0) + 1
                worst = max(worst, (ratio, (dist.name, kernel.name, h, n)))
                worst_rel = max(worst_rel, abs(auto.mise - four.mise) / auto.mise)
        print(f"{cells}: largest gap / bound {worst[0]:.3g} at {worst[1]}, "
              f"largest relative gap {worst_rel:.2g}")
        assert set(cells) == {"linear_segment", "closed_form_normal_normal",
                              "closed_form_normal_sinc"}
        assert sum(cells.values()) >= 3000
        assert worst[0] <= 1.0, worst

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_report_invariants_on_grid(self, dist, kernel):
        n = 25
        for h in (0.0, 0.35, 0.8, 1.6):
            r = mise(dist, kernel, h, n)
            assert r.iv >= 0.0
            assert r.isb >= 0.0
            assert r.mise == pytest.approx(r.iv + r.isb, abs=1e-12)

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_fourier_reports_quadrature_error(self, dist, kernel):
        # h = 0.8 is past jdlvp's linear segment (s_k/d_f = 0.5), so both
        # integrals run and the fixed rule's bounds are carried over
        r = mise(dist, kernel, 0.8, 50, method="fourier")
        assert 0.0 < r.error_estimate < 1e-9 * r.mise


class TestAsymptotics:
    @pytest.mark.parametrize("dist,kernel", [(JDLVP, TRAP), (NORMAL1, NORMAL_K)],
                             ids=["jdlvp+trap", "normal+normal"])
    def test_small_h_approaches_empirical(self, dist, kernel):
        n = 30
        assert mise(dist, kernel, 1e-7, n).mise == pytest.approx(
            dist.psi_f / n, rel=1e-6, abs=0.0
        )

    @pytest.mark.parametrize("dist,kernel,h", [(JDLVP, NORMAL_K, 3.7276e-5),
                                               (NORMAL1, TRAP, 3.995e-5)],
                             ids=["jdlvp+normal", "normal+trap"])
    def test_tiny_h_converges_to_linear_term(self, dist, kernel, h):
        # two h where QUADPACK misses its tolerance:
        # n MISE = psi_f - psi_k h + O(h^2)
        n = 10
        r = mise(dist, kernel, h, n, method="fourier")
        assert n * r.mise == pytest.approx(dist.psi_f - psi_k(kernel) * h, abs=h * h)

    def test_iv_scales_exactly_as_one_over_n(self):
        h = 0.8
        for dist, kernel in ALL_PAIRS:
            base = mise(dist, kernel, h, 1, method="fourier").iv
            for n in (10, 1000, 10**6):
                iv = mise(dist, kernel, h, n, method="fourier").iv
                assert n * iv == pytest.approx(base, rel=1e-12, abs=0.0), (dist.name, kernel.name)

    def test_mise_tends_to_isb_at_rate_n(self):
        # n * (MISE_n - ISB) is the fixed IV coefficient, bounded in n
        h = 0.8
        for dist, kernel in ALL_PAIRS:
            isb = mise(dist, kernel, h, 1, method="fourier").isb
            gaps = [n * (mise(dist, kernel, h, n, method="fourier").mise - isb)
                    for n in (10, 10**3, 10**6)]
            assert gaps[0] == pytest.approx(gaps[1], rel=1e-9, abs=0.0), (dist.name, kernel.name)
            assert gaps[1] == pytest.approx(gaps[2], rel=1e-9, abs=0.0), (dist.name, kernel.name)


class TestMiseTerms:
    # MISE(h, n) = A(h)/n + B(h): mise() takes its route by two tests,
    # and the terms of each route, the exact (IV, ISB) at n or the fixed
    # rule's pi A and pi B, must give every report field bit for bit.
    NS = (1, 10, 10**3, 10**7)
    FOURIER_HS = (0.7, 1.3, 2.5)
    # the auto route below and above h = 0.5 (jdlvp's s_k/d_f for both
    # superkernels); h = 0 is reported as fourier on every pair
    ROUTES = {
        "jdlvp+normal": ("fourier", "fourier"),
        "jdlvp+trapezoidal": ("linear_segment", "fourier"),
        "jdlvp+sinc": ("linear_segment", "fourier"),
        "normal:sigma=1+normal": ("closed_form_normal_normal",) * 2,
        "normal:sigma=1+trapezoidal": ("fourier", "fourier"),
        "normal:sigma=1+sinc": ("closed_form_normal_sinc",) * 2,
    }

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    @pytest.mark.parametrize("method", ["auto", "fourier"])
    def test_at_equals_mise_exactly(self, dist, kernel, method):
        # the two route tests and the terms of the chosen route reproduce
        # every field of mise() at every n
        for h in (0.0, 0.3, *self.FOURIER_HS):
            route = exact_route(dist, kernel, h)
            if h > 0.0 and method == "fourier":
                route = None
            quad = rule_terms(dist, kernel, h) if route is None else None
            for n in self.NS:
                got = mise(dist, kernel, h, n, method=method)
                if quad is not None:
                    want = fourier_report(quad, h, n)
                else:
                    iv, isb = exact_terms(dist, kernel, route, h, n)
                    want = MiseReport(h=h, n=n, iv=iv, isb=isb, mise=iv + isb,
                                      method="fourier" if h == 0.0 else route,
                                      error_estimate=MISE_MODULE._ROUNDING * (iv + isb))
                assert type(got) is MiseReport
                for field in ("h", "n", "iv", "isb", "mise", "method", "error_estimate"):
                    assert repr(getattr(got, field)) == repr(getattr(want, field)), (
                        h, n, field)

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_at_reproduces_each_route_formula(self, dist, kernel):
        low, high = self.ROUTES[f"{dist.name}+{kernel.name}"]
        for h in (0.0, 0.3, *self.FOURIER_HS):
            for n in self.NS:
                r = mise(dist, kernel, h, n)
                assert r.method == ("fourier" if h == 0.0 else low if h < 0.5 else high)
                if r.method != "fourier" or h == 0.0:
                    # an exact route reports the rounding allowance
                    assert r.error_estimate == 8.0 * EPS * r.mise
                if h == 0.0:
                    assert (r.iv, r.isb, r.mise) == (dist.psi_f / n, 0.0, dist.psi_f / n)
                elif r.method == "linear_segment":
                    v = (dist.psi_f - kernel.psi_k_analytic * h) / n
                    assert (r.iv, r.isb, r.mise) == (v, 0.0, v)
                elif r.method.startswith("closed_form_"):
                    iv, isb = MISE_MODULE._CLOSED_FORMS[r.method](dist.scale, np.array([h]), n)
                    assert (r.iv, r.isb) == (iv[0], isb[0])
                else:
                    assert r == fourier_report(rule_terms(dist, kernel, h), h, n)
                    assert r.error_estimate > 0.0
                assert r.mise == r.iv + r.isb

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_fourier_terms_independent_of_n(self, dist, kernel):
        # the quadratures pi A(h) and pi B(h) behind mise() at any n are
        # one and the same pair of numbers
        for h in self.FOURIER_HS:
            terms = rule_terms(dist, kernel, h)
            assert terms == rule_terms(dist, kernel, h)
            a, b = terms[:2]
            assert a > 0.0 and b > 0.0
            for n in self.NS:
                r = mise(dist, kernel, h, n, method="fourier")
                assert r.isb == b / math.pi
                assert math.pi * n * r.iv == pytest.approx(a, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    @pytest.mark.parametrize("method", ["auto", "fourier"])
    def test_n_structure_on_every_route(self, dist, kernel, method):
        # ISB is bit-identical across n and n IV agrees within 4 ulp on
        # whichever route each h takes: h = 0, the linear segment, the
        # closed forms and the fixed rule
        for h in (0.0, 0.3, *self.FOURIER_HS, 50.0):
            base = mise(dist, kernel, h, 1, method=method)
            for n in self.NS[1:]:
                r = mise(dist, kernel, h, n, method=method)
                assert r.method == base.method
                assert repr(r.isb) == repr(base.isb), (h, n)
                assert abs(n * r.iv - base.iv) <= 4.0 * math.ulp(base.iv), (h, n)

    def test_terms_are_plain_frozen_data(self):
        r = mise(JDLVP, TRAP, 0.7, 10)
        assert [type(getattr(r, f)) for f in ("h", "iv", "isb", "mise", "error_estimate")] == [
            float] * 5
        r = mise(JDLVP, TRAP, 0.3, 10)
        assert r == MiseReport(h=0.3, n=10, iv=r.iv, isb=0.0, mise=r.iv,
                               method="linear_segment", error_estimate=8.0 * EPS * r.iv)
        assert type(r.error_estimate) is float
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.iv = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mise(JDLVP, TRAP, -0.1, 10)
        with pytest.raises(ValueError):
            mise(JDLVP, TRAP, 0.1, 10, method="linear_segment")
        with pytest.raises(ValueError, match="sample size"):
            mise(JDLVP, TRAP, -0.1, 0)  # n is checked before h
        # 10**400 is a whole number no float holds: float(n) overflowed
        for n in (math.nan, 2.5, math.inf, True, np.True_, "10", None, [3], 1 + 0j,
                  10**400):
            with pytest.raises(ValueError, match="sample size n must be a whole number >= 1"):
                mise(JDLVP, TRAP, 0.3, n)


class TestMiseProfile:
    # mise_profile: A = n IV and B = ISB on a bandwidth array by a fixed
    # rule, with an error bound.  Its agreement with QUADPACK over whole
    # search grids is pinned in test_bandwidth.py.
    HS = (0.0, 0.3, 0.7, 1.3, 2.5, 7.9)

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_matches_mise_terms(self, dist, kernel):
        a, b, err = mise_profile(dist, kernel, self.HS)
        assert a.shape == b.shape == err.shape == (len(self.HS),)
        for i, h in enumerate(self.HS):
            r = mise(dist, kernel, h, 1)
            assert abs(a[i] - r.iv) + abs(b[i] - r.isb) <= err[i]
            # the bound is honest and still tight enough to use
            assert 0.0 < err[i] <= 1e-8 * (a[i] + b[i])

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_mise_within_the_profile_cells_bound(self, dist, kernel):
        # mise() runs the profile's rule on its one h: the same terms up
        # to the summation order of a block of cells, so both lie within
        # the cell's err of each other at every n (on random cells they
        # agree to about 1e-14 relative, and often bit for bit).  Where
        # the profile takes an exact route, method="fourier" still runs
        # the rule, and its own error_estimate is added.
        rng = np.random.default_rng(14)
        hs = np.exp(rng.uniform(math.log(1e-4), math.log(300.0), 64))
        a, b, err = mise_profile(dist, kernel, hs)
        for i, h in enumerate(hs.tolist()):
            exact = exact_route(dist, kernel, h) is not None
            for method in ("auto", "fourier"):
                for n in (1, 10**3, 10**6):
                    r = mise(dist, kernel, h, n, method=method)
                    bound = err[i] + (r.error_estimate if exact and method == "fourier" else 0.0)
                    assert abs(r.mise - (a[i] / n + b[i])) <= bound, (h, n, method)

    def test_exact_cells_take_exact_terms(self):
        # h = 0 and the linear segment need no quadrature
        a, b, _ = mise_profile(JDLVP, TRAP, [0.0, 0.3])
        assert list(a) == [JDLVP.psi_f, JDLVP.psi_f - TRAP.psi_k_analytic * 0.3]
        assert list(b) == [0.0, 0.0]
        a, b, _ = mise_profile(NORMAL1, NORMAL_K, [0.4])
        assert a[0] + b[0] == mise(NORMAL1, NORMAL_K, 0.4, 1).mise

    def test_scale_covariance(self):
        # A and B of f_a at a h are a times those of f at h
        hs = np.array([0.05, 0.4, 0.9, 3.0])
        for dist in (JDLVP, NORMAL1):
            for kernel in (NORMAL_K, TRAP):
                a1, b1, _ = mise_profile(dist, kernel, hs)
                a2, b2, _ = mise_profile(rescale(dist, 2.0), kernel, 2.0 * hs)
                np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-12)
                np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-11, atol=1e-300)

    def test_validation(self):
        with pytest.raises(ValueError):
            mise_profile(JDLVP, TRAP, [0.5, -0.1])
        with pytest.raises(ValueError):
            mise_profile(JDLVP, TRAP, [0.5, math.inf])
        with pytest.raises(ValueError):
            mise_profile(JDLVP, TRAP, [[0.5]])
        a, b, err = mise_profile(JDLVP, TRAP, [])
        assert a.size == b.size == err.size == 0


class TestProfilePanels:
    # The fixed rule builds every cell's panels in one pass over arrays,
    # or for a few rows by a loop on floats; both give those of the loop
    # of tests/oracles.py, bit for bit and in the same order, so the rule
    # sums the same numbers.
    TARGETS = (JDLVP, make_jdlvp(0.5), NORMAL1, make_normal(2.0))

    @staticmethod
    def assert_same(got, want):
        for (lo, hi, cell), (lo_want, hi_want, cell_want) in zip(got, want, strict=True):
            assert lo.tobytes() == lo_want.tobytes()
            assert hi.tobytes() == hi_want.tobytes()
            assert cell.tolist() == cell_want.tolist()

    # _LOOP_ROWS of 0 sends every row count to the array pass, and 10**9
    # to the loop on floats; by default the loop takes a few rows only.
    PATHS = (0, 10**9)

    @pytest.mark.parametrize("kernel", (NORMAL_K, TRAP, SINC), ids=lambda k: k.name)
    @pytest.mark.parametrize("dist", TARGETS, ids=lambda d: d.name)
    def test_matches_the_loop_on_floats(self, dist, kernel, monkeypatch):
        t_end = dist.d_f if math.isfinite(dist.d_f) else MISE_MODULE._GAUSS_CUT / dist.scale
        rng = np.random.default_rng(13)
        grids = [np.exp(rng.uniform(math.log(1e-5), math.log(4000.0), 200)),
                 np.array([1e-5, 4000.0])]
        if kernel.s_k > 0.0:
            # the kernel's transform ends at t_end; then s_k/h just below,
            # at and past t_end, where the ISB range shrinks to nothing
            # and is left out
            grids.append(np.array([kernel.ft_support_end / t_end]))
            h = kernel.s_k / t_end
            near = [h]
            for _ in range(3):
                near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], math.inf)]
            assert any(kernel.s_k / x == t_end for x in near)
            grids.append(np.array(near + [0.5 * h, 2.0 * h]))
        for hs in grids:
            want = profile_panels(dist, kernel, hs)
            for loop_rows in self.PATHS:
                monkeypatch.setattr(MISE_MODULE, "_LOOP_ROWS", loop_rows)
                lo, hi, cell, rows = MISE_MODULE._profile_panels(dist, kernel, hs)
                got = [(lo[r0:r1], hi[r0:r1], cell[r0:r1]) for r0, r1 in rows]
                assert got[0][0].size > 0
                self.assert_same(got, want)

    def test_rows_of_zero_length_and_knots_at_the_ends(self, monkeypatch):
        lo = np.array([0.0, 1.0, 0.5, 0.0, 2.0, 1e-3])
        hi = np.array([2.0, 1.0, 3.0, 0.0, 7.5, 9.5])
        knots = [np.array([1.0, 1.0, 0.5, 0.0, 7.5, 2.0]), 2.0,
                 np.array([0.7, 5.0, 3.0, 1.0, 2.0, 2.0])]
        # two Gaussian rates, one of them per row
        rates = [1.3, np.array([0.2, 4.0, 1.0, 1.0, 3.0, 4000.0])]
        want = ([], [], [])
        for i in range(lo.size):
            edges = profile_edges(float(lo[i]), float(hi[i]),
                                  [float(np.broadcast_to(k, lo.shape)[i]) for k in knots],
                                  [float(np.broadcast_to(r, lo.shape)[i]) for r in rates])
            want[0].extend(edges[:-1])
            want[1].extend(edges[1:])
            want[2].extend([i] * (len(edges) - 1))
        for loop_rows in self.PATHS:
            monkeypatch.setattr(MISE_MODULE, "_LOOP_ROWS", loop_rows)
            got = MISE_MODULE._panels(lo, hi, knots, rates)
            self.assert_same([got], [tuple(np.array(x) for x in want)])
        assert 1 not in want[2] and 3 not in want[2]


class TestRuleKeepsTheBlockBits:
    # The rule evaluates phi_k and phi_f once per run of whole blocks, for
    # both displays, and takes its weighted sums a block of 32 cells at a
    # time on slices of the run's values.  Every cell keeps the bits of
    # the rule run a block at a time, each display on its own integrand
    # calls (tests/oracles.py), across blocks, runs and displays.
    TARGETS = (JDLVP, make_jdlvp(0.5), make_jdlvp(0.3), NORMAL1, make_normal(2.0))

    @staticmethod
    def grids(dist):
        rng = np.random.default_rng(27)
        # 15 sample sizes' zoom levels: 9 points across brackets 1e-6 to
        # 1e-2 wide, as the bandwidth search evaluates them
        lows = rng.uniform(0.05, 3.0, 15) * dist.scale
        widths = 10.0 ** rng.uniform(-6.0, -2.0, 15)
        return {
            "search": bw._search_grid(bw.default_search(dist).h_max),
            "zoom": np.concatenate([l + np.linspace(0.0, w, 9) for l, w in zip(lows, widths)]),
            # many runs of blocks
            "2000 cells": np.exp(rng.uniform(math.log(1e-4), math.log(100.0), 2000)) * dist.scale,
            "one cell": np.array([0.7 * dist.scale]),
            # the ISB range (1/h, t_end) is empty for the compact kernels
            "empty ISB": np.array([0.05 * dist.scale]),
        }

    @pytest.mark.parametrize("kernel", (NORMAL_K, TRAP, SINC), ids=lambda k: k.name)
    @pytest.mark.parametrize("dist", TARGETS, ids=lambda d: d.name)
    def test_fixed_rule_and_profile(self, dist, kernel, monkeypatch):
        grids = self.grids(dist)
        assert kernel.s_k == 0.0 or kernel.s_k / grids["empty ISB"][0] >= (
            dist.d_f if math.isfinite(dist.d_f) else MISE_MODULE._GAUSS_CUT / dist.scale)
        many = MISE_MODULE._profile_panels(dist, kernel, grids["2000 cells"])[0].size
        assert many > 2 * MISE_MODULE._RUN_PANELS
        profiles = {}
        for name, hs in grids.items():
            cells = hs[hs > 0.0]
            got = MISE_MODULE._fixed_rule(dist, kernel, cells)
            want = fixed_rule_by_blocks(dist, kernel, cells)
            for x, y in zip(got, want, strict=True):
                assert x.tobytes() == y.tobytes(), name
            profiles[name] = mise_profile(dist, kernel, hs)
        monkeypatch.setattr(MISE_MODULE, "_fixed_rule", fixed_rule_by_blocks)
        for name, hs in grids.items():
            want = mise_profile(dist, kernel, hs)
            for x, y in zip(profiles[name], want, strict=True):
                assert x.tobytes() == y.tobytes(), name


# The large-h grid of TestAgainstMpmath.  At jdlvp+normal, h = 4000,
# the whole IV sits under the kernel factor's e^{-(4000 t)^2} peak,
# which a first panel [0, 1] misses; the rule's panels are at most 1/h
# wide there.
_LARGE_H = [
    pytest.param(dist, kernel, h, id=f"{dist.name}+{kernel.name}-{h:g}")
    for dist, kernel in ALL_PAIRS for h in (50.0, 200.0, 1000.0, 4000.0)]

# The pairs with a Fourier route off the linear segment
_FOURIER_PAIRS = [(JDLVP, NORMAL_K), (JDLVP, TRAP), (JDLVP, SINC), (NORMAL1, TRAP)]


class TestAgainstMpmath:
    """mise() and mise_profile() against the 50-digit oracle."""

    @pytest.mark.parametrize("method", ["auto", "fourier"])
    @pytest.mark.parametrize("dist,kernel,h", _LARGE_H)
    def test_large_h_is_finite_and_covered(self, dist, kernel, h, method):
        # The exact routes report 8 eps of rounding; the fourier route
        # gets 8 eps on top of its quadrature bound.
        n = 1000
        r = mise(dist, kernel, h, n, method=method)
        assert math.isfinite(r.mise) and r.mise > 0.0
        truth = mise_mpmath(dist, kernel, h, n)
        gap = float(abs(truth - r.mise))
        bound = r.error_estimate + (8.0 * EPS * r.mise if r.method == "fourier" else 0.0)
        assert gap <= bound, (gap, r)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dist,kernel", _FOURIER_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_profile_within_its_bound(self, dist, kernel, scale):
        # the profile decides the bandwidth scan; A/n + B must lie within
        # err of the 50-digit value from h = 1e-5 to 300 (QUADPACK misses
        # by 6e-6 relative at h = 1e-5 on jdlvp+normal)
        dist = rescale(dist, scale)
        hs = scale * np.array([1e-5, 1e-3, 0.3, 0.977, 5.0, 300.0])
        a, b, err = mise_profile(dist, kernel, hs)
        for i, h in enumerate(hs):
            for n in (1, 10**6):
                gap = float(abs(mise_mpmath(dist, kernel, float(h), n) - (a[i] / n + b[i])))
                assert gap <= err[i], (h, n, gap, err[i])

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dist,kernel", _FOURIER_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_mise_within_its_error_estimate(self, dist, kernel, scale):
        # error_estimate is honest: the 50-digit value lies within it
        # from h = 1e-5 (where QUADPACK's estimate was 3e5 times too low
        # on jdlvp+normal) to 4000.  The exact routes (the linear segment
        # under auto) report 8 eps.
        dist = rescale(dist, scale)
        for h in (scale * np.array([1e-5, 1e-3, 0.3, 0.977, 5.0, 300.0, 4000.0])).tolist():
            for n in (1, 10**6):
                truth = mise_mpmath(dist, kernel, h, n)
                for method in ("auto", "fourier"):
                    r = mise(dist, kernel, h, n, method=method)
                    bound = r.error_estimate
                    gap = float(abs(truth - r.mise))
                    assert gap <= bound, (h, n, method, gap, r)


class TestScaleCovariance:
    # MISE_{f_a}(a h, n) = a MISE_f(h, n) for the rescaled target
    # f_a(x) = f(x/a)/a: h = 0, the linear segment of the jdlvp
    # superkernels (0.3), the normal closed forms and the Fourier region
    # out to h = 50.
    HS = (0.0, 0.3, 0.8, 2.5, 50.0)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("method", ["auto", "fourier"])
    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_mise_scales_with_the_target(self, dist, kernel, method, a):
        scaled = rescale(dist, a)
        for h in self.HS:
            for n in (1, 1000):
                base = mise(dist, kernel, h, n, method=method)
                got = mise(scaled, kernel, a * h, n, method=method)
                assert got.method == base.method
                # the exact routes to rounding, the quadrature within the
                # two reports' own error estimates
                gap = abs(got.mise - a * base.mise)
                if base.method == "fourier" and h > 0.0:
                    assert gap <= got.error_estimate + a * base.error_estimate, (h, n)
                else:
                    assert gap <= 1e-12 * got.mise, (h, n)

    @pytest.mark.parametrize("a", [1e-60, 1e60])
    @pytest.mark.parametrize("method", ["auto", "fourier"])
    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_holds_at_the_scale_range_ends(self, dist, kernel, method, a):
        # targets take scales in [1e-60, 1e60]; at both ends every route
        # is covariant to rounding (1.1e-15 at worst) for h/a from 1e-8
        # to 1e8, where far outside h^4 underflows and t^2 overflows
        scaled = rescale(dist, a)
        for h in np.geomspace(1e-8, 1e8, 9).tolist():
            for n in (1, 1000):
                base = mise(dist, kernel, h, n, method=method).mise
                got = mise(scaled, kernel, a * h, n, method=method).mise
                assert got == pytest.approx(a * base, rel=1e-14, abs=0.0), (h, n)


class TestValidationAndErrors:
    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            mise(JDLVP, TRAP, -0.1, 10)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            mise(JDLVP, TRAP, 0.1, 0)

    def test_method_override_is_fourier_or_auto(self):
        for bad in ("nope", "linear_segment", "monte_carlo"):
            for h in (0.0, 0.1):
                with pytest.raises(ValueError):
                    mise(JDLVP, TRAP, h, 10, method=bad)

    def test_report_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            MiseReport(h=0.1, n=10, iv=0.0, isb=0.0, mise=0.0, method="bogus")

    @pytest.mark.parametrize("call, name", [
        (lambda: psi_k(NORMAL_K), r"psi_k\(normal\)"),
        (lambda: psi_f_fourier(JDLVP), r"psi_f\(jdlvp\)"),
    ])
    def test_non_converged_quadrature_raises(self, call, name, monkeypatch):
        failed = QuadratureResult(1.0, 1.0, MAX_SUBDIVISIONS, False)
        monkeypatch.setattr(importlib.import_module("cdf_mise.numerics"), "integrate",
                            lambda *args, **kwargs: failed)
        with pytest.raises(RuntimeError, match=f"{name} quadrature failed to converge"):
            call()

    def test_mise_makes_no_quadpack_call(self, monkeypatch):
        # every value of mise() is the same bits with integrate refusing
        # every call in every module that binds it, and QUADPACK too
        hs = (0.0, 3.7276e-5, 0.3, 0.7, 2.5, 50.0, 4000.0)
        want = [mise(dist, kernel, h, 10, method=method) for dist, kernel in ALL_PAIRS
                for h in hs for method in ("auto", "fourier")]

        def refuse(*args, **kwargs):
            raise RuntimeError("integrate called")

        modules = [m for m in map(importlib.import_module, PACKAGE_MODULES)
                   if hasattr(m, "integrate")]
        assert {m.__name__ for m in modules} == {"cdf_mise.numerics"}
        for module in modules:
            monkeypatch.setattr(module, "integrate", refuse)
        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        for module in modules:
            with pytest.raises(RuntimeError, match="integrate called"):
                module.integrate(lambda t: 1.0, 0.0, 1.0)
        got = [mise(dist, kernel, h, 10, method=method) for dist, kernel in ALL_PAIRS
               for h in hs for method in ("auto", "fourier")]
        assert [repr(r) for r in got] == [repr(r) for r in want]

    def test_segments_held_to_their_own_tolerance(self):
        # QUADPACK converges on both ISB segments here (estimates 6.3e-17
        # and 9.9997e-13), but their sum exceeds ABS_TOL = 1e-12; the
        # fixed rule has no such edge
        h = 0.6269760855485063
        assert quadpack_terms(NORMAL1, TRAP, h) is not None
        r = mise(NORMAL1, TRAP, h, 16015)
        assert r.method == "fourier" and r.mise > 0.0

    def test_fourier_integrands_never_see_t_zero(self, monkeypatch):
        # Neither QUADPACK nor the fixed rule evaluates an endpoint, so no
        # integrand needs a value at its removable singularity t = 0
        seen = []
        for name in ("oracles", "cdf_mise.numerics"):
            module = importlib.import_module(name)

            def recording(f, *args, _integrate=module.integrate, **kwargs):
                def spy(t):
                    seen.append(t)
                    return f(t)
                return _integrate(spy, *args, **kwargs)

            monkeypatch.setattr(module, "integrate", recording)
        for kernel in (NORMAL_K, TRAP, SINC):
            psi_k(kernel)
        for dist in (JDLVP, NORMAL1):
            psi_f_fourier(dist)
        hs = (3.7276e-5, 3.995e-5, 0.1, 0.7, 2.5)
        for dist, kernel in ALL_PAIRS:
            for h in hs:
                quadpack_terms(dist, kernel, h)
        assert len(seen) > 1000
        assert 0.0 not in seen
        # the fixed rule, through the target factor of both displays; it
        # takes both displays' nodes in one call a run, so count nodes
        nodes = []
        for dist, kernel in ALL_PAIRS:
            def cf(t, _cf=dist.cf):
                nodes.append((np.size(t), np.min(np.abs(t))))
                return _cf(t)

            spied = dataclasses.replace(dist, cf=cf)
            mise_profile(spied, kernel, hs)
            for h in hs:
                mise(spied, kernel, h, 10, method="fourier")
        assert sum(size for size, _ in nodes) > 4000
        assert min(low for _, low in nodes) > 0.0


class TestBandwidthRange:
    # MISE is finite on h = 0 and on [1e-300, 1e75], and outside that
    # range every MISE function raises a ValueError naming it: never nan,
    # inf or OverflowError.  At the top MISE/h is the kernel's large-h
    # slope (1/pi) int_0^inf u^-2 (1 - phi_k(u))^2 du, the MISE of the
    # estimator K(x/h) of a point mass, whatever the target and n.
    SLOPES = {
        "normal": (2.0 - math.sqrt(2.0)) / math.sqrt(2.0 * math.pi),
        "trapezoidal": (2.0 - 2.0 * math.log(2.0)) / math.pi,
        "sinc": 1.0 / math.pi,
    }

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_finite_or_out_of_range(self, dist, kernel):
        for h in (1e-300, 1e75):
            a, b, err = mise_profile(dist, kernel, [h])
            assert np.isfinite([a[0], b[0], err[0]]).all() and a[0] + b[0] > 0.0
            for method in ("auto", "fourier"):
                for n in (1, 10**6):
                    r = mise(dist, kernel, h, n, method=method)
                    assert math.isfinite(r.mise) and math.isfinite(r.error_estimate)
                    if h < 1.0:
                        assert r.mise == pytest.approx(dist.psi_f / n, rel=1e-9, abs=0.0)
                    else:
                        assert r.mise / h == pytest.approx(self.SLOPES[kernel.name],
                                                           rel=1e-12, abs=0.0)
        for h in (1e80, 1e300, 1e-301, 5e-324, math.inf, math.nan):
            for method in ("auto", "fourier"):
                with pytest.raises(ValueError, match=r"\[1e-300, 1e\+75\]"):
                    mise(dist, kernel, h, 10, method=method)
            with pytest.raises(ValueError, match=r"\[1e-300, 1e\+75\]"):
                mise_profile(dist, kernel, [1.0, h])


class TestSpaceOracles:
    def test_isb_zero_bandwidth(self):
        assert isb_space_oracle(NORMAL1, NORMAL_K, 0.0) == 0.0

    def test_iv_zero_bandwidth(self):
        val = iv_space_oracle(JDLVP, TRAP, 0.0, 7)
        assert val == pytest.approx(JDLVP.psi_f / 7.0, abs=1e-3 * JDLVP.psi_f)

    def test_isb_agrees_normal_normal(self):
        a = isb_space_oracle(NORMAL1, NORMAL_K, 0.5)
        assert a == pytest.approx(mise(NORMAL1, NORMAL_K, 0.5, 1, method="fourier").isb,
                                  abs=1e-4)

    def test_iv_agrees_normal_normal(self):
        a = iv_space_oracle(NORMAL1, NORMAL_K, 0.5, 10)
        assert a == pytest.approx(mise(NORMAL1, NORMAL_K, 0.5, 10, method="fourier").iv,
                                  abs=1e-3)

    @pytest.mark.slow
    def test_isb_vanishing_segment(self):
        assert isb_space_oracle(JDLVP, TRAP, 0.25) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.slow
    def test_iv_linear_segment(self):
        val = iv_space_oracle(JDLVP, TRAP, 0.2, 10)
        assert val == pytest.approx(
            (JDLVP.psi_f - psi_k(TRAP) * 0.2) / 10.0, abs=1e-3
        )

    def test_sinc_rejected(self):
        with pytest.raises(ValueError):
            isb_space_oracle(JDLVP, SINC, 0.3)
        with pytest.raises(ValueError):
            iv_space_oracle(JDLVP, SINC, 0.3, 10)
