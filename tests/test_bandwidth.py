"""Tests for optimal-bandwidth search, limits, critical points, efficiency."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import logging
import math
import re
import warnings

import numpy as np
import pytest

from cdf_mise.bandwidth import (
    SearchConfig,
    asymptotic_relative_efficiency,
    bandwidth_sandwich_check,
    default_search,
    efficiency_curve,
    limit_bandwidth,
    optimal_bandwidth,
    optimal_bandwidths,
    relative_efficiency,
    sinc_critical_bandwidths,
)
import cdf_mise.mise as MISE_MODULE
from cdf_mise import bandwidth as bw
from cdf_mise.cli import _SWEEP_N as FIGURE_NS
from cdf_mise.distributions import make_jdlvp, make_normal, rescale
from cdf_mise.kernels import kernel_by_name, psi_k
from cdf_mise.mise import mise, mise_profile

from oracles import jdlvp_sinc_critical_points, mise_mpmath, quadpack_terms

JDLVP = make_jdlvp()
NORMAL1 = make_normal(1.0)
NORMAL_K = kernel_by_name("normal")
TRAP = kernel_by_name("trapezoidal")
SINC = kernel_by_name("sinc")

ALL_PAIRS = [
    (JDLVP, TRAP),
    (JDLVP, SINC),
    (NORMAL1, NORMAL_K),
    (NORMAL1, SINC),
]

SIX_PAIRS = [(dist, kernel) for dist in (JDLVP, NORMAL1)
             for kernel in (NORMAL_K, TRAP, SINC)]
SWEEP_NS = (1, 10, 1000, 10**5, 10**7)
FOURIER_PAIRS = [(JDLVP, NORMAL_K), (JDLVP, TRAP), (JDLVP, SINC), (NORMAL1, TRAP)]
# the package's one module that binds the QUADPACK wrapper integrate
QUADPACK_MODULES = [importlib.import_module("cdf_mise.numerics")]


def narrow_window(monkeypatch, h_max):
    # every search reads default_search when it runs, so this narrows the
    # window of every public search
    monkeypatch.setattr(bw, "default_search", lambda dist: SearchConfig(h_max=h_max))


class TestSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h_max": 0.0},
            {"h_max": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_default_search_windows(self):
        assert default_search(make_normal(0.5)).h_max == 2.0
        assert default_search(make_normal(2.0)).h_max == 8.0
        assert default_search(JDLVP).h_max == 8.0
        assert default_search(rescale(JDLVP, 2.0)).h_max == 16.0

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dist,kernel", SIX_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_window_holds_every_optimum(self, dist, kernel, scale):
        # the optima fall with n, so n = 1 has the largest; every search,
        # from n = 1 to 10^12, ends inside the lower half of the window
        dist = rescale(dist, scale)
        h_max = default_search(dist).h_max
        for r in optimal_bandwidths(dist, kernel, (1, 2, 10, 10**6, 10**12)):
            assert r.boundary_flag == "interior", r
            assert r.h_opt <= h_max / 2.0, r

    @pytest.mark.parametrize("search", [
        lambda: optimal_bandwidth(JDLVP, TRAP, 100),
        lambda: optimal_bandwidths(JDLVP, TRAP, [100]),
        lambda: relative_efficiency(JDLVP, TRAP, 100),
        lambda: efficiency_curve(JDLVP, TRAP, [100]),
        lambda: bandwidth_sandwich_check(JDLVP, TRAP, [100]),
    ], ids=["optimal_bandwidth", "optimal_bandwidths", "relative_efficiency",
            "efficiency_curve", "bandwidth_sandwich_check"])
    def test_bound_warning_points_at_the_caller(self, search, monkeypatch):
        # from every public search the warning names the caller's file,
        # not bandwidth.py
        narrow_window(monkeypatch, 0.3)
        with pytest.warns(UserWarning, match="search bound") as record:
            search()
        hits = [w for w in record if "search bound" in str(w.message)]
        assert [w.filename for w in hits] == [__file__]


class TestOptimalBandwidth:
    def test_normal_sinc_has_analytic_optimum(self):
        # the stationary-point equation e^{-1/h^2} = 1/(n+1) inverts exactly
        r = optimal_bandwidth(NORMAL1, SINC, 100)
        expected = 1.0 / math.sqrt(math.log(101.0))
        assert r.h_opt == pytest.approx(expected, abs=r.refined_tolerance + 1e-9)
        assert r.boundary_flag == "interior"

    def test_optimum_coincides_with_critical_point(self):
        r = optimal_bandwidth(NORMAL1, SINC, 100)
        roots = sinc_critical_bandwidths(NORMAL1, 100, (0.05, 4.0))
        assert len(roots) == 1
        assert r.h_opt == pytest.approx(roots[0], abs=r.refined_tolerance + 1e-9)

    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_result_invariants(self, dist, kernel):
        r = optimal_bandwidth(dist, kernel, 100)
        lo, hi = r.bracket
        assert lo <= r.h_opt <= hi
        # the bracket ends on the engine the search ran on, the profile;
        # mise() runs the same rule on one cell, up to the last bits
        a, b, _ = mise_profile(dist, kernel, [lo, hi])
        assert r.mise_at_opt <= a[0] / 100 + b[0]
        assert r.mise_at_opt <= a[1] / 100 + b[1]
        assert r.mise_at_opt == pytest.approx(
            mise(dist, kernel, r.h_opt, 100).mise, rel=1e-12, abs=0.0
        )
        assert r.boundary_flag in ("interior", "at_zero", "at_upper_bracket")
        assert r.grid_points_scanned >= 513  # grid plus the h=0 candidate

    @pytest.mark.parametrize("dist,kernel", [(NORMAL1, SINC), (JDLVP, SINC)],
                             ids=["normal+sinc", "jdlvp+sinc"])
    def test_global_minimum_audit(self, dist, kernel):
        n = 100
        r = optimal_bandwidth(dist, kernel, n)
        for h in np.linspace(0.0, 4.0, 513):
            assert r.mise_at_opt <= mise(dist, kernel, float(h), n).mise + 1e-15

    def test_normal_pair_bandwidth_decreases_to_zero(self):
        hs = [optimal_bandwidth(NORMAL1, NORMAL_K, n).h_opt
              for n in (10**2, 10**3, 10**4, 10**5)]
        assert all(b < a for a, b in zip(hs, hs[1:]))
        assert hs[-1] < 0.1

    @pytest.mark.parametrize("kernel", [TRAP, SINC], ids=lambda k: k.name)
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_strict_gain_over_empirical(self, kernel, n):
        r = optimal_bandwidth(JDLVP, kernel, n)
        assert r.mise_at_opt < JDLVP.psi_f / n

    def test_boundary_hit_is_flagged_and_warned(self, monkeypatch):
        narrow_window(monkeypatch, 0.3)
        with pytest.warns(UserWarning, match="search bound") as record:
            r = optimal_bandwidth(JDLVP, TRAP, 100)
        assert r.boundary_flag == "at_upper_bracket"
        # the warning points at the caller's line, not into bandwidth.py
        hits = [w for w in record if "search bound" in str(w.message)]
        assert [w.filename for w in hits] == [__file__]
        assert r.h_opt == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.slow
    def test_small_window_reaches_tiny_bandwidths(self, monkeypatch):
        # the log grid under h_max = 0.2 reaches h = 2e-5, which the
        # fixed-rule profile covers without QUADPACK
        narrow_window(monkeypatch, 0.2)
        with pytest.warns(UserWarning, match="search bound"):
            r = optimal_bandwidth(JDLVP, NORMAL_K, 10)
        assert r.h_opt == pytest.approx(0.2, abs=1e-12)
        assert r.mise_at_opt < JDLVP.psi_f / 10

    def test_jdlvp_trapezoidal_lower_bound(self):
        # the optimum never drops below the unbiasedness threshold 1/2
        for n in (10, 10**3, 10**6):
            r = optimal_bandwidth(JDLVP, TRAP, n)
            assert r.h_opt >= 0.5 - r.refined_tolerance

    @pytest.mark.xfail(
        strict=True,
        reason="documented window [0.5, 0.6] is not reached at n = 10^6: the "
        "squared bias turns on with ninth-order contact at h = 1/2, so the "
        "optimum approaches the limit only at an n^(-1/8) rate; measured "
        "h_opt(10^6) = 0.6318",
    )
    def test_jdlvp_trapezoidal_documented_window(self):
        r = optimal_bandwidth(JDLVP, TRAP, 10**6)
        assert 0.5 <= r.h_opt <= 0.6


class TestLimitBandwidth:
    def test_catalog_values(self):
        assert limit_bandwidth(JDLVP, SINC) == 0.5
        assert limit_bandwidth(JDLVP, TRAP) == 0.5
        assert limit_bandwidth(NORMAL1, NORMAL_K) == 0.0
        assert limit_bandwidth(NORMAL1, TRAP) == 0.0
        assert limit_bandwidth(JDLVP, NORMAL_K) == 0.0

    def test_rescaling_moves_the_limit(self):
        assert limit_bandwidth(rescale(JDLVP, 2.0), TRAP) == 1.0
        assert limit_bandwidth(rescale(JDLVP, 0.5), SINC) == 0.25

    def test_rejects_unequal_flat_top(self):
        lopsided = dataclasses.replace(TRAP, s_k=0.5)
        with pytest.raises(ValueError):
            limit_bandwidth(JDLVP, lopsided)

    def test_rejects_unequal_support_constants(self):
        gapped = dataclasses.replace(JDLVP, c_f=1.0)
        with pytest.raises(ValueError):
            limit_bandwidth(gapped, TRAP)


class TestSincCriticalBandwidths:
    def test_normal_single_root(self):
        roots = sinc_critical_bandwidths(NORMAL1, 100, (0.05, 4.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.0 / math.sqrt(math.log(101.0)), abs=1e-9)

    @pytest.mark.parametrize("n", [5, 15, 16, 100, 1000])
    def test_jdlvp_roots_match_polynomial_solve(self, n):
        roots = sinc_critical_bandwidths(JDLVP, n, (0.1, 20.0))
        expected = jdlvp_sinc_critical_points(n)
        assert len(roots) == len(expected)
        for got, want in zip(roots, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_jdlvp_search_lands_on_a_root(self):
        # a third route to the sinc optimum: every jdlvp optimum of the
        # sweep is a stationary point |phi_f(1/h)|^2 = 1/(n+1)
        for res in optimal_bandwidths(JDLVP, SINC, SWEEP_NS):
            roots = sinc_critical_bandwidths(JDLVP, res.n, (8e-4, 8.0))
            gap = min(abs(res.h_opt - root) for root in roots)
            assert gap <= res.refined_tolerance + 1e-9, (res.n, gap)

    def test_normal_search_lands_on_the_closed_root(self):
        # for N(0, 1) the stationary point is 1/sqrt(ln(n + 1))
        for res in optimal_bandwidths(NORMAL1, SINC, SWEEP_NS):
            gap = abs(res.h_opt - 1.0 / math.sqrt(math.log(res.n + 1.0)))
            assert gap <= res.refined_tolerance + 1e-9, (res.n, gap)

    @pytest.mark.parametrize(
        "dist,n", [(NORMAL1, 100), (JDLVP, 100), (JDLVP, 12)],
        ids=["normal", "jdlvp", "jdlvp-small-n"],
    )
    def test_derivative_vanishes_at_roots(self, dist, n):
        delta = 1e-5
        for h in sinc_critical_bandwidths(dist, n, (0.1, 20.0)):
            up = mise(dist, SINC, h + delta, n, method="fourier").mise
            down = mise(dist, SINC, h - delta, n, method="fourier").mise
            value = mise(dist, SINC, h, n, method="fourier").mise
            assert abs(up - down) / (2.0 * delta) <= 1e-6 * value

    def test_bracket_filters_roots(self):
        assert sinc_critical_bandwidths(JDLVP, 100, (0.05, 0.6)) == []

    def test_roots_sorted(self):
        roots = sinc_critical_bandwidths(JDLVP, 5, (0.1, 20.0))
        assert roots == sorted(roots)


class TestRelativeEfficiency:
    @pytest.mark.parametrize("dist,kernel", ALL_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_bounded_by_one(self, dist, kernel):
        val = relative_efficiency(dist, kernel, 100)
        assert 0.0 < val <= 1.0

    def test_superkernel_crossover(self):
        # the trapezoidal kernel wins at small n, the sinc kernel at large n
        for n in (10, 100, 1000):
            assert relative_efficiency(JDLVP, TRAP, n) < relative_efficiency(
                JDLVP, SINC, n
            )
        assert relative_efficiency(JDLVP, SINC, 10**6) < relative_efficiency(
            JDLVP, TRAP, 10**6
        )

    def test_normal_pair_approaches_one(self):
        assert relative_efficiency(NORMAL1, NORMAL_K, 10**6) == pytest.approx(
            1.0, abs=0.02
        )

    def test_matches_mise_ratio(self):
        n = 200
        r = optimal_bandwidth(JDLVP, SINC, n)
        assert relative_efficiency(JDLVP, SINC, n) == pytest.approx(
            r.mise_at_opt / (JDLVP.psi_f / n), rel=1e-12, abs=0.0
        )


class TestAsymptoticRelativeEfficiency:
    def test_jdlvp_values(self):
        assert asymptotic_relative_efficiency(JDLVP, TRAP) == pytest.approx(
            0.86874, abs=1e-4
        )
        assert asymptotic_relative_efficiency(JDLVP, SINC) == pytest.approx(
            0.83010, abs=1e-4
        )

    def test_formula(self):
        for kernel in (TRAP, SINC):
            assert asymptotic_relative_efficiency(JDLVP, kernel) == pytest.approx(
                1.0 - psi_k(kernel) * kernel.s_k / (JDLVP.psi_f * JDLVP.d_f),
                rel=1e-12, abs=0.0,
            )

    def test_degenerate_cases_return_one(self):
        assert asymptotic_relative_efficiency(NORMAL1, NORMAL_K) == 1.0
        assert asymptotic_relative_efficiency(NORMAL1, TRAP) == 1.0
        assert asymptotic_relative_efficiency(JDLVP, NORMAL_K) == 1.0

    def test_scale_invariance(self):
        # rescaling moves s_k/d_f and psi_f together, leaving the ratio fixed
        assert asymptotic_relative_efficiency(
            rescale(JDLVP, 2.0), TRAP
        ) == pytest.approx(asymptotic_relative_efficiency(JDLVP, TRAP), rel=1e-12, abs=0.0)


class TestEfficiencyCurve:
    def test_fields_consistent(self):
        ns = [100, 1000, 10**4]
        cur = efficiency_curve(JDLVP, SINC, ns)
        assert list(cur.n_values) == ns
        assert len(cur.h_opt) == len(ns) == len(cur.rel_eff)
        assert all(0.0 < e <= 1.0 for e in cur.rel_eff)
        assert cur.asymptote == asymptotic_relative_efficiency(JDLVP, SINC)

    def test_matches_single_calls(self):
        cur = efficiency_curve(JDLVP, SINC, [100, 1000])
        assert cur.h_opt[0] == pytest.approx(
            optimal_bandwidth(JDLVP, SINC, 100).h_opt, abs=1e-12
        )
        assert cur.rel_eff[1] == pytest.approx(
            relative_efficiency(JDLVP, SINC, 1000), rel=1e-12, abs=0.0
        )


class TestSharedScan:
    # optimal_bandwidths scans the grid once and reuses its n-free terms
    # for every n; each result must equal a single-n search exactly.
    @pytest.mark.parametrize("dist,kernel", SIX_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_matches_per_n_searches(self, dist, kernel):
        single = [optimal_bandwidth(dist, kernel, n) for n in SWEEP_NS]
        swept = optimal_bandwidths(dist, kernel, SWEEP_NS)
        assert len(swept) == len(single)
        for got, want in zip(swept, single):
            for field in dataclasses.fields(want):
                assert getattr(got, field.name) == getattr(want, field.name), field.name
        # the sweeps built on it give the per-n values too
        cur = efficiency_curve(dist, kernel, SWEEP_NS)
        assert cur.h_opt == tuple(r.h_opt for r in single)
        assert cur.rel_eff == tuple(r.mise_at_opt / (dist.psi_f / r.n) for r in single)
        assert bandwidth_sandwich_check(dist, kernel, SWEEP_NS).h_opt == cur.h_opt

    def test_empty_and_bad_sample_sizes(self):
        assert optimal_bandwidths(JDLVP, TRAP, []) == ()
        for bad in ([0], [10, -1], [2.5], [math.nan], [math.inf]):
            with pytest.raises(ValueError):
                optimal_bandwidths(JDLVP, TRAP, bad)

    def test_fractional_sample_sizes_are_refused(self):
        # a search truncating 2.5 to 2 while the efficiency divides psi_f
        # by 2.5 would report 0.658, where the n = 2 efficiency is 0.526
        for call in (lambda: relative_efficiency(JDLVP, TRAP, 2.5),
                     lambda: efficiency_curve(JDLVP, TRAP, [10.7]),
                     lambda: bandwidth_sandwich_check(JDLVP, TRAP, [2.5, 10]),
                     lambda: sinc_critical_bandwidths(JDLVP, 2.5, (0.1, 20.0)),
                     # nor is a bool a sample size
                     lambda: optimal_bandwidth(JDLVP, TRAP, True),
                     lambda: efficiency_curve(JDLVP, TRAP, [10, np.True_]),
                     # nor a whole number no float holds, which overflowed
                     lambda: optimal_bandwidth(JDLVP, TRAP, 10**400),
                     # nor a string, None, a list or a complex number
                     *(lambda n=n: optimal_bandwidth(JDLVP, TRAP, n)
                       for n in ("10", None, [3], 1 + 0j))):
            with pytest.raises(ValueError, match="sample size n must be a whole number >= 1"):
                call()

    def test_whole_float_and_numpy_sample_sizes_keep_their_bits(self):
        got = efficiency_curve(JDLVP, TRAP, [10.0, np.int64(20)])
        want = efficiency_curve(JDLVP, TRAP, [10, 20])
        assert got.n_values == (10, 20)
        assert [type(n) for n in got.n_values] == [int, int]
        assert got.rel_eff == want.rel_eff and got.h_opt == want.h_opt

    def test_boundary_warning_once_per_n_at_the_bound(self, monkeypatch):
        # with h_max = 0.3 the normal+normal optimum sits at the bound for
        # small n only; each such n warns once, as a single search would
        narrow_window(monkeypatch, 0.3)
        ns = (10, 30, 10**5)
        with pytest.warns(UserWarning) as swept:
            results = optimal_bandwidths(NORMAL1, NORMAL_K, ns)
        flags = [r.boundary_flag for r in results]
        assert flags == ["at_upper_bracket", "at_upper_bracket", "interior"]
        single = []
        for n in ns:
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                optimal_bandwidth(NORMAL1, NORMAL_K, n)
            single.extend(str(w.message) for w in rec)
        assert [str(w.message) for w in swept] == single
        assert len(single) == 2
        assert all("search bound" in m for m in single)

    def test_trapezoidal_convergence_rate(self):
        # Pins the slow approach behind the strict xfails on the
        # jdlvp+trapezoidal window: h_opt - 1/2 shrinks by a factor of
        # about 2.5 per 10^3 in n, consistent with an n^(-1/8) rate.
        cur = efficiency_curve(JDLVP, TRAP, [10**6, 10**9, 10**12])
        for got, want in zip(cur.h_opt, (0.6318, 0.5499, 0.5201)):
            assert abs(got - want) <= 1e-3
        gaps = [h - 0.5 for h in cur.h_opt]
        for ratio in (gaps[0] / gaps[1], gaps[1] / gaps[2]):
            assert 2.2 <= ratio <= 3.0


@functools.lru_cache(maxsize=None)
def _quadpack_grid(family: str, scale: float, kernel_name: str):
    # A pair's search grid with the terms of every cell: QUADPACK's
    # (pi A, pi B, a_err, b_err), or None where mise() takes an exact
    # route or QUADPACK misses its tolerance.
    dist = rescale(JDLVP if family == "jdlvp" else NORMAL1, scale)
    kernel = kernel_by_name(kernel_name)
    grid = bw._search_grid(default_search(dist).h_max)
    terms = tuple(None if MISE_MODULE._on_linear_segment(dist, kernel, h)
                  or MISE_MODULE._closed_form(dist, kernel)
                  else quadpack_terms(dist, kernel, h) for h in grid.tolist())
    return dist, kernel, grid, terms


def _cell(dist, kernel, h: float, quad, n: int) -> tuple[float, float, float]:
    # (iv, isb, mise) of a cell of _quadpack_grid: QUADPACK's, or where
    # it has none, those of mise()
    if quad is None:
        r = mise(dist, kernel, h, n)
        return r.iv, r.isb, r.mise
    iv, isb = quad[0] / (math.pi * n), quad[1] / math.pi
    return iv, isb, iv + isb


def _chain_scan(values) -> int:
    # The sequential scan rule in grid order: a strictly smaller value
    # wins; values within 1e-14 relative are ties, won by the smaller h.
    best = 0
    for i in range(1, len(values)):
        v_new, v_old = values[i], values[best]
        tie = 1e-14 * max(abs(v_new), abs(v_old), 1e-300)
        if v_new < v_old - tie:
            best = i
    return best


def _full_scan(dist, kernel, grid, terms, n):
    # The oracle: the sequential rule over the QUADPACK values of every
    # grid cell, the scan the search ran before it had the profile.
    values = [_cell(dist, kernel, h, t, n)[2] for h, t in zip(grid.tolist(), terms)]
    best = _chain_scan(values)
    return best, values[best]


class TestScanRule:
    # _scan takes, along the last axis, the first point within 1e-14
    # relative of the minimum.
    @pytest.mark.parametrize("values,want", [
        ([3.0, 2.0, 1.0, 2.0], 2),
        ([1.0, 1.0, 1.0], 0),                     # exact ties: the smallest h
        ([2.0, 1.0 + 5e-15, 1.0, 3.0], 1),        # a near-tie before the minimum
        ([2.0, 1.0, 1.0 - 5e-15, 3.0], 1),        # the minimum after a near-tie
        ([2.0, 1.0 + 2e-14, 1.0, 3.0], 2),        # no tie at 2e-14
    ])
    def test_planted_ties(self, values, want):
        assert bw._scan(np.array(values)) == want
        assert _chain_scan(values) == want

    def test_descending_near_ties(self):
        # the one case where the rule and the chain part: the chain keeps
        # 1 + 1.5e-14 against its near-tied neighbour, then loses it to 1.0;
        # the rule takes the first point within 1e-14 of 1.0.  The lowest
        # two cells of every catalog grid are at least 1.55e-8 relative
        # apart, so no grid has such a run.
        values = [1.0 + 1.5e-14, 1.0 + 0.8e-14, 1.0]
        assert (bw._scan(np.array(values)), _chain_scan(values)) == (1, 2)

    def test_rows_match_the_sequential_chain(self):
        # values on a coarse lattice tie exactly and often, never nearly
        rng = np.random.default_rng(5)
        values = 1.0 + rng.integers(0, 6, size=(200, 40)) * 0.25
        assert bw._scan(values).tolist() == [_chain_scan(row) for row in values]
        assert bw._scan(values[7]) == _chain_scan(values[7])


class TestScanProfile:
    # The scan picks its grid cell from the fixed-rule profile alone; the
    # cell must be that of a QUADPACK scan of the whole grid.
    ORACLE_NS = SWEEP_NS + (10**9, 10**12)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("family,kernel_name",
                             [(d.family, k.name) for d, k in SIX_PAIRS],
                             ids=[f"{d.family}+{k.name}" for d, k in SIX_PAIRS])
    def test_chosen_cell_is_the_full_scan_cell(self, family, kernel_name, scale):
        dist, kernel, grid, terms = _quadpack_grid(family, scale, kernel_name)
        a, b, _ = mise_profile(dist, kernel, grid)
        for n in self.ORACLE_NS:
            best = int(bw._scan(a / n + b))
            value = mise(dist, kernel, float(grid[best]), n).mise
            want_best, want = _full_scan(dist, kernel, grid, terms, n)
            assert best == want_best, n
            assert abs(value - want) <= 1e-10 * want, n

    @pytest.mark.parametrize("dist,kernel", FOURIER_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_profile_agrees_with_quadpack_on_every_cell(self, dist, kernel):
        _, _, grid, terms = _quadpack_grid(dist.family, 1.0, kernel.name)
        a, b, err = mise_profile(dist, kernel, grid)
        for i, (h, t) in enumerate(zip(grid.tolist(), terms)):
            iv, isb, _ = _cell(dist, kernel, h, t, 1)
            assert abs(a[i] - iv) + abs(b[i] - isb) <= err[i], h
            for n in self.ORACLE_NS:
                want = _cell(dist, kernel, h, t, n)[2]
                assert abs(a[i] / n + b[i] - want) <= 1e-10 * want, (grid[i], n)

    @staticmethod
    def _count_quadratures(monkeypatch) -> list:
        # every QUADPACK call the package makes, in each module binding it
        calls = []
        for module in QUADPACK_MODULES:
            def counting(f, *args, _integrate=module.integrate, **kwargs):
                calls.append(f)
                return _integrate(f, *args, **kwargs)

            monkeypatch.setattr(module, "integrate", counting)
        return calls

    def test_single_search_quadrature_count(self, monkeypatch):
        # a QUADPACK scan of the whole grid made 535 (512 of them the
        # scan), golden section on QUADPACK 24-27; the profile zoom none
        calls = self._count_quadratures(monkeypatch)
        optimal_bandwidth(JDLVP, NORMAL_K, 1000)
        assert calls == []

    def test_sweep_quadrature_count(self, monkeypatch):
        # 287 and 1,076 with a QUADPACK scan of the whole grid
        calls = self._count_quadratures(monkeypatch)
        optimal_bandwidths(JDLVP, TRAP, SWEEP_NS)
        assert calls == []
        for kernel in (TRAP, SINC):  # the figure2 sweep
            optimal_bandwidths(JDLVP, kernel, FIGURE_NS)
        assert calls == []


class TestSearchOnProfile:
    # The whole search, scan and zoom, runs on the fixed-rule profile.
    def test_search_runs_without_quadpack(self, monkeypatch):
        # with integrate refusing every call, every search still
        # succeeds: the profile is the search's only engine
        def refuse(*args, **kwargs):
            raise RuntimeError("integrate called")

        for module in QUADPACK_MODULES:
            monkeypatch.setattr(module, "integrate", refuse)
            with pytest.raises(RuntimeError, match="integrate called"):
                module.integrate(lambda t: 1.0, 0.0, 1.0)
        for dist, kernel in SIX_PAIRS:
            results = optimal_bandwidths(dist, kernel, FIGURE_NS)
            assert [r.n for r in results] == list(FIGURE_NS)
            assert all(r.boundary_flag == "interior" for r in results)

    @pytest.mark.parametrize("dist,kernel", SIX_PAIRS,
                             ids=lambda o: getattr(o, "name", o))
    def test_optimum_against_mpmath(self, dist, kernel):
        # an engine the search does not use: the 50-digit MISE at h_opt is
        # mise_at_opt within the profile's bound, and no lower 1e-5 away
        for r in optimal_bandwidths(dist, kernel, (10, 10**3, 10**6)):
            _, _, err = mise_profile(dist, kernel, [r.h_opt])
            truth = mise_mpmath(dist, kernel, r.h_opt, r.n)
            assert float(abs(truth - r.mise_at_opt)) <= err[0], r
            for h in (r.h_opt - 1e-5, r.h_opt + 1e-5):
                assert mise_mpmath(dist, kernel, h, r.n) >= truth, (r, h)


class TestSearchTelemetry:
    RECORD = re.compile(r"search (\S+) n=(\d+): grid of (\d+) cells, "
                        r"(\d+) profile cells")

    @staticmethod
    def _records(caplog, search):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cdf_mise"):
            search()
        return [r for r in caplog.records if r.name == "cdf_mise.bandwidth"]

    def test_one_debug_record_per_search(self, caplog, monkeypatch):
        # each n's record counts the profile cells its search evaluated,
        # the shared grid plus its own zoom, as a single search would
        cells = []
        profile = bw.mise_profile

        def counting(dist, kernel, hs):
            cells.append(len(hs))
            return profile(dist, kernel, hs)

        monkeypatch.setattr(bw, "mise_profile", counting)
        ns = (10, 1000)
        records = self._records(caplog, lambda: optimal_bandwidths(JDLVP, TRAP, ns))
        assert [r.levelno for r in records] == [logging.DEBUG] * len(ns)
        for record, n in zip(records, ns):
            pair, got_n, grid, evaluated = self.RECORD.fullmatch(
                record.getMessage()).groups()
            assert (pair, int(got_n), int(grid)) == ("jdlvp+trapezoidal", n, 513)
            cells.clear()
            single = self._records(caplog, lambda: optimal_bandwidth(JDLVP, TRAP, n))
            assert [r.getMessage() for r in single] == [record.getMessage()]
            assert int(evaluated) == sum(cells) > 513

    def test_library_logger_is_silent_by_default(self):
        handlers = logging.getLogger("cdf_mise").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


class TestSandwichCheck:
    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", [TRAP, SINC], ids=lambda k: k.name)
    def test_jdlvp_superkernels_pass(self, kernel):
        ns = [10, 10**2, 10**3, 10**4, 10**5, 10**6]
        rep = bandwidth_sandwich_check(JDLVP, kernel, ns)
        assert rep.passed, rep.messages
        assert rep.lower == 0.5
        assert rep.upper == 0.5
        assert all(h >= 0.5 - 1e-5 for h in rep.h_opt)

    def test_normal_pair_trivially_passes(self):
        rep = bandwidth_sandwich_check(NORMAL1, NORMAL_K, [10, 100])
        assert rep.passed
        assert rep.lower == 0.0

    def test_short_sequence_fails_with_diagnostics(self):
        # far from the limit at n = 1000, the convergence clause must trip
        rep = bandwidth_sandwich_check(JDLVP, TRAP, [10, 100, 1000])
        assert not rep.passed
        assert any("n=1000" in m for m in rep.messages)
