"""Tests for CDF estimation on data and the Monte Carlo MISE oracle."""

from __future__ import annotations

import dataclasses
import importlib
import math
import multiprocessing.process
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate

from cdf_mise import estimator
from cdf_mise.distributions import make_jdlvp, make_normal, rescale
from cdf_mise.estimator import (
    MonteCarloMise,
    Sample,
    draw_sample,
    estimate_cdf,
    ise,
    monte_carlo_mise,
)
from cdf_mise.kernels import kernel_by_name, psi_k
from cdf_mise.mise import _H_RANGE, mise

from oracles import (
    cos_tail_over_x2,
    ise_energy_mpmath,
    ise_fourier_by_triples,
    ise_fourier_direct,
    ise_step_function_jdlvp,
    ise_step_function_normal,
    kernel_density,
    phi_erf,
)

JDLVP = make_jdlvp()
NORMAL1 = make_normal(1.0)
NORMAL_K = kernel_by_name("normal")
TRAP = kernel_by_name("trapezoidal")
SINC = kernel_by_name("sinc")
BAD_BANDWIDTHS = (-0.2, math.nan, math.inf)
H_RANGE = re.escape(_H_RANGE)


def ise_reference(sample, kernel, h, dist, pad, width):
    # independent route: composite 5-point Gauss-Legendre over a wide
    # uniform grid, plus adaptive tails for kernels with settling CDFs
    nodes, wts = np.polynomial.legendre.leggauss(5)
    lo = float(sample.values[0]) - pad
    hi = float(sample.values[-1]) + pad
    panels = int(math.ceil((hi - lo) / width))
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    diff = estimate_cdf(sample, kernel, h, xs) - dist.cdf(xs)
    core = float(np.sum(half * ((diff * diff).reshape(-1, 5) @ wts)))
    if not kernel.integrable:
        return core

    def sq_err(x):
        d = estimate_cdf(sample, kernel, h, x) - dist.cdf(x)
        return d * d

    left, _ = scipy.integrate.quad(sq_err, -np.inf, lo, limit=400)
    right, _ = scipy.integrate.quad(sq_err, hi, np.inf, limit=400)
    return core + left + right


class TestSampleType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample(values=np.array([]), seed=0, source="manual")

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Sample(values=np.array([2.0, 1.0]), seed=0, source="manual")

    @pytest.mark.parametrize("values", [[1.0, math.nan, 0.0], [0.0, math.nan, 1.0],
                                        [math.nan, 0.0], [0.0, math.nan]],
                             ids=["unsorted", "inner", "first", "last"])
    def test_rejects_nan_wherever_it_sits(self, values):
        # a nan compares false either way, so it used to hide an unsorted
        # array from the order check, and ise then returned nan
        with pytest.raises(ValueError, match="sorted ascending, with no nan"):
            Sample(values=np.array(values), seed=0, source="manual")

    @pytest.mark.parametrize("values", [[math.nan], [-math.inf, 0.0], [0.0, math.inf],
                                        [math.inf], [-math.inf, math.inf]],
                             ids=["lone-nan", "-inf", "inf", "lone-inf", "both"])
    def test_rejects_non_finite_ends(self, values):
        with pytest.raises(ValueError, match="values must be finite"):
            Sample(values=np.array(values), seed=0, source="manual")

    def test_takes_ties_and_the_float_extremes(self):
        big = np.finfo(float).max
        s = Sample(values=np.array([-big, 0.0, 0.0, big]), seed=0, source="manual")
        assert s.n == 4

    def test_draw_sample_is_sorted_and_deterministic(self):
        a = draw_sample(JDLVP, 40, 11)
        b = draw_sample(JDLVP, 40, 11)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.all(np.diff(a.values) >= 0.0)
        assert a.source == JDLVP.name
        assert a.seed == 11

    def test_draw_sample_refuses_a_fractional_size(self):
        for n in (2.5, "10", None, [3], 1 + 0j):
            with pytest.raises(ValueError, match="sample size n must be a whole number >= 1"):
                draw_sample(JDLVP, n, 1)

    def test_draw_sample_refuses_a_bad_seed_or_rep(self):
        # 1.5 and True were taken as seed 1, '7' as 7 and rep 2.7 as rep 2
        for seed, rep in ((1.5, None), (True, None), ("7", None), (-1, None),
                          (1, 2.7), (1, -1), (1, True), (math.nan, 0), ((1, 2), None)):
            with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
                draw_sample(JDLVP, 5, seed, rep=rep)

    def test_draw_sample_whole_seeds_keep_their_bits(self):
        want = draw_sample(JDLVP, 20, 7, rep=2)
        for seed, rep in ((7.0, 2), (np.int64(7), np.int64(2)), (7, 2.0)):
            got = draw_sample(JDLVP, 20, seed, rep=rep)
            np.testing.assert_array_equal(got.values, want.values)
            assert type(got.seed) is int and got.seed == 7

    def test_replication_streams_differ(self):
        base = draw_sample(JDLVP, 40, 11)
        rep0 = draw_sample(JDLVP, 40, 11, rep=0)
        rep1 = draw_sample(JDLVP, 40, 11, rep=1)
        assert not np.array_equal(rep0.values, rep1.values)
        assert not np.array_equal(base.values, rep1.values)
        np.testing.assert_array_equal(
            rep1.values, draw_sample(JDLVP, 40, 11, rep=1).values
        )


class TestEstimateCdf:
    def test_empirical_step_values(self):
        s = Sample(values=np.array([1.0, 2.0, 2.0, 5.0]), seed=0, source="manual")
        xs = [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 7.0]
        got = [estimate_cdf(s, NORMAL_K, 0.0, x) for x in xs]
        assert got == [0.0, 0.25, 0.25, 0.75, 0.75, 1.0, 1.0]

    @pytest.mark.parametrize("kernel", [NORMAL_K, TRAP, SINC], ids=lambda k: k.name)
    def test_single_point_centre_is_half(self, kernel):
        s = Sample(values=np.array([0.7]), seed=0, source="manual")
        assert estimate_cdf(s, kernel, 0.3, 0.7) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("h", BAD_BANDWIDTHS)
    def test_rejects_negative_bandwidth(self, h):
        s = Sample(values=np.array([0.0]), seed=0, source="manual")
        with pytest.raises(ValueError, match=H_RANGE):
            estimate_cdf(s, NORMAL_K, h, 0.0)

    @pytest.mark.parametrize("h", [0.0, 0.3])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.0, math.nan]],
                             ids=["nan", "inf", "-inf", "array-with-nan"])
    def test_rejects_non_finite_x(self, h, x):
        # at h = 0 a nan used to count every point below it, giving 1.0
        s = Sample(values=np.array([0.0, 1.0]), seed=0, source="manual")
        with pytest.raises(ValueError, match="x must be finite"):
            estimate_cdf(s, TRAP, h, x)

    def test_scalar_and_array_evaluation(self):
        s = draw_sample(NORMAL1, 10, 3)
        single = estimate_cdf(s, NORMAL_K, 0.5, 0.2)
        batch = estimate_cdf(s, NORMAL_K, 0.5, np.array([0.2, 1.0]))
        assert isinstance(single, float)
        assert batch.shape == (2,)
        assert batch[0] == pytest.approx(single, abs=1e-16)

    def test_sinc_output_not_clipped(self):
        s = Sample(values=np.array([0.7]), seed=0, source="manual")
        low = estimate_cdf(s, SINC, 0.3, 0.7 - math.pi * 0.3)
        high = estimate_cdf(s, SINC, 0.3, 0.7 + math.pi * 0.3)
        assert low < 0.0
        assert high > 1.0

    def test_normal_kernel_monotone(self):
        s = draw_sample(NORMAL1, 20, 5)
        grid = np.linspace(-6.0, 6.0, 200)
        vals = estimate_cdf(s, NORMAL_K, 0.4, grid)
        assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("kernel,tol", [(NORMAL_K, 1e-6), (TRAP, 1e-6), (SINC, 1e-3)],
                             ids=lambda o: getattr(o, "name", o))
    def test_limits_far_from_data(self, kernel, tol):
        s = draw_sample(JDLVP, 15, 2)
        assert abs(estimate_cdf(s, kernel, 0.7, -1e6)) <= tol
        assert abs(1.0 - estimate_cdf(s, kernel, 0.7, 1e6)) <= tol

    @pytest.mark.parametrize("kernel", [NORMAL_K, TRAP, SINC], ids=lambda k: k.name)
    def test_whole_bandwidth_range(self, kernel):
        # at h = 1e-300, (x - X_j)/h overflows for |x| >= 1e9 and the
        # trapezoidal Si(2 (x - X_j)/h) for |x| >= 1e8; such a term takes
        # K's limit with no warning, where the overflow raised ValueError
        s = draw_sample(JDLVP, 20, 3)
        xs = np.array([-1e9, -1.5e8, -0.4, 0.2, 1.5e8, 1e9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = estimate_cdf(s, kernel, 1e-300, xs)
            huge = estimate_cdf(s, kernel, 1e75, xs)
            assert estimate_cdf(s, kernel, 1e-300, 1e9) == 1.0
        np.testing.assert_allclose(tiny, estimate_cdf(s, kernel, 0.0, xs), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(huge, 0.5, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 20, 3277, 70000])
    def test_row_blocks_keep_the_bits(self, n):
        # estimate_cdf takes max(1, 2^16 // n) rows a block; each row's
        # mean must keep the bits one (m, n) array gives it
        s = draw_sample(JDLVP, n, 4)
        rows = max(1, estimator._PAIR_BLOCK // n)
        xs = np.linspace(-6.0, 6.0, 2 * rows + 3)
        for kernel in (NORMAL_K, TRAP, SINC):
            for h in (0.05, 0.7):
                want = kernel.integrated_fn((xs[:, None] - s.values[None, :]) / h).mean(axis=1)
                assert estimate_cdf(s, kernel, h, xs).tobytes() == want.tobytes()

    def test_memory_is_bounded_by_row_blocks(self):
        # one (400, 5000) array of (x - X_j)/h is 16 MB, and the
        # trapezoidal K's temporaries on it took a 93 MB peak
        s = draw_sample(JDLVP, 5000, 4)
        xs = np.linspace(-5.0, 5.0, 400)
        tracemalloc.start()
        try:
            estimate_cdf(s, TRAP, 0.3, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("kernel", [NORMAL_K, TRAP], ids=lambda k: k.name)
    def test_smoothed_empirical_representation(self, kernel):
        # F_nh(x) = int F_n(x - h z) k(z) dz for kernels with a density
        s = draw_sample(JDLVP, 12, 8)
        h = 0.8
        b = 80.0
        if kernel is TRAP:
            left_tail = (cos_tail_over_x2(1.0, b) - cos_tail_over_x2(2.0, b)) / math.pi
        else:
            left_tail = phi_erf(-b)
        for x in (-2.5, -0.6, 0.1, 0.9, 2.2, 4.0):
            jumps = np.sort((x - s.values) / h)
            inner = [z for z in jumps if -b < z < b]

            def integrand(z):
                count = np.searchsorted(s.values, x - h * z, side="right")
                return (count / s.values.size) * kernel_density(kernel)(z)

            val, _ = scipy.integrate.quad(
                integrand, -b, b, points=inner, limit=600
            )
            # F_n = 1 for z below every jump, so the left tail adds K(-b)
            val += left_tail
            assert estimate_cdf(s, kernel, h, x) == pytest.approx(val, abs=1e-8)

    def test_unbiased_on_flat_segment(self):
        # with the sinc kernel at h <= 1/2 the estimator mean is exactly F
        reps = 5000
        points = np.array([-1.0, 0.0, 1.0])
        draws = np.empty((reps, points.size))
        for r in range(reps):
            s = draw_sample(JDLVP, 25, 77, rep=r)
            draws[r] = estimate_cdf(s, SINC, 0.4, points)
        means = draws.mean(axis=0)
        errs = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        for m, e, x in zip(means, errs, points):
            assert abs(m - JDLVP.cdf(x)) <= 3.0 * e


class TestIse:
    @pytest.mark.parametrize("h", BAD_BANDWIDTHS)
    def test_rejects_negative_bandwidth(self, h):
        s = draw_sample(NORMAL1, 10, 1)
        with pytest.raises(ValueError, match=H_RANGE):
            ise(s, NORMAL_K, h, NORMAL1)

    def test_panel_count_is_bounded(self):
        # jdlvp+normal at n = 50, h = 1e-8 would need about 2e9 panels,
        # 18 GB of edges; the count is checked before anything is built
        s = draw_sample(JDLVP, 50, 1)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=r"h = 1e-08 needs .* panels, over its "
                                                 r"bound of 4194304"):
                ise(s, NORMAL_K, 1e-8, JDLVP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20

    def test_panel_bound_comes_before_the_tail(self):
        # at h = 1.5e-300 the trapezoidal cutoff 2/h leaves a tail at
        # bandwidth h/2, below the range mise_profile takes; every sample
        # needs some 1e300 panels there, and that is the error reported
        s = draw_sample(NORMAL1, 10, 1)
        with pytest.raises(estimator.PanelBoundError, match="needs .* panels"):
            ise(s, TRAP, 1.5e-300, NORMAL1)
        with pytest.raises(estimator.PanelBoundError, match="needs .* panels"):
            monte_carlo_mise(NORMAL1, TRAP, 1.5e-300, 10, 3, seed=1)

    def test_zero_when_estimator_equals_target(self):
        # a one-point "kernel" whose integrated form is the target CDF
        # makes the estimate coincide with F everywhere
        synthetic = dataclasses.replace(NORMAL_K, integrated_fn=NORMAL1.cdf)
        s = Sample(values=np.array([0.0]), seed=0, source="manual")
        assert ise(s, synthetic, 1.0, NORMAL1) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_empirical_matches_step_closed_form(self, sigma, n):
        dist = make_normal(sigma)
        s = draw_sample(dist, n, 31)
        expected = ise_step_function_normal(s.values, sigma)
        assert ise(s, NORMAL_K, 0.0, dist) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", [5, 20])
    def test_empirical_jdlvp_matches_mpmath(self, n):
        s = draw_sample(JDLVP, n, 31)
        expected = ise_step_function_jdlvp(s.values)
        assert ise(s, NORMAL_K, 0.0, JDLVP) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_makes_no_quadpack_call(self, monkeypatch):
        # h = 0 for every kernel, and two cells past the Fourier cutoff,
        # whose sample-free tail is left over: each value is unchanged
        # with integrate refusing every call in every module
        cells = [(NORMAL1, kernel, 0.0) for kernel in (NORMAL_K, TRAP, SINC)]
        cells += [(JDLVP, kernel, 0.0) for kernel in (NORMAL_K, TRAP, SINC)]
        cells += [(NORMAL1, SINC, 0.5), (make_jdlvp(0.5), TRAP, 1.0)]
        samples = [draw_sample(dist, 30, 9) for dist, _, _ in cells]
        expected = [ise(s, kernel, h, dist) for s, (dist, kernel, h) in zip(samples, cells)]

        def refuse(*args, **kwargs):
            raise RuntimeError("integrate called")

        patched = 0
        for name in ("numerics", "distributions", "kernels", "mise", "estimator"):
            module = importlib.import_module(f"cdf_mise.{name}")
            if hasattr(module, "integrate"):
                monkeypatch.setattr(module, "integrate", refuse)
                with pytest.raises(RuntimeError, match="integrate called"):
                    module.integrate(lambda t: 1.0, 0.0, 1.0)
                patched += 1
        assert patched == 1
        got = [ise(s, kernel, h, dist) for s, (dist, kernel, h) in zip(samples, cells)]
        assert got == expected

    def test_empirical_magnitude(self):
        s = draw_sample(NORMAL1, 100, 17)
        val = ise(s, NORMAL_K, 0.0, NORMAL1)
        scale = NORMAL1.psi_f / 100.0  # approximately 0.0056
        assert scale / 10.0 < val < scale * 10.0

    @pytest.mark.parametrize(
        "dist,kernel,h,n",
        [(JDLVP, TRAP, 0.5, 40), (NORMAL1, NORMAL_K, 0.5, 40), (NORMAL1, TRAP, 0.8, 25),
         (JDLVP, NORMAL_K, 0.5, 40)],
        ids=["jdlvp+trap", "normal+normal", "normal+trap", "jdlvp+normal"],
    )
    def test_matches_brute_force_quadrature(self, dist, kernel, h, n):
        s = draw_sample(dist, n, 13)
        ref = ise_reference(s, kernel, h, dist, pad=60.0, width=min(math.pi * h, 1.0) / 4.0)
        assert ise(s, kernel, h, dist) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.slow
    @pytest.mark.parametrize("dist,h,n", [(JDLVP, 0.25, 30), (NORMAL1, 0.5, 40)],
                             ids=["jdlvp", "normal"])
    def test_sinc_matches_brute_force_quadrature(self, dist, h, n):
        s = draw_sample(dist, n, 13)
        width = math.pi * h / 4.0
        ref = ise_reference(s, SINC, h, dist, pad=1000.0, width=width)
        wider = ise_reference(s, SINC, h, dist, pad=2000.0, width=width)
        assert abs(wider - ref) < 4e-7
        # the oscillation tail carries mass ~ 1/pad, so the mass beyond
        # pad 2000 equals the increment from 1000 to 2000
        extrapolated = wider + (wider - ref)
        assert ise(s, SINC, h, dist) == pytest.approx(extrapolated, abs=5e-9)

    @pytest.mark.parametrize("dist", [JDLVP, NORMAL1], ids=lambda d: d.family)
    @pytest.mark.parametrize("kernel", [NORMAL_K, TRAP, SINC], ids=lambda k: k.name)
    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_scale_covariance(self, dist, kernel, a):
        # F_nh of the sample a X at bandwidth a h is F_nh(x / a), so the
        # ISE against the rescaled target is a times the unscaled one
        s = draw_sample(dist, 30, 21)
        scaled = Sample(values=a * s.values, seed=s.seed, source=s.source)
        for h in (0.1, 0.4, 1.3):
            assert ise(scaled, kernel, a * h, rescale(dist, a)) == pytest.approx(
                a * ise(s, kernel, h, dist), rel=1e-12, abs=0.0)


def fourier_panels(values, kernel, h, dist) -> float:
    # about how many panels the Fourier ISE takes: the cutoff over the
    # panel width, without the few more that the knots add
    cutoff = min(kernel.ft_support_end, estimator._NORMAL_FT_CUTOFF) / h
    reach = max(float(np.max(np.abs(values))), 2.0 * math.sqrt(dist.variance), 2.0 * h)
    return cutoff * reach / estimator._PANEL_WIDTH


# Every pair whose ISE takes the Fourier route, and normal+normal sent
# there under another family name.
FOURIER_PAIRS = [pytest.param(dist, kernel, id=f"{dist.name}+{kernel.name}")
                 for dist in (JDLVP, make_jdlvp(0.5), NORMAL1, make_normal(2.0))
                 for kernel in (NORMAL_K, TRAP, SINC)
                 if dist.family == "jdlvp" or kernel is not NORMAL_K]
FOURIER_PAIRS += [pytest.param(dataclasses.replace(NORMAL1, family="normal, by Fourier"),
                               NORMAL_K, id="normal:sigma=1+normal, by Fourier")]


class TestIseFourier:
    @pytest.mark.parametrize("n", [1, 5, 50, 200, 1000])
    @pytest.mark.parametrize("dist,kernel", FOURIER_PAIRS)
    def test_matches_trig_at_every_node(self, dist, kernel, n):
        # angle addition from the panel centres against cos and sin of
        # t X_j at every node; only rounding may differ
        s = draw_sample(dist, n, 7)
        for h in (0.01, 0.1, 0.5, 2.0, 8.0):
            if fourier_panels(s.values, kernel, h, dist) > 1e5:
                continue
            assert ise(s, kernel, h, dist) == pytest.approx(
                ise_fourier_direct(s.values, kernel, h, dist), rel=1e-13, abs=0.0)

    def test_memory_stays_in_panel_blocks(self):
        # 2.2e4 panels at n = 50: one (panels x n) table would be 8.9 MB
        s = draw_sample(JDLVP, 50, 1)
        assert fourier_panels(s.values, NORMAL_K, 1e-3, JDLVP) >= 1e4
        tracemalloc.start()
        try:
            value = ise(s, NORMAL_K, 1e-3, JDLVP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value > 0.0
        assert peak < 4 << 20


# Cells of the Fourier ISE bit test beyond every pair at h = 0.3: rows of
# more than 64 panels in a span, and the sample-free tail past the cutoff
BITS_BEYOND = [pytest.param(JDLVP, NORMAL_K, 0.05, 200, id="jdlvp+normal-0.05-200"),
               pytest.param(make_jdlvp(0.5), TRAP, 2.0, 50, id="jdlvp:scale=0.5+trapezoidal-2-50")]


class TestIseFourierKeepsItsBits:
    # _ise_fourier takes its runs of 64-panel blocks from
    # numerics._block_runs and indexes a span's panels flat; each row keeps
    # the bits of the route on runs of (row, first, last) triples
    # (tests/oracles.py), on groups of rows as monte_carlo_mise draws them.
    @staticmethod
    def runs_and_bits(dist, kernel, h, n, monkeypatch):
        rows = max(1, estimator._GROUP_ELEMENTS // (14 * n))
        xs = np.array([draw_sample(dist, n, 23, rep=r).values for r in range(rows)])
        runs = []
        block_runs = estimator._block_runs

        def spy(bounds, limit):
            # the blocks of each run the route takes in a span
            bounds = list(bounds)
            runs.append([len(run) - 1 for run in block_runs(bounds, limit)])
            return block_runs(bounds, limit)

        route = estimator._ise_route(kernel, h, dist)
        want = ise_fourier_by_triples(xs, **route.keywords)
        monkeypatch.setattr(estimator, "_block_runs", spy)
        assert route(xs).tobytes() == want.tobytes()
        return rows, runs

    @pytest.mark.parametrize("n", [1, 7, 50, 200, 1000])
    @pytest.mark.parametrize("dist,kernel", FOURIER_PAIRS)
    def test_every_pair(self, dist, kernel, n, monkeypatch):
        rows, runs = self.runs_and_bits(dist, kernel, 0.3, n, monkeypatch)
        if n == 50:
            # one block a row in a span, and many rows share a run
            assert any(sum(span) == rows and max(span) > 5 for span in runs)

    @pytest.mark.parametrize("dist,kernel,h,n", BITS_BEYOND)
    def test_long_rows_and_tail(self, dist, kernel, h, n, monkeypatch):
        rows, runs = self.runs_and_bits(dist, kernel, h, n, monkeypatch)
        if h < 1.0:
            assert any(sum(span) > 2 * rows for span in runs)
        else:
            assert estimator._ise_route(kernel, h, dist).keywords["tail"]() > 0.0


def energy_route(sample, h, dist):
    return estimator._ise_energy(sample.values, dist.scale, h)


def rel_to(got, ref):
    mp = pytest.importorskip("mpmath")
    return float(abs(mp.mpf(got) - ref) / abs(ref))


# The energy route against the 40-digit oracle.  It is not held to 1e-14:
# with n >= 2 its two sums are O(sigma) and cancel to an ISE near
# psi_f/n, as in the Cramer identity at h = 0, which is itself 1.2e-14
# off a 40-digit evaluation at n = 200 (seed 7); summing the same pairs
# in other row blocks moves an n = 60 value by 1.1e-13.
ENERGY_GATE = 1e-12


class TestIseEnergy:
    @pytest.mark.slow
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 5, 50, 200])
    @pytest.mark.parametrize("h_over", [("abs", 1e-4), ("abs", 1e-2), ("abs", 0.25),
                                        ("abs", 1.0), ("sigma", 4.0)],
                             ids=["1e-4", "1e-2", "0.25", "1", "4sigma"])
    def test_matches_mpmath(self, sigma, n, h_over, monkeypatch):
        kind, value = h_over
        h = value * sigma if kind == "sigma" else value
        dist = make_normal(sigma)
        s = draw_sample(dist, n, 7)

        def refuse(*args, **kwargs):
            raise RuntimeError("Fourier route called")

        # the energy route needs no panel rule, however small h is
        monkeypatch.setattr(estimator, "_ise_fourier", refuse)
        got = ise(s, NORMAL_K, h, dist)
        assert got == energy_route(s, h, dist)
        assert rel_to(got, ise_energy_mpmath(s.values, sigma, h)) <= ENERGY_GATE

    @pytest.mark.parametrize("sigma,n,h", [
        (1.0, 400, 0.5), (1.0, 400, 2.0), (2.0, 50, 2.0), (2.0, 1000, 2.0), (1.0, 2000, 0.5),
        pytest.param(1.0, 10000, 0.25, marks=pytest.mark.slow),
    ])
    def test_agrees_with_fourier_route(self, sigma, n, h):
        # the same target under another family name takes the Fourier route;
        # at n = 10000 the energy route adds 1,667 row-block sums
        dist = make_normal(sigma)
        by_fourier = dataclasses.replace(dist, family="normal, by Fourier")
        s = draw_sample(dist, n, 7)
        assert ise(s, NORMAL_K, h, dist) == pytest.approx(
            ise(s, NORMAL_K, h, by_fourier), rel=ENERGY_GATE, abs=0.0)

    def test_row_blocks_sum_the_same_pairs(self, monkeypatch):
        # only the order of summation changes: 2 rows a block, not all 60
        s = draw_sample(NORMAL1, 60, 3)
        whole = energy_route(s, 0.3, NORMAL1)
        monkeypatch.setattr(estimator, "_PAIR_BLOCK", 120)
        assert energy_route(s, 0.3, NORMAL1) == pytest.approx(whole, rel=ENERGY_GATE, abs=0.0)

    def test_extreme_bandwidths_stay_finite(self):
        s = draw_sample(NORMAL1, 20, 5)
        # at the ends of the bandwidth range: at 1e-300 (d/h)^2 overflows
        # and the pair terms are d; at 1e75 F_nh is flat and the ISE
        # grows like sqrt(2/pi) h (1 - 1/sqrt 2)
        tiny = ise(s, NORMAL_K, 1e-300, NORMAL1)
        assert tiny == pytest.approx(ise(s, NORMAL_K, 0.0, NORMAL1), rel=1e-13, abs=0.0)
        huge = ise(s, NORMAL_K, 1e75, NORMAL1)
        limit = math.sqrt(2.0 / math.pi) * (1.0 - 1.0 / math.sqrt(2.0)) * 1e75
        assert huge == pytest.approx(limit, rel=1e-12, abs=0.0)


# A cell on every ISE route: h = 0 on both families, the energy route,
# the Fourier route on jdlvp with all three kernels and on normal with
# trapezoidal and sinc, and jdlvp:scale=0.5+trapezoidal at h = 2, whose
# cutoff 2/h = 1 falls below d_f = 4 and leaves a sample-free tail.
BIT_CELLS = [(JDLVP, TRAP, 0.0), (NORMAL1, SINC, 0.0), (NORMAL1, NORMAL_K, 0.3),
             (JDLVP, NORMAL_K, 1.0), (JDLVP, TRAP, 0.5), (JDLVP, SINC, 0.3),
             (NORMAL1, TRAP, 0.5), (NORMAL1, SINC, 0.3), (make_jdlvp(0.5), TRAP, 2.0)]


class TestMonteCarloMise:
    def test_report_validation(self):
        with pytest.raises(ValueError):
            MonteCarloMise(estimate=0.1, std_error=-1.0, replications=5, h=0.1, n=10)
        with pytest.raises(ValueError):
            MonteCarloMise(estimate=0.1, std_error=0.0, replications=1, h=0.1, n=10)

    def test_requires_two_replications(self):
        with pytest.raises(ValueError):
            monte_carlo_mise(NORMAL1, NORMAL_K, 0.2, 10, 1, seed=1)
        for reps in (2.5, math.nan, "10", None, [3], 1 + 0j):
            with pytest.raises(ValueError, match="replications must be a whole number"):
                monte_carlo_mise(NORMAL1, NORMAL_K, 0.2, 10, reps, seed=1)

    def test_refuses_a_bad_seed(self):
        # seed 1.5 ran seed 1's replications
        for seed in (1.5, -1, True, "7", math.inf):
            with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
                monte_carlo_mise(NORMAL1, NORMAL_K, 0.2, 10, 4, seed=seed)
        want = monte_carlo_mise(JDLVP, TRAP, 0.3, 20, 5, seed=7)
        for seed in (7.0, np.int64(7)):
            assert monte_carlo_mise(JDLVP, TRAP, 0.3, 20, 5, seed=seed) == want

    @pytest.mark.parametrize("h", BAD_BANDWIDTHS)
    def test_rejects_bad_bandwidth_before_sampling(self, h, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled or started a process before checking h")

        monkeypatch.setattr(estimator, "draw_sample", forbidden)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", forbidden)
        with pytest.raises(ValueError, match=H_RANGE):
            monte_carlo_mise(NORMAL1, NORMAL_K, h, 10, 4, seed=1)

    def test_runs_in_process_in_replication_order(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", forbidden)
        run = monte_carlo_mise(JDLVP, TRAP, 0.3, 25, 8, seed=3)
        values = np.array([ise(draw_sample(JDLVP, 25, 3, rep=r), TRAP, 0.3, JDLVP)
                           for r in range(8)])
        assert run.estimate == float(np.mean(values))
        assert run.std_error == float(np.std(values, ddof=1) / math.sqrt(8))

    def test_deterministic_for_seed(self):
        a = monte_carlo_mise(JDLVP, TRAP, 0.3, 20, 12, seed=5)
        b = monte_carlo_mise(JDLVP, TRAP, 0.3, 20, 12, seed=5)
        c = monte_carlo_mise(JDLVP, TRAP, 0.3, 20, 12, seed=6)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error
        assert a.estimate != c.estimate
        assert a.replications == 12
        assert (a.h, a.n) == (0.3, 20)

    def test_groups_hold_at_most_2_14_over_14n_replications(self, monkeypatch):
        # the replications of a cell are drawn and routed in groups; at
        # n = 50 that is 16384 // 700 = 23 a group, and the last is partial
        sizes = []
        route = estimator._ise_route

        def spy(*args):
            rows = route(*args)

            def counted(xs):
                sizes.append(xs.shape)
                return rows(xs)
            return counted

        monkeypatch.setattr(estimator, "_ise_route", spy)
        monte_carlo_mise(JDLVP, TRAP, 0.3, 50, 150, seed=3)
        assert sizes == [(23, 50)] * 6 + [(12, 50)]
        sizes.clear()
        monte_carlo_mise(JDLVP, TRAP, 0.0, 1000, 3, seed=3)
        assert sizes == [(1, 1000)] * 3

    @pytest.mark.parametrize("dist,kernel,h", BIT_CELLS,
                             ids=lambda o: getattr(o, "name", o))
    @pytest.mark.parametrize("n,reps", [(1, 2), (1, 150), (2, 37), (50, 2), (50, 37),
                                        (50, 150), (200, 37), (1000, 2)])
    def test_has_the_bits_of_per_sample_ise(self, dist, kernel, h, n, reps):
        # groups of one (n = 1000), whole groups (n = 1, 2 and 50 at two
        # replications) and a partial last group (n = 50, 200) give the
        # estimate and standard error of ise run on one sample at a time
        run = monte_carlo_mise(dist, kernel, h, n, reps, seed=19)
        values = np.array([ise(draw_sample(dist, n, 19, rep=r), kernel, h, dist)
                           for r in range(reps)])
        assert run.estimate == float(np.mean(values))
        assert run.std_error == float(np.std(values, ddof=1) / math.sqrt(reps))

    @pytest.mark.parametrize("dist,kernel,h", [(JDLVP, NORMAL_K, 0.25), (JDLVP, TRAP, 0.0)],
                             ids=["jdlvp+normal", "jdlvp h=0"])
    def test_memory_does_not_grow_with_replications(self, dist, kernel, h):
        def peak(reps):
            tracemalloc.start()
            try:
                monte_carlo_mise(dist, kernel, h, 200, reps, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monte_carlo_mise(dist, kernel, h, 200, 2, seed=5)
        small, large = peak(100), peak(400)
        assert large <= 1.1 * small, (small, large)

    @pytest.mark.slow
    def test_empirical_case_matches_exact_mise(self):
        run = monte_carlo_mise(NORMAL1, NORMAL_K, 0.0, 100, 2000, seed=101)
        exact = 1.0 / (math.sqrt(math.pi) * 100.0)  # 0.0056419
        assert abs(run.estimate - exact) <= 3.0 * run.std_error

    @pytest.mark.slow
    def test_linear_segment_case_matches_exact_mise(self):
        run = monte_carlo_mise(JDLVP, TRAP, 0.3, 200, 2000, seed=202)
        exact = (JDLVP.psi_f - psi_k(TRAP) * 0.3) / 200.0
        assert abs(run.estimate - exact) <= 3.0 * run.std_error

    @pytest.mark.slow
    def test_sinc_case_matches_closed_form(self):
        run = monte_carlo_mise(NORMAL1, SINC, 0.5, 100, 2000, seed=303)
        exact = mise(NORMAL1, SINC, 0.5, 100).mise
        assert abs(run.estimate - exact) <= 3.0 * run.std_error
