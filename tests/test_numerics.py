"""Special functions and quadrature against independent references."""

import itertools
import math

import numpy as np
import pytest

from cdf_mise import numerics
from cdf_mise.distributions import make_normal
from cdf_mise.kernels import kernel_by_name
from cdf_mise.numerics import (
    QuadratureResult,
    gauss_kronrod_panels,
    gauss_panels,
    integrate,
    roughness,
    sine_integral,
    std_normal_cdf,
)

from oracles import phi_erf, si_paper


class TestSineIntegral:
    def test_zero(self):
        assert sine_integral(0.0) == 0.0

    def test_value_at_pi(self):
        assert sine_integral(math.pi) == pytest.approx(0.5894898722360836, abs=1e-12)

    def test_matches_series_oracle(self):
        xs = np.concatenate((np.linspace(0.1, 15.0, 40), [30.0, 100.0, 300.0]))
        got = sine_integral(xs)
        want = np.array([si_paper(float(x)) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-9

    def test_odd_symmetry(self):
        xs = np.array([0.3, 1.7, 4.0, 12.5, 200.0])
        assert np.allclose(sine_integral(-xs), -sine_integral(xs), rtol=0, atol=0)

    @pytest.mark.parametrize("x", [50.0, 1e3, 1e4])
    def test_half_limit(self, x):
        # Oscillation amplitude decays like 1/(pi x).
        assert abs(sine_integral(x) - 0.5) <= 1.01 / (math.pi * x)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sine_integral(np.inf)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_limit(self):
        assert abs(std_normal_cdf(40.0) - 1.0) < 1e-15

    def test_value_at_one(self):
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)

    def test_matches_erf_oracle(self):
        xs = np.linspace(-6.0, 6.0, 25)
        want = np.array([phi_erf(float(x)) for x in xs])
        assert np.max(np.abs(std_normal_cdf(xs) - want)) < 1e-14

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(np.nan)


class TestIntegrate:
    def test_unit_on_unit_interval(self):
        res = integrate(lambda t: 1.0, 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_one_minus_gaussian_over_t_squared(self):
        res = integrate(lambda t: (1.0 - math.exp(-t * t)) / (t * t), 0.0, np.inf)
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_semi_infinite_with_large_finite_end(self):
        # The tail cut must never fall inside [lower, upper]: integrating
        # from 4 must not silently start at 1.
        res = integrate(lambda t: math.exp(-t), 4.0, np.inf)
        assert res.value == pytest.approx(math.exp(-4.0), rel=1e-12, abs=0.0)

    def test_interior_breakpoints(self):
        res = integrate(abs, -1.0, 1.0, points=[0.0])
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_breakpoints_on_infinite_range(self):
        # the tail is cut at the last breakpoint, so both segments are smooth
        res = integrate(lambda t: math.exp(-abs(t - 3.0)), 0.0, np.inf, points=[3.0])
        assert res.converged
        assert res.value == pytest.approx(2.0 - math.exp(-3.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lower", [-np.inf, np.nan, np.inf])
    def test_non_finite_lower_rejected(self, lower):
        with pytest.raises(ValueError, match="finite lower"):
            integrate(lambda t: math.exp(-t * t), lower, np.inf)

    def test_empty_range(self):
        res = integrate(lambda t: 1.0, 2.0, 2.0)
        assert res.value == 0.0

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda t: 1.0, 1.0, 0.0)

    def test_divergent_integral_is_not_converged(self):
        assert integrate(lambda t: 1.0 / t, 0.0, 1.0).converged is False


class TestRoughness:
    # psi(W) = int W(1-W) by its Fourier identity, on a kernel with a
    # flat transform and knots, and on a target with neither
    def test_trapezoidal_kernel(self):
        trap = kernel_by_name("trapezoidal")
        got = roughness(trap.ft, trap.s_k, trap.ft_knots, "trapezoidal")
        assert got == pytest.approx((4.0 * math.log(2.0) - 2.0) / math.pi, rel=1e-12, abs=0.0)

    def test_normal_target(self):
        sigma = 2.0
        got = roughness(make_normal(sigma).cf, 0.0, (), "normal")
        assert got == pytest.approx(sigma / math.sqrt(math.pi), rel=1e-12, abs=0.0)

    def test_non_converged_names_what_failed(self, monkeypatch):
        monkeypatch.setattr(numerics, "integrate",
                            lambda *args, **kwargs: QuadratureResult(1.0, 1.0, 2000, False))
        with pytest.raises(RuntimeError, match=r"psi_k\(sinc\) quadrature failed to converge"):
            roughness(math.cos, 0.0, (), "psi_k(sinc)")


class TestFixedPanels:
    def test_matches_adaptive_on_smooth_integrand(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        edges = np.linspace(0.0, 8.0, 33)
        value, err = gauss_kronrod_panels(f, edges)
        ref = integrate(lambda x: math.exp(-x) * math.sin(3.0 * x), 0.0, 8.0)
        assert value == pytest.approx(ref.value, abs=1e-12)
        assert err < 1e-10

    def test_chunking_preserves_value(self):
        f = lambda x: 1.0 / (1.0 + x * x)
        edges = np.linspace(-5.0, 5.0, 101)
        whole = gauss_kronrod_panels(f, edges)[0]
        for chunk in (1, 7, 64):
            assert gauss_kronrod_panels(f, edges, chunk=chunk)[0] == \
                pytest.approx(whole, abs=1e-13)

    def test_gauss_only_panels_agree(self):
        f = lambda x: np.cos(x) ** 2
        edges = np.linspace(0.0, 2.0 * math.pi, 17)
        v7 = gauss_panels(f, edges)
        v15, _ = gauss_kronrod_panels(f, edges)
        assert v7 == pytest.approx(v15, abs=1e-12)
        assert gauss_panels(f, edges, chunk=3) == pytest.approx(v7, abs=1e-13)



class TestBlockRuns:
    # _block_runs groups the blocks of a fixed rule into runs of whole
    # blocks, each run the list of its blocks' boundaries
    @staticmethod
    def runs(bounds, limit):
        return list(numerics._block_runs(bounds, limit))

    def test_no_blocks(self):
        assert self.runs([], 8) == []
        assert self.runs([5], 8) == []
        assert self.runs([3, 3, 3], 8) == []

    def test_a_block_larger_than_the_limit_runs_alone(self):
        assert self.runs([0, 20], 8) == [[0, 20]]
        assert self.runs([0, 4, 24, 26, 30], 8) == [[0, 4], [4, 24], [24, 26, 30]]

    def test_blocks_that_fill_the_limit_exactly(self):
        assert self.runs(range(0, 17, 4), 8) == [[0, 4, 8], [8, 12, 16]]
        assert self.runs([0, 8, 16], 8) == [[0, 8], [8, 16]]
        assert self.runs([0, 3, 9, 10], 9) == [[0, 3, 9], [9, 10]]

    def test_empty_blocks_are_skipped(self):
        # mise's 32-cell blocks, several of which hold no panel of a display
        assert self.runs([0, 0, 5, 5, 5, 9, 14, 14], 10) == [[0, 5, 9], [9, 14]]
        assert self.runs([2, 2, 2, 7], 4) == [[2, 7]]

    def test_lazy(self):
        # the first run comes from an endless generator of boundaries
        assert next(numerics._block_runs(itertools.count(0, 3), 10)) == [0, 3, 6, 9]
