"""Tests for the target-distribution catalog."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from cdf_mise.distributions import (
    JDLVP_PSI_F,
    _jdlvp_cf_unit,
    _jdlvp_density_unit,
    make_jdlvp,
    make_normal,
    psi_f_fourier,
    rescale,
    sample,
)
from cdf_mise.kernels import KERNEL_NAMES, kernel_by_name
from cdf_mise.mise import mise_profile

from oracles import (
    cos_tail_over_x2,
    jdlvp_cdf_closed_mp,
    jdlvp_cdf_mpmath,
    jdlvp_cf_convolution,
    jdlvp_cf_unit_where,
    jdlvp_density,
    ks_statistic,
    mean_abs_dev_quad,
    phi_erf,
    psi_space_quad,
    tail_radius,
)

JDLVP = make_jdlvp()
NORMAL1 = make_normal(1.0)

# |x| from 1e-8 to 1e3 with both sides of the series switch at u = 2, and
# two points past 100 where a tail expansion truncated at x^-6 is 2.2e-12
# and 8.9e-14 off.
_MAGNITUDES = np.concatenate([np.geomspace(1e-8, 1e3, 45),
                              [np.nextafter(2.0, 0.0), 2.0, 1.99, 2.01, 100.5, 150.0]])
CDF_GRID = np.concatenate([_MAGNITUDES, -_MAGNITUDES])


class TestJdlvpShape:
    def test_density_peak(self):
        # f(0) = 3 / (4 pi)
        assert jdlvp_density(0.0) == pytest.approx(3.0 / (4.0 * math.pi), abs=1e-15)

    def test_sampler_density_matches_oracle(self):
        # the density the rejection sampler accepts against
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 60)])
        np.testing.assert_allclose(_jdlvp_density_unit(xs), jdlvp_density(xs),
                                   rtol=1e-14, atol=0.0)

    def test_density_even_and_nonnegative(self):
        xs = np.linspace(0.0, 30.0, 400)
        f = jdlvp_density(xs)
        assert np.all(f >= 0.0)
        np.testing.assert_allclose(jdlvp_density(-xs), f, rtol=0.0, atol=1e-16)

    def test_density_integrates_to_one(self):
        total, _ = scipy.integrate.quad(jdlvp_density, -np.inf, np.inf, limit=400)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_variance_matches_second_moment(self):
        # x^2 f = 12 sin^4(x/2) / (pi x^2): finite-range quad plus the
        # analytic tail of its 3/8 - cos(x)/2 + cos(2x)/8 expansion
        b = 200.0 * math.pi
        head, _ = scipy.integrate.quad(
            lambda x: x * x * jdlvp_density(x), 0.0, b, limit=800
        )
        tail = (12.0 / math.pi) * (
            0.375 / b
            - 0.5 * cos_tail_over_x2(1.0, b)
            + 0.125 * cos_tail_over_x2(2.0, b)
        )
        assert 2.0 * (head + tail) == pytest.approx(JDLVP.variance, abs=1e-9)
        assert JDLVP.variance == 3.0

    def test_cdf_center_and_symmetry(self):
        assert JDLVP.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
        xs = np.array([0.3, 1.0, 2.5, 7.0])
        np.testing.assert_allclose(
            JDLVP.cdf(xs) + JDLVP.cdf(-xs), np.ones_like(xs), atol=1e-12
        )

    @pytest.mark.parametrize("x", [-4.0, -1.2, 0.7, 3.0, 11.0])
    def test_cdf_matches_integrated_density(self, x):
        # finite symmetric range sidesteps infinite-range oscillation error
        val, _ = scipy.integrate.quad(jdlvp_density, 0.0, abs(x), limit=400)
        expected = 0.5 + val if x >= 0.0 else 0.5 - val
        assert JDLVP.cdf(x) == pytest.approx(expected, abs=1e-12)

    def test_cdf_matches_mpmath_quadrature(self):
        err = np.abs(JDLVP.cdf(CDF_GRID) - jdlvp_cdf_mpmath(CDF_GRID))
        assert np.max(err) <= 5e-16

    def test_oracle_closed_form_matches_quadrature(self):
        # the closed form the h = 0 ISE oracle integrates, against the density
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            closed = np.array([float(jdlvp_cdf_closed_mp(mp, x)) for x in CDF_GRID])
        np.testing.assert_allclose(closed, jdlvp_cdf_mpmath(CDF_GRID), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_cdf_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JDLVP.cdf(bad)
        with pytest.raises(ValueError, match="finite"):
            make_jdlvp(2.0).cdf(np.array([0.0, bad, 1.0]))

    def test_cdf_saturates_without_overflow(self):
        big = np.finfo(float).max
        xs = np.array([1e20, 1e100, 1e300, big])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            upper = JDLVP.cdf(xs)
            lower = JDLVP.cdf(-xs)
        np.testing.assert_array_equal(upper, 1.0)
        np.testing.assert_array_equal(lower, 0.0)

    def test_tail_radius_brackets_mass(self):
        r = tail_radius(JDLVP, 1e-6)
        assert 1.0 - JDLVP.cdf(r) <= 1e-6
        assert 1.0 - JDLVP.cdf(0.25 * r) > 1e-6


class TestJdlvpCharacteristicFunction:
    def test_compact_support_edges(self):
        assert JDLVP.c_f == 2.0
        assert JDLVP.d_f == 2.0
        assert JDLVP.cf_knots == (1.0, 2.0)

    def test_named_values(self):
        # piecewise-cubic transform: value 1/4 at the interior knot, 0 at the edge
        assert JDLVP.cf(1.0) == pytest.approx(0.25, abs=1e-14)
        assert JDLVP.cf(1.0 - 1e-12) == pytest.approx(0.25, abs=1e-9)
        assert JDLVP.cf(1.0 + 1e-12) == pytest.approx(0.25, abs=1e-9)
        assert JDLVP.cf(2.0) == 0.0
        assert JDLVP.cf(2.3) == 0.0
        assert JDLVP.cf(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_triangle_convolution(self):
        # independent route: cf is the normalized self-convolution of a triangle
        ts = np.array([0.1, 0.45, 0.8, 1.0, 1.3, 1.7, 1.95])
        for t in ts:
            assert JDLVP.cf(t) == pytest.approx(jdlvp_cf_convolution(t), abs=1e-12)

    def test_even_in_t(self):
        ts = np.array([0.2, 0.9, 1.4, 1.8])
        np.testing.assert_allclose(JDLVP.cf(-ts), JDLVP.cf(ts), atol=1e-15)

    def test_matches_fourier_transform_of_density(self):
        # numeric FT of the density as a second independent route
        for t in (0.5, 1.2, 1.9):
            val, _ = scipy.integrate.quad(
                lambda x: jdlvp_density(x) * math.cos(t * x),
                0.0,
                600.0,
                limit=2000,
            )
            assert JDLVP.cf(t) == pytest.approx(2.0 * val, abs=1e-6)


    # 0, +-1 and +-2 and their neighbours, where the pieces meet or end
    EDGES = [np.nextafter(x, d) if d else x for x in (0.0, 1.0, -1.0, 2.0, -2.0)
             for d in (-math.inf, 0, math.inf)]

    def test_keeps_the_bits_of_both_pieces_on_every_t(self):
        # one power on a merged base gives the bits of taking both cubic
        # pieces on every t and picking one, in tests/oracles.py
        ts = np.concatenate([np.linspace(-50.0, 50.0, 400_001), self.EDGES,
                             [math.inf, -math.inf, math.nan]])
        with np.errstate(invalid="ignore", over="ignore"):
            want = jdlvp_cf_unit_where(ts)
        assert _jdlvp_cf_unit(ts).tobytes() == want.tobytes()
        for t in self.EDGES + [0.5, 1.5, 3.0]:
            got = _jdlvp_cf_unit(t)
            assert type(got) is float and repr(got) == repr(jdlvp_cf_unit_where(t))

    @pytest.mark.parametrize("a", [0.3, 2.0])
    def test_keeps_the_bits_on_scaled_targets(self, a):
        ts = np.concatenate([np.linspace(-3.0 / a, 3.0 / a, 20_001), np.array(self.EDGES) / a])
        want = jdlvp_cf_unit_where(a * ts)
        assert make_jdlvp(a).cf(ts).tobytes() == want.tobytes()


class TestNormal:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_cdf_matches_erf(self, sigma):
        dist = make_normal(sigma)
        xs = np.array([-3.0, -0.7, 0.0, 0.4, 2.5])
        expected = np.array([phi_erf(x / sigma) for x in xs])
        np.testing.assert_allclose(dist.cdf(xs), expected, atol=1e-14)

    def test_cf_is_gaussian(self):
        dist = make_normal(2.0)
        ts = np.array([0.0, 0.3, 1.1])
        np.testing.assert_allclose(dist.cf(ts), np.exp(-0.5 * (2.0 * ts) ** 2), atol=1e-15)

    def test_unbounded_spectrum(self):
        assert NORMAL1.c_f == math.inf
        assert NORMAL1.d_f == math.inf
        assert NORMAL1.cf_knots == ()

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_psi_f_value(self, sigma):
        # psi(F) = sigma / sqrt(pi) for the normal family
        dist = make_normal(sigma)
        assert dist.psi_f == pytest.approx(sigma / math.sqrt(math.pi), abs=1e-12)

    def test_variance_and_tail(self):
        dist = make_normal(2.0)
        assert dist.variance == 4.0
        r = tail_radius(dist, 1e-8)
        assert 1.0 - dist.cdf(r) <= 1e-8


class TestMeanAbsDev:
    # E|x - X| at x = +-u times the scale, across the JdlVP series/closed
    # form switch at u = 2 and out to u = 1e3, for both families at two
    # scales; the quadrature oracle is good to about 5e-16 relative.
    US = (0.0, 1e-3, 1.999, 2.0, 2.001, 7.0, 50.0, 1e3)

    @pytest.mark.parametrize("dist", [make_jdlvp(0.5), make_jdlvp(2.0),
                                      make_normal(0.5), make_normal(2.0)],
                             ids=lambda d: d.name)
    def test_matches_quadrature(self, dist):
        xs = np.array([sign * u * dist.scale for u in self.US for sign in (1.0, -1.0)])
        got = dist.mean_abs_dev(xs)
        for x, value in zip(xs, got):
            assert value == pytest.approx(mean_abs_dev_quad(dist, x), rel=2e-15, abs=0.0), x
            assert dist.mean_abs_dev(x) == value

    def test_jdlvp_far_out_and_non_finite(self):
        # |x| up to the largest float gives |x| without overflow warnings
        far = np.array([1e20, -1e300, -np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(JDLVP.mean_abs_dev(far), np.abs(far))
        with pytest.raises(ValueError, match="finite"):
            JDLVP.mean_abs_dev(np.array([0.0, math.inf]))


class TestPsiF:
    def test_jdlvp_closed_form(self):
        assert JDLVP.psi_f == pytest.approx(
            (96.0 * math.log(2.0) - 43.0) / (8.0 * math.pi), abs=1e-14
        )
        assert JDLVP_PSI_F == JDLVP.psi_f

    @pytest.mark.parametrize(
        "dist",
        [JDLVP, NORMAL1, make_normal(0.5), make_normal(2.0)],
        ids=lambda d: d.name,
    )
    def test_fourier_route_matches_catalog(self, dist):
        assert psi_f_fourier(dist) == pytest.approx(dist.psi_f, abs=1e-9)

    @pytest.mark.parametrize(
        "dist",
        [JDLVP, NORMAL1, make_normal(0.5), make_normal(2.0),
         rescale(JDLVP, 0.5), rescale(JDLVP, 2.0)],
        ids=lambda d: d.name,
    )
    def test_space_route_matches_catalog(self, dist):
        # Parseval cross-check: integral of F(1-F) in the x domain
        assert psi_space_quad(dist.cdf) == pytest.approx(dist.psi_f, abs=1e-6)


class TestRescale:
    def test_identity(self):
        same = rescale(JDLVP, 1.0)
        assert same.psi_f == JDLVP.psi_f
        assert same.d_f == JDLVP.d_f

    def test_jdlvp_scale_two(self):
        wide = rescale(JDLVP, 2.0)
        assert wide.d_f == 1.0
        assert wide.c_f == 1.0
        assert wide.psi_f == pytest.approx(2.0 * JDLVP.psi_f, abs=1e-14)
        assert wide.variance == pytest.approx(4.0 * 3.0, abs=1e-12)
        assert wide.cf_knots == (0.5, 1.0)
        # cf contracts, cdf stretches
        assert wide.cf(0.5) == pytest.approx(JDLVP.cf(1.0), abs=1e-14)
        assert wide.cdf(2.0) == pytest.approx(JDLVP.cdf(1.0), abs=1e-14)

    def test_normal_scale_matches_sigma(self):
        # scaling a unit normal by 3 is the sigma=3 normal
        stretched = rescale(NORMAL1, 3.0)
        direct = make_normal(3.0)
        assert stretched.psi_f == pytest.approx(3.0 / math.sqrt(math.pi), abs=1e-12)
        assert stretched.psi_f == pytest.approx(direct.psi_f, abs=1e-14)
        xs = np.array([-2.0, 0.3, 5.0])
        np.testing.assert_allclose(stretched.cdf(xs), direct.cdf(xs), atol=1e-14)

    @pytest.mark.parametrize("make", [make_jdlvp, make_normal], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_rescale_is_the_constructor_at_scale(self, make, a):
        # rescale(make_X(1), a) is make_X(a): same name, constants and
        # profile bits
        got, want = rescale(make(1.0), a), make(a)
        for field in ("name", "family", "c_f", "d_f", "psi_f", "scale", "variance",
                      "cf_knots"):
            assert getattr(got, field) == getattr(want, field), field
        hs = np.concatenate([[0.0], np.geomspace(1e-3, 10.0, 40)])
        for name in KERNEL_NAMES:
            kernel = kernel_by_name(name)
            assert all(x.tobytes() == y.tobytes() for x, y in
                       zip(mise_profile(got, kernel, hs), mise_profile(want, kernel, hs))), name

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            rescale(JDLVP, 0.0)
        with pytest.raises(ValueError):
            rescale(JDLVP, -1.0)


class TestSampling:
    def test_deterministic_for_seed(self):
        a = sample(JDLVP, 50, 123)
        b = sample(JDLVP, 50, 123)
        np.testing.assert_array_equal(a, b)

    def test_tuple_seed_gives_distinct_stream(self):
        base = sample(JDLVP, 50, 123)
        rep = sample(JDLVP, 50, (123, 1))
        assert not np.array_equal(base, rep)

    def test_jdlvp_moments(self):
        xs = sample(JDLVP, 100_000, 7)
        n = xs.size
        assert abs(xs.mean()) < 4.0 * math.sqrt(3.0 / n)
        # Var[X^2] = E X^4 - 9; fourth moment of the shape is finite (= 108 log coefficients aside)
        assert np.var(xs) == pytest.approx(3.0, abs=0.15)

    def test_jdlvp_ks(self):
        xs = sample(JDLVP, 100_000, 11)
        assert ks_statistic(xs, JDLVP.cdf) < 1.95 / math.sqrt(xs.size)

    def test_normal_ks(self):
        xs = sample(make_normal(2.0), 100_000, 5)
        assert ks_statistic(xs, make_normal(2.0).cdf) < 1.95 / math.sqrt(xs.size)

    def test_rescaled_sampler(self):
        wide = rescale(JDLVP, 2.0)
        xs = sample(wide, 100_000, 9)
        assert ks_statistic(xs, wide.cdf) < 1.95 / math.sqrt(xs.size)

    def test_invalid_sizes(self):
        # a bool is not a size: True drew one value; nor is a string, None,
        # a list or a complex number, which raised TypeError, nor a whole
        # number above the largest float
        for n in (0, 2.5, math.nan, math.inf, True, np.True_, False, "10", None, [3], 1 + 0j,
                  10**400):
            with pytest.raises(ValueError, match="sample size n must be a whole number >= 1"):
                sample(JDLVP, n, 1)

    # every part of a seed is a whole number >= 0: a fraction is never
    # truncated to another seed's stream, and no stream is drawn first
    BAD_SEEDS = [1.5, -1, math.nan, math.inf, True, np.True_, "7", None, [3], 1 + 0j,
                 (1, 2.5), (1, -1), (True, 1), ("7", 0), (1, 1 + 0j)]

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_invalid_seeds(self, seed, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew before checking the seed")

        monkeypatch.setattr(np.random, "PCG64", forbidden)
        with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
            sample(JDLVP, 5, seed)

    def test_whole_seeds_keep_their_bits(self):
        want = sample(JDLVP, 20, 7)
        for seed in (np.int64(7), 7.0, np.float64(7.0), np.uint8(7)):
            np.testing.assert_array_equal(sample(JDLVP, 20, seed), want)
        want = sample(JDLVP, 20, (7, 3))
        for seed in ((7.0, 3), (np.int64(7), np.int32(3)), (7, 3.0)):
            np.testing.assert_array_equal(sample(JDLVP, 20, seed), want)


class TestValidation:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            JDLVP.psi_f = 1.0  # type: ignore[misc]

    def test_make_normal_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            make_normal(0.0)
        with pytest.raises(ValueError):
            make_normal(-2.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, 1e-61, 1e-100, 1e-320, 1e61, 1e100,
                                     math.inf, math.nan])
    def test_scale_outside_its_range_is_refused(self, bad):
        # outside [1e-60, 1e60] the MISE loses its scale covariance, so
        # every constructor refuses, with the range in the message
        for build in (make_jdlvp, make_normal, lambda a: rescale(NORMAL1, a),
                      lambda a: rescale(JDLVP, a)):
            with pytest.raises(ValueError, match=r"must lie in \[1e-60, 1e\+60\]"):
                build(bad)
        with pytest.raises(ValueError, match="must lie in"):
            rescale(make_jdlvp(1e-50), 1e-20)
