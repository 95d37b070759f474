"""Kernel catalog: shapes, transforms, and roughness constants."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from cdf_mise.kernels import KERNEL_NAMES, Kernel, kernel_by_name, psi_k

from oracles import (
    kernel_density,
    numeric_cosine_transform,
    psi_k_space_normal,
    psi_k_space_sinc,
    psi_k_space_trapezoid,
    trapezoid_ft_tail,
)

NORMAL = kernel_by_name("normal")
TRAPEZOIDAL = kernel_by_name("trapezoidal")
SINC = kernel_by_name("sinc")
ALL = (NORMAL, TRAPEZOIDAL, SINC)


class TestCatalog:
    def test_names(self):
        assert set(KERNEL_NAMES) == {"normal", "trapezoidal", "sinc"}

    def test_one_instance_per_name(self):
        for name in KERNEL_NAMES:
            assert kernel_by_name(name) is kernel_by_name(name)
            assert kernel_by_name(name).name == name

    @pytest.mark.parametrize("kernel", ALL, ids=lambda k: k.name)
    def test_pickle_round_trip(self, kernel):
        assert pickle.loads(pickle.dumps(kernel)) == kernel

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kernel_by_name("epanechnikov")

    def test_flat_top_constants(self):
        assert (NORMAL.s_k, NORMAL.t_k) == (0.0, 0.0)
        assert (TRAPEZOIDAL.s_k, TRAPEZOIDAL.t_k) == (1.0, 1.0)
        assert (SINC.s_k, SINC.t_k) == (1.0, 1.0)

    def test_integrability_flags(self):
        assert NORMAL.integrable and TRAPEZOIDAL.integrable
        assert not SINC.integrable


class TestShapes:
    @pytest.mark.parametrize("kernel", ALL, ids=lambda k: k.name)
    def test_integrated_half_at_origin(self, kernel):
        assert kernel.integrated_fn(0.0) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("kernel", ALL, ids=lambda k: k.name)
    def test_transform_is_one_at_origin(self, kernel):
        assert float(kernel.ft(np.atleast_1d(0.0))[0]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kernel", ALL, ids=lambda k: k.name)
    def test_kernel_is_derivative_of_integrated(self, kernel):
        xs = np.array([-7.3, -2.0, -0.4, 0.9, 3.1, 11.0])
        eps = 1e-5
        fd = (kernel.integrated_fn(xs + eps) - kernel.integrated_fn(xs - eps)) / (2 * eps)
        assert np.max(np.abs(fd - kernel_density(kernel)(xs))) < 1e-8

    @pytest.mark.parametrize("kernel", (NORMAL, TRAPEZOIDAL), ids=lambda k: k.name)
    def test_integrated_settles_to_unit_step(self, kernel):
        xs = np.array([64.0, 128.0, 500.0])
        assert np.all(np.abs(1.0 - kernel.integrated_fn(xs)) < 1e-3)
        assert np.all(np.abs(kernel.integrated_fn(-xs)) < 1e-3)

    def test_normal_kernel_monotone(self):
        xs = np.linspace(-8.0, 8.0, 400)
        assert np.all(np.diff(NORMAL.integrated_fn(xs)) >= 0.0)

    def test_sinc_integrated_overshoots_unit_interval(self):
        # 1/2 + Si(x) dips below 0 at -pi and exceeds 1 at +pi.
        assert SINC.integrated_fn(-math.pi) < 0.0
        assert SINC.integrated_fn(math.pi) > 1.0


class TestTransforms:
    def test_normal_transform_is_gaussian(self):
        ts = np.linspace(0.0, 4.0, 17)
        assert np.max(np.abs(NORMAL.ft(ts) - np.exp(-0.5 * ts * ts))) < 1e-14

    def test_trapezoid_flat_then_linear(self):
        assert float(TRAPEZOIDAL.ft(np.atleast_1d(0.7))[0]) == pytest.approx(1.0, abs=1e-14)
        assert float(TRAPEZOIDAL.ft(np.atleast_1d(1.5))[0]) == pytest.approx(0.5, abs=1e-14)
        assert float(TRAPEZOIDAL.ft(np.atleast_1d(2.5))[0]) == 0.0

    @pytest.mark.parametrize("t", [0.3, 1.5, 1.9])
    def test_trapezoid_transform_matches_numeric_transform(self, t):
        # Transform of the kernel's density recomputed by QUADPACK on [-b, b] plus
        # the analytic cosine tail of the x^-2 decay.
        b = 120.0 * math.pi
        oracle = numeric_cosine_transform(kernel_density(TRAPEZOIDAL), t, b, limit=3000)
        oracle += trapezoid_ft_tail(t, b)
        assert float(TRAPEZOIDAL.ft(np.atleast_1d(t))[0]) == pytest.approx(oracle, abs=1e-9)

    def test_sinc_transform_is_band_indicator(self):
        assert float(SINC.ft(np.atleast_1d(0.9999))[0]) == 1.0
        assert float(SINC.ft(np.atleast_1d(1.0001))[0]) == 0.0


class TestRoughness:
    def test_trapezoid_value(self):
        want = (4.0 * math.log(2.0) - 2.0) / math.pi
        assert psi_k(TRAPEZOIDAL) == pytest.approx(want, abs=1e-8)
        assert TRAPEZOIDAL.psi_k_analytic == pytest.approx(want, abs=1e-15)

    def test_sinc_value(self):
        assert psi_k(SINC) == pytest.approx(1.0 / math.pi, abs=1e-8)
        assert SINC.psi_k_analytic == pytest.approx(1.0 / math.pi, abs=1e-15)

    @pytest.mark.parametrize("kernel", ALL, ids=lambda k: k.name)
    def test_analytic_matches_quadrature(self, kernel):
        assert psi_k(kernel) == pytest.approx(kernel.psi_k_analytic, abs=1e-10)

    def test_fourier_side_equals_space_side(self):
        # Both sides of the roughness identity computed by different
        # quadratures must agree for every built-in.
        assert psi_k(NORMAL) == pytest.approx(
            psi_k_space_normal(NORMAL.integrated_fn), abs=1e-9)
        assert psi_k(TRAPEZOIDAL) == pytest.approx(
            psi_k_space_trapezoid(TRAPEZOIDAL.integrated_fn), abs=1e-8)
        assert psi_k(SINC) == pytest.approx(
            psi_k_space_sinc(SINC.integrated_fn), abs=1e-8)

    def test_normal_value_is_inverse_root_pi(self):
        assert psi_k(NORMAL) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-10)


class TestValidation:
    def test_kernels_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            NORMAL.s_k = 2.0

    def test_negative_flat_top_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TRAPEZOIDAL, s_k=-0.5)

    def test_flat_top_ordering_enforced(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TRAPEZOIDAL, s_k=1.5, t_k=1.0)
