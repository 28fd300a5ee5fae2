"""Mollification kernel properties and approximation rates."""

import numpy as np
import pytest

from conftest import multiplier_sup

from torus4nls.mollifier import kernel_value, mollify
from torus4nls.sampling import decay_field
from torus4nls.spectral import GridSpec, sobolev_distance, sobolev_norm

from torus4nls.experiments import RateFit


class TestKernel:
    def test_value_at_origin(self):
        assert kernel_value(0.0) == 1.0

    def test_symmetric(self):
        xi = np.linspace(0.01, 30, 500)
        assert np.allclose(kernel_value(xi), kernel_value(-xi))

    def test_range(self):
        xi = np.linspace(-50, 50, 2001)
        vals = kernel_value(xi)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_superpolynomial_decay(self):
        for power in (2, 6, 10):
            assert kernel_value(40.0) * 40.0**power < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_flat_at_origin(self, order):
        # central finite differences; every derivative vanishes at 0
        h = 0.05
        stencils = {
            1: ([-0.5, 0.5], [-1, 1]),
            2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
            3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
            4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
        }
        weights, offsets = stencils[order]
        est = sum(w * kernel_value(k * h) for w, k in zip(weights, offsets))
        assert abs(est / h**order) < 1e-8


class TestMollify:
    def test_single_mode_definitional(self):
        grid = GridSpec(32)
        c = np.zeros(32, dtype=complex)
        c[5] = 2.0 - 1.0j
        from torus4nls.spectral import SpectralField

        psi = SpectralField(grid, c)
        out = mollify(psi, 0.25)
        assert out.coeffs[5] == pytest.approx((2.0 - 1.0j) * kernel_value(0.25 * 5))

    def test_eps_to_zero_pointwise(self):
        grid = GridSpec(64)
        data = decay_field(grid, 3.0)
        for eps in (1e-2, 1e-3, 1e-4):
            out = mollify(data, eps)
            if eps == 1e-4:
                assert np.max(np.abs(out.coeffs - data.coeffs)) < 1e-8

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_eps_out_of_range(self, eps):
        grid = GridSpec(32)
        with pytest.raises(ValueError):
            mollify(decay_field(grid, 3.0), eps)

    def test_difference_bounded_uniformly(self):
        # 0 <= 1 - kernel <= 1, so the H^m difference never exceeds the norm
        grid = GridSpec(256)
        data = decay_field(grid, 4.6)
        hm = sobolev_norm(data, 4)
        for eps in (1.0, 0.5, 0.1, 0.01):
            assert sobolev_distance(data, mollify(data, eps), 4) <= hm

    @pytest.mark.parametrize("l", [1, 2])
    def test_convergence_rate(self, l):
        # critical-decay data attains the advertised order within 15%
        m = 4
        grid = GridSpec(1024)
        data = decay_field(grid, m + 0.6)
        ladder = [2.0**-k for k in range(1, 9)]
        errs = [sobolev_distance(data, mollify(data, e), m - l) for e in ladder]
        fit = RateFit.fit(ladder, errs)
        assert 0.85 * l <= fit.slope <= 1.15 * l

    @pytest.mark.parametrize("l", [1, 2])
    def test_smoothing_gain_rate(self, l):
        # ||f_eps||_{H^{m+l}} <= C eps^-l ||f||_{H^m}: fitted slope near -l
        m = 4
        grid = GridSpec(1024)
        data = decay_field(grid, m + 0.6)
        ladder = [2.0**-k for k in range(1, 9)]
        gains = [sobolev_norm(mollify(data, e), m + l) for e in ladder]
        fit = RateFit.fit(ladder, gains)
        assert -1.15 * l <= fit.slope <= -0.85 * l

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_multiplier_sup_finite(self, l):
        # sup <xi>^l kernel(xi) certifies the H^{m+l} gain constant
        sup = multiplier_sup(l)
        assert np.isfinite(sup) and sup >= 1.0

    def test_gain_bounded_by_multiplier_sup(self):
        # ||f_eps||_{H^{m+l}} <= sup_xi <xi>^l phi(xi) * eps^-l * ||f||_{H^m}
        # (coefficientwise, using <eps n>^l >= (eps n)^l and eps <= 1)
        m, l = 3, 2
        grid = GridSpec(512)
        data = decay_field(grid, m + 0.6)
        bound = multiplier_sup(l)
        for eps in (0.5, 0.1, 0.02):
            gain = sobolev_norm(mollify(data, eps), m + l)
            assert gain <= bound * eps**-l * sobolev_norm(data, m) * (1 + 1e-12)
