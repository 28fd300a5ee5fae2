"""Transforms, derivatives, and norms on the torus grid."""

import numpy as np
import pytest

from conftest import oracle_samples

from torus4nls.spectral import (
    GridSpec,
    SpectralField,
    band_coeffs,
    derivative,
    gn_ratio,
    l2_norm,
    lp_norm,
    padded_samples,
    sobolev_norm,
    zero_field,
)

SQ2PI = np.sqrt(2.0 * np.pi)


def single_mode(grid, n, amp=1.0):
    c = np.zeros(grid.num_modes, dtype=complex)
    c[n % grid.num_modes] = amp
    return SpectralField(grid, c)


def synthesise(coeffs):
    """Samples at the N nodes of the field's own grid (pad 1)."""
    return padded_samples(coeffs, 1, (0,))[0]


def nyquist_free_coeffs(n_modes, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    c[n_modes // 2] = 0.0
    return c


class TestGridSpec:
    def test_nodes(self):
        g = GridSpec(8)
        assert np.allclose(g.nodes, 2 * np.pi * np.arange(8) / 8)

    def test_modes_fft_order(self):
        g = GridSpec(8)
        assert list(g.modes) == [0, 1, 2, 3, -4, -3, -2, -1]

    @pytest.mark.parametrize("bad", [2, 7, 0, -4])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            GridSpec(bad)

    def test_mode_order_ascending_abs(self):
        g = GridSpec(8)
        assert [int(g.modes[i]) for i in g.mode_order] == [0, 1, -1, 2, -2, 3, -3, -4]


class TestTransforms:
    """The Fourier convention at pad 1: ``band_coeffs`` is the forward and
    ``padded_samples`` the inverse transform on the field's own grid."""

    def test_constant_forward(self):
        chat = band_coeffs(np.full(64, 2.5 + 0.5j), 64, 1)
        assert chat[0] == pytest.approx((2.5 + 0.5j) * SQ2PI)
        rest = np.abs(np.delete(chat, 0))
        assert np.max(rest) < 1e-14

    def test_single_wave_forward(self, grid64):
        chat = band_coeffs(np.exp(1j * grid64.nodes), 64, 1)
        assert chat[1] == pytest.approx(SQ2PI)
        assert np.max(np.abs(np.delete(chat, 1))) < 1e-13

    @pytest.mark.parametrize("n_modes", [16, 64, 256])
    def test_round_trip(self, n_modes):
        # Nyquist-free samples: band_coeffs zeroes the mode -N/2
        samples = synthesise(nyquist_free_coeffs(n_modes, n_modes))
        back = synthesise(band_coeffs(samples, n_modes, 1))
        rel = np.max(np.abs(back - samples)) / np.max(np.abs(samples))
        assert rel < 1e-12

    def test_inverse_constant(self, grid64):
        psi = single_mode(grid64, 0, SQ2PI)
        assert np.allclose(synthesise(psi.coeffs), 1.0)

    def test_inverse_mode_two(self, grid64):
        psi = single_mode(grid64, 2, SQ2PI)
        assert np.allclose(synthesise(psi.coeffs), np.exp(2j * grid64.nodes))

    def test_inverse_linearity(self, grid64):
        rng = np.random.default_rng(3)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        psi = SpectralField(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        chi = SpectralField(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        lhs = synthesise((a * psi + b * chi).coeffs)
        rhs = a * synthesise(psi.coeffs) + b * synthesise(chi.coeffs)
        assert np.allclose(lhs, rhs, atol=1e-13)

    @pytest.mark.parametrize("n_modes", [16, 64, 256])
    def test_parseval(self, n_modes):
        c = nyquist_free_coeffs(n_modes, n_modes + 1)
        samples = synthesise(c)
        integral = 2 * np.pi / n_modes * np.sum(np.abs(samples) ** 2)
        assert integral == pytest.approx(np.sum(np.abs(c) ** 2), rel=1e-10)
        coeff_sum = np.sum(np.abs(band_coeffs(samples, n_modes, 1)) ** 2)
        assert integral == pytest.approx(coeff_sum, rel=1e-10)


class TestDerivative:
    def test_constant_derivative_vanishes(self, grid64):
        psi = single_mode(grid64, 0, 3.0)
        assert np.all(derivative(psi, 1).coeffs == 0.0)

    def test_single_mode_factor_i(self, grid64):
        psi = single_mode(grid64, 1)
        assert derivative(psi, 1).coeff(1) == pytest.approx(1j)

    def test_fourth_derivative_mode_two(self, grid64):
        psi = single_mode(grid64, 2)
        assert derivative(psi, 4).coeff(2) == pytest.approx(16.0)

    def test_composition_exact(self, grid64):
        rng = np.random.default_rng(9)
        psi = SpectralField(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        once = derivative(derivative(psi, 2), 3)
        combined = derivative(psi, 5)
        assert np.array_equal(once.coeffs, combined.coeffs)

    def test_negative_order_rejected(self, grid64):
        with pytest.raises(ValueError):
            derivative(single_mode(grid64, 1), -1)


def _bits(a):
    """The raw bits of a complex array (signed zeros told apart)."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestPaddedSamples:
    @pytest.mark.parametrize("pad", [1, 2, 3, 4])
    def test_matches_direct_synthesis(self, pad):
        # every mode filled, the Nyquist mode -N/2 too; row 0 of the stack
        # carries a derivative and order 0 repeats
        grid = GridSpec(16)
        rng = np.random.default_rng(pad)
        c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = SpectralField(grid, c)
        orders = (3, 0, 2, 1, 0)
        samples = padded_samples(psi.coeffs, pad, orders)
        assert samples.shape == (len(orders), pad * 16)
        for row, k in zip(samples, orders):
            expect = oracle_samples(psi, pad, k)
            np.testing.assert_allclose(row, expect, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expect)))

    @pytest.mark.parametrize("n_modes", [4, 64, 1024])
    def test_pad_one_is_the_plain_inverse_fft(self, n_modes):
        # gn_ratio's samples: bit for bit the unpadded inverse transform
        rng = np.random.default_rng(n_modes)
        c = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        plain = np.fft.ifft(c) * (n_modes / SQ2PI)
        assert np.array_equal(_bits(synthesise(c)), _bits(plain))

    @pytest.mark.parametrize("pad", [1, 3])
    def test_block_rows_bitwise_equal_single_rows(self, pad):
        rng = np.random.default_rng(11)
        block = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        block[1] = 0.0  # an all-zero row keeps its zeros' signs too
        block[2, 5:] = 0.0
        samples = padded_samples(block, pad, (0, 1, 2))
        assert samples.shape == (3, 4, pad * 64)
        for b in range(4):
            alone = padded_samples(block[b], pad, (0, 1, 2))
            assert np.array_equal(_bits(samples[:, b]), _bits(alone))

    @pytest.mark.parametrize("pad", [1, 2, 3])
    def test_band_coeffs_inverts_synthesis(self, pad):
        grid = GridSpec(32)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        back = band_coeffs(padded_samples(c, pad, (0,))[0], 32, pad)
        c[grid.nyquist_index] = 0.0
        np.testing.assert_allclose(back, c, rtol=0, atol=1e-13)
        assert back[grid.nyquist_index] == 0.0


class TestNorms:
    def test_dc_mode_any_m(self, grid64):
        psi = single_mode(grid64, 0)
        for m in range(5):
            assert sobolev_norm(psi, m) == pytest.approx(1.0)

    def test_mode_one_h1(self, grid64):
        assert sobolev_norm(single_mode(grid64, 1), 1) == pytest.approx(np.sqrt(2))

    def test_mode_two_h2(self, grid64):
        assert sobolev_norm(single_mode(grid64, 2), 2) == pytest.approx(5.0)

    def test_monotone_in_m(self, grid64):
        rng = np.random.default_rng(11)
        psi = SpectralField(grid64, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        norms = [sobolev_norm(psi, m) for m in range(7)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_lp_constant(self):
        # the quadrature weight 2π/N comes from the sample count
        for n_modes in (16, 64):
            f = np.ones(n_modes)
            assert lp_norm(f, 2) == pytest.approx(np.sqrt(2 * np.pi))
            assert lp_norm(f, np.inf) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [2, 3, 4, 6, np.inf])
    def test_lp_modulus_one_wave(self, grid64, p):
        wave = np.exp(1j * grid64.nodes)
        flat = np.ones(64)
        assert lp_norm(wave, p) == pytest.approx(lp_norm(flat, p))

    def test_lp_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm(np.ones(64), 1.5)


class TestGnRatio:
    def test_single_mode_l0_p2_below_one(self, grid64):
        assert gn_ratio(single_mode(grid64, 1), 0, 1, 2) <= 1.0

    def test_alpha_half_l1_m2_p2(self, grid64):
        # alpha = (1 + 1/2 - 1/2)/2 = 1/2 makes single-mode ratios n-free
        vals = [gn_ratio(single_mode(grid64, n), 1, 2, 2) for n in (2, 5, 13)]
        assert np.allclose(vals, vals[0], rtol=1e-12)

    def test_alpha_half_l0_m1_pinf(self, grid64):
        # alpha = (0 + 1/2 - 0)/1 = 1/2: denominator is |c|sqrt(2pi)(sqrt(n)+1)
        for n in (4, 9):
            expect = 1.0 / (np.sqrt(2 * np.pi) * (np.sqrt(n) + 1.0))
            assert gn_ratio(single_mode(grid64, n), 0, 1, np.inf) == pytest.approx(expect)

    def test_zero_field_rejected(self, grid64):
        with pytest.raises(ValueError):
            gn_ratio(zero_field(grid64), 1, 2, 2)

    @pytest.mark.parametrize("l,m,p", [(2, 2, 2), (-1, 2, 2), (1, 2, 1.0)])
    def test_bad_parameters(self, grid64, l, m, p):
        with pytest.raises(ValueError):
            gn_ratio(single_mode(grid64, 1), l, m, p)

    def test_bounded_over_random_fields(self):
        # resolution-stability of the empirical constant, small version of
        # the acceptance sweep
        worst = {}
        for n_modes in (64, 128):
            grid = GridSpec(n_modes)
            ratios = []
            for i in range(200):
                rng = np.random.default_rng([77, n_modes, i])
                c = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes))
                c *= (1.0 + grid.modes**2) ** (-rng.uniform(0.25, 1.25))
                c[np.abs(grid.modes) > n_modes // 4] = 0.0
                c[grid.nyquist_index] = 0.0
                ratios.append(gn_ratio(SpectralField(grid, c), 1, 2, np.inf))
            worst[n_modes] = max(ratios)
        assert np.isfinite(worst[128])
        assert worst[128] <= 1.10 * worst[64]


class TestImmutability:
    def test_coeffs_read_only(self, grid64):
        psi = single_mode(grid64, 1)
        with pytest.raises(ValueError):
            psi.coeffs[0] = 1.0

    def test_operations_pure(self, grid64):
        psi = single_mode(grid64, 1)
        before = np.array(psi.coeffs)
        derivative(psi, 3)
        synthesise(psi.coeffs)
        gn_ratio(psi, 1, 2, np.inf)
        l2_norm(psi)
        assert np.array_equal(psi.coeffs, before)
