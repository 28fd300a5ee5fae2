"""Closed-form references: integrable coefficients, standing waves, free flow."""

import numpy as np
import pytest

from torus4nls.dynamics import SolverConfig, integrate, reference_integrate
from torus4nls.exact import (
    integrable_coefficients,
    linear_solution,
    pde_residual,
    plane_wave,
    standing_wave,
    standing_wave_frequency,
)
from torus4nls.sampling import random_field, rng_for
from torus4nls.spectral import GridSpec


class TestIntegrableCoefficients:
    def test_nu_one(self):
        c = integrable_coefficients(1.0)
        assert c.lambdas == (-0.5, -3.0 / 8.0, -1.5, -1.0, -0.5, -2.0)

    def test_nu_two(self):
        c = integrable_coefficients(2.0)
        assert c.lambdas == (-0.5, -0.75, -3.0, -2.0, -1.0, -4.0)

    def test_lambda1_nu_independent(self):
        for nu in (0.5, 1.0, -2.0, 7.0):
            assert integrable_coefficients(nu).lambda1 == -0.5

    def test_rejects_zero_nu(self):
        with pytest.raises(ValueError):
            integrable_coefficients(0.0)


class TestStandingWave:
    def test_linear_dispersion_at_zero_amplitude(self, generic_coeffs):
        for tau in (1, 2, -3):
            om = standing_wave_frequency(0.0, tau, generic_coeffs)
            assert om == pytest.approx(-(tau**2) + generic_coeffs.nu * tau**4)

    def test_constant_integrable_case(self):
        # tau = 0, kappa = 1: omega = -lambda1 - lambda2 = 1/2 + 3/8
        c = integrable_coefficients(1.0)
        grid = GridSpec(32)
        psi0, omega = standing_wave(grid, 1.0, 0, c)
        assert omega == pytest.approx(7.0 / 8.0)
        assert pde_residual(psi0, omega, c) < 1e-12

    @pytest.mark.parametrize("kappa,tau", [(0.3, 1), (0.7, 2), (0.5, -4)])
    def test_residual_gate(self, generic_coeffs, kappa, tau):
        grid = GridSpec(64)
        psi0, omega = standing_wave(grid, kappa, tau, generic_coeffs)
        assert pde_residual(psi0, omega, generic_coeffs) < 1e-11

    def test_frequency_even_in_tau(self, generic_coeffs):
        assert standing_wave_frequency(0.4, 3, generic_coeffs) == pytest.approx(
            standing_wave_frequency(0.4, -3, generic_coeffs)
        )

    def test_wrong_omega_fails_gate(self, generic_coeffs):
        grid = GridSpec(64)
        psi0 = plane_wave(grid, 0.3, 1)
        omega = standing_wave_frequency(0.3, 1, generic_coeffs)
        assert pde_residual(psi0, omega + 0.1, generic_coeffs) > 1e-3

    @pytest.mark.parametrize("stepper", ["duhamel", "rk4"])
    def test_trajectory_single_mode_and_phase(self, generic_coeffs, stepper):
        grid = GridSpec(32)
        psi0, omega = standing_wave(grid, 0.3, 1, generic_coeffs)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        run = integrate if stepper == "duhamel" else reference_integrate
        samples = []
        run(psi0, 0.5, cfg, generic_coeffs,
            lambda time, rows, members: samples.append((time, rows[0].copy())))
        off = 0.0
        phases, times = [], []
        for time, c in samples:
            power = np.abs(c) ** 2
            off = max(off, float(np.sum(power) - power[1]))
            phases.append(np.angle(c[1]))
            times.append(time)
        assert off <= 1e-8
        slope = np.polyfit(times, np.unwrap(phases), 1)[0]
        assert abs(slope - omega) / abs(omega) <= 1e-6


class TestLinearSolution:
    def test_identity_at_zero(self, grid64):
        psi = random_field(grid64, rng_for(12), decay=2.0)
        out = linear_solution(psi, 0.0, 1.0)
        assert np.allclose(out.coeffs, psi.coeffs, atol=1e-15)

    def test_unitary_inverse(self, grid64):
        psi = random_field(grid64, rng_for(13), decay=2.0)
        back = linear_solution(linear_solution(psi, 0.625, 1.0), -0.625, 1.0)
        assert np.allclose(back.coeffs, psi.coeffs, rtol=1e-12, atol=1e-15)

    def test_moduli_invariant(self, grid64):
        psi = random_field(grid64, rng_for(14), decay=2.0)
        out = linear_solution(psi, 0.3, 2.0)
        assert np.allclose(np.abs(out.coeffs), np.abs(psi.coeffs), rtol=1e-13)
