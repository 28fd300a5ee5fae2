"""Closed-form references: plane-wave standing solutions, pure linear flow,
and the completely integrable coefficient choice."""

import numpy as np

from .dynamics import CoefficientSet, eval_nonlinearity, semigroup_apply
from .spectral import SQRT_2PI, InputError, SpectralField, l2_norm, refusing

RESIDUAL_TOL = 1e-9  # relative to max(‖ψ₀‖_L², 1)


def integrable_coefficients(nu):
    """The unique coefficient set with infinitely many conserved quantities:
    λ1 = -1/2, λ2 = -3ν/8, λ3 = -3ν/2, λ4 = -ν, λ5 = -ν/2, λ6 = -2ν."""
    lambdas = refusing(
        lambda: InputError("nu", f"must be finite with finite integrable lambdas "
                                 f"-3nu/8, -3nu/2, -nu, -nu/2 and -2nu, got {nu}"),
        lambda: (-0.5, -3.0 * nu / 8.0, -1.5 * nu, -nu, -0.5 * nu, -2.0 * nu))
    return CoefficientSet(nu, *lambdas)


def standing_wave_frequency(kappa, tau, coeffs):
    """Rotation rate ω making κ e^{i(τx + ωt)} an exact solution.

    Substituting the plane wave into the equation gives
    ω = -τ² + ντ⁴ - λ1κ² - λ2κ⁴ + (λ3 - λ4 + λ5 + λ6) τ² κ².
    """
    c = coeffs
    return (
        -(tau**2)
        + c.nu * tau**4
        - c.lambda1 * kappa**2
        - c.lambda2 * kappa**4
        + (c.lambda3 - c.lambda4 + c.lambda5 + c.lambda6) * tau**2 * kappa**2
    )


def plane_wave(grid, kappa, tau):
    """κ e^{iτx} as a spectral field (single coefficient κ√(2π) at mode τ)."""
    coeff = refusing(lambda: InputError("kappa", f"must be finite with a finite "
                                                 f"kappa*sqrt(2*pi), got {kappa}"),
                     lambda: float(kappa) * SQRT_2PI)
    if not isinstance(tau, (int, np.integer)):
        raise InputError("tau", "must be an integer for periodicity")
    grid.check_mode(tau, "tau")
    c = np.zeros(grid.num_modes, np.complex128)
    c[tau % grid.num_modes] = coeff
    return SpectralField(grid, c)


def pde_residual(psi0, omega, coeffs):
    """L² residual of i∂tψ + ∂²ψ + ν∂⁴ψ - N(ψ) at t = 0 with ∂tψ = iωψ."""
    grid = psi0.grid
    n2 = grid.modes**2
    linear = (-omega - n2 + coeffs.nu * n2**2) * psi0.coeffs
    nonlin = eval_nonlinearity(psi0, coeffs)
    return l2_norm(SpectralField(grid, linear - nonlin.coeffs))


def standing_wave(grid, kappa, tau, coeffs):
    """Exact standing-wave datum and its rotation rate, gated by a residual
    check of the derived ω rather than trusting the algebra."""
    psi0 = plane_wave(grid, kappa, tau)
    omega = standing_wave_frequency(kappa, tau, coeffs)
    res = pde_residual(psi0, omega, coeffs)
    scale = max(l2_norm(psi0), 1.0)
    if res > RESIDUAL_TOL * scale:
        raise AssertionError(
            f"standing-wave residual {res:.3e} exceeds gate {RESIDUAL_TOL:.1e}"
        )
    return psi0, omega


def linear_solution(psi0, t, nu):
    """Free evolution (ε = 0), valid for all real t (unitary flow)."""
    return semigroup_apply(psi0, t, 0.0, nu)
