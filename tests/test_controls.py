"""Negative controls: checks that a planted defect must fail.

Each control runs one check twice: on the package as it is, where it must
pass, and with one defect monkeypatched into ``src/``, where it must fail
(a verdict or a bound, not an exception). A check that passes the defect
too shows nothing about the code it checks.

- **Dealiasing.** The quintic term of the nonlinearity needs pad 3; at
  pad 2 its products alias back into the band. On full-band data the
  nonlinearity must match an evaluation at pad 4 to round-off.
- **The mollifier's kernel.** φ(ξ) = exp(-ξ² e^{-1/ξ²}) is flat to all
  orders at 0, so the Bona–Smith error ‖f - f_ε‖_{H^{m-l}} falls like ε^l
  at every l ≤ m. A Gaussian exp(-ξ²) is flat only to second order, and
  its rates stop at about 2; criterion 4 fits l ≤ 2 only, where both pass.
- **The linear flow.** With every λ = 0 the equation is
  i∂tψ + ∂²ψ + ν∂⁴ψ = 0, solved mode by mode by
  ψ̂(n, t) = ψ̂(n, 0) e^{i(-n² + νn⁴)t}. Both steppers must match that
  closed form, written here from the equation, at criterion 1's setup and
  bound. Criterion 1's own reference, ``exact.linear_solution``, builds
  its factors with the steppers' ``kernels.semigroup_factors``, so it
  moves with them: a flipped sign of n² there passes it, but not this.
"""

import numpy as np
import pytest

from torus4nls import kernels, mollifier
from torus4nls.dynamics import (
    CoefficientSet,
    SolverConfig,
    _nonlinearity,
    integrate,
    reference_integrate,
)
from torus4nls.exact import integrable_coefficients
from torus4nls.experiments import bona_smith_rate_study
from torus4nls.sampling import decay_field, random_field, rng_for
from torus4nls.spectral import GridSpec, band_coeffs, padded_samples

ALIASING_TOL = 1e-13  # relative to the largest coefficient of the reference


def _aliasing_error(coeffs):
    """Largest deviation of ``_nonlinearity`` from a pad-4 evaluation on
    full-band data (N = 64, coefficients ⟨n⟩^{-1}), relative to the
    largest coefficient of that evaluation."""
    c = decay_field(GridSpec(64), 1.0).coeffs[None]
    u, du, d2u = padded_samples(c, 4, (0, 1, 2))
    reference = band_coeffs(kernels.nonlinear_combine(u, du, d2u, coeffs.lambdas), 64, 4)
    return float(np.max(np.abs(_nonlinearity(c, coeffs) - reference))
                 / np.max(np.abs(reference)))


class TestDealiasingControl:
    def test_pad_removes_aliasing(self):
        assert _aliasing_error(integrable_coefficients(1.0)) <= ALIASING_TOL

    def test_pad_2_for_the_quintic_term_is_caught(self, monkeypatch):
        monkeypatch.setattr(CoefficientSet, "dealias_pad", property(lambda self: 2))
        coeffs = integrable_coefficients(1.0)
        assert coeffs.dealias_pad == 2
        assert _aliasing_error(coeffs) > ALIASING_TOL


def _rate_study():
    """Criterion 4's study at l = 3 and 4, on the critical spectrum."""
    return bona_smith_rate_study(4, [3, 4], decay_field(GridSpec(1024), 4.6))


class TestMollifierControl:
    def test_paper_kernel_attains_rates_3_and_4(self):
        result = _rate_study()
        assert result.verdict == "pass", result.tables["fits"]

    def test_gaussian_kernel_is_caught(self, monkeypatch):
        monkeypatch.setattr(mollifier, "kernel_value",
                            lambda xi: np.exp(-np.asarray(xi, dtype=float) ** 2))
        result = _rate_study()
        assert result.verdict == "fail", result.tables["fits"]


LINEAR_TOL = 1e-10  # criterion 1's bound on the relative H^4 error


def _linear_flow_errors():
    """Relative H⁴ errors of both steppers at t = 1 on criterion 1's setup
    (N = 64, dt = 1e-3, ν = 1, every λ = 0), against the closed form; the
    modes, the solution and the norm are computed here."""
    nu, t = 1.0, 1.0
    data = random_field(GridSpec(64), rng_for(1), decay=2.0, l2_mass=1.0)
    n = np.fft.fftfreq(64, 1.0 / 64)
    exact = data.coeffs * np.exp(1j * (-n**2 + nu * n**4) * t)
    weights = (1.0 + n**2) ** 4

    def error(state):
        diff = np.sum(weights * np.abs(state.coeffs - exact) ** 2)
        return float(np.sqrt(diff / np.sum(weights * np.abs(exact) ** 2)))

    cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
    return [error(stepper(data, t, cfg, CoefficientSet(nu=nu)).state)
            for stepper in (integrate, reference_integrate)]


class TestLinearFlowControl:
    def test_steppers_match_the_closed_form(self):
        errors = _linear_flow_errors()
        assert max(errors) <= LINEAR_TOL, errors

    def test_flipped_dispersion_sign_is_caught(self, monkeypatch):
        def flipped(modes, t, eps, nu):  # +i n² for -i n²
            n2 = modes * modes
            return np.exp((1j * n2 + (1j * nu - eps) * n2 * n2) * t)

        monkeypatch.setattr(kernels, "semigroup_factors", flipped)
        assert min(_linear_flow_errors()) > LINEAR_TOL
