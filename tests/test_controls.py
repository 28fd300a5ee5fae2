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
"""

import numpy as np
import pytest

from torus4nls import kernels, mollifier
from torus4nls.dynamics import CoefficientSet, _nonlinearity
from torus4nls.exact import integrable_coefficients
from torus4nls.experiments import bona_smith_rate_study
from torus4nls.sampling import decay_field
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
