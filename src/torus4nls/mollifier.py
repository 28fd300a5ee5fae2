"""Fourier-multiplier mollification of initial data.

The kernel φ(ξ) = exp(-ξ² exp(-1/ξ²)) is flat to all orders at ξ = 0
(φ(0) = 1, every derivative vanishes there), takes values in [0, 1], and
decays like a Gaussian for large |ξ|. Mollification multiplies coefficient
n by φ(εn), which smooths with the sharp approximation rates
‖f - f_ε‖_{H^{m-l}} = O(ε^l) on data of limited regularity.
"""

import numpy as np

from .spectral import InputError, SpectralField


def kernel_value(xi):
    """φ(ξ) = exp(-ξ² e^{-1/ξ²}), with φ(0) = 1. Accepts scalars or arrays."""
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    nz = xi != 0.0
    x2 = xi[nz] ** 2
    out[nz] = np.exp(-x2 * np.exp(-1.0 / x2))
    if out.ndim == 0:
        return float(out)
    return out


def mollify(data, eps):
    """Multiply coefficient n by φ(εn); an InputError of ``eps`` unless ε
    lies in (0, 1]."""
    if not 0.0 < eps <= 1.0:
        raise InputError("eps", f"must lie in (0, 1], got {eps}")
    return SpectralField(data.grid, data.coeffs * kernel_value(eps * data.grid.modes))
