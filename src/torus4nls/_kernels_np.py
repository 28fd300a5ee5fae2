"""Pure-numpy implementations of the per-mode hot kernels.

Same call signatures as the compiled backend in ``_kernels_cy``; this module
is the import-time fallback and the reference the extension is tested against.
All norm reductions run in ascending-|n| order (the ``order`` permutation) so
results are reproducible independent of the FFT mode layout.
"""

import numpy as np

BACKEND_NAME = "numpy"


def semigroup_factors(modes, t, eps, nu):
    """Multiplier exp((-i n^2 + i nu n^4 - eps n^4) t) per mode."""
    n2 = modes * modes
    n4 = n2 * n2
    return np.exp((-1j * n2 + (1j * nu - eps) * n4) * t)


def apply_multiplier(coeffs, factors):
    return coeffs * factors


def nonlinear_combine(u, du, d2u, lam):
    """Pointwise six-term derivative nonlinearity on a physical grid.

    lam1 |u|^2 u + lam2 |u|^4 u + lam3 (du)^2 conj(u) + lam4 |du|^2 u
    + lam5 u^2 conj(d2u) + lam6 |u|^2 d2u
    """
    l1, l2, l3, l4, l5, l6 = lam
    au2 = u.real * u.real + u.imag * u.imag
    adu2 = du.real * du.real + du.imag * du.imag
    return (
        (l1 * au2 + l2 * au2 * au2 + l4 * adu2) * u
        + l3 * du * du * np.conj(u)
        + l5 * u * u * np.conj(d2u)
        + l6 * au2 * d2u
    )


def weighted_norm_sq(coeffs, weights, order):
    """sum_n weights[n] |coeffs[n]|^2, accumulated in ``order``."""
    c = coeffs[order]
    mag2 = c.real * c.real + c.imag * c.imag
    return float(np.sum(weights[order] * mag2))


def weighted_diff_norm_sq(a, b, weights, order):
    """sum_n weights[n] |a[n]-b[n]|^2, accumulated in ``order``."""
    d = (a - b)[order]
    mag2 = d.real * d.real + d.imag * d.imag
    return float(np.sum(weights[order] * mag2))
