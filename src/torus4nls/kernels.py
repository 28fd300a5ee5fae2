"""The per-mode hot kernels, in numpy.

All norm reductions run in ascending-|n| order (the ``order`` permutation,
in which the callers list the weights too) so results are reproducible
independent of the FFT mode layout; they call ``np.add.reduce``, the
pairwise sum ``np.sum`` runs, without its Python wrapper.

``weighted_norm_sq`` reduces the last axis of (..., N) coefficients, and
each row of a (B, N) block gets the bits the row would get alone: the
gather is ``take`` along that axis, which keeps the block C-contiguous, so
every row is summed pairwise as a 1-D array is (fancy indexing
``c[:, order]`` does not, and then the last bits of most rows differ).
The pointwise kernels act elementwise, so they take any array shape, such
as the (B, M) blocks of an ensemble step.
"""

import numpy as np

BACKEND = "numpy"


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
    """sum_j weights[j] |coeffs[..., order[j]]|^2 over the last axis,
    accumulated in j: one value per row of (..., N) coefficients. The
    weights are listed in ``order``."""
    c = coeffs.take(order, axis=-1)
    mag2 = c.real * c.real + c.imag * c.imag
    return np.add.reduce(weights * mag2, -1)


def weighted_diff_norm_sq(a, b, weights, order):
    """sum_j weights[j] |a[order[j]]-b[order[j]]|^2, accumulated in j; the
    weights are listed in ``order``."""
    d = (a - b)[order]
    mag2 = d.real * d.real + d.imag * d.imag
    return float(np.add.reduce(weights * mag2))
