"""Seeded random and deterministic initial data used across studies.

Every sampler is a pure function of (grid, seed/rng, profile parameters), so
studies built on them are bit-reproducible. Sample i of a sweep is always
derived from ``(seed, i)``, which makes sweeps prefix-stable: growing the
trial count never changes earlier samples.
"""

import numpy as np

from .spectral import SpectralField, l2_norm, sobolev_norm


def rng_for(seed, index=None):
    if index is None:
        return np.random.default_rng(seed)
    return np.random.default_rng([int(seed), int(index)])


def decay_field(grid, s, amp=1.0):
    """Deterministic algebraic spectrum ψ̂(n) = amp·⟨n⟩^{-s}, Nyquist-free.

    With s = m + 0.6 the field sits at the edge of H^m, which is the regime
    where mollification rates are actually attained.
    """
    n = grid.modes
    c = amp * (1.0 + n**2) ** (-s / 2.0)
    c = c.astype(np.complex128)
    c[grid.nyquist_index] = 0.0
    return SpectralField(grid, c)


def random_field(grid, rng, decay=2.0, l2_mass=None, hm_norm=None, m=None, max_mode=None):
    """Random field with ⟨n⟩^{-decay} envelope and Gaussian complex weights.

    Modes beyond ``max_mode`` (default: the full Nyquist-free band) are left
    empty. At most one of ``l2_mass`` / (``hm_norm``, ``m``) may be given to
    rescale the draw to a prescribed norm.
    """
    if (l2_mass is not None and hm_norm is not None) or (m is None) != (hm_norm is None):
        raise ValueError("give l2_mass, or hm_norm with m, or neither")
    n = grid.num_modes
    modes = grid.modes
    g = rng.standard_normal(2 * n)
    c = (g[:n] + 1j * g[n:]) / np.sqrt(2.0)
    c *= (1.0 + modes**2) ** (-decay / 2.0)
    c[grid.nyquist_index] = 0.0
    if max_mode is not None:
        c[np.abs(modes) > max_mode] = 0.0
    f = SpectralField(grid, c)
    if l2_mass is not None:
        cur = l2_norm(f)
        if cur == 0.0:
            raise ValueError("cannot rescale a zero draw")
        f = (l2_mass / cur) * f
    elif hm_norm is not None:
        cur = sobolev_norm(f, m)
        if cur == 0.0:
            raise ValueError("cannot rescale a zero draw")
        f = (hm_norm / cur) * f
    return f


def mode_pair_field(grid, separation, hm_norm, m,
                    phases=(0.0, 1.0, 0.7, 2.1)):
    """A low mode pair {0, 1} plus a high pair {k, k+1}, fixed H^m norm.

    Each of the four modes carries a quarter of the squared H^m norm. The
    adjacent pairs make the quartic interaction frequencies balance with a
    generic phase, so the (m+1)-derivative growth terms are active already
    at t = 0 and scale with the separation k.
    """
    half = grid.num_modes // 2
    if not 2 <= separation < half - 1:
        raise ValueError("separation outside resolved band")
    if not hm_norm > 0:
        raise ValueError(f"hm_norm must be > 0, got {hm_norm}")
    target_sq = hm_norm**2 / 4.0
    c = np.zeros(grid.num_modes, dtype=np.complex128)
    for (n, phase) in zip((0, 1, separation, separation + 1), phases):
        amp = np.sqrt(target_sq / (1.0 + n**2) ** m)
        c[n % grid.num_modes] = amp * np.exp(1j * phase)
    return SpectralField(grid, c)
