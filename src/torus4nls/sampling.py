"""Seeded random and deterministic initial data used across studies.

Every sampler is a pure function of (grid, seed/rng, profile parameters), so
studies built on them are bit-reproducible. Sample i of a sweep is always
derived from ``(seed, i)``, which makes sweeps prefix-stable: growing the
trial count never changes earlier samples.

``random_rows`` draws a (B, N) block of random coefficients, one row per
generator, and ``random_field`` is its one-row case: each row has the bits
it gets drawn alone, so a sweep can draw its samples a block at a time.
"""

import numpy as np

from .spectral import SpectralField, refusing, sobolev_norm_sq_rows

MODE_PAIR_PHASES = (0.0, 1.0, 0.7, 2.1)  # of modes 0, 1, k, k+1: generic


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


def random_rows(grid, rngs, decays, max_modes=None, l2_mass=None, hm_norm=None,
                m=None):
    """(B, N) coefficients with ⟨n⟩^{-decay} envelopes and Gaussian complex
    weights: row i is the draw of ``rngs[i]`` with envelope ``decays[i]``.

    Each generator makes one ``standard_normal(2N)`` call. Modes beyond
    ``max_modes[i]`` (None, or a None entry: the full Nyquist-free band) are
    left empty. At most one of ``l2_mass`` / (``hm_norm``, ``m``) may be given
    to rescale every row to a prescribed norm, which must be > 0 and finite.
    Each step acts on each row as it would on that row alone, so the block
    holds the bits of B one-row calls.
    """
    if (l2_mass is not None and hm_norm is not None) or (m is None) != (hm_norm is None):
        raise ValueError("give l2_mass, or hm_norm with m, or neither")
    for name, norm in (("l2_mass", l2_mass), ("hm_norm", hm_norm)):
        if norm is not None and not 0 < norm < np.inf:
            raise ValueError(f"{name} must be > 0 and finite, got {norm}")
    n = grid.num_modes
    modes = grid.modes
    g = np.stack([rng.standard_normal(2 * n) for rng in rngs])
    c = (g[:, :n] + 1j * g[:, n:]) / np.sqrt(2.0)
    # one envelope per row: numpy's power takes a reciprocal fast path for a
    # scalar exponent of -1 (decay 2) that an array of exponents does not
    base = 1.0 + modes**2
    c *= np.stack([base ** (-decay / 2.0) for decay in decays])
    c[:, grid.nyquist_index] = 0.0
    if max_modes is not None:
        cutoffs = np.array([np.inf if k is None else k for k in max_modes], dtype=float)
        c[np.abs(modes) > cutoffs[:, None]] = 0.0
    if l2_mass is not None:  # the L² norm is the H⁰ one
        hm_norm, m = l2_mass, 0
    if hm_norm is not None:
        cur = np.sqrt(sobolev_norm_sq_rows(c, m))
        if not cur.all():
            raise ValueError("cannot rescale a zero draw")
        c *= (hm_norm / cur)[:, None]
    return c


def random_field(grid, rng, decay=2.0, l2_mass=None, hm_norm=None, m=None, max_mode=None):
    """``random_rows`` of one generator, as a field."""
    rows = random_rows(grid, [rng], [decay], [max_mode], l2_mass, hm_norm, m)
    return SpectralField(grid, rows[0])


def mode_pair_field(grid, separation, hm_norm, m):
    """A low mode pair {0, 1} plus a high pair {k, k+1}, fixed H^m norm.

    Each of the four modes carries a quarter of the squared H^m norm. The
    adjacent pairs make the quartic interaction frequencies balance with a
    generic phase, so the (m+1)-derivative growth terms are active already
    at t = 0 and scale with the separation k.
    """
    half = grid.num_modes // 2
    if not 2 <= separation < half - 1:
        raise ValueError("separation outside resolved band")
    if not 0 < hm_norm < np.inf:
        raise ValueError(f"hm_norm must be > 0 and finite, got {hm_norm}")
    modes = (0, 1, separation, separation + 1)
    amps = refusing(lambda: f"hm_norm^2 overflows, or a weight <n>^(2m) does, got "
                            f"hm_norm={hm_norm}, m={m}",
                    lambda: [np.sqrt(hm_norm**2 / 4.0 / (1.0 + n**2) ** m)
                             for n in modes])
    c = np.zeros(grid.num_modes, dtype=np.complex128)
    for n, amp, phase in zip(modes, amps, MODE_PAIR_PHASES):
        c[n % grid.num_modes] = amp * np.exp(1j * phase)
    return SpectralField(grid, c)
