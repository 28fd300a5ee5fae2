"""Seeded random and deterministic initial data used across studies.

Every sampler is a pure function of (grid, seed/rng, profile parameters), so
studies built on them are bit-reproducible. Sample i of a sweep is always
derived from ``(seed, i)``, which makes sweeps prefix-stable: growing the
trial count never changes earlier samples.

Sample i's generator is ``rng_for(seed, i)``, numpy's
``np.random.default_rng([seed, i])``: a ``SeedSequence`` hashes the 32-bit
words of seed and i into the seed state of a ``PCG64``. A sweep derives
all its generators' states at once instead: ``rng_states`` runs that hash
for every index as uint32 array arithmetic, and ``rngs_from`` starts one
``PCG64`` per state, so generator i draws the stream of ``rng_for(seed, i)``
bit for bit, at about a quarter of the cost for a 200-sample sweep.

``random_rows`` draws a (B, N) block of random coefficients, one row per
generator, and ``random_field`` is its one-row case: each row has the bits
it gets drawn alone, so a sweep can draw its samples a block at a time.
"""

import numpy as np

from .spectral import InputError, SpectralField, refusing, sobolev_norm_sq_rows

MODE_PAIR_PHASES = (0.0, 1.0, 0.7, 2.1)  # of modes 0, 1, k, k+1: generic

# exponents at which numpy's ``array ** scalar`` takes its own path (a
# reciprocal for -1, a square root for 1/2) and gets last bits that its power
# by an array of exponents does not: decays 2 and -1
SCALAR_POWER_PATHS = (-1.0, 0.5)

# numpy's SeedSequence (after O'Neill's seed_seq_fe): the pool's word count,
# the multipliers of the entropy hash (A) and of the output hash (B), and
# the pool's mixing multipliers
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def rng_for(seed, index=None):
    if index is None:
        return np.random.default_rng(seed)
    return np.random.default_rng([int(seed), int(index)])


def _uint32_words(values):
    """(K, L) uint32 little-endian words of K non-negative ints, L for the
    largest, and each int's own word count (0 has one word), as
    ``SeedSequence`` splits an int."""
    if values and min(values) < 0:
        raise ValueError("expected non-negative integer")
    counts = [(v.bit_length() + 31) // 32 or 1 for v in values]
    words = np.zeros((len(values), max(counts, default=1)), dtype=np.uint32)
    for j in range(words.shape[1]):
        words[:, j] = [(v >> 32 * j) & MASK32 for v in values]
    return words, np.array(counts)


def _hash_constants(init, mult, count):
    """init·multᵏ mod 2³² for k = 0 … count."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & MASK32)
    return np.array(constants, dtype=np.uint32)


def _hashmix(values, constants):
    """``SeedSequence``'s hashmix of ``values`` under the running multiplier
    ``constants[k]`` → ``constants[k + 1]``, one k per column (``values``
    broadcasts against ``constants[:-1]``)."""
    v = (values ^ constants[:-1]) * constants[1:]
    return v ^ (v >> 16)


def _mix(x, y):
    """``SeedSequence``'s mix of pool words ``x`` with hashed words ``y``."""
    r = x * MIX_MULT_L - y * MIX_MULT_R
    return r ^ (r >> 16)


def _pool(entropy):
    """``SeedSequence``'s pool of each row of (K, W) uint32 entropy words."""
    width = entropy.shape[1]
    constants = _hash_constants(
        INIT_A, MULT_A, POOL_SIZE**2 + POOL_SIZE * max(width - POOL_SIZE, 0))
    head = np.zeros((len(entropy), POOL_SIZE), dtype=np.uint32)
    head[:, :min(width, POOL_SIZE)] = entropy[:, :POOL_SIZE]
    pool = _hashmix(head, constants[:POOL_SIZE + 1])
    k = POOL_SIZE
    for src in range(POOL_SIZE):  # each word into every other
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst],
                            _hashmix(pool[:, src:src + 1], constants[k:k + POOL_SIZE]))
        k += POOL_SIZE - 1
    for src in range(POOL_SIZE, width):  # entropy past the pool into every word
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1],
                                   constants[k:k + POOL_SIZE + 1]))
        k += POOL_SIZE
    return pool


def rng_states(seed, indices):
    """(K, 4) uint64 PCG64 seed states, row k the
    ``SeedSequence([seed, indices[k]]).generate_state(4, np.uint64)`` of
    ``rng_for(seed, indices[k])``, for every index at once.

    Indices of different word counts are hashed apart; entropy of more
    than ``POOL_SIZE`` words takes ``SeedSequence``'s extra mixing loop.
    """
    seed_words, _ = _uint32_words([int(seed)])
    words, counts = _uint32_words([int(i) for i in indices])
    out_constants = _hash_constants(INIT_B, MULT_B, 2 * POOL_SIZE)
    states = np.empty((len(words), 4), dtype=np.uint64)
    for count in sorted(set(counts.tolist())):  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == count)
        entropy = np.concatenate(
            (np.broadcast_to(seed_words, (len(rows), seed_words.shape[1])),
             words[rows, :count]), axis=1)
        # generate_state(4, np.uint64): 8 words, cycling through the pool
        out = _hashmix(np.tile(_pool(entropy), 2), out_constants)
        states[rows] = out.astype("<u4").view("<u8").astype(np.uint64)
    return states


class _SeedState:
    """One row of ``rng_states``, as the seed sequence of a ``PCG64``: an
    ``ISeedSequence`` of numpy's, registered by ``rngs_from``."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (4, np.uint64):
            raise ValueError(f"holds generate_state(4, np.uint64) only, "
                             f"asked for ({n_words}, {dtype})")
        return self.state


def rngs_from(states):
    """One generator per row of ``rng_states(seed, indices)``: row k's draws
    the stream of ``rng_for(seed, indices[k])`` bit for bit."""
    # here, not at import: like rng_for, the first call loads numpy.random
    # (about 15 ms), which a command that draws nothing never pays
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    return [np.random.Generator(np.random.PCG64(_SeedState(state))) for state in states]


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

    Each generator fills its row's 2N normals with one ``standard_normal``
    call, and one ``np.power`` call raises every row's envelope; a row whose
    exponent -decay/2 is one of ``SCALAR_POWER_PATHS`` is raised alone, as
    ``base ** exponent``. Modes beyond ``max_modes[i]`` (None, or a None
    entry: the full Nyquist-free band) are left empty. At most one of
    ``l2_mass`` / (``hm_norm``, ``m``) may be given to rescale every row to
    a prescribed norm, which must be > 0 and finite. Each step acts on each
    row as it would on that row alone, so the block holds the bits of B
    one-row calls.
    """
    if (l2_mass is not None and hm_norm is not None) or (m is None) != (hm_norm is None):
        raise ValueError("give l2_mass, or hm_norm with m, or neither")
    for name, norm in (("l2_mass", l2_mass), ("hm_norm", hm_norm)):
        if norm is not None and not 0 < norm < np.inf:
            raise InputError(name, f"must be > 0 and finite, got {norm}")
    n = grid.num_modes
    modes = grid.modes
    g = np.empty((len(rngs), 2 * n))
    for rng, row in zip(rngs, g):
        rng.standard_normal(out=row)
    c = (g[:, :n] + 1j * g[:, n:]) / np.sqrt(2.0)
    base = 1.0 + modes**2
    exponents = -np.array(decays, dtype=float) / 2.0
    envelopes = np.power(base, exponents[:, None])
    for i, exponent in enumerate(exponents.tolist()):
        if exponent in SCALAR_POWER_PATHS:
            envelopes[i] = base ** exponent
    c *= envelopes
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
    if not 2 <= separation < half - 1:  # the pair {k, k+1} stays below N/2
        raise InputError("separation", f"must lie in [2, {half - 2}], got {separation}")
    if not 0 < hm_norm < np.inf:
        raise InputError("hm_norm", f"must be > 0 and finite, got {hm_norm}")
    modes = (0, 1, separation, separation + 1)
    amps = refusing(lambda: f"hm_norm^2 overflows, or a weight <n>^(2m) does, got "
                            f"hm_norm={hm_norm}, m={m}",
                    lambda: [np.sqrt(hm_norm**2 / 4.0 / (1.0 + n**2) ** m)
                             for n in modes])
    c = np.zeros(grid.num_modes, dtype=np.complex128)
    for n, amp, phase in zip(modes, amps, MODE_PAIR_PHASES):
        c[n % grid.num_modes] = amp * np.exp(1j * phase)
    return SpectralField(grid, c)
