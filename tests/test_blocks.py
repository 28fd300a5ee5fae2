"""Block forms of the per-sample draws and reductions.

Every ``*_rows`` function takes (B, N) coefficients (or (B, M) samples) and
returns one value per row, and each row must carry exactly the bits of the
one-field call on that row: the verify studies evaluate their random samples
this way and their outputs are compared byte for byte. The samplers
``random_rows`` and ``certificate_rows`` draw such blocks, each row with the
bits of the one-sample draw. The studies' block evaluation is replayed here
against a per-sample loop, and a work guard fails if they fall back to one
field at a time or stack unchunked blocks.
"""

import sys
from functools import lru_cache

import numpy as np
import pytest

from conftest import certificate_sample, certify_cm_two_pass, quadrature_mean

import torus4nls.cli as cli
from torus4nls import kernels, spectral
from torus4nls.dynamics import CoefficientSet
from torus4nls.exact import integrable_coefficients
from torus4nls.experiments import GN_CASES, SWEEP_RESOLUTIONS, inequality_sweeps
from torus4nls.functionals import (
    CM_RESOLUTIONS,
    CM_SAFETY,
    certificate_rows,
    certify_cm,
    corner_probes,
    correction_terms_rows,
    difference_quartic_rows,
    modified_energy,
    modified_energy_rows,
    positivity_target_rows,
    quadrature_mean_rows,
)
from torus4nls.sampling import random_field, random_rows, rng_for, rng_states, rngs_from
from torus4nls.spectral import (
    BLOCK_ROWS,
    GridSpec,
    SpectralField,
    gn_ratio,
    gn_ratio_rows,
    lp_norm,
    lp_norm_rows,
    padded_samples,
    seminorm_sq,
    seminorm_sq_rows,
    sobolev_norm_sq,
    sobolev_norm_sq_rows,
)

GENERIC = CoefficientSet(
    nu=1.0, lambda1=0.7, lambda2=-0.3, lambda3=0.2,
    lambda4=-0.5, lambda5=0.4, lambda6=0.1,
)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@lru_cache(maxsize=None)
def _block(num_modes, rows, zero_row):
    """(rows, N) coefficients: generic draws, every third one band-limited,
    with row 1 all zero if ``zero_row``."""
    rng = np.random.default_rng(1000 * num_modes + rows)
    grid = GridSpec(num_modes)
    block = np.empty((rows, num_modes), dtype=np.complex128)
    for b in range(rows):
        max_mode = int(rng.integers(1, 6)) if b % 3 == 0 else None
        psi = random_field(grid, rng, decay=float(rng.uniform(0.5, 4.0)),
                           l2_mass=float(rng.uniform(0.2, 1.5)), max_mode=max_mode)
        block[b] = psi.coeffs
    if zero_row and rows > 1:
        block[1] = 0.0
    block.setflags(write=False)
    return block


def _on_samples(pad, fn):
    """``fn`` of the samples of ∂ψ on the pad·N grid, for (..., N) coefficients."""
    return lambda coeffs: fn(padded_samples(coeffs, pad, (1,))[0])


def _field(row):
    return SpectralField(GridSpec(row.size), row)


def _weighted(coeffs):
    """The H² norm kernel on the last axis, with the grid's ordered weights."""
    grid = GridSpec(coeffs.shape[-1])
    return kernels.weighted_norm_sq(coeffs, spectral._sobolev_weights(grid.num_modes, 2),
                                    grid.mode_order)


def _quadrature(coeffs):
    u, d = padded_samples(coeffs, 3, (0, 1))
    return np.abs(u) ** 2 * np.conj(u) * d


@lru_cache(maxsize=None)
def _ref_row(num_modes):
    """The reference state of the difference-energy cases."""
    psi = random_field(GridSpec(num_modes), rng_for(num_modes), decay=2.0,
                       l2_mass=0.9)
    return psi.coeffs


def _re_im(z):
    return np.stack([np.real(z), np.imag(z)], axis=-1)


# name -> (block function, one-field function of a 1-D coefficient row,
#          whether a zero row is allowed); a complex value compares as re, im
CASES = {
    "weighted_norm_sq": (_weighted, _weighted, True),
    **{f"sobolev_norm_sq_m{m}": (
        lambda c, m=m: sobolev_norm_sq_rows(c, m),
        lambda r, m=m: sobolev_norm_sq(_field(r), m),
        True) for m in (0, 4)},
    "seminorm_sq_m4": (
        lambda c: seminorm_sq_rows(c, 4),
        lambda r: seminorm_sq(_field(r), 4),
        True),
    **{f"lp_norm_pad{pad}_p{p}": (
        _on_samples(pad, lambda s, p=p: lp_norm_rows(s, p)),
        _on_samples(pad, lambda s, p=p: lp_norm(s, p)),
        True) for pad in (1, 3) for p in (2.0, 6.0, np.inf)},
    **{f"gn_ratio_{l}_{m}_{p}": (
        lambda c, l=l, m=m, p=p: gn_ratio_rows(c, l, m, p),
        lambda r, l=l, m=m, p=p: gn_ratio(_field(r), l, m, p),
        False) for l, m, p in GN_CASES},
    "quadrature_mean_pad3": (
        lambda c: _re_im(quadrature_mean_rows(_quadrature(c))),
        lambda r: _re_im(quadrature_mean(_quadrature(r))),
        True),
    **{f"correction_terms_m{m}": (
        lambda c, m=m: np.stack(correction_terms_rows(c, m, GENERIC), axis=-1),
        lambda r, m=m: correction_terms_rows(r, m, GENERIC),
        True) for m in (1, 4)},
    **{f"modified_energy_cm{c_m}": (
        lambda c, c_m=c_m: modified_energy_rows(c, 4, GENERIC, c_m),
        lambda r, c_m=c_m: modified_energy(_field(r), 4,
                                           GENERIC, c_m),
        True) for c_m in (0.0, 0.37)},
    **{f"positivity_target_{t}": (
        lambda c, t=t: positivity_target_rows(c, 4, t),
        lambda r, t=t: positivity_target_rows(r, 4, t),
        True) for t in ("classic", "sobolev")},
    **{f"difference_quartic_m{m}": (
        lambda c, m=m: difference_quartic_rows(c, _ref_row(c.shape[-1]), m, GENERIC),
        lambda r, m=m: difference_quartic_rows(r, _ref_row(r.size), m, GENERIC),
        True) for m in (1, 4)},
}


class TestRowsMatchOneField:
    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 200])
    @pytest.mark.parametrize("num_modes", [32, 64, 128])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_each_row_bitwise_equal(self, name, num_modes, rows):
        fn_rows, fn_one, zero_row = CASES[name]
        block = _block(num_modes, rows, zero_row)
        got = np.asarray(fn_rows(block))
        assert got.shape[0] == rows
        alone = np.array([fn_one(row) for row in block]).reshape(got.shape)
        assert np.array_equal(_bits(got), _bits(alone))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_non_contiguous_block(self, name):
        # the layout a fancy-indexed gather leaves: not C-contiguous
        fn_rows, fn_one, zero_row = CASES[name]
        block = _block(64, 33, zero_row)
        perm = np.random.default_rng(5).permutation(64)
        strided = block[:, np.argsort(perm)][:, perm]
        assert np.array_equal(strided, block) and not strided.flags.c_contiguous
        got = np.asarray(fn_rows(strided))
        alone = np.array([fn_one(row) for row in block]).reshape(got.shape)
        assert np.array_equal(_bits(got), _bits(alone))

    def test_gn_ratio_rejects_a_zero_row(self):
        block = _block(32, 3, zero_row=True)
        with pytest.raises(ValueError, match="zero field"):
            gn_ratio_rows(block, 1, 2, 2.0)


# The one-field formulas as they were written before the block forms, with
# Python scalar arithmetic wherever they had it: a block form that takes an
# array power or a differently laid-out sum moves the last bits of a study
# output, and only a comparison with these shows it (the one-field names are
# themselves the one-row case of the block forms).
def _norm_ref(coeffs, weights, order):
    c = coeffs[order]
    return float(np.add.reduce(weights[order] * (c.real * c.real + c.imag * c.imag)))


def _sobolev_ref(psi, m):
    return _norm_ref(psi.coeffs, (1.0 + psi.grid.modes**2) ** m, psi.grid.mode_order)


def _seminorm_ref(psi, m):
    return _norm_ref(psi.coeffs, np.abs(psi.grid.modes) ** (2 * m), psi.grid.mode_order)


def _lp_ref(samples, p):
    mag = np.abs(samples)
    if np.isinf(p):
        return float(np.max(mag))
    return float((2.0 * np.pi / samples.shape[-1] * np.sum(mag**p)) ** (1.0 / p))


def _gn_ref(psi, l, m, p):
    alpha = (l + 0.5 - (0.0 if np.isinf(p) else 1.0 / p)) / m
    l2 = float(np.sqrt(_sobolev_ref(psi, 0)))
    dm = float(np.sqrt(_seminorm_ref(psi, m)))
    numer = _lp_ref(padded_samples(spectral._derivative(psi.coeffs, l), 1, (0,))[0], p)
    denom = l2 ** (1.0 - alpha) * dm**alpha
    if l == 0:
        denom += l2
    return numer / denom


def _mean_ref(values):
    return 2.0 * np.pi * complex(np.mean(values))


def _corrections_ref(psi, m, lam):
    u, d = padded_samples(psi.coeffs, 3, (0, m - 1))
    w = (2.0 * lam.lambda3 + lam.lambda4 + 2.0 * (m - 1) * lam.lambda6) / (4.0 * lam.nu)
    first = lam.lambda5 / lam.nu * _mean_ref(d * d * np.conj(u) ** 2).real
    second = w * _mean_ref(np.abs(d) ** 2 * np.abs(u) ** 2).real
    return first, second


def _quartic_ref(psi, ref, m, lam):
    """``difference_energy``'s quartic term as it was written before its
    block form: both fields synthesised by one call, on the diagonal."""
    w1 = (2.0 * lam.lambda3 + lam.lambda4 + 2.0 * (m - 1) * lam.lambda6) / (4.0 * lam.nu)
    s = padded_samples(np.stack([ref.coeffs, psi.coeffs]), 3, (0, m - 1))
    r, d = s[0, 0], s[1, 1]
    return (w1 * _mean_ref(np.abs(r) ** 2 * np.abs(d) ** 2).real
            + lam.lambda5 / lam.nu * _mean_ref(r * r * np.conj(d) ** 2).real)


def _energy_ref(psi, m, lam, c_m):
    l2_sq = _sobolev_ref(psi, 0)
    first, second = _corrections_ref(psi, m, lam)
    return _seminorm_ref(psi, m) + l2_sq + c_m * l2_sq ** (2 * m + 1) + first + second


REFERENCES = {
    "weighted_norm_sq": lambda r: _sobolev_ref(_field(r), 2),
    **{f"sobolev_norm_sq_m{m}": lambda r, m=m: _sobolev_ref(_field(r), m)
       for m in (0, 4)},
    "seminorm_sq_m4": lambda r: _seminorm_ref(_field(r), 4),
    **{f"lp_norm_pad{pad}_p{p}": _on_samples(pad, lambda s, p=p: _lp_ref(s, p))
       for pad in (1, 3) for p in (2.0, 6.0, np.inf)},
    **{f"gn_ratio_{l}_{m}_{p}": lambda r, l=l, m=m, p=p: _gn_ref(_field(r), l, m, p)
       for l, m, p in GN_CASES},
    "quadrature_mean_pad3": lambda r: _re_im(_mean_ref(_quadrature(r))),
    **{f"correction_terms_m{m}": lambda r, m=m: _corrections_ref(_field(r), m, GENERIC)
       for m in (1, 4)},
    **{f"modified_energy_cm{c_m}":
       lambda r, c_m=c_m: _energy_ref(_field(r), 4, GENERIC, c_m)
       for c_m in (0.0, 0.37)},
    "positivity_target_classic": lambda r: 0.5 * (_seminorm_ref(_field(r), 4)
                                                  + _sobolev_ref(_field(r), 0)),
    "positivity_target_sobolev": lambda r: 0.5 * (_sobolev_ref(_field(r), 4)
                                                  + _sobolev_ref(_field(r), 0)),
    **{f"difference_quartic_m{m}":
       lambda r, m=m: _quartic_ref(_field(r), _field(_ref_row(r.size)), m, GENERIC)
       for m in (1, 4)},
}


class TestRowsMatchScalarReference:
    def test_every_case_has_a_reference(self):
        assert set(REFERENCES) == set(CASES)

    @pytest.mark.parametrize("num_modes", [32, 64, 128])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_bitwise_equal_reference(self, name, num_modes):
        fn_rows, _, zero_row = CASES[name]
        block = _block(num_modes, 33, zero_row)
        got = np.asarray(fn_rows(block))
        expect = np.array([REFERENCES[name](row) for row in block]).reshape(got.shape)
        assert np.array_equal(_bits(got), _bits(expect))


def _random_field_reference(grid, rng, decay, max_mode, l2_mass=None, hm_norm=None,
                            m=None):
    """``random_field``'s arithmetic as it was written before the block
    draw: one generator, one row."""
    n = grid.num_modes
    modes = grid.modes
    g = rng.standard_normal(2 * n)
    c = (g[:n] + 1j * g[n:]) / np.sqrt(2.0)
    c *= (1.0 + modes**2) ** (-decay / 2.0)
    c[grid.nyquist_index] = 0.0
    if max_mode is not None:
        c[np.abs(modes) > max_mode] = 0.0
    if l2_mass is not None:
        hm_norm, m = l2_mass, 0
    if hm_norm is not None:
        scale = hm_norm / float(np.sqrt(sobolev_norm_sq(SpectralField(grid, c), m)))
        c = c * scale  # a field scaled as its coefficients times the scalar
    return c


class TestRandomRows:
    MAX_MODES = (None, 0, 1, 3, None, 2)

    @staticmethod
    def _decays(rows):
        """2.0 (numpy's reciprocal power), 4.0 and uniform draws in turn."""
        pool = rng_for(99, rows)
        return [(2.0, 4.0, float(pool.uniform(0.5, 6.0)))[b % 3] for b in range(rows)]

    @pytest.mark.parametrize("rescale", [{}, {"l2_mass": 0.8}, {"hm_norm": 0.4, "m": 4}],
                             ids=["none", "l2_mass", "hm_norm"])
    @pytest.mark.parametrize("rows", [1, 5, 33])
    @pytest.mark.parametrize("num_modes", [32, 64, 128, 1024])
    def test_each_row_bitwise_equal_reference(self, num_modes, rows, rescale):
        grid = GridSpec(num_modes)
        decays = self._decays(rows)
        max_modes = [self.MAX_MODES[b % len(self.MAX_MODES)] for b in range(rows)]
        block = random_rows(grid, [rng_for(5, b) for b in range(rows)], decays,
                            max_modes, **rescale)
        assert block.shape == (rows, num_modes)
        for b in range(rows):
            expect = _random_field_reference(grid, rng_for(5, b), decays[b],
                                             max_modes[b], **rescale)
            assert block[b].tobytes() == expect.tobytes()

    # the decays at which numpy's scalar power takes its own path (x ** -1,
    # x ** 0, x ** 0.5, x ** 1, x ** 2), even decays and uniform draws; the
    # studies draw up to BLOCK_ROWS rows a call, and numpy picks its power
    # loop by the block's shape
    DECAYS = ([2.0, 0.0, -1.0, -2.0, -4.0, 4.0, 6.0, 8.0]
              + rng_for(7).uniform(0.5, 6.0, 200).tolist())

    @pytest.mark.parametrize("rescale", [{}, {"l2_mass": 0.8}, {"hm_norm": 0.4, "m": 4}],
                             ids=["none", "l2_mass", "hm_norm"])
    @pytest.mark.parametrize("cut", [False, True], ids=["full_band", "max_modes"])
    @pytest.mark.parametrize("num_modes", [32, 64, 128, 256, 1024])
    def test_envelopes_bitwise_equal_per_row_power(self, num_modes, cut, rescale):
        grid = GridSpec(num_modes)
        count = len(self.DECAYS)
        max_modes = [b % 5 + 1 if cut else None for b in range(count)]
        expect = [_random_field_reference(grid, rng_for(3, b), self.DECAYS[b],
                                          max_modes[b], **rescale).tobytes()
                  for b in range(count)]
        for rows in (1, 2, 3, BLOCK_ROWS, count):
            for start in range(0, count, rows):
                span = range(start, min(start + rows, count))
                block = random_rows(grid, [rng_for(3, b) for b in span],
                                    [self.DECAYS[b] for b in span],
                                    [max_modes[b] for b in span], **rescale)
                assert [row.tobytes() for row in block] == expect[span.start:span.stop]

    def test_one_row_is_random_field(self):
        grid = GridSpec(64)
        block = random_rows(grid, [rng_for(8, b) for b in range(3)], [2.0, 1.5, 2.0],
                            [None, 4, 0], hm_norm=0.4, m=4)
        for b, (decay, max_mode) in enumerate([(2.0, None), (1.5, 4), (2.0, 0)]):
            psi = random_field(grid, rng_for(8, b), decay=decay, hm_norm=0.4, m=4,
                               max_mode=max_mode)
            assert block[b].tobytes() == psi.coeffs.tobytes()

    def test_block_with_a_zero_draw_raises(self):
        # a negative max_mode empties every mode of its row
        with pytest.raises(ValueError, match="cannot rescale a zero draw"):
            random_rows(GridSpec(32), [rng_for(1, b) for b in range(3)], [2.0] * 3,
                        [None, -1, 2], l2_mass=1.0)

    @pytest.mark.parametrize("num_modes", [32, 64, 128])
    def test_certificate_rows_leave_each_generator_as_one_draw(self, num_modes):
        grid = GridSpec(num_modes)
        alone = [rng_for(17, i) for i in range(40)]
        blocked = [rng_for(17, i) for i in range(40)]
        block = certificate_rows(grid, blocked, 1.3)
        for row, one, rng in zip(block, alone, blocked):
            assert row.tobytes() == certificate_sample(grid, one, 1.3).coeffs.tobytes()
            assert one.standard_normal(3).tobytes() == rng.standard_normal(3).tobytes()


def _certify_reference(m, coeffs, l2_ceiling, trials, rng_seed, target):
    """``certify_cm`` one sample at a time, as it was written before the
    block evaluation: (c_m, worst margin)."""
    grid = GridSpec(min(CM_RESOLUTIONS))
    samples = [SpectralField(grid, c) for c in corner_probes(grid, l2_ceiling)]
    for i in range(trials):
        rng = rng_for(rng_seed, i)
        grid = GridSpec(CM_RESOLUTIONS[i % len(CM_RESOLUTIONS)])
        samples.append(certificate_sample(grid, rng, l2_ceiling))
    required = 0.0
    targets = []
    for psi in samples:
        t = float(positivity_target_rows(psi.coeffs, m, target))
        e0 = modified_energy(psi, m, coeffs, 0.0)
        need = (t - e0) / sobolev_norm_sq(psi, 0) ** (2 * m + 1)
        required = max(required, need)
        targets.append(t)
    c_m = CM_SAFETY * max(required, 0.0)
    worst = min(modified_energy(psi, m, coeffs, c_m) - t
                for psi, t in zip(samples, targets))
    return c_m, worst


def _sweep_reference(seed, trials, m, c_m, l2_ceiling):
    """The gn sweep's and the energy equivalence's per-sample loops."""
    coeffs = integrable_coefficients(1.0)
    max_ratios = []
    for case_idx, (l, mm, p) in enumerate(GN_CASES):
        for n in SWEEP_RESOLUTIONS:
            grid = GridSpec(n)
            worst = 0.0
            for i in range(trials):
                rng = rng_for(seed, case_idx * 1_000_000 + n * 1_000 + i)
                decay = float(rng.uniform(0.5, 2.5))
                psi = random_field(grid, rng, decay=decay, max_mode=n // 4)
                worst = max(worst, gn_ratio(psi, l, mm, p))
            max_ratios.append(worst)
    worst_lower = np.inf
    upper = []
    for n in SWEEP_RESOLUTIONS:
        grid = GridSpec(n)
        c_upper = 0.0
        for i in range(trials):
            psi = certificate_sample(grid, rng_for(seed + 2, n * 1_000_000 + i),
                                     l2_ceiling)
            e_val = modified_energy(psi, m, coeffs, c_m)
            hm_sq = sobolev_norm_sq(psi, m)
            l2_sq = sobolev_norm_sq(psi, 0)
            worst_lower = min(worst_lower, e_val - 0.5 * hm_sq)
            c_upper = max(c_upper, e_val / ((l2_sq ** (2 * m) + 1.0) * hm_sq))
        upper.append(c_upper)
    return max_ratios, upper, worst_lower


class TestBlockSeeding:
    """``rngs_from(rng_states(seed, indices))`` is the generators
    ``np.random.default_rng([seed, i])`` of ``indices``, byte for byte: the
    seeds and indices span one to seven 32-bit words, so the entropy takes
    every word count up to and past the pool's four."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7, 2**200)
    # mixed word counts in one call, out of order
    INDICES = (2**70, 0, 2**32, 1, 2**32 - 1, 7, 2**32 + 1)
    DRAWS = (lambda g: g.uniform(0.5, 6.0, 3), lambda g: g.integers(1, 4, 5),
             lambda g: g.uniform(), lambda g: g.standard_normal(9))

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"{s.bit_length()}bit")
    def test_streams_are_default_rng(self, seed):
        states = rng_states(seed, self.INDICES)
        assert states.shape == (len(self.INDICES), 4) and states.dtype == np.uint64
        for state, index in zip(states, self.INDICES):
            expect = np.random.SeedSequence([seed, index]).generate_state(4, np.uint64)
            assert state.tobytes() == expect.tobytes()
        for rng, index in zip(rngs_from(states), self.INDICES):
            ref = np.random.default_rng([seed, index])
            for draw in self.DRAWS:
                assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(ref)).tobytes()

    def test_no_indices(self):
        states = rng_states(2**64 + 3, [])
        assert states.shape == (0, 4) and states.dtype == np.uint64
        assert rngs_from(states) == []

    def test_negative_refused_as_default_rng_refuses(self):
        for seed, index in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                np.random.default_rng([seed, index])
            with pytest.raises(ValueError, match="expected non-negative integer"):
                rng_states(seed, [index])

    @pytest.mark.parametrize("asked", [(8, np.uint32), (4, np.uint32), (2, np.uint64)])
    def test_state_holds_only_what_pcg64_asks_for(self, asked):
        seed_seq = rngs_from(rng_states(5, [0]))[0].bit_generator.seed_seq
        with pytest.raises(ValueError, match=r"generate_state\(4, np.uint64\) only"):
            seed_seq.generate_state(*asked)


class TestStudiesReplayPerSample:
    TRIALS = 45  # not a multiple of BLOCK_ROWS: every grid gets a short block

    @pytest.mark.parametrize("seed", [31, 4, 2**64 + 9])
    @pytest.mark.parametrize("target", ["classic", "sobolev"])
    @pytest.mark.parametrize("coeffs", [integrable_coefficients(1.0), GENERIC],
                             ids=["integrable", "generic"])
    def test_certify_cm(self, seed, target, coeffs):
        assert self.TRIALS % BLOCK_ROWS
        cert = certify_cm(4, coeffs, 1.0, trials=self.TRIALS, rng_seed=seed,
                          target=target)
        c_m, worst = _certify_reference(4, coeffs, 1.0, self.TRIALS, seed, target)
        assert cert.c_m.hex() == c_m.hex()
        assert cert.worst_margin.hex() == worst.hex()

    @pytest.mark.parametrize("seed", [0, 31, 2**64])
    @pytest.mark.parametrize("trials", [1, 2, 4, 7, 200])
    @pytest.mark.parametrize("target", ["classic", "sobolev"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["sample-order", "reversed"])
    def test_certify_cm_equals_two_passes(self, seed, trials, target, reverse):
        # certify_cm reduces in draw order (the probes, then each grid's
        # rows): its maximum and minimum are the ones of sample order and of
        # its reverse, byte for byte
        coeffs = integrable_coefficients(1.0)
        cert = certify_cm(4, coeffs, 1.0, trials=trials, rng_seed=seed, target=target)
        expect = certify_cm_two_pass(4, coeffs, 1.0, trials, seed, target, reverse)
        assert cert.c_m.hex() == expect.c_m.hex()
        assert cert.worst_margin.hex() == expect.worst_margin.hex()

    @pytest.mark.parametrize("seed", [123, 8, 2**64])
    def test_inequality_sweeps(self, seed):
        result = inequality_sweeps(seed, self.TRIALS)
        m = result.parameters["m"]
        c_m, _ = _certify_reference(m, integrable_coefficients(1.0), 1.0,
                                    result.parameters["certificate_trials"],
                                    seed + 1, "sobolev")
        assert result.parameters["c_m"].hex() == c_m.hex()
        max_ratios, upper, worst_lower = _sweep_reference(seed, self.TRIALS, m, c_m,
                                                          1.0)
        gn = result.tables["gn_sweep"]
        top = max_ratios[len(SWEEP_RESOLUTIONS) - 1 :: len(SWEEP_RESOLUTIONS)]
        low = max_ratios[:: len(SWEEP_RESOLUTIONS)]
        assert [x.hex() for x in gn["max_ratio"]] == [x.hex() for x in top]
        assert [x.hex() for x in gn["growth"]] == [(a / b).hex()
                                                   for a, b in zip(top, low)]
        energy = result.tables["energy_equivalence"]
        assert [x.hex() for x in energy["upper_const"]] == [x.hex() for x in upper]
        assert energy["worst_lower_margin"][0].hex() == worst_lower.hex()


class TestWorkIsPerBlock:
    """``sweep-inequalities`` and ``certify-cm`` synthesise samples once per
    block of at most ``BLOCK_ROWS`` rows: a fall-back to one field at a time
    multiplies the transforms by the block size, and an unchunked block
    stacks more rows than the bound. The certificate synthesises each of its
    samples once: a second energy pass doubles its transforms."""

    TRIALS = 40

    def test_block_size(self):
        # the bound the peak resident set and the wall time were measured at
        assert BLOCK_ROWS == 32

    @staticmethod
    def _spy(monkeypatch):
        shapes, ffts = [], []
        original, ifft = spectral.padded_samples, np.fft.ifft

        def spy(coeffs, pad, orders):
            shapes.append(coeffs.shape)
            return original(coeffs, pad, orders)

        def counted_ifft(*args, **kwargs):
            ffts.append(args[0].shape)
            return ifft(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("torus4nls") and \
                    getattr(module, "padded_samples", None) is original:
                monkeypatch.setattr(module, "padded_samples", spy)
        monkeypatch.setattr(np.fft, "ifft", counted_ifft)
        return shapes, ffts

    @staticmethod
    def _blocks(rows):
        return -(-rows // BLOCK_ROWS)

    def _certify_blocks(self, trials):
        """Blocks of one ``energy_terms_rows`` pass over the samples: the
        certificate's only padded samples."""
        rows = dict.fromkeys(CM_RESOLUTIONS, 0)
        rows[min(CM_RESOLUTIONS)] += len(corner_probes(GridSpec(32), 1.0))
        for i in range(trials):
            rows[CM_RESOLUTIONS[i % len(CM_RESOLUTIONS)]] += 1
        return sum(self._blocks(r) for r in rows.values())

    def _run(self, tmp_path, monkeypatch, argv):
        shapes, ffts = self._spy(monkeypatch)
        code = cli.run_command(argv + ["--trials", str(self.TRIALS),
                                       "--outdir", str(tmp_path)])
        assert code in (0, 1)  # a verdict either way; 40 trials may not pass
        assert all(len(s) == 2 and s[0] <= BLOCK_ROWS for s in shapes), shapes
        assert len(ffts) == len(shapes)
        return shapes

    def test_sweep_inequalities(self, tmp_path, monkeypatch):
        shapes = self._run(tmp_path, monkeypatch, ["sweep-inequalities"])
        cert_trials = max(self.TRIALS // 2, 50)
        per_grid = self._blocks(self.TRIALS)
        expect = (self._certify_blocks(cert_trials)
                  + len(GN_CASES) * len(SWEEP_RESOLUTIONS) * per_grid
                  + len(SWEEP_RESOLUTIONS) * per_grid)
        assert len(shapes) == expect

    def test_certify_cm(self, tmp_path, monkeypatch):
        shapes = self._run(tmp_path, monkeypatch, ["certify-cm", "--nu", "1",
                                                   "--integrable"])
        assert len(shapes) == self._certify_blocks(self.TRIALS)
