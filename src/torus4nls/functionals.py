"""Energy-type functionals: the corrected H^m energy and its positivity
certificate, the first three conserved quantities of the integrable case,
the difference energies used for uniqueness/continuity measurements, and
``EnergyRecorder``, which tabulates the energies along a run.

All spatial integrals of products are evaluated by dealiased quadrature:
``spectral.padded_samples`` synthesises the factors on a zero-padded grid
large enough that the node average of the product equals its exact mean
(pad 3 for quartic, pad 4 for sextic integrands).

``modified_energy``, ``conserved_quantities`` and ``difference_energy``
are the one-field cases of ``*_rows`` functions that take (B, N)
coefficients (or (B, M) samples) and return one value per row, each bit
for bit the value of that row alone (a 1-D array is one row).
``certify_cm`` draws its samples as one (B, N) array per grid
(``certificate_rows``) and evaluates them through these in blocks
(``spectral.row_blocks``), the ensemble studies evaluate the (B, N) block
of each step through them, and ``EnergyRecorder`` evaluates the states of
one run through them in blocks of consecutive steps."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sampling import random_rows, rng_states, rngs_from
from .spectral import (
    RECORD_POINTS,
    InputError,
    _grid,
    padded_samples,
    refusing,
    row_blocks,
    row_by_row,
    sample_layout,
    seminorm_sq,
    seminorm_sq_rows,
    sobolev_norm_sq,
    sobolev_norm_sq_rows,
)

PAD_QUARTIC = 3
PAD_SEXTIC = 4

CM_RESOLUTIONS = (32, 64, 128)  # grids the certification draws cycle through
CM_SAFETY = 2.0  # factor on the smallest c_m that holds on every sample


def quadrature_mean_rows(values):
    """∫₀^{2π} f dx of each row of (..., M) samples by the periodic
    trapezoid rule (node average × 2π)."""
    # np.mean's pairwise sum and division, without its Python wrapper
    return 2.0 * np.pi * (np.add.reduce(values, -1) / values.shape[-1])


def _quartic_weights(m, lam):
    """(2λ3+λ4+2(m-1)λ6)/(4ν) and λ5/ν, the weights of the quartic integrals."""
    w = (2.0 * lam.lambda3 + lam.lambda4 + 2.0 * (m - 1) * lam.lambda6) / (4.0 * lam.nu)
    return w, lam.lambda5 / lam.nu


def correction_terms_rows(block, m, coeffs):
    """The two quartic correction integrals of the modified energy,

    ( (λ5/ν) Re ∫ (∂^{m-1}ψ)² ψ̄² dx ,
      ((2λ3+λ4+2(m-1)λ6)/(4ν)) ∫ |∂^{m-1}ψ|² |ψ|² dx ),

    as two arrays with one entry per row ψ of (..., N) coefficients, for
    m >= 1 (``energy_terms_rows`` checks it).
    """
    u, d = padded_samples(block, PAD_QUARTIC, (0, m - 1))
    modulus_weight, phase_weight = _quartic_weights(m, coeffs)
    first = phase_weight * quadrature_mean_rows(d * d * np.conj(u) ** 2).real
    second = modulus_weight * quadrature_mean_rows(np.abs(d) ** 2 * np.abs(u) ** 2).real
    return first, second


def _mass_power(l2_sq, m):
    """‖ψ‖^{4m+2} of each row from its ‖ψ‖², row by row in Python floats; a
    ValueError naming it where it overflows, like ``check_l2_ceiling``'s."""
    return refusing(lambda: f"the modified energy's mass power ||psi||^(4m+2) "
                            f"overflows at ||psi||^2={np.max(l2_sq)}, m={m}",
                    row_by_row, lambda v: v ** (2 * m + 1), l2_sq)


class EnergyTerms(NamedTuple):
    """The terms of the modified energy, each with one entry per row (a
    scalar for a 1-D array)."""

    deriv_sq: np.ndarray  # ‖∂^m ψ‖²
    l2_sq: np.ndarray  # ‖ψ‖²
    mass_power: np.ndarray  # ‖ψ‖^{4m+2}
    first: np.ndarray  # the two terms of ``correction_terms_rows``
    second: np.ndarray

    def energy(self, c_m):
        """E_m at ``c_m``, summed in the one order that fixes its bits."""
        return self.deriv_sq + self.l2_sq + c_m * self.mass_power + self.first + self.second


def energy_terms_rows(block, m, coeffs):
    """The ``EnergyTerms`` of each row ψ of (..., N) coefficients, evaluated
    in the order ‖ψ‖², its power, the corrections, ‖∂^m ψ‖²: a mass power
    that overflows is refused before the corrections' products overflow."""
    if m < 1:
        raise InputError("m", f"must be >= 1, got {m}")
    l2_sq = sobolev_norm_sq_rows(block, 0)
    mass_power = _mass_power(l2_sq, m)
    first, second = correction_terms_rows(block, m, coeffs)
    return EnergyTerms(seminorm_sq_rows(block, m), l2_sq, mass_power, first, second)


def modified_energy_rows(block, m, coeffs, c_m):
    """‖∂^m ψ‖² + ‖ψ‖² + c_m ‖ψ‖^{4m+2} + both correction terms, for each
    row ψ of (..., N) coefficients: ``energy_terms_rows`` summed at c_m."""
    if c_m < 0.0:
        raise InputError("c_m", f"must be nonnegative, got {c_m}")
    return energy_terms_rows(block, m, coeffs).energy(c_m)


def modified_energy(psi, m, coeffs, c_m):
    """``modified_energy_rows`` of one field."""
    return float(modified_energy_rows(psi.coeffs, m, coeffs, c_m))


class ConservedQuantities(NamedTuple):
    i0: float
    i1: float
    i2: float


def conserved_rows(block, *, out=None):
    """(I₀, I₁, raw I₂) by dealiased quadrature, as three arrays with one
    entry per row ψ of (..., N) coefficients. Raw I₂ is complex: its
    odd-looking cubic terms sum to a real quantity, and its imaginary part
    is round-off for band-limited fields. ``out``, the ``sample_layout`` of
    a complex (3, ..., 4·N) array at orders (0, 1, 2), receives the samples
    (``padded_samples``' ``out``)."""
    u, du, d2u = padded_samples(block, PAD_SEXTIC, (0, 1, 2), out=out)
    au2 = np.abs(u) ** 2
    i0 = 0.5 * quadrature_mean_rows(au2)
    i1 = (
        0.5 * quadrature_mean_rows(np.abs(du) ** 2)
        - 0.125 * quadrature_mean_rows(au2**2)
    )
    i2_raw = (
        0.5 * quadrature_mean_rows(np.abs(d2u) ** 2)
        + 0.75 * quadrature_mean_rows(au2 * np.conj(u) * d2u)
        + 0.125 * quadrature_mean_rows(au2 * u * np.conj(d2u))
        + 0.625 * quadrature_mean_rows(du * du * np.conj(u) ** 2)
        + 0.75 * quadrature_mean_rows(np.abs(du) ** 2 * au2)
        + 0.0625 * quadrature_mean_rows(au2**3)
    )
    return i0, i1, i2_raw


def conserved_quantities(psi):
    """(I₀, I₁, I₂) of one field: ``conserved_rows`` of its coefficients,
    with the real part of raw I₂."""
    i0, i1, i2_raw = conserved_rows(psi.coeffs)
    return ConservedQuantities(float(i0), float(i1), float(i2_raw.real))


def difference_quartic_rows(block, ref, m, coeffs):
    """The quartic term of the difference energy around the reference state
    ``ref`` (N coefficients),

    w₁ ∫|ref|²|∂^{m-1}ψ|² dx + w₂ Re ∫ ref² (∂^{m-1}ψ̄)² dx,

    with w₁ = (2λ3+λ4+2(m-1)λ6)/(4ν) and w₂ = λ5/ν, for each row ψ of
    (..., N) coefficients.
    """
    if m < 1:
        raise InputError("m", f"must be >= 1, got {m}")
    w1, w2 = _quartic_weights(m, coeffs)
    r = padded_samples(ref, PAD_QUARTIC, (0,))[0]
    d = padded_samples(block, PAD_QUARTIC, (m - 1,))[0]
    return (
        w1 * quadrature_mean_rows(np.abs(r) ** 2 * np.abs(d) ** 2).real
        + w2 * quadrature_mean_rows(r * r * np.conj(d) ** 2).real
    )


def difference_energy(psi, ref, m, coeffs, c_tilde):
    """Difference-energy functional around a reference trajectory state,

    ‖∂^m ψ‖² + c̃ ‖ψ‖² + ``difference_quartic_rows`` of ψ;

    for m = 1 this is exactly the uniqueness-proof functional.
    """
    if psi.grid != ref.grid:
        raise ValueError("fields live on different grids")
    quartic = float(difference_quartic_rows(psi.coeffs, ref.coeffs, m, coeffs))
    return seminorm_sq(psi, m) + c_tilde * sobolev_norm_sq(psi, 0) + quartic


def positivity_target_rows(block, m, target):
    """Lower bound the certificate must enforce for E_m, for each row ψ of
    (..., N) coefficients.

    ``classic``  : ½(‖∂^m ψ‖² + ‖ψ‖²), the displayed positivity bound.
    ``sobolev``  : ½(‖ψ‖²_{H^m} + ‖ψ‖²), which dominates both the classic
                   bound and the two-sided equivalence with the full H^m
                   norm (the form the inequality sweeps check).
    """
    _check_target(target)
    if target == "classic":
        return 0.5 * (seminorm_sq_rows(block, m) + sobolev_norm_sq_rows(block, 0))
    return 0.5 * (sobolev_norm_sq_rows(block, m) + sobolev_norm_sq_rows(block, 0))


def _check_target(target):
    """An InputError unless ``target`` names a positivity target."""
    if target not in ("classic", "sobolev"):
        raise InputError("target", f"must be 'classic' or 'sobolev', got {target!r}")


@dataclass(frozen=True)
class CmCertificate:
    """What a randomized positivity search found: the constant and the
    smallest margin E_m − target over its samples."""

    c_m: float
    worst_margin: float

    def __post_init__(self):
        if self.worst_margin < 0.0:
            raise ValueError("certificate recorded a positivity violation")


def certificate_rows(grid, rngs, l2_ceiling):
    """Certification draws, one row per generator of the sequence ``rngs``:
    random envelope decay, mass at the ceiling.

    A quarter of the draws are confined to |n| <= 3; fields concentrated on
    the lowest modes are where the Sobolev-weighted lower bound is tightest,
    so the adversarial search must visit them.
    """
    decays, max_modes = [], []
    for rng in rngs:
        decays.append(float(rng.uniform(0.5, 6.0)))
        max_modes.append(int(rng.integers(1, 4)) if rng.uniform() < 0.25 else None)
    return random_rows(grid, rngs, decays, max_modes, l2_mass=l2_ceiling)


def corner_probes(grid, l2_ceiling):
    """Deterministic worst-corner fields, mass concentrated on |n| <= 3, as
    the rows of a (12, N) complex array: for n0 = 1, 2, 3, the single mode
    n0, the ±n0 pairs at relative phases 0 and π/2, and their uneven split.

    Low-mode concentrations maximise the gap between the Sobolev-weighted
    target and the plain derivative energy, and the correction integrals
    there are extremised at relative phases 0 and π/2; enumerating singles,
    ±n pairs and an uneven split covers those extremes.
    """
    scale = l2_ceiling / np.sqrt(2.0)
    probes = np.zeros((3, 4, grid.num_modes), dtype=np.complex128)
    for n0, (single, even, quarter, uneven) in zip((1, 2, 3), probes):
        single[n0] = l2_ceiling
        for c, phase in ((even, 0.0), (quarter, np.pi / 2)):
            c[n0] = scale
            c[-n0] = scale * np.exp(1j * phase)
        uneven[n0] = np.sqrt(0.75) * l2_ceiling
        uneven[-n0] = 0.5j * l2_ceiling
    return probes.reshape(12, grid.num_modes)


def check_l2_ceiling(l2_ceiling, m):
    """An InputError unless 0 < l2_ceiling < inf, and a ValueError unless
    the certificate's divisor, the mass power l2_ceiling^(4m+2), neither
    overflows nor underflows."""
    if not 0 < l2_ceiling < math.inf:
        raise InputError("l2_ceiling", f"must be > 0 and finite, got {l2_ceiling}")
    k = 4 * m + 2
    power = refusing(lambda: f"l2_ceiling^(4m+2) must be finite, got {l2_ceiling}^{k}",
                     pow, float(l2_ceiling), k)
    if power == 0.0:
        raise ValueError(f"l2_ceiling^(4m+2) must be > 0, got {l2_ceiling}^{k}")


def certify_cm(m, coeffs, l2_ceiling, trials, rng_seed, target="classic"):
    """Randomized adversarial search for the energy-positivity constant.

    The sample set combines a fixed suite of worst-corner probes with
    ``trials`` seeded random fields across ``CM_RESOLUTIONS``; the smallest
    c_m keeping E_m above the requested target on every sample is scaled
    by ``CM_SAFETY`` and returned with the worst observed margin. Sample i
    depends only on (rng_seed, i), so doubling ``trials`` never decreases
    the result: its generator draws the stream of ``rng_for(rng_seed, i)``,
    ``np.random.default_rng([rng_seed, i])``, from a seed state derived with
    every other sample's in one ``sampling.rng_states`` call. Each grid's
    samples are drawn as one (B, N) array in sample order (the probes
    first, on the first grid) and evaluated in blocks of at most
    ``spectral.BLOCK_ROWS`` rows: first every target, whose weights refuse
    an overflowing m, then every sample's ``energy_terms_rows``, once; E_m
    at 0 and at c_m are both sums of those terms. The maximum and minimum
    run over the per-sample values in the order they are drawn: the
    probes, then each grid's rows. Both are exact, so the order does not
    change their value, and probe 0 comes first in it as in sample order,
    so the result is bit for bit that of drawing and evaluating the
    samples one at a time.
    """
    if m < 1:  # before its weights or powers are taken
        raise InputError("m", f"must be >= 1, got {m}")
    if trials < 1:
        raise InputError("trials", f"must be >= 1, got {trials}")
    _check_target(target)
    check_l2_ceiling(l2_ceiling, m)
    count = len(CM_RESOLUTIONS)
    grids = [_grid(n) for n in CM_RESOLUTIONS]
    # sample i is drawn on grid i % count; fewer trials than grids leave
    # the last grids without a sample
    states = rng_states(rng_seed, range(trials))
    arrays = [certificate_rows(grid, rngs_from(states[first::count]), l2_ceiling)
              for first, grid in enumerate(grids[:trials])]
    arrays[0] = np.concatenate((corner_probes(grids[0], l2_ceiling), arrays[0]))

    def per_sample(fn):
        """``fn``'s values (one array, or a tuple of arrays, with one entry
        per row of a block) for each sample, in draw order on the last axis."""
        return np.concatenate([fn(rows[block]) for rows in arrays
                               for block in row_blocks(len(rows))], axis=-1)

    targets = per_sample(lambda c: positivity_target_rows(c, m, target))
    terms = EnergyTerms(*per_sample(lambda c: energy_terms_rows(c, m, coeffs)))
    required = 0.0
    for t, e0, mass_sq in zip(targets.tolist(), terms.energy(0.0).tolist(),
                              terms.l2_sq.tolist()):
        need = (t - e0) / mass_sq ** (2 * m + 1)
        required = max(required, need)
    c_m = CM_SAFETY * max(required, 0.0)
    worst = min((terms.energy(c_m) - targets).tolist())
    return CmCertificate(c_m=c_m, worst_margin=worst)


class EnergyRecorder:
    """Observer of one run (a stepper's ``observer``) tabulating the norms,
    the modified energy with c_m = 0 and the invariants of each state.

    ``columns`` maps the header names of ``simulate__energy.csv`` (time,
    h_m_norm_sq, deriv_m_norm_sq, l2_norm_sq, modified_energy, i0, i1, i2)
    to equal-length lists, one entry per observed state. The states are
    evaluated in blocks of consecutive steps through the ``*_rows`` forms,
    each value bit for bit the one its state gets alone (the norms are read
    from the energy's ``energy_terms_rows``): the first observed
    state at once and alone, so that data whose energy cannot be computed
    is refused before the first step; after it, a block whenever its states
    fill ``spectral.RECORD_POINTS`` padded points (at least one state).
    Reading ``columns`` evaluates the states still buffered. So an error in
    a later state surfaces when its block is evaluated: at the call that
    fills the block, or at the next read of ``columns``. A block that fails
    adds to no column. A buffered state is the row it was handed, not a
    copy: the steppers hand a new read-only array at every step.
    """

    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = coeffs
        names = ["time", "h_m_norm_sq", "deriv_m_norm_sq", "l2_norm_sq",
                 "modified_energy", "i0", "i1", "i2"]
        self._columns = {name: [] for name in names}
        self._times, self._states = [], []
        self._samples = None  # the last block shape's sample_layout

    def __call__(self, time, rows, members):
        (state,) = rows
        self._times.append(time)
        self._states.append(state)
        rows_per_block = max(1, RECORD_POINTS // (PAD_SEXTIC * state.size))
        if len(self._states) == rows_per_block or not self._columns["time"]:
            self._evaluate()

    @property
    def columns(self):
        if self._states:
            self._evaluate()
        return self._columns

    def _evaluate(self):
        """Add the buffered states' rows to the columns; the buffer is
        emptied first, so a block that fails is dropped whole."""
        times, block = self._times, np.array(self._states)
        self._times, self._states = [], []
        h_m_sq = sobolev_norm_sq_rows(block, self.m)
        # the energy before the invariants: it refuses an overflowing mass
        # power before their squares overflow with a RuntimeWarning
        terms = energy_terms_rows(block, self.m, self.coeffs)
        values = [h_m_sq, terms.deriv_sq, terms.l2_sq, terms.energy(0.0)]
        # kept while the block shape stays: allocated at every step, the
        # 196 KiB stack at N=1024 was trimmed from the heap top and faulted
        # back in (22,500 minor faults a simulate_n1024 pass, not 6,600)
        rows, n = block.shape
        if self._samples is None or self._samples[0].shape != (3, rows, PAD_SEXTIC * n):
            stack = np.empty((3, rows, PAD_SEXTIC * n), dtype=np.complex128)
            self._samples = sample_layout(stack, n, PAD_SEXTIC, (0, 1, 2))
        i0, i1, i2_raw = conserved_rows(block, out=self._samples)
        values += [i0, i1, i2_raw.real]
        for column, value in zip(self._columns.values(),
                                 [times, *(v.tolist() for v in values)]):
            column.extend(value)
