"""Energy-type functionals: the corrected H^m energy and its positivity
certificate, the first three conserved quantities of the integrable case,
the difference energies used for uniqueness/continuity measurements, and
``EnergyRecorder``, which tabulates the energies along a run.

All spatial integrals of products are evaluated by dealiased quadrature:
``spectral.padded_samples`` synthesises the factors on a zero-padded grid
large enough that the node average of the product equals its exact mean
(pad 3 for quartic, pad 4 for sextic integrands).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import CoefficientSet
from .sampling import random_field, rng_for
from .spectral import GridSpec, SpectralField, padded_samples, seminorm_sq, sobolev_norm_sq

PAD_QUARTIC = 3
PAD_SEXTIC = 4


def quadrature_mean(values):
    """∫₀^{2π} f dx by the periodic trapezoid rule (node average × 2π)."""
    return 2.0 * np.pi * complex(np.mean(values))


def _quartic_weights(m, lam):
    """(2λ3+λ4+2(m-1)λ6)/(4ν) and λ5/ν, the weights of the quartic integrals."""
    w = (2.0 * lam.lambda3 + lam.lambda4 + 2.0 * (m - 1) * lam.lambda6) / (4.0 * lam.nu)
    return w, lam.lambda5 / lam.nu


def correction_terms(psi, m, coeffs):
    """The two quartic correction integrals of the modified energy:

    ( (λ5/ν) Re ∫ (∂^{m-1}ψ)² ψ̄² dx ,
      ((2λ3+λ4+2(m-1)λ6)/(4ν)) ∫ |∂^{m-1}ψ|² |ψ|² dx )
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    u, d = padded_samples(psi.coeffs, PAD_QUARTIC, (0, m - 1))
    modulus_weight, phase_weight = _quartic_weights(m, coeffs)
    first = phase_weight * quadrature_mean(d * d * np.conj(u) ** 2).real
    second = modulus_weight * quadrature_mean(np.abs(d) ** 2 * np.abs(u) ** 2).real
    return first, second


def modified_energy(psi, m, coeffs, c_m):
    """‖∂^m ψ‖² + ‖ψ‖² + c_m ‖ψ‖^{4m+2} + both correction terms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if c_m < 0.0:
        raise ValueError("c_m must be nonnegative")
    l2_sq = sobolev_norm_sq(psi, 0)
    first, second = correction_terms(psi, m, coeffs)
    return seminorm_sq(psi, m) + l2_sq + c_m * l2_sq ** (2 * m + 1) + first + second


class ConservedQuantities(NamedTuple):
    i0: float
    i1: float
    i2: float


def _conserved(psi):
    u, du, d2u = padded_samples(psi.coeffs, PAD_SEXTIC, (0, 1, 2))
    au2 = np.abs(u) ** 2
    i0 = 0.5 * quadrature_mean(au2).real
    i1 = (
        0.5 * quadrature_mean(np.abs(du) ** 2).real
        - 0.125 * quadrature_mean(au2**2).real
    )
    i2_raw = (
        0.5 * quadrature_mean(np.abs(d2u) ** 2)
        + 0.75 * quadrature_mean(au2 * np.conj(u) * d2u)
        + 0.125 * quadrature_mean(au2 * u * np.conj(d2u))
        + 0.625 * quadrature_mean(du * du * np.conj(u) ** 2)
        + 0.75 * quadrature_mean(np.abs(du) ** 2 * au2)
        + 0.0625 * quadrature_mean(au2**3)
    )
    return i0, i1, i2_raw


def conserved_quantities(psi):
    """(I₀, I₁, I₂) by dealiased quadrature; I₂'s odd-looking cubic terms sum
    to a real quantity, so only the real part is returned (see
    ``i2_imaginary_residual`` for the quadrature diagnostic)."""
    i0, i1, i2_raw = _conserved(psi)
    return ConservedQuantities(i0, i1, i2_raw.real)


def i2_imaginary_residual(psi):
    """|Im| of the raw I₂ quadrature; ≈ round-off for band-limited fields."""
    return abs(_conserved(psi)[2].imag)


def difference_energy(psi, ref, m, coeffs, c_tilde):
    """Difference-energy functional around a reference trajectory state.

    ‖∂^m ψ‖² + c̃ ‖ψ‖² + w₁ ∫|ref|²|∂^{m-1}ψ|² + w₂ Re ∫ ref² (∂^{m-1}ψ̄)²

    with w₁ = (2λ3+λ4+2(m-1)λ6)/(4ν) and w₂ = λ5/ν; for m = 1 this is
    exactly the uniqueness-proof functional.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if psi.grid != ref.grid:
        raise ValueError("fields live on different grids")
    w1, w2 = _quartic_weights(m, coeffs)
    # orders (0, m-1) × fields (ref, ψ): the diagonal is ref and ∂^{m-1}ψ
    s = padded_samples(np.stack([ref.coeffs, psi.coeffs]), PAD_QUARTIC, (0, m - 1))
    r, d = s[0, 0], s[1, 1]
    quartic = (
        w1 * quadrature_mean(np.abs(r) ** 2 * np.abs(d) ** 2).real
        + w2 * quadrature_mean(r * r * np.conj(d) ** 2).real
    )
    return seminorm_sq(psi, m) + c_tilde * sobolev_norm_sq(psi, 0) + quartic


def positivity_target(psi, m, target):
    """Lower bound the certificate must enforce for E_m.

    ``classic``  : ½(‖∂^m ψ‖² + ‖ψ‖²), the displayed positivity bound.
    ``sobolev``  : ½(‖ψ‖²_{H^m} + ‖ψ‖²), which dominates both the classic
                   bound and the two-sided equivalence with the full H^m
                   norm (the form the inequality sweeps check).
    """
    if target == "classic":
        return 0.5 * (seminorm_sq(psi, m) + sobolev_norm_sq(psi, 0))
    if target == "sobolev":
        return 0.5 * (sobolev_norm_sq(psi, m) + sobolev_norm_sq(psi, 0))
    raise ValueError(f"target must be 'classic' or 'sobolev', got {target!r}")


@dataclass(frozen=True)
class CmCertificate:
    """Evidence record for a randomized positivity search over sample fields."""

    m: int
    coefficients: CoefficientSet
    c_m: float
    trials: int
    worst_margin: float
    target: str = "classic"
    l2_ceiling: float = 1.0
    rng_seed: int = 0
    resolutions: tuple = (32, 64, 128)

    def __post_init__(self):
        if self.worst_margin < 0.0:
            raise ValueError("certificate recorded a positivity violation")


def certificate_sample(grid, rng, l2_ceiling):
    """One certification draw: random envelope decay, mass at the ceiling.

    A quarter of the draws are confined to |n| <= 3; fields concentrated on
    the lowest modes are where the Sobolev-weighted lower bound is tightest,
    so the adversarial search must visit them.
    """
    decay = float(rng.uniform(0.5, 6.0))
    max_mode = None
    if rng.uniform() < 0.25:
        max_mode = int(rng.integers(1, 4))
    return random_field(
        grid, rng, decay=decay, l2_mass=l2_ceiling, max_mode=max_mode
    )


def corner_probes(grid, l2_ceiling):
    """Deterministic worst-corner fields: mass concentrated on |n| <= 3.

    Low-mode concentrations maximise the gap between the Sobolev-weighted
    target and the plain derivative energy, and the correction integrals
    there are extremised at relative phases 0 and π/2; enumerating singles,
    ±n pairs and an uneven split covers those extremes.
    """
    scale = l2_ceiling / np.sqrt(2.0)
    probes = []
    for n0 in (1, 2, 3):
        c = np.zeros(grid.num_modes, dtype=np.complex128)
        c[n0] = l2_ceiling
        probes.append(SpectralField(grid, c))
        for phase in (0.0, np.pi / 2):
            c = np.zeros(grid.num_modes, dtype=np.complex128)
            c[n0] = scale
            c[-n0 % grid.num_modes] = scale * np.exp(1j * phase)
            probes.append(SpectralField(grid, c))
        c = np.zeros(grid.num_modes, dtype=np.complex128)
        c[n0] = np.sqrt(0.75) * l2_ceiling
        c[-n0 % grid.num_modes] = 0.5j * l2_ceiling
        probes.append(SpectralField(grid, c))
    return probes


def certify_cm(m, coeffs, l2_ceiling, trials, rng_seed, target="classic",
               resolutions=(32, 64, 128), safety=2.0):
    """Randomized adversarial search for the energy-positivity constant.

    The sample set combines a fixed suite of worst-corner probes with
    ``trials`` seeded random fields across resolutions; the smallest c_m
    keeping E_m above the requested target on every sample is scaled by
    ``safety`` and returned with the worst observed margin. Sample i
    depends only on (rng_seed, i), so doubling ``trials`` never decreases
    the result.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not l2_ceiling > 0:
        raise ValueError(f"l2_ceiling must be > 0, got {l2_ceiling}")
    samples = list(corner_probes(GridSpec(min(resolutions)), l2_ceiling))
    for i in range(trials):
        rng = rng_for(rng_seed, i)
        grid = GridSpec(resolutions[i % len(resolutions)])
        samples.append(certificate_sample(grid, rng, l2_ceiling))
    required = 0.0
    targets = []
    for psi in samples:
        t = positivity_target(psi, m, target)
        e0 = modified_energy(psi, m, coeffs, 0.0)
        mass_sq = sobolev_norm_sq(psi, 0)
        need = (t - e0) / mass_sq ** (2 * m + 1)
        required = max(required, need)
        targets.append(t)
    c_m = safety * max(required, 0.0)
    worst = min(
        modified_energy(psi, m, coeffs, c_m) - t
        for psi, t in zip(samples, targets)
    )
    return CmCertificate(
        m=m,
        coefficients=coeffs,
        c_m=c_m,
        trials=trials,
        worst_margin=worst,
        target=target,
        l2_ceiling=l2_ceiling,
        rng_seed=rng_seed,
        resolutions=tuple(resolutions),
    )


class EnergyRecorder:
    """Trajectory observer tabulating the norms, the modified energy and the
    invariants of each sample.

    ``columns`` maps the header names of ``simulate__energy.csv`` (time,
    h_m_norm_sq, deriv_m_norm_sq, l2_norm_sq, modified_energy, i0, i1, i2)
    to equal-length lists, one entry per sample. ``invariants=False`` leaves
    out the i0–i2 columns, for callers that read only the norms and the
    modified energy. A sample whose row fails to compute adds to no column.
    """

    def __init__(self, m, coeffs, c_m=0.0, invariants=True):
        self.m = m
        self.coeffs = coeffs
        self.c_m = c_m
        self.invariants = invariants
        names = ["time", "h_m_norm_sq", "deriv_m_norm_sq", "l2_norm_sq",
                 "modified_energy"]
        if invariants:
            names += ["i0", "i1", "i2"]
        self.columns = {name: [] for name in names}

    def __call__(self, sample):
        psi = sample.state
        row = [
            sample.time,
            sobolev_norm_sq(psi, self.m),
            seminorm_sq(psi, self.m),
            sobolev_norm_sq(psi, 0),
            modified_energy(psi, self.m, self.coeffs, self.c_m),
        ]
        if self.invariants:
            row += conserved_quantities(psi)
        for column, value in zip(self.columns.values(), row):
            column.append(value)
