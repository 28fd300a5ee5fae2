"""Energy-type functionals: the corrected H^m energy and its positivity
certificate, the first three conserved quantities of the integrable case,
and the difference energies used for uniqueness/continuity measurements.

All spatial integrals of products are evaluated by dealiased quadrature:
factors are synthesised on a zero-padded grid large enough that the node
average of the product equals its exact mean (pad 3 for quartic, pad 4 for
sextic integrands).
"""

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .dynamics import CoefficientSet, pad_coeffs
from .sampling import random_field, rng_for
from .spectral import GridSpec, SpectralField, seminorm_sq, sobolev_norm_sq

PAD_QUARTIC = 3
PAD_SEXTIC = 4


def fine_samples(psi, pad, deriv=0):
    """Physical samples of ∂^deriv ψ on a grid zero-padded by ``pad``."""
    grid = psi.grid
    n = grid.num_modes
    m = pad * n
    c = psi.coeffs if deriv == 0 else psi.coeffs * (1j * grid.modes) ** deriv
    if pad > 1:
        c = pad_coeffs(c, n, m)
    return np.fft.ifft(c) * (m / np.sqrt(2.0 * np.pi))


def quadrature_mean(values):
    """∫₀^{2π} f dx by the periodic trapezoid rule (node average × 2π)."""
    return 2.0 * np.pi * complex(np.mean(values))


def correction_terms(psi, m, coeffs):
    """The two quartic correction integrals of the modified energy:

    ( (λ5/ν) Re ∫ (∂^{m-1}ψ)² ψ̄² dx ,
      ((2λ3+λ4+2(m-1)λ6)/(4ν)) ∫ |∂^{m-1}ψ|² |ψ|² dx )
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    u = fine_samples(psi, PAD_QUARTIC, 0)
    d = fine_samples(psi, PAD_QUARTIC, m - 1)
    first = coeffs.lambda5 / coeffs.nu * quadrature_mean(d * d * np.conj(u) ** 2).real
    weight = (
        2.0 * coeffs.lambda3 + coeffs.lambda4 + 2.0 * (m - 1) * coeffs.lambda6
    ) / (4.0 * coeffs.nu)
    second = weight * quadrature_mean(np.abs(d) ** 2 * np.abs(u) ** 2).real
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
    u = fine_samples(psi, PAD_SEXTIC, 0)
    du = fine_samples(psi, PAD_SEXTIC, 1)
    d2u = fine_samples(psi, PAD_SEXTIC, 2)
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


def difference_energy(psi, ref, m, coeffs, c_tilde, weights="lambda"):
    """Difference-energy functional around a reference trajectory state.

    ‖∂^m ψ‖² + c̃ ‖ψ‖² + w₁ ∫|ref|²|∂^{m-1}ψ|² + w₂ Re ∫ ref² (∂^{m-1}ψ̄)²

    ``weights="lambda"`` uses w₁ = (2λ3+λ4+2(m-1)λ6)/(4ν), w₂ = λ5/ν (for
    m = 1 this is exactly the uniqueness-proof functional); ``weights="unit"``
    uses w₁ = w₂ = 1, the plain form some derivations display for m ≥ 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if psi.grid != ref.grid:
        raise ValueError("fields live on different grids")
    if weights == "lambda":
        w1 = (
            2.0 * coeffs.lambda3 + coeffs.lambda4 + 2.0 * (m - 1) * coeffs.lambda6
        ) / (4.0 * coeffs.nu)
        w2 = coeffs.lambda5 / coeffs.nu
    elif weights == "unit":
        w1 = w2 = 1.0
    else:
        raise ValueError(f"weights must be 'lambda' or 'unit', got {weights!r}")
    r = fine_samples(ref, PAD_QUARTIC, 0)
    d = fine_samples(psi, PAD_QUARTIC, m - 1)
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


@dataclass
class EnergyReport:
    """Parallel time series of norms, modified energy and invariants."""

    m: int
    c_m_used: float
    times: list = dataclass_field(default_factory=list)
    h_m_norm_sq: list = dataclass_field(default_factory=list)
    deriv_m_norm_sq: list = dataclass_field(default_factory=list)
    l2_norm_sq: list = dataclass_field(default_factory=list)
    modified_energy: list = dataclass_field(default_factory=list)
    i0: list = dataclass_field(default_factory=list)
    i1: list = dataclass_field(default_factory=list)
    i2: list = dataclass_field(default_factory=list)

    def validate(self):
        """Every column matches ``times``; the invariant columns may instead
        all be empty (a recorder run with ``invariants=False``)."""
        n = len(self.times)
        for name in ("h_m_norm_sq", "deriv_m_norm_sq", "l2_norm_sq",
                     "modified_energy"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length differs from times")
        if {len(self.i0), len(self.i1), len(self.i2)} not in ({n}, {0}):
            raise ValueError("invariant columns must all be empty or match times")
        return self


class EnergyRecorder:
    """Trajectory observer appending one EnergyReport row per sample.

    ``invariants=False`` leaves the I₀–I₂ columns empty, for callers that
    read only the norms and the modified energy.
    """

    def __init__(self, m, coeffs, c_m=0.0, invariants=True):
        self.coeffs = coeffs
        self.invariants = invariants
        self.report = EnergyReport(m=m, c_m_used=c_m)

    def __call__(self, sample):
        psi = sample.state
        rep = self.report
        rep.times.append(sample.time)
        rep.h_m_norm_sq.append(sobolev_norm_sq(psi, rep.m))
        rep.deriv_m_norm_sq.append(seminorm_sq(psi, rep.m))
        rep.l2_norm_sq.append(sobolev_norm_sq(psi, 0))
        rep.modified_energy.append(
            modified_energy(psi, rep.m, self.coeffs, rep.c_m_used)
        )
        if not self.invariants:
            return
        inv = conserved_quantities(psi)
        rep.i0.append(inv.i0)
        rep.i1.append(inv.i1)
        rep.i2.append(inv.i2)
