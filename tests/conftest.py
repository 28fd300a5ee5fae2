"""Shared fixtures, independent quadrature oracles and the tests' own
references.

The oracle here deliberately avoids the package's padded-product machinery:
it synthesises each factor on a fine grid straight from the coefficients
and integrates with the plain trapezoid rule, so functional values are
cross-checked through a different code path.

The references below are what only the tests use, so they live here and
not in the package: the zero field, the grid nodes, one certification draw,
the two-pass certificate, the kernel's multiplier supremum, I₂'s imaginary
residual, the one-row quadrature mean, and the nonlinearity as it was
evaluated before the stepper prepared each block shape's evaluation
(``reference_combine``, ``reference_nonlinearity``); ``fail_second_block``
makes a recorder fail in a later block.
"""

import os

import numpy as np
import pytest

from torus4nls import functionals
from torus4nls.dynamics import CoefficientSet
from torus4nls.mollifier import kernel_value
from torus4nls.sampling import rng_states, rngs_from
from torus4nls.spectral import (
    SQRT_2PI,
    GridSpec,
    SpectralField,
    row_blocks,
    sobolev_norm_sq_rows,
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails any test after which this process still has a child, running
    or not yet reaped: every forked worker must be gone when its caller
    returns or raises."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left: waitpid gave ({pid}, {status})")


@pytest.fixture
def fail_second_block(monkeypatch):
    """``functionals.conserved_rows`` raising a ValueError on its second
    call, so that an ``EnergyRecorder`` fails in a block after its first
    state; yields the list of the rows of each call."""
    blocks, original = [], functionals.conserved_rows

    def failing(block, **kwargs):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise ValueError("conserved_rows failed in a later block")
        return original(block, **kwargs)

    monkeypatch.setattr(functionals, "conserved_rows", failing)
    return blocks


@pytest.fixture
def grid64():
    return GridSpec(64)


@pytest.fixture
def generic_coeffs():
    return CoefficientSet(
        nu=1.0, lambda1=0.7, lambda2=-0.3, lambda3=0.2,
        lambda4=-0.5, lambda5=0.4, lambda6=0.1,
    )


def oracle_samples(psi, fine_factor=4, deriv=0):
    """∂^deriv ψ sampled on a fine grid by direct Fourier synthesis."""
    grid = psi.grid
    n_fine = fine_factor * grid.num_modes
    x = 2.0 * np.pi * np.arange(n_fine) / n_fine
    out = np.zeros(n_fine, dtype=complex)
    for idx, n in enumerate(grid.modes):
        c = psi.coeffs[idx]
        if c != 0.0:
            out += c * (1j * n) ** deriv * np.exp(1j * n * x)
    return out / np.sqrt(2.0 * np.pi)


def oracle_integral(values):
    """Trapezoid rule on the fine grid (periodic, so the plain mean)."""
    return 2.0 * np.pi * np.mean(values)


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.num_modes, dtype=np.complex128))


def nodes(grid):
    """Physical nodes x_j = 2πj/N."""
    return 2.0 * np.pi * np.arange(grid.num_modes) / grid.num_modes


def certificate_sample(grid, rng, l2_ceiling):
    """``functionals.certificate_rows`` of one generator, as a field: the
    one-row reference of the certificate's blocked draws."""
    return SpectralField(grid, functionals.certificate_rows(grid, [rng], l2_ceiling)[0])


def certify_cm_two_pass(m, coeffs, l2_ceiling, trials, rng_seed, target="classic"):
    """``functionals.certify_cm`` evaluating every sample's modified energy
    twice, at c_m = 0 and at the c_m found, each pass in blocks: the
    reference for the certificate that evaluates each sample's terms once."""
    count = len(functionals.CM_RESOLUTIONS)
    grids = [GridSpec(n) for n in functionals.CM_RESOLUTIONS]
    states = rng_states(rng_seed, range(trials))
    arrays = [functionals.certificate_rows(grid, rngs_from(states[first::count]),
                                           l2_ceiling)
              for first, grid in enumerate(grids[:trials])]
    probes = np.stack([psi.coeffs
                       for psi in functionals.corner_probes(grids[0], l2_ceiling)])
    arrays[0] = np.concatenate((probes, arrays[0]))

    def per_sample(fn):
        values = [iter([v for block in row_blocks(len(rows))
                        for v in fn(rows[block]).tolist()])
                  for rows in arrays]
        return ([next(values[0]) for _ in probes]
                + [next(values[i % count]) for i in range(trials)])

    targets = per_sample(lambda c: functionals.positivity_target_rows(c, m, target))
    e0s = per_sample(lambda c: functionals.modified_energy_rows(c, m, coeffs, 0.0))
    mass_sqs = per_sample(lambda c: sobolev_norm_sq_rows(c, 0))
    required = 0.0
    for t, e0, mass_sq in zip(targets, e0s, mass_sqs):
        required = max(required, (t - e0) / mass_sq ** (2 * m + 1))
    c_m = functionals.CM_SAFETY * max(required, 0.0)
    energies = per_sample(lambda c: functionals.modified_energy_rows(c, m, coeffs, c_m))
    worst = min(e - t for e, t in zip(energies, targets))
    return functionals.CmCertificate(c_m=c_m, worst_margin=worst)


def multiplier_sup(l):
    """sup over a fine ξ-grid on [0, 64] of ⟨ξ⟩^l φ(ξ); φ(64) is below
    e^-4000, so nothing past it counts.

    Finite because φ decays faster than any polynomial; it certifies the
    smoothing gain ‖f_ε‖_{H^{m+l}} ≤ C ε^{-l} ‖f‖_{H^m}, whose multiplier
    satisfies ⟨n⟩^l φ(εn) ≤ ε^{-l} ⟨εn⟩^l φ(εn) for ε ≤ 1.
    """
    xi = np.linspace(0.0, 64.0, 200001)
    return float(np.max((1.0 + xi**2) ** (l / 2.0) * kernel_value(xi)))


def i2_imaginary_residual(psi):
    """|Im| of the raw I₂ quadrature; ≈ round-off for band-limited fields."""
    return abs(float(functionals.conserved_rows(psi.coeffs)[2].imag))


def quadrature_mean(values):
    """``functionals.quadrature_mean_rows`` of one row of M samples."""
    return complex(functionals.quadrature_mean_rows(values))


def reference_combine(u, du, d2u, lam):
    """The pointwise six-term nonlinearity with one ufunc call per product
    and sum, each on one operand, into new arrays: the kernel before it
    grouped the real operations that repeat on several operands."""
    l1, l2, l3, l4, l5, l6 = lam
    mul, add, conj = np.multiply, np.add, np.conjugate
    au2 = add(mul(u.real, u.real), mul(u.imag, u.imag))
    adu2 = add(mul(du.real, du.real), mul(du.imag, du.imag))
    s = add(add(mul(l1, au2), mul(mul(l2, au2), au2)), mul(l4, adu2))
    out = mul(s, u)
    out = add(out, mul(mul(mul(l3, du), du), conj(u)))
    out = add(out, mul(mul(mul(l5, u), u), conj(d2u)))
    return add(out, mul(mul(l6, au2), d2u))


def reference_nonlinearity(c, coeffs):
    """``dynamics._nonlinearity`` of (B, N) coefficients ``c`` as it was
    before each block shape's evaluation was prepared, sharing no code
    with it: the padded spectrum with its derivatives (multipliers built
    here), one inverse FFT in place and its scaling (``padded_samples``),
    ``reference_combine`` on the flat sample rows, then the forward FFT in
    place, its scaling over all pad·N modes and the band, taken through an
    index built here (``band_coeffs``)."""
    rows, n = c.shape
    pad = coeffs.dealias_pad
    m, half = pad * n, n // 2
    band = np.r_[:half, m - half : m]
    stack = np.zeros((3, rows, m), dtype=np.complex128)
    stack[0][:, band] = c
    for k in (2, 1):
        multiplier = (1j * np.fft.fftfreq(m, 1.0 / m)) ** k
        np.multiply(multiplier, stack[0], out=stack[k])
    np.fft.ifft(stack, axis=-1, out=stack)
    stack *= m / SQRT_2PI
    combined = reference_combine(*stack.reshape(3, -1), coeffs.lambdas).reshape(rows, m)
    chat = np.fft.fft(combined, out=combined)
    chat *= SQRT_2PI / m
    chat = chat.take(band, axis=-1)
    chat[:, half] = 0.0
    return chat
