"""Grids, transforms, spectral derivatives and norms on the 2π torus.

Fourier convention: ψ̂(n) = (1/√(2π)) ∫₀^{2π} ψ(x) e^{-inx} dx, realised
discretely as ψ̂(n) = (√(2π)/N) Σ_j ψ(x_j) e^{-i n x_j} on the nodes
x_j = 2πj/N. With this scaling Parseval reads ∫|ψ|² dx = Σ_n |ψ̂(n)|².

Coefficients are stored in FFT order for the signed mode set
{-N/2, …, N/2-1}; N must be even and ≥ 4. All field values are immutable
after construction and every operation is pure.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@lru_cache(maxsize=512)
def _sobolev_weights(num_modes, m):
    modes = np.fft.fftfreq(num_modes, 1.0 / num_modes)
    w = (1.0 + modes**2) ** m
    w.setflags(write=False)
    return w


@lru_cache(maxsize=512)
def _seminorm_weights(num_modes, m):
    modes = np.fft.fftfreq(num_modes, 1.0 / num_modes)
    w = np.abs(modes) ** (2 * m)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of N nodes on [0, 2π)."""

    num_modes: int

    def __post_init__(self):
        n = self.num_modes
        if n < 4 or n % 2 != 0:
            raise ValueError(f"num_modes must be even and >= 4, got {n}")

    @cached_property
    def nodes(self):
        """Physical nodes x_j = 2πj/N."""
        x = 2.0 * np.pi * np.arange(self.num_modes) / self.num_modes
        x.setflags(write=False)
        return x

    @cached_property
    def modes(self):
        """Signed integer modes in FFT order: 0, 1, …, N/2-1, -N/2, …, -1."""
        m = np.fft.fftfreq(self.num_modes, 1.0 / self.num_modes)
        m.setflags(write=False)
        return m

    @cached_property
    def mode_order(self):
        """Permutation sorting modes by ascending |n| (+n before -n on ties)."""
        order = np.argsort(np.abs(self.modes), kind="stable")
        order.setflags(write=False)
        return order

    @cached_property
    def nyquist_index(self):
        return self.num_modes // 2

    def sobolev_weights(self, m):
        """⟨n⟩^{2m} per mode, ⟨n⟩ = √(1+n²)."""
        return _sobolev_weights(self.num_modes, m)


def _frozen_complex(values, n, what):
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients ψ̂(n) of a periodic field, in FFT order."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            _frozen_complex(self.coeffs, self.grid.num_modes, "coeffs"),
        )

    def coeff(self, n):
        """Coefficient at signed mode n."""
        half = self.grid.num_modes // 2
        if not -half <= n < half:
            raise ValueError(f"mode {n} outside resolved band [{-half}, {half})")
        return complex(self.coeffs[n % self.grid.num_modes])

    def __add__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PhysicalField:
    """Complex samples at the grid nodes x_j."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "samples",
            _frozen_complex(self.samples, self.grid.num_modes, "samples"),
        )


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.num_modes, dtype=np.complex128))


def to_spectral(f):
    """Forward transform: ψ̂(n) = (√(2π)/N) Σ_j ψ(x_j) e^{-i n x_j}."""
    n = f.grid.num_modes
    return SpectralField(f.grid, np.fft.fft(f.samples) * (SQRT_2PI / n))


def to_physical(psi):
    """Inverse transform: ψ(x_j) = (1/√(2π)) Σ_n ψ̂(n) e^{i n x_j}."""
    n = psi.grid.num_modes
    return PhysicalField(psi.grid, np.fft.ifft(psi.coeffs) * (n / SQRT_2PI))


@lru_cache(maxsize=64)
def _padded_band(num_modes, pad):
    """Positions of the N-mode band in the FFT layout of the pad·N grid."""
    m, half = pad * num_modes, num_modes // 2
    band = np.r_[:half, m - half : m]
    band.setflags(write=False)
    return band


@lru_cache(maxsize=128)
def _padded_multiplier(num_modes, pad, k):
    """(i·n)^k over the modes of the pad·N grid."""
    m = pad * num_modes
    row = (1j * np.fft.fftfreq(m, 1.0 / m)) ** k
    row.setflags(write=False)
    return row


def padded_samples(coeffs, pad, orders):
    """Samples of ∂^k ψ for each k in ``orders`` on the pad·N grid, from
    (..., N) coefficients: a (len(orders), ..., pad·N) array from one
    inverse FFT, each row exactly as it would come out alone."""
    n = coeffs.shape[-1]
    m, half = pad * n, n // 2
    stack = np.zeros((len(orders),) + coeffs.shape[:-1] + (m,), dtype=np.complex128)
    base = stack[0]
    # two slice copies: assigning through the band index into a (B, M)
    # block costs about 3% of riccati's wall time
    base[..., :half] = coeffs[..., :half]
    base[..., m - half :] = coeffs[..., half:]
    for row in reversed(range(len(orders))):  # row 0, the plain copy, last
        if orders[row]:
            np.multiply(_padded_multiplier(n, pad, orders[row]), base, out=stack[row])
        elif row:
            stack[row] = base
    # in place: a second block this size per call (196 KiB for simulate at
    # N=1024, pad 4) makes malloc hand memory back and fault it in again
    np.fft.ifft(stack, axis=-1, out=stack)
    stack *= m / SQRT_2PI
    return stack


def band_coeffs(samples, num_modes, pad):
    """Coefficients of samples on the pad·N grid, truncated to the N-mode
    band with the Nyquist mode zeroed: a new writable (..., N) array."""
    chat = np.fft.fft(samples) * (SQRT_2PI / (pad * num_modes))
    if pad > 1:
        chat = chat.take(_padded_band(num_modes, pad), axis=-1)
    chat[..., num_modes // 2] = 0.0
    return chat


def derivative(psi, k):
    """k-th spectral derivative: coefficient n picks up (i n)^k.

    Applied as k single multiplications so that composing derivatives is
    bitwise identical to taking the combined order at once.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k == 0:
        return psi
    factor = 1j * psi.grid.modes
    coeffs = np.array(psi.coeffs)
    for _ in range(k):
        coeffs = coeffs * factor
    return SpectralField(psi.grid, coeffs)


def sobolev_norm(psi, m):
    """H^m norm (Σ_n ⟨n⟩^{2m} |ψ̂(n)|²)^{1/2} over the resolved band."""
    return float(np.sqrt(sobolev_norm_sq(psi, m)))


def sobolev_norm_sq(psi, m):
    if m < 0:
        raise ValueError("Sobolev index must be nonnegative")
    return kernels.weighted_norm_sq(
        psi.coeffs, psi.grid.sobolev_weights(m), psi.grid.mode_order
    )


def sobolev_distance(psi, chi, m):
    """H^m distance between two fields on the same grid."""
    _require_same_grid(psi, chi)
    return float(
        np.sqrt(
            kernels.weighted_diff_norm_sq(
                psi.coeffs, chi.coeffs, psi.grid.sobolev_weights(m), psi.grid.mode_order
            )
        )
    )


def l2_norm(psi):
    return sobolev_norm(psi, 0)


def seminorm_sq(psi, m):
    """Σ_n n^{2m} |ψ̂(n)|², the squared L² norm of ∂_x^m ψ."""
    grid = psi.grid
    return kernels.weighted_norm_sq(
        psi.coeffs, _seminorm_weights(grid.num_modes, m), grid.mode_order
    )


def lp_norm(f, p):
    """Trapezoid-rule L^p norm of a physical field; p=inf is the sup norm.

    The trapezoid rule on a uniform periodic grid is the plain node average,
    spectrally accurate for smooth integrands.
    """
    if p < 2:
        raise ValueError(f"lp_norm requires p >= 2, got {p}")
    mag = np.abs(f.samples)
    if np.isinf(p):
        return float(np.max(mag))
    n = f.grid.num_modes
    return float((2.0 * np.pi / n * np.sum(mag**p)) ** (1.0 / p))


def gn_ratio(psi, l, m, p):
    """Ratio of ‖∂^l ψ‖_{L^p} to the interpolation-inequality right side.

    The right side is ‖ψ‖_{L²}^{1-α} ‖∂^m ψ‖_{L²}^α with α = (l+1/2-1/p)/m,
    plus an extra ‖ψ‖_{L²} term when l = 0, with unit constant. Used for
    empirical boundedness sweeps; the true constant is never asserted.
    """
    if not 0 <= l <= m - 1:
        raise ValueError(f"need 0 <= l <= m-1, got l={l}, m={m}")
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    alpha = (l + 0.5 - inv_p) / m
    l2 = l2_norm(psi)
    if l2 == 0.0:
        raise ValueError("gn_ratio is undefined for the zero field")
    dm = float(np.sqrt(seminorm_sq(psi, m)))
    numer = lp_norm(to_physical(derivative(psi, l)), p)
    denom = l2 ** (1.0 - alpha) * dm**alpha
    if l == 0:
        denom += l2
    if denom == 0.0:
        return 0.0 if numer == 0.0 else float("inf")
    return numer / denom
