"""Grids, transforms, spectral derivatives and norms on the 2π torus.

Fourier convention: ψ̂(n) = (1/√(2π)) ∫₀^{2π} ψ(x) e^{-inx} dx, realised
discretely as ψ̂(n) = (√(2π)/N) Σ_j ψ(x_j) e^{-i n x_j} on the nodes
x_j = 2πj/N. With this scaling Parseval reads ∫|ψ|² dx = Σ_n |ψ̂(n)|².

Coefficients are stored in FFT order for the signed mode set
{-N/2, …, N/2-1}; N must be even and ≥ 4. A field is a SpectralField, whose
coefficients are immutable after construction; every operation is pure.
The norms and ``gn_ratio`` are the one-field cases of ``*_rows`` functions
that take (B, N) coefficients and return one value per row, bit for bit
the value the row gets alone (a 1-D array is one row, and the one-field
call is that case); ``per_field`` evaluates a list of fields through them
in blocks of at most ``BLOCK_ROWS`` rows.
Physical samples are plain arrays: ``padded_samples`` synthesises them on
the pad·N grid (pad 1 is the field's own grid) and ``band_coeffs`` takes
them back, and these two hold every FFT of the package.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# The most rows ``per_field`` stacks into one block. Every block function
# makes several temporaries of the block's padded size, so the bound keeps
# the peak resident set of a 200-sample study where one-field evaluation
# kept it, while a block still amortizes numpy's per-call overhead.
BLOCK_ROWS = 32


# The norm weights are listed in ``mode_order``, the order the norm kernels
# sum in, so a norm does not gather them again on every call.
@lru_cache(maxsize=512)
def _sobolev_weights(num_modes, m):
    grid = _grid(num_modes)
    w = ((1.0 + grid.modes**2) ** m)[grid.mode_order]
    w.setflags(write=False)
    return w


@lru_cache(maxsize=512)
def _seminorm_weights(num_modes, m):
    grid = _grid(num_modes)
    w = (np.abs(grid.modes) ** (2 * m))[grid.mode_order]
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

    def check_mode(self, n, name="mode"):
        """A ValueError naming ``name`` unless signed mode ``n`` is resolved."""
        half = self.num_modes // 2
        if not -half <= n < half:
            raise ValueError(f"{name}={n} outside the resolved band [{-half}, {half})")

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


@lru_cache(maxsize=64)
def _grid(num_modes):
    """One shared GridSpec per size, so its cached properties are built once
    for the block functions, which see only coefficient arrays."""
    return GridSpec(num_modes)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients ψ̂(n) of a periodic field, in FFT order."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.grid.num_modes
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (n,):
            raise ValueError(f"coeffs must have shape ({n},), got {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, n):
        """Coefficient at signed mode n."""
        self.grid.check_mode(n)
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


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.num_modes, dtype=np.complex128))


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


def per_field(fn, fields):
    """``fn``'s value for each of ``fields``, in order, as Python floats.

    ``fn`` maps (B, N) coefficients to one value per row (a ``*_rows``
    function). The fields of each grid are stacked into blocks of at most
    ``BLOCK_ROWS`` rows, in their order; since each row's value is the one
    it gets alone, the result is that of calling ``fn`` field by field.
    """
    by_size = {}
    for i, psi in enumerate(fields):
        by_size.setdefault(psi.grid.num_modes, []).append(i)
    values = [0.0] * len(fields)
    for indices in by_size.values():
        for start in range(0, len(indices), BLOCK_ROWS):
            rows = indices[start : start + BLOCK_ROWS]
            block = fn(np.stack([fields[i].coeffs for i in rows]))
            for i, value in zip(rows, block.tolist()):
                values[i] = value
    return values


def row_by_row(fn, *values):
    """``fn`` of Python floats applied row by row to per-row values: numpy
    scalars (the one-row case, giving a float) or equal-length 1-D arrays
    (a block, giving an array). For the powers of the block functions:
    numpy's array power differs from the scalar one in the last bit on some
    entries, so a power taken over a block would not give each row the bits
    of the one-row call."""
    if values[0].ndim == 0:
        return fn(*map(float, values))
    return np.array([fn(*row) for row in zip(*(v.tolist() for v in values))])


def _derivative(coeffs, k):
    """(..., N) coefficients times (i n)^k, applied as k single
    multiplications so that composing derivatives is bitwise identical to
    taking the combined order at once."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    factor = 1j * _grid(coeffs.shape[-1]).modes
    for _ in range(k):
        coeffs = coeffs * factor
    return coeffs


def derivative(psi, k):
    """k-th spectral derivative: coefficient n picks up (i n)^k."""
    if k == 0:
        return psi
    return SpectralField(psi.grid, _derivative(psi.coeffs, k))


def sobolev_norm(psi, m):
    """H^m norm (Σ_n ⟨n⟩^{2m} |ψ̂(n)|²)^{1/2} over the resolved band."""
    return float(np.sqrt(sobolev_norm_sq(psi, m)))


def sobolev_norm_sq_rows(coeffs, m):
    """Σ_n ⟨n⟩^{2m} |ĉ(n)|² of each row of (..., N) coefficients."""
    if m < 0:
        raise ValueError("Sobolev index must be nonnegative")
    n = coeffs.shape[-1]
    order = _grid(n).mode_order
    return kernels.weighted_norm_sq(coeffs, _sobolev_weights(n, m), order)


def sobolev_norm_sq(psi, m):
    return float(sobolev_norm_sq_rows(psi.coeffs, m))


def sobolev_distance(psi, chi, m):
    """H^m distance between two fields on the same grid."""
    _require_same_grid(psi, chi)
    n = psi.grid.num_modes
    return float(np.sqrt(kernels.weighted_diff_norm_sq(
        psi.coeffs, chi.coeffs, _sobolev_weights(n, m), _grid(n).mode_order)))


def l2_norm(psi):
    return sobolev_norm(psi, 0)


def seminorm_sq_rows(coeffs, m):
    """Σ_n n^{2m} |ĉ(n)|², the squared L² norm of ∂_x^m, of each row of
    (..., N) coefficients."""
    n = coeffs.shape[-1]
    order = _grid(n).mode_order
    return kernels.weighted_norm_sq(coeffs, _seminorm_weights(n, m), order)


def seminorm_sq(psi, m):
    """Σ_n n^{2m} |ψ̂(n)|², the squared L² norm of ∂_x^m ψ."""
    return float(seminorm_sq_rows(psi.coeffs, m))


def lp_norm_rows(samples, p):
    """Trapezoid-rule L^p norm of each row of (..., M) samples at the nodes
    of a uniform grid on [0, 2π) of M points; p=inf is the sup norm.

    The trapezoid rule on a uniform periodic grid is the plain node average,
    spectrally accurate for smooth integrands.
    """
    if p < 2:
        raise ValueError(f"lp_norm requires p >= 2, got {p}")
    mag = np.abs(samples)
    if np.isinf(p):
        return np.max(mag, axis=-1)
    sums = 2.0 * np.pi / samples.shape[-1] * np.add.reduce(mag**p, axis=-1)
    return row_by_row(lambda s: s ** (1.0 / p), sums)


def lp_norm(samples, p):
    """``lp_norm_rows`` of one row of M samples."""
    return float(lp_norm_rows(samples, p))


def gn_ratio_rows(coeffs, l, m, p):
    """Ratio of ‖∂^l ψ‖_{L^p} to the interpolation-inequality right side,
    for the field ψ of each row of (..., N) coefficients.

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
    l2 = np.sqrt(sobolev_norm_sq_rows(coeffs, 0))
    if not np.all(l2):
        raise ValueError("gn_ratio is undefined for the zero field")
    dm = np.sqrt(seminorm_sq_rows(coeffs, m))
    numer = lp_norm_rows(padded_samples(_derivative(coeffs, l), 1, (0,))[0], p)

    def ratio(l2, dm, numer):
        denom = l2 ** (1.0 - alpha) * dm**alpha
        if l == 0:
            denom += l2
        if denom == 0.0:
            return 0.0 if numer == 0.0 else float("inf")
        return numer / denom

    return row_by_row(ratio, l2, dm, numer)


def gn_ratio(psi, l, m, p):
    """``gn_ratio_rows`` of one field."""
    return float(gn_ratio_rows(psi.coeffs, l, m, p))
