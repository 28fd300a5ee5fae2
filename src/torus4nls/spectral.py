"""Grids, transforms, spectral derivatives and norms on the 2π torus.

Fourier convention: ψ̂(n) = (1/√(2π)) ∫₀^{2π} ψ(x) e^{-inx} dx, realised
discretely as ψ̂(n) = (√(2π)/N) Σ_j ψ(x_j) e^{-i n x_j} on the nodes
x_j = 2πj/N. With this scaling Parseval reads ∫|ψ|² dx = Σ_n |ψ̂(n)|².

Coefficients are stored in FFT order for the signed mode set
{-N/2, …, N/2-1}; N must be even and ≥ 4. A field is a SpectralField, a
plain value: a grid and its coefficients, frozen at construction. It has
no arithmetic; code that adds or scales fields does so on ``coeffs``.
The norms and ``gn_ratio`` are the one-field cases of ``*_rows`` functions
that take (B, N) coefficients and return one value per row, bit for bit
the value the row gets alone (a 1-D array is one row, and the one-field
call is that case); ``row_blocks`` cuts the studies' sample arrays into
blocks of at most ``BLOCK_ROWS`` rows for them. Every weighted norm reads
its weights, ⟨n⟩^{2m} or |n|^{2m}, and the order it sums in from one
builder, ``_norm_layout``, which also refuses an m < 0 or an m whose
weights overflow.
Physical samples are plain arrays: ``padded_samples`` synthesises them on
the pad·N grid (pad 1 is the field's own grid) from one (..., N) array and
``band_coeffs`` takes them back, and these two hold every FFT of the
package. Both reach the N-mode band through the pad·N modes' 2·pad runs of
N/2, the first and the last. A ``sample_layout`` allocates the sample stack
and builds the views ``padded_samples`` writes it through; a caller that
reuses its samples keeps one and hands it to ``padded_samples`` as
``out``, and reads the stack as its first entry.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


class InputError(ValueError):
    """A value outside its parameter's domain, raised as
    ``InputError(param, must)`` with the library's name of the parameter.
    The message is ``f"{param} {must}"``; ``args`` keeps both, so a caller
    that has its own name for the parameter can say that instead."""

    def __str__(self):
        return "{} {}".format(*self.args)


# The most rows of a ``row_blocks`` block. Every block function makes
# several temporaries of the block's padded size, so the bound keeps the
# peak resident set of a 200-sample study where one-field evaluation kept
# it, while a block still amortizes numpy's per-call overhead.
BLOCK_ROWS = 32

# The most padded points (pad·N·rows) of an ``EnergyRecorder`` block: 16
# rows at N=64, 1 row at N=1024. On a 2-core x86-64 host, 16-row blocks cut
# the recorder from about 104 to 27 µs a state at N=64 and raised the
# families_n64 pass's peak RSS by 0.3 MiB; 8,192 points (32 rows) gave 24 µs
# for +0.8 MiB and no wall time, and 2-row blocks at N=1024 raised
# simulate_n1024's peak RSS by 0.34 MiB with no CPU time beyond the noise.
RECORD_POINTS = 4096


def refusing(message, compute, *args):
    """``compute(*args)``, or ``ValueError(message())`` where it overflows,
    divides by zero or is invalid (in numpy or Python floats), or where its
    value (numbers, an array or a field's coefficients) is not finite; a
    ``message()`` that is an ``InputError`` is raised itself. Not for a
    stepper's inner loop: numpy's error state costs microseconds."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value = compute(*args)
        if np.isfinite(getattr(value, "coeffs", value)).all():
            return value
    except (OverflowError, FloatingPointError, ZeroDivisionError):
        pass
    error = message()
    raise error if isinstance(error, InputError) else ValueError(error)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of N nodes on [0, 2π)."""

    num_modes: int

    def __post_init__(self):
        n = self.num_modes
        if n < 4 or n % 2 != 0:
            raise InputError("num_modes", f"must be even and >= 4, got {n}")

    def check_mode(self, n, name="mode"):
        """An InputError of ``name`` unless signed mode ``n`` is resolved,
        |n| < N/2: the Nyquist mode -N/2 is stored, but the nonlinearity and
        the samplers zero it."""
        half = self.num_modes // 2
        if not -half < n < half:
            raise InputError(name, f"must lie in the resolved band "
                                   f"[{1 - half}, {half - 1}], got {n}")

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


@lru_cache(maxsize=512)
def _norm_layout(num_modes, m, semi):
    """The weights of the norms of index ``m``, ⟨n⟩^{2m} (H^m) or with
    ``semi`` |n|^{2m} (the seminorm), and the grid's ``mode_order``: the
    weights are listed in that order, the one the norm kernels sum in, so a
    norm does not gather them again on every call."""
    if m < 0:
        raise InputError("m", f"must be >= 0, got {m}")
    grid = _grid(num_modes)
    if semi:
        expr, weights = "|n|^(2m)", lambda: np.abs(grid.modes) ** (2 * m)
    else:
        expr, weights = "<n>^(2m)", lambda: (1.0 + grid.modes**2) ** m
    w = refusing(lambda: InputError("m", f"must be small enough for {expr} to be "
                                         f"finite at N={num_modes}, got {m}"),
                 weights)[grid.mode_order]
    w.setflags(write=False)
    return w, grid.mode_order


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


@lru_cache(maxsize=128)
def _padded_multiplier(num_modes, pad, k):
    """(i·n)^k over the modes of the pad·N grid."""
    m = pad * num_modes
    row = refusing(lambda: f"(i n)^k overflows: k={k} is too large for N={num_modes}",
                   lambda: (1j * np.fft.fftfreq(m, 1.0 / m)) ** k)
    row.setflags(write=False)
    return row


def sample_layout(shape, num_modes, pad, orders):
    """A new complex (len(orders), *shape, pad·N) sample stack and what
    ``padded_samples`` writes it through, for (*shape, N) coefficients,
    built once for a caller that reuses the stack: the stack, its row 0
    (the padded spectrum), the (*shape, 2, N/2) view of row 0's two band
    halves and the view of its zero middle, each other written row with
    its multiplier (i·n)^k (None: a copy of row 0), last row first, and the
    inverse FFT's scaling."""
    stack = np.empty((len(orders), *shape, pad * num_modes), dtype=np.complex128)
    base = stack[0]
    # the pad·N modes as 2·pad runs of N/2: the band is the first and last
    runs = base.reshape(*shape, 2 * pad, num_modes // 2)
    rows = tuple((_padded_multiplier(num_modes, pad, orders[row]) if orders[row] else None,
                  stack[row])
                 for row in reversed(range(len(orders))) if row or orders[row])
    return (stack, base, runs[..., :: 2 * pad - 1, :], runs[..., 1 : 2 * pad - 1, :],
            rows, pad * num_modes / SQRT_2PI)


def padded_samples(coeffs, pad, orders, *, out=None):
    """Samples of ∂^k ψ for each k in ``orders`` on the pad·N grid, from
    (..., N) coefficients: a (len(orders), ..., pad·N) array from one
    inverse FFT, each row exactly as it would come out alone. Without
    ``out`` the array is a new ``sample_layout``'s stack; ``out``, a
    ``sample_layout`` the caller keeps for the coefficients' shape,
    receives them in its stack, and its views and constants are not built
    again."""
    if out is None:
        out = sample_layout(coeffs.shape[:-1], coeffs.shape[-1], pad, orders)
    stack, base, band, middle, rows, scale = out
    middle.fill(0.0)
    # the coefficients' halves are their (..., 2, N/2) reshape: one copy, not
    # an assignment through the band index (about 3% of riccati's wall time)
    band[...] = coeffs.reshape(band.shape)
    for multiplier, row in rows:  # row 0, the plain copy, last
        if multiplier is None:
            row[...] = base
        else:
            np.multiply(multiplier, base, out=row)
    # in place: a second block this size per call (196 KiB for simulate at
    # N=1024, pad 4) makes malloc hand memory back and fault it in again
    np.fft.ifft(stack, axis=-1, out=stack)
    stack *= scale
    return stack


def band_coeffs(samples, num_modes, pad, *, out=None):
    """Coefficients of samples on the pad·N grid, truncated to the N-mode
    band with the Nyquist mode zeroed: a new writable (..., N) array for
    pad > 1. The pad·N-point FFT goes to ``out`` (``samples`` itself for an
    FFT in place) in place of a new array; at pad 1 the result is that
    array. The band is copied out of the FFT's 2·pad runs of N/2 modes, the
    first and the last, as ``padded_samples`` writes it, and scaled after:
    the same products, on N points of the pad·N."""
    chat = np.fft.fft(samples, out=out)
    if pad > 1:
        shape = chat.shape[:-1]
        runs = chat.reshape(*shape, 2 * pad, num_modes // 2)
        chat = runs[..., :: 2 * pad - 1, :].reshape(*shape, num_modes)
    chat *= SQRT_2PI / (pad * num_modes)
    chat[..., num_modes // 2] = 0.0
    return chat


def row_blocks(count):
    """Consecutive slices of at most ``BLOCK_ROWS`` rows that cover ``count``
    rows in order: the blocks in which the studies draw and evaluate their
    samples. Each row's value is the one it gets alone, so the blocking
    changes no bit."""
    return [slice(start, min(start + BLOCK_ROWS, count))
            for start in range(0, count, BLOCK_ROWS)]


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


def sobolev_norm(psi, m):
    """H^m norm (Σ_n ⟨n⟩^{2m} |ψ̂(n)|²)^{1/2} over the resolved band."""
    return float(np.sqrt(sobolev_norm_sq(psi, m)))


def sobolev_norm_sq_rows(coeffs, m):
    """Σ_n ⟨n⟩^{2m} |ĉ(n)|² of each row of (..., N) coefficients."""
    return kernels.weighted_norm_sq(coeffs, *_norm_layout(coeffs.shape[-1], m, False))


def sobolev_norm_sq_of(num_modes, m):
    """``sobolev_norm_sq_rows`` at one N and m as a function of the
    coefficients alone, its weights and order found once: for a caller
    that takes many norms of one size."""
    weights, order = _norm_layout(num_modes, m, False)
    return lambda coeffs: kernels.weighted_norm_sq(coeffs, weights, order)


def sobolev_norm_sq(psi, m):
    return float(sobolev_norm_sq_rows(psi.coeffs, m))


def sobolev_distance(psi, chi, m):
    """H^m distance between two fields on the same grid."""
    if psi.grid != chi.grid:
        raise ValueError("fields live on different grids")
    return float(np.sqrt(kernels.weighted_diff_norm_sq(
        psi.coeffs, chi.coeffs, *_norm_layout(psi.grid.num_modes, m, False))))


def l2_norm(psi):
    return sobolev_norm(psi, 0)


def seminorm_sq_rows(coeffs, m):
    """Σ_n n^{2m} |ĉ(n)|², the squared L² norm of ∂_x^m, of each row of
    (..., N) coefficients."""
    return kernels.weighted_norm_sq(coeffs, *_norm_layout(coeffs.shape[-1], m, True))


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
