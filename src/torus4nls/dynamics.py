"""Evolution machinery for i∂tψ + ∂²ψ + (ν+iε)∂⁴ψ = N(ψ,…,∂²ψ̄).

The linear flow is the Fourier multiplier W_ε(t): ψ̂(n) ↦
exp((-in² + iνn⁴ - εn⁴)t) ψ̂(n), a contraction for t ≥ 0 when ε > 0 and
unitary when ε = 0. The main stepper performs Picard iteration on the
Duhamel integral over one step (exponential-trapezoid quadrature); an
integrating-factor RK4 scheme serves as an independent cross-check.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import kernels
from .spectral import SQRT_2PI, GridSpec, SpectralField, sobolev_norm


class NonConvergence(RuntimeError):
    """Picard iteration failed to contract within the iteration budget."""

    def __init__(self, message, time=None, iterations=None):
        super().__init__(message)
        self.time = time
        self.iterations = iterations


class NonFinite(RuntimeError):
    """A coefficient became NaN/Inf (blow-up or instability)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class CoefficientSet:
    """Dispersion strength ν ≠ 0 and the six real nonlinearity weights."""

    nu: float
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    lambda4: float = 0.0
    lambda5: float = 0.0
    lambda6: float = 0.0

    def __post_init__(self):
        if self.nu == 0.0:
            raise ValueError("nu must be nonzero")

    @property
    def lambdas(self):
        return (
            self.lambda1,
            self.lambda2,
            self.lambda3,
            self.lambda4,
            self.lambda5,
            self.lambda6,
        )

    @property
    def is_linear(self):
        return all(l == 0.0 for l in self.lambdas)


@dataclass(frozen=True)
class SolverConfig:
    """Stepper parameters; ``dealias_pad_factor=None`` selects 3 for quintic
    runs (λ2 ≠ 0) and 2 otherwise."""

    dt: float
    epsilon: float = 0.0
    picard_tol: float = 1e-12
    picard_max_iters: int = 50
    dealias_pad_factor: int | None = None
    sobolev_index_m: int = 4

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.picard_tol <= 0.0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be >= 1")
        if self.dealias_pad_factor is not None and self.dealias_pad_factor < 1:
            raise ValueError("dealias_pad_factor must be >= 1")
        if self.sobolev_index_m < 1:
            raise ValueError("sobolev_index_m must be >= 1")

    def pad_for(self, coeffs):
        """Zero-padding factor removing aliasing for the active nonlinearity."""
        if self.dealias_pad_factor is not None:
            if coeffs.lambda2 != 0.0 and self.dealias_pad_factor < 3:
                raise ValueError(
                    "dealias_pad_factor must be >= 3 when the quintic term is active"
                )
            return self.dealias_pad_factor
        return 3 if coeffs.lambda2 != 0.0 else 2


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    state: SpectralField

    def __post_init__(self):
        if self.time < 0.0:
            raise ValueError("sample time must be nonnegative")


@dataclass
class Trajectory:
    """Sequence of samples; ``blowup_time`` is set when the run halted early
    because the H^m norm crossed the configured ceiling."""

    samples: list
    blowup_time: float | None = None

    @property
    def blow_up_suspected(self):
        return self.blowup_time is not None

    @property
    def final(self):
        return self.samples[-1]

    def __iter__(self):
        return iter(self.samples)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def pad_coeffs(coeffs, n, m):
    """Embed FFT-ordered coefficients for N=n modes into an M=m mode layout."""
    out = np.zeros(m, dtype=np.complex128)
    half = n // 2
    out[:half] = coeffs[:half]
    out[m - half :] = coeffs[half:]
    return out


def truncate_coeffs(coeffs, m, n):
    """Restrict an M-mode FFT-ordered array to the N-mode band."""
    out = np.empty(n, dtype=np.complex128)
    half = n // 2
    out[:half] = coeffs[:half]
    out[half:] = coeffs[m - half :]
    return out


@lru_cache(maxsize=64)
def _padded_derivative_ops(num_modes, pad):
    """Rows (i·n, -n²) over the modes of the pad·N grid, as complex128.

    Stored complex so that multiplying a coefficient array by a row runs
    the same complex product numpy runs when it casts the real -n² itself.
    """
    m = pad * num_modes
    modes = np.fft.fftfreq(m, 1.0 / m)
    ops = np.array([1j * modes, -(modes**2)], dtype=np.complex128)
    ops.setflags(write=False)
    return ops


def _nonlinearity(c, lambdas, pad):
    """Raw-array core of ``eval_nonlinearity`` for N coefficients ``c``.

    Pads once into a (3, pad·N) stack (ψ, ∂ψ, ∂²ψ), takes one batched
    inverse FFT, combines pointwise, transforms back, truncates to the
    band and zeroes the Nyquist mode. Returns a new writable array.
    """
    n = c.shape[0]
    m = pad * n
    stack = np.empty((3, m), dtype=np.complex128)
    stack[0] = pad_coeffs(c, n, m) if pad > 1 else c
    np.multiply(_padded_derivative_ops(n, pad), stack[0], out=stack[1:])
    u, du, d2u = np.fft.ifft(stack, axis=-1) * (m / SQRT_2PI)
    combined = kernels.nonlinear_combine(u, du, d2u, lambdas)
    chat = np.fft.fft(combined) * (SQRT_2PI / m)
    out = truncate_coeffs(chat, m, n) if pad > 1 else chat
    out[n // 2] = 0.0
    return out


def eval_nonlinearity(psi, coeffs, pad):
    """Dealiased pseudospectral evaluation of the six-term nonlinearity.

    Derivatives are taken in spectral space, products on a grid zero-padded
    by ``pad``, and the result truncated back to the original band with the
    Nyquist mode forced to zero.
    """
    if pad < 1:
        raise ValueError("pad must be >= 1")
    if coeffs.is_linear:
        return SpectralField(psi.grid, np.zeros_like(psi.coeffs))
    return SpectralField(psi.grid, _nonlinearity(psi.coeffs, coeffs.lambdas, pad))


@lru_cache(maxsize=256)
def _semigroup_factors_cached(num_modes, t, eps, nu):
    factors = kernels.semigroup_factors(GridSpec(num_modes).modes, t, eps, nu)
    factors.setflags(write=False)
    return factors


def semigroup_apply(psi, t, eps, nu):
    """Apply W_ε(t); rejects backward heat flow (t < 0 with ε > 0)."""
    if eps > 0.0 and t < 0.0:
        raise ValueError("t must be nonnegative when eps > 0")
    factors = _semigroup_factors_cached(psi.grid.num_modes, float(t), float(eps), float(nu))
    return SpectralField(psi.grid, kernels.apply_multiplier(psi.coeffs, factors))


def smoothing_multiplier_sup(eps, s, grid):
    """max over resolved n of ⟨n⟩² e^{-ε n⁴ s}.

    Compared by callers against the closed-form bound 1 + ε^{-1/2} s^{-1/2}.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if s <= 0.0:
        raise ValueError("s must be positive")
    n = grid.modes
    return float(np.max((1.0 + n**2) * np.exp(-eps * n**4 * s)))


def duhamel_step(psi, cfg, coeffs):
    """One step of length dt via Picard iteration on the Duhamel map.

    Fixed point of ψ ↦ W_ε(dt)ψ₀ - i (dt/2) [W_ε(dt) N(ψ₀) + N(ψ)],
    converged when successive iterates differ by < picard_tol in H^m.
    Returns (state, iterations); raises NonFinite as soon as that distance
    is not finite and NonConvergence past the budget.
    """
    dt = cfg.dt
    grid = psi.grid
    factors = _semigroup_factors_cached(
        grid.num_modes, float(dt), float(cfg.epsilon), float(coeffs.nu)
    )
    w_psi = kernels.apply_multiplier(psi.coeffs, factors)
    if coeffs.is_linear:
        return SpectralField(grid, w_psi), 1
    lambdas = coeffs.lambdas
    pad = cfg.pad_for(coeffs)
    weights = grid.sobolev_weights(cfg.sobolev_index_m)
    order = grid.mode_order
    # the scalar stays on the right, where SpectralField.__rmul__ put it:
    # swapping complex operands can change the last bit under FMA
    half_dt = 0.5j * dt
    with np.errstate(over="ignore", invalid="ignore"):
        n0 = _nonlinearity(psi.coeffs, lambdas, pad)
        fixed = w_psi - kernels.apply_multiplier(n0, factors) * half_dt
        current = w_psi
        for iteration in range(1, cfg.picard_max_iters + 1):
            nxt = fixed - _nonlinearity(current, lambdas, pad) * half_dt
            dist = math.sqrt(
                kernels.weighted_diff_norm_sq(nxt, current, weights, order)
            )
            if dist < cfg.picard_tol:
                return SpectralField(grid, nxt), iteration
            if not math.isfinite(dist):
                raise NonFinite(
                    f"Picard iterates diverged to a non-finite H^m distance at "
                    f"iteration {iteration} (dt={dt}); reduce dt"
                )
            current = nxt
    raise NonConvergence(
        f"Picard iteration did not contract within {cfg.picard_max_iters} "
        f"iterations (dt={dt}); reduce dt or check for loss of regularity",
        iterations=cfg.picard_max_iters,
    )


def _step_times(t_end, dt):
    """Step endpoints 0 < t_1 < … < t_k = t_end with steps of at most dt."""
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    steps = []
    k = 1
    while k * dt < t_end - 1e-12 * max(1.0, t_end):
        steps.append(k * dt)
        k += 1
    if t_end > 0.0:
        steps.append(t_end)
    return steps


def integrate(psi0, t_end, cfg, coeffs, observers=(), blowup_factor=1e6):
    """Repeated Duhamel stepping up to t_end with observer callbacks.

    Observers are called with each TrajectorySample as it is produced. The
    run halts early, marking the trajectory, if the H^m norm exceeds
    ``blowup_factor`` times its initial value; a non-finite norm or a
    diverging step raises NonFinite carrying the time.
    """
    m = cfg.sobolev_index_m
    sample = TrajectorySample(0.0, psi0)
    samples = [sample]
    for obs in observers:
        obs(sample)
    ceiling = blowup_factor * max(sobolev_norm(psi0, m), 1e-300)
    trajectory = Trajectory(samples)
    state = psi0
    prev_t = 0.0
    for t in _step_times(t_end, cfg.dt):
        step_cfg = cfg if abs((t - prev_t) - cfg.dt) < 1e-15 else replace(cfg, dt=t - prev_t)
        try:
            state, _ = duhamel_step(state, step_cfg, coeffs)
        except NonConvergence as exc:
            raise NonConvergence(
                f"Picard non-convergence at t={prev_t:.6g}: {exc}",
                time=prev_t,
                iterations=exc.iterations,
            ) from exc
        except NonFinite as exc:
            raise NonFinite(f"at t={prev_t:.6g}: {exc}", time=prev_t) from exc
        norm = sobolev_norm(state, m)
        if not math.isfinite(norm):
            raise NonFinite(f"non-finite H^m norm at t={t:.6g}", time=t)
        sample = TrajectorySample(t, state)
        samples.append(sample)
        for obs in observers:
            obs(sample)
        if norm > ceiling:
            trajectory.blowup_time = t
            break
        prev_t = t
    return trajectory


def reference_integrate(psi0, t_end, cfg, coeffs):
    """Integrating-factor classical RK4, the independent cross-check scheme.

    The semigroup is applied only over forward substeps (dt/2, dt), so the
    scheme is valid for ε > 0 as well. Raises NonFinite on NaN/Inf.
    """
    dt = cfg.dt
    eps = cfg.epsilon
    nu = coeffs.nu
    pad = cfg.pad_for(coeffs)
    samples = [TrajectorySample(0.0, psi0)]
    state = psi0
    prev_t = 0.0

    def rhs(f):
        return (-1j) * eval_nonlinearity(f, coeffs, pad)

    for t in _step_times(t_end, dt):
        h = t - prev_t
        k1 = rhs(state)
        half = semigroup_apply(state, 0.5 * h, eps, nu)
        k2 = rhs(half + (0.5 * h) * semigroup_apply(k1, 0.5 * h, eps, nu))
        k3 = rhs(half + (0.5 * h) * k2)
        full = semigroup_apply(state, h, eps, nu)
        k4 = rhs(full + h * semigroup_apply(k3, 0.5 * h, eps, nu))
        incr = (
            semigroup_apply(k1, h, eps, nu)
            + 2.0 * semigroup_apply(k2 + k3, 0.5 * h, eps, nu)
            + k4
        )
        state = full + (h / 6.0) * incr
        if not np.all(np.isfinite(state.coeffs)):
            raise NonFinite(f"non-finite coefficients at t={t:.6g}", time=t)
        samples.append(TrajectorySample(t, state))
        prev_t = t
    return Trajectory(samples)
