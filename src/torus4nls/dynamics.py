"""Evolution machinery for i∂tψ + ∂²ψ + (ν+iε)∂⁴ψ = N(ψ,…,∂²ψ̄).

The linear flow is the Fourier multiplier W_ε(t): ψ̂(n) ↦
exp((-in² + iνn⁴ - εn⁴)t) ψ̂(n), a contraction for t ≥ 0 when ε > 0 and
unitary when ε = 0. The main stepper performs Picard iteration on the
Duhamel integral over one step (exponential-trapezoid quadrature), for an
ensemble of runs on one grid at once as the rows of a (B, N) coefficient
array; an integrating-factor RK4 scheme serves as an independent
cross-check. Both run in one loop, ``_stepping``, on one core: the
nonlinearity ``_nonlinearity``, the factors ``_factors`` and the clock
``_steps``, so they differ only in their step function. The nonlinearity's
``_workspace`` per block shape (B, N, pad) is its prepared evaluation: the
arrays it writes and every view and constant it reads, the pointwise
combine's one input among them, so that a call makes one cache lookup and
then only the FFT and ufunc calls of its arithmetic, and allocates only the
array it returns.

Every stepper takes one optional ``observer(time, rows, members)``, called
at t=0 and after each step with the read-only (B', N) coefficients of the
runs still going and their member indices; a single run is the block
(1, N) with members (0,). A run's record keeps only the state it ended at.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .spectral import (
    InputError,
    SpectralField,
    band_coeffs,
    padded_samples,
    refusing,
    sample_layout,
    sobolev_norm_sq_of,
    sobolev_norm_sq_rows,
)

PICARD_TOL = 1e-12  # converged when successive iterates differ by less in H^m
PICARD_MAX_ITERS = 50  # iterations per step before NonConvergence
BLOWUP_FACTOR = 1e6  # a run halts once its H^m norm exceeds this times its initial one
# the step clock's round-off window, relative to dt: no full step starts
# within it of t_end, and a last step within it of dt has length dt
STEP_SNAP = 1e-9

class NonConvergence(RuntimeError):
    """Picard iteration failed to contract within the iteration budget;
    ``member`` is the failing run's index within its ensemble."""

    def __init__(self, message, time=None, iterations=None, member=None):
        super().__init__(message)
        self.time = time
        self.iterations = iterations
        self.member = member


class NonFinite(RuntimeError):
    """A coefficient became NaN/Inf (blow-up or instability)."""

    def __init__(self, message, time=None, member=None):
        super().__init__(message)
        self.time = time
        self.member = member


@dataclass(frozen=True)
class CoefficientSet:
    """Dispersion strength ν ≠ 0 and the six real nonlinearity weights, all
    finite."""

    nu: float
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    lambda4: float = 0.0
    lambda5: float = 0.0
    lambda6: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu != 0.0):
            raise InputError("nu", f"must be finite and nonzero, got {self.nu}")
        for k, value in enumerate(self.lambdas, start=1):
            if not math.isfinite(value):
                raise InputError(f"lambda{k}", f"must be finite, got {value}")

    # Built on first use and kept per instance, outside the fields, so that
    # a set still compares, hashes and reprs by its fields alone: the
    # stepper reads them at every nonlinearity evaluation.
    @cached_property
    def lambdas(self):
        return (
            self.lambda1,
            self.lambda2,
            self.lambda3,
            self.lambda4,
            self.lambda5,
            self.lambda6,
        )

    @cached_property
    def is_linear(self):
        return all(l == 0.0 for l in self.lambdas)

    @cached_property
    def dealias_pad(self):
        """Zero-padding factor that removes aliasing from the nonlinearity:
        3 for its quintic term (λ2 ≠ 0), 2 for cubic products."""
        return 3 if self.lambda2 != 0.0 else 2


@dataclass(frozen=True)
class SolverConfig:
    """The scheme's own settings: the step and the index m of the H^m norm
    its checks use. ε is a coefficient of the equation, given to each run;
    the coefficients fix the dealiasing pad, and the Picard tolerance and
    budget are ``PICARD_TOL`` and ``PICARD_MAX_ITERS``."""

    dt: float
    sobolev_index_m: int = 4

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise InputError("dt", f"must be positive and finite, got {self.dt}")
        if self.sobolev_index_m < 1:
            raise InputError("sobolev_index_m", f"must be >= 1, got {self.sobolev_index_m}")


@dataclass
class Trajectory:
    """Record of one run: the time it reached and its state there, the time
    it halted because the H^m norm crossed the ceiling (None if it did not)
    and each step's Picard count (0 for an RK4 step). Only the run's
    observer sees the other states."""

    time: float
    state: SpectralField
    blowup_time: float | None = None
    picard_iterations: list = field(default_factory=list)


ORDERS = (0, 1, 2)  # the derivatives the nonlinearity samples


@lru_cache(maxsize=16)
def _workspace(rows, num_modes, pad):
    """The prepared ``_nonlinearity`` of a (rows, N) block at ``pad``: every
    array a call writes but the one it returns, and every view and constant
    it reads, built once. That is the (3, rows, pad·N) sample stack's
    ``sample_layout``, the combine's work (``kernels.combine_work`` of the
    stack flattened to (3, rows·pad·N): its views of the samples and its
    arrays, all ``kernels.nonlinear_combine`` takes), and the combine's
    result as a (rows, pad·N) block, which the forward FFT overwrites.
    104 bytes a padded point; the 16 shapes used last are kept (a benchmark
    workload uses at most six). Reusing them leaves malloc nothing to hand
    back to the system between calls and fault in again, and a call
    nothing to build but its result. Calls of one shape share them, so two
    threads must not make such calls at once."""
    stack = np.empty((3, rows, pad * num_modes), dtype=np.complex128)
    work = kernels.combine_work(stack.reshape(3, -1))
    return sample_layout(stack, num_modes, pad, ORDERS), work, work[-3].reshape(rows, -1)


def _nonlinearity(c, coeffs):
    """Raw-array core of ``eval_nonlinearity`` for (B, N) coefficients
    ``c``: a new writable (B, N) array, each row exactly as it would come
    out alone (zeros for linear coefficients). Every other array it writes
    is the block shape's ``_workspace``: ``padded_samples`` writes the
    samples into its stack, and the combine reads them through its work."""
    if coeffs.is_linear:
        return np.zeros(c.shape, dtype=np.complex128)
    rows, n = c.shape
    pad = coeffs.dealias_pad
    samples, work, combined = _workspace(rows, n, pad)
    padded_samples(c, pad, ORDERS, out=samples)
    # the pointwise kernel runs on flat (B·M,) views: elementwise, so
    # the same values, without numpy's per-row iteration over (B, M)
    kernels.nonlinear_combine(work, coeffs.lambdas)
    return band_coeffs(combined, n, pad, out=combined)


def eval_nonlinearity(psi, coeffs):
    """Dealiased pseudospectral evaluation of the six-term nonlinearity.

    Derivatives are taken in spectral space, products on a grid zero-padded
    by ``coeffs.dealias_pad``, and the result truncated back to the original
    band with the Nyquist mode forced to zero.
    """
    return SpectralField(psi.grid, _nonlinearity(psi.coeffs[None], coeffs)[0])


def semigroup_apply(psi, t, eps, nu):
    """Apply W_ε(t) from ``_factors``; rejects backward heat flow (t < 0, ε > 0)."""
    if eps > 0.0 and t < 0.0:
        raise ValueError("t must be nonnegative when eps > 0")
    factors = _factors(psi.grid, t, [eps], nu, "t")[0]
    return SpectralField(psi.grid, kernels.apply_multiplier(psi.coeffs, factors))


def smoothing_multiplier_sup(eps, s, grid):
    """max over resolved n of ⟨n⟩² e^{-ε n⁴ s}.

    Compared by callers against the closed-form bound 1 + ε^{-1/2} s^{-1/2}.
    """
    if eps <= 0.0:
        raise InputError("eps", "must be positive")
    if s <= 0.0:
        raise InputError("s", "must be positive")
    # n2 * n2 rather than n**4, which numpy computes with pow() at about
    # four times the cost; equal while n⁴ is exact (|n| < 2^13)
    n2 = grid.modes**2
    return float(np.max((1.0 + n2) * np.exp(-eps * (n2 * n2) * s)))


def _at(time, member, named):
    """Where a run failed, for an error message: the time, and the member
    when ``named`` (in every ensemble of two or more)."""
    return f"t={time:.6g}" + (f", member {member}" if named else "")


def _picard_step(c, factors, dt, coeffs, m, time, members, named):
    """One step of length dt from ``time``, given ``factors`` (W_ε(dt),), for
    each row i of the (B, N) coefficients ``c``, run ``members[i]``.

    Each row is the fixed point of ψ ↦ W_ε(dt)ψ₀ - i (dt/2) [W_ε(dt) N(ψ₀) +
    N(ψ)], converged when successive iterates differ by < PICARD_TOL in
    H^m. N(ψ₀) and the first iterate's N(W_ε(dt)ψ₀) depend only on the
    step's start, so c and W_ε(dt)c are written into one (2B, N) start
    block and evaluated in one ``_nonlinearity`` call: k calls for k
    iterations instead of k+1. Every row of a ``_nonlinearity`` block gets
    the bits it would get alone, and a row freezes at its own convergence
    and leaves the batch, so each row takes the iterations and gets the
    bits of a run of its own. Returns (states, iterations per row). When
    rows fail, raises for the lowest one, carrying ``time`` and its member
    (named in the message when ``named``): NonFinite as soon as its
    distance is not finite, NonConvergence past the budget.
    """
    w_psi = kernels.apply_multiplier(c, factors[0])
    if coeffs.is_linear:
        return w_psi, [1] * len(c)
    # the scalar stays on the right, where SpectralField.__rmul__ put it:
    # swapping complex operands can change the last bit under FMA
    half_dt = 0.5j * dt
    out = np.empty_like(w_psi)
    iterations = [0] * len(c)
    live = list(range(len(c)))  # rows still iterating, ascending
    failure = None
    gap_sq = sobolev_norm_sq_of(c.shape[-1], m)
    with np.errstate(over="ignore", invalid="ignore"):
        both = _nonlinearity(np.concatenate((c, w_psi)), coeffs)
        n0, n_first = both[: len(c)], both[len(c) :]
        fixed = w_psi - kernels.apply_multiplier(n0, factors[0]) * half_dt
        current = w_psi
        for iteration in range(1, PICARD_MAX_ITERS + 1):
            n_current = n_first if iteration == 1 else _nonlinearity(current, coeffs)
            nxt = fixed - n_current * half_dt
            gaps = np.sqrt(gap_sq(nxt - current)).tolist()
            keep = []
            for i, (row, gap) in enumerate(zip(live, gaps)):
                if gap < PICARD_TOL:
                    out[row] = nxt[i]
                    iterations[row] = iteration
                elif math.isfinite(gap):
                    keep.append(i)
                else:
                    failure = NonFinite(
                        f"at {_at(time, members[row], named)}: Picard iterates "
                        f"diverged to a non-finite H^m distance at iteration "
                        f"{iteration} (dt={dt}); reduce dt",
                        time=time, member=members[row],
                    )
                    break  # the rows above this one can no longer fail first
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                nxt = nxt[keep]
                fixed = fixed[keep]
            current = nxt
    if keep:
        raise NonConvergence(
            f"Picard non-convergence at {_at(time, members[live[0]], named)}: "
            f"Picard iteration did not contract within {PICARD_MAX_ITERS} "
            f"iterations (dt={dt}); reduce dt or check for loss of regularity",
            time=time, iterations=PICARD_MAX_ITERS, member=members[live[0]],
        )
    if failure is not None:
        raise failure
    return out, iterations


def _rk4_step(c, factors, dt, coeffs, m, time, members, named):
    """One integrating-factor RK4 step, taken as ``_picard_step`` takes its
    own, from ``factors`` (W_ε(dt), W_ε(dt/2)): forward substeps only, so
    valid for ε > 0 too. A row with a NaN/Inf coefficient raises NonFinite."""
    w, w_half = factors

    def rhs(c):  # -i N(ψ)
        return _nonlinearity(c, coeffs) * (-1j)

    # scalars on the right as in _picard_step; overflow is left to the check
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(c)
        half = c * w_half
        k2 = rhs(half + (k1 * w_half) * (0.5 * dt))
        k3 = rhs(half + k2 * (0.5 * dt))
        full = c * w
        k4 = rhs(full + (k3 * w_half) * dt)
        out = full + (k1 * w + ((k2 + k3) * w_half) * 2.0 + k4) * (dt / 6.0)
    finite = np.isfinite(out).all(axis=1).tolist()
    if not all(finite):  # the lowest failing row
        member = members[finite.index(False)]
        raise NonFinite(f"non-finite coefficients at {_at(time, member, named)}",
                        time=time, member=member)
    return out, [0] * len(c)


def duhamel_step(psi, cfg, coeffs):
    """One unregularized (ε = 0) step of length dt via Picard iteration on
    the Duhamel map: a one-step ``integrate``, so the same state, Picard
    count and errors (carrying time 0). Returns (state, iterations)."""
    run = integrate(psi, cfg.dt, cfg, coeffs)
    return run.state, run.picard_iterations[0]


def _factors(grid, t, epsilons, nu, name="dt"):
    """The one builder of W_ε(t): (len(epsilons), N) rows, one per ε, or,
    where they are not finite, a ValueError that calls ``t`` ``name`` ("dt"
    for a step, "t" for a time). As |W| <= 1 for ε >= 0, finite factors
    keep a finite state finite."""
    return refusing(lambda: f"the factors W_eps({name}) overflow: nu={nu}, {name}={t}",
                    lambda: np.stack([kernels.semigroup_factors(
                        grid.modes, float(t), float(eps), float(nu)) for eps in epsilons]))


def _steps(t_end, dt):
    """Both steppers' one clock: (start, end, length) of each step. Full
    steps end at k·dt with length exactly dt; the last ends at t_end, short
    only if t_end is no whole number of steps to within ``STEP_SNAP``·dt.
    For a t_end that ``check_run`` accepts."""
    window = STEP_SNAP * dt

    def clock():
        start, k = 0.0, 1
        while k * dt < t_end - window:  # a full step fits
            yield start, k * dt, dt
            start, k = k * dt, k + 1
        if t_end > 0.0:
            last = t_end - start
            yield start, t_end, dt if abs(last - dt) < window else last

    return clock()


def check_run(t_end, epsilons):
    """The refusals of a run's own arguments, made before any stepper
    samples its data: an InputError of ``t_end`` unless it is nonnegative
    and finite, and of ``epsilon`` for an ε outside [0, 1]. A caller that
    must refuse before it starts other work (a trajectory's writer) calls
    it first too."""
    for eps in epsilons:
        if not 0.0 <= eps <= 1.0:
            raise InputError("epsilon", f"must lie in [0, 1], got {eps}")
    if not 0.0 <= t_end < math.inf:
        raise InputError("t_end", f"must be nonnegative and finite, got {t_end}")


def _stepping(step, fractions, psi0s, t_end, cfg, epsilons, coeffs, observer):
    """``integrate_many`` with the scheme's ``step``, called as ``_picard_step``
    with W_ε(f·dt) for each f of ``fractions``, built when dt changes."""
    psi0s = list(psi0s)
    count = len(psi0s)
    if count == 0:
        raise ValueError("integrate_many needs at least one member")
    epsilons = [0.0] * count if epsilons is None else list(epsilons)
    if len(epsilons) != count:
        raise ValueError("psi0s and epsilons need one entry per member")
    check_run(t_end, epsilons)
    grid = psi0s[0].grid
    if any(psi.grid != grid for psi in psi0s):
        raise ValueError("ensemble members must share one grid")
    m = cfg.sobolev_index_m
    state = np.array([psi.coeffs for psi in psi0s])
    norms0 = [math.sqrt(refusing(
        lambda: f"the initial data{f' of member {i}' if count > 1 else ''} has a "
                f"non-finite H^m norm (m={m})", sobolev_norm_sq_rows, row, m))
        for i, row in enumerate(state)]
    norm_sq = sobolev_norm_sq_of(grid.num_modes, m)
    runs = [Trajectory(0.0, psi0) for psi0 in psi0s]
    ceilings = [BLOWUP_FACTOR * max(norm, 1e-300) for norm in norms0]
    active = tuple(range(count))

    def observe(time):
        if observer is not None:
            state.setflags(write=False)  # a fresh array at every step
            observer(time, state, active)

    observe(0.0)
    factors_dt = None  # the step the current factors are for
    for start, t, dt in _steps(t_end, cfg.dt):
        if dt != factors_dt:  # W(dt) first, so that a refusal names dt
            factors_dt = dt
            live = [epsilons[i] for i in active]
            factors = [_factors(grid, f * dt, live, coeffs.nu) for f in fractions]
        state, iterations = step(state, factors, dt, coeffs, m, start, active, count > 1)
        observe(t)
        norms = np.sqrt(norm_sq(state)).tolist()
        keep = []
        for i, member in enumerate(active):
            run = runs[member]
            run.picard_iterations.append(iterations[i])
            if norms[i] > ceilings[member]:
                run.blowup_time = t
            else:
                keep.append(i)
            if run.blowup_time is not None or t == t_end:  # it halts, or has ended
                run.time, run.state = t, SpectralField(grid, state[i])
        if len(keep) < len(active):
            active = tuple(active[i] for i in keep)
            state = state[keep]
            factors = [w[keep] for w in factors]
        if not active:
            break
    return runs


def integrate_many(psi0s, t_end, cfg, coeffs, observer=None, *, epsilons=None):
    """Repeated Duhamel stepping of an ensemble of runs up to t_end.

    Member i starts from ``psi0s[i]`` and solves the equation with
    regularization ``epsilons[i]`` (every member at ε = 0 when None); all
    share ``cfg`` and one grid. The members advance together as the rows of
    one (B, N) array, and each gets exactly the states and Picard counts a
    run of its own would get. ``observer(time, rows, members)``, called at
    t=0 and after each step with the read-only (B', N) coefficients of the
    live members and their ascending member indices, is the only way to see
    the states along the run. A member whose H^m norm exceeds
    ``BLOWUP_FACTOR`` times its initial value is marked and halts; the
    others go on. A diverging step raises NonFinite (NonConvergence past the
    Picard budget) at the earliest failing step, for the lowest failing
    member, carrying the time and the member index. Initial data whose H^m
    norm is not finite (a NaN or Inf coefficient, or an overflowing weighted
    sum) and a t_end that is negative or not finite are ValueErrors before
    the observer is called, as are an ε outside [0, 1] and ``epsilons``
    whose length is not that of ``psi0s``; so are, at the first step of
    their length, linear factors W_ε(dt) that are not finite. Returns one
    Trajectory record per member.
    """
    return _stepping(_picard_step, (1.0,), psi0s, t_end, cfg, epsilons, coeffs,
                     observer)


def integrate(psi0, t_end, cfg, coeffs, observer=None, *, eps=0.0):
    """Repeated Duhamel stepping of one run up to t_end at regularization
    ``eps``: the one-member ``integrate_many``, so ``observer`` sees (1, N)
    blocks with members (0,). Returns the run's Trajectory record."""
    return integrate_many([psi0], t_end, cfg, coeffs, observer, epsilons=[eps])[0]


def reference_integrate(psi0, t_end, cfg, coeffs, observer=None, *, eps=0.0):
    """Integrating-factor classical RK4, the independent cross-check scheme:
    ``integrate`` with ``_rk4_step`` for the Picard step, so the same refusals,
    blow-up ceiling, observer blocks and record (0 Picard iterations per
    step); its NonFinite carries the time the failing step started from."""
    return _stepping(_rk4_step, (1.0, 0.5), [psi0], t_end, cfg, [eps], coeffs,
                     observer)[0]
