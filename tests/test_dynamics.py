"""Nonlinearity evaluation, semigroup, and both time integrators."""

import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_samples, reference_nonlinearity, zero_field

from torus4nls import dynamics, kernels
from torus4nls.dynamics import (
    CoefficientSet,
    NonConvergence,
    NonFinite,
    SolverConfig,
    duhamel_step,
    eval_nonlinearity,
    integrate,
    integrate_many,
    reference_integrate,
    semigroup_apply,
    smoothing_multiplier_sup,
)
from torus4nls.exact import integrable_coefficients, plane_wave
from torus4nls.sampling import mode_pair_field, random_field, rng_for
from torus4nls.spectral import (
    GridSpec,
    SpectralField,
    l2_norm,
    sobolev_distance,
    sobolev_norm,
)


class TestCoefficientSet:
    def test_rejects_zero_nu(self):
        with pytest.raises(ValueError):
            CoefficientSet(nu=0.0)

    @pytest.mark.parametrize("field", ["nu", "lambda1", "lambda6"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, field, value):
        kwargs = {"nu": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CoefficientSet(**kwargs)

    def test_is_linear(self):
        assert CoefficientSet(nu=1.0).is_linear
        assert not CoefficientSet(nu=1.0, lambda3=0.1).is_linear

    def test_used_set_is_its_fields(self):
        # what a set builds for the stepper is kept beside its fields, not
        # among them: a set that has stepped still compares, hashes and
        # reprs as a new one
        used = CoefficientSet(nu=1.0, lambda2=0.1, lambda3=0.2)
        eval_nonlinearity(_benign(GridSpec(64)), used)
        fresh = CoefficientSet(nu=1.0, lambda2=0.1, lambda3=0.2)
        assert {"lambdas", "is_linear", "dealias_pad"} <= set(vars(used))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == (
            "CoefficientSet(nu=1.0, lambda1=0.0, lambda2=0.1, lambda3=0.2, "
            "lambda4=0.0, lambda5=0.0, lambda6=0.0)")
        assert used != replace(used, lambda3=0.3)


class TestSolverConfig:
    # the pad is not a config field: the coefficients fix it
    def test_pad_default_cubic(self):
        assert CoefficientSet(nu=1.0).dealias_pad == 2
        assert CoefficientSet(nu=1.0, lambda1=-0.5, lambda6=0.3).dealias_pad == 2

    def test_pad_default_quintic(self):
        assert CoefficientSet(nu=1.0, lambda2=0.1).dealias_pad == 3
        assert integrable_coefficients(1.0).dealias_pad == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": -1.0},
            {"dt": 1e-3, "sobolev_index_m": 0},
            {"dt": float("nan")},
            {"dt": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def _one_step(psi, cfg, coeffs, eps):
    """One step of length dt at regularization ``eps``: ``duhamel_step`` at
    ε = 0, else a one-step ``integrate``. Returns (state, iterations)."""
    if eps == 0.0:
        return duhamel_step(psi, cfg, coeffs)
    run = integrate(psi, cfg.dt, cfg, coeffs, eps=eps)
    return run.state, run.picard_iterations[0]


@pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
@pytest.mark.parametrize("stepper", ["integrate", "integrate_many", "reference_integrate"])
def test_epsilon_outside_unit_interval_refused_before_any_sample(grid64, stepper, eps):
    # ε is an input of the run, checked before the observer first sees it
    seen = []
    psi, cfg, coeffs = _benign(grid64), SolverConfig(dt=1e-3), CoefficientSet(nu=1.0)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\], got "):
        if stepper == "integrate_many":
            integrate_many([psi] * 2, 0.01, cfg, coeffs,
                           lambda *block: seen.append(block), epsilons=[0.5, eps])
        else:
            getattr(dynamics, stepper)(psi, 0.01, cfg, coeffs,
                                       lambda *block: seen.append(block), eps=eps)
    assert seen == []


class TestNonlinearity:
    def test_zero_field(self, grid64, generic_coeffs):
        out = eval_nonlinearity(zero_field(grid64), generic_coeffs)
        assert np.all(out.coeffs == 0.0)

    def test_constant_field(self, grid64, generic_coeffs):
        c = 0.8 - 0.3j
        psi = SpectralField(grid64, np.eye(1, 64, 0)[0] * c * np.sqrt(2 * np.pi))
        out = eval_nonlinearity(psi, generic_coeffs)
        lam = generic_coeffs
        expect = (lam.lambda1 * abs(c) ** 2 + lam.lambda2 * abs(c) ** 4) * c
        assert out.coeffs[0] == pytest.approx(expect * np.sqrt(2 * np.pi))
        assert np.max(np.abs(np.delete(out.coeffs, 0))) < 1e-14

    @pytest.mark.parametrize("kappa,tau", [(0.5, 2), (0.3, -3), (1.1, 1)])
    def test_plane_wave_formula(self, grid64, generic_coeffs, kappa, tau):
        # hand substitution: each term maps kappa e^{i tau x} to a multiple
        psi = plane_wave(grid64, kappa, tau)
        out = eval_nonlinearity(psi, generic_coeffs)
        lam = generic_coeffs
        mult = (
            lam.lambda1 * kappa**2
            + lam.lambda2 * kappa**4
            + (-lam.lambda3 + lam.lambda4 - lam.lambda5 - lam.lambda6)
            * tau**2
            * kappa**2
        )
        assert out.coeffs[tau] == pytest.approx(mult * kappa * np.sqrt(2 * np.pi))
        others = np.abs(out.coeffs).copy()
        others[tau % 64] = 0.0
        assert np.max(others) < 1e-13

    def test_plane_wave_against_quadrature_oracle(self, grid64, generic_coeffs):
        # direct synthesis on a fine grid with analytic derivatives
        psi = plane_wave(grid64, 0.5, 2)
        out = eval_nonlinearity(psi, generic_coeffs)
        u = oracle_samples(psi, 4, 0)
        du = oracle_samples(psi, 4, 1)
        d2u = oracle_samples(psi, 4, 2)
        lam = generic_coeffs
        combined = (
            lam.lambda1 * np.abs(u) ** 2 * u
            + lam.lambda2 * np.abs(u) ** 4 * u
            + lam.lambda3 * du**2 * np.conj(u)
            + lam.lambda4 * np.abs(du) ** 2 * u
            + lam.lambda5 * u**2 * np.conj(d2u)
            + lam.lambda6 * np.abs(u) ** 2 * d2u
        )
        # forward transform on the 256-point grid, in the package convention
        oracle = np.fft.fft(combined) * (np.sqrt(2.0 * np.pi) / (4 * 64))
        for n in range(-8, 8):
            assert out.coeffs[n] == pytest.approx(oracle[n % (4 * 64)], abs=1e-12)

    def test_gauge_covariance(self, grid64, generic_coeffs):
        rng = rng_for(5)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        theta = 0.7321
        rotated = SpectralField(grid64, psi.coeffs * np.exp(1j * theta))
        lhs = eval_nonlinearity(rotated, generic_coeffs).coeffs
        rhs = eval_nonlinearity(psi, generic_coeffs).coeffs * np.exp(1j * theta)
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_dealiasing_matches_fine_resolution(self, generic_coeffs):
        # band-limited field evaluated at N and at 4N agree on the band
        grid = GridSpec(64)
        rng = rng_for(8)
        psi = random_field(grid, rng, decay=1.0, l2_mass=1.0, max_mode=8)
        out = eval_nonlinearity(psi, generic_coeffs)
        fine = GridSpec(256)
        fine_coeffs = np.zeros(256, dtype=complex)
        fine_coeffs[:32] = psi.coeffs[:32]
        fine_coeffs[256 - 32 :] = psi.coeffs[32:]
        out_fine = eval_nonlinearity(SpectralField(fine, fine_coeffs), generic_coeffs)
        for n in range(-31, 32):
            assert abs(out.coeffs[n] - out_fine.coeffs[n]) < 1e-11

    def test_nyquist_zeroed(self, grid64, generic_coeffs):
        rng = rng_for(13)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=1.0)
        out = eval_nonlinearity(psi, generic_coeffs)
        assert out.coeffs[32] == 0.0


class TestSemigroup:
    def test_identity_at_zero(self, grid64):
        rng = rng_for(2)
        psi = random_field(grid64, rng, decay=1.0)
        out = semigroup_apply(psi, 0.0, 0.5, 1.0)
        assert np.allclose(out.coeffs, psi.coeffs, atol=1e-15)

    def test_stationary_mode_nu_one(self, grid64):
        # -n^2 + nu n^4 = 0 at n = 1, nu = 1
        psi = plane_wave(grid64, 1.0, 1)
        out = semigroup_apply(psi, 0.37, 0.0, 1.0)
        assert out.coeffs[1] == pytest.approx(psi.coeffs[1])

    def test_damping_rate(self, grid64):
        psi = plane_wave(grid64, 1.0, 1)
        out = semigroup_apply(psi, 1.0, 1.0, 0.3)
        assert abs(out.coeffs[1]) == pytest.approx(abs(psi.coeffs[1]) * np.exp(-1.0))

    def test_group_law(self, grid64):
        # dyadic times so s + t is exact; any residual is pure exp round-off
        rng = rng_for(4)
        psi = random_field(grid64, rng, decay=1.0)
        for eps in (0.0, 0.2):
            once = semigroup_apply(psi, 0.75, eps, 1.0)
            twice = semigroup_apply(semigroup_apply(psi, 0.25, eps, 1.0), 0.5, eps, 1.0)
            assert np.allclose(once.coeffs, twice.coeffs, rtol=1e-12, atol=1e-14)

    def test_contraction_and_unitarity(self, grid64):
        rng = rng_for(6)
        psi = random_field(grid64, rng, decay=1.0, l2_mass=1.0)
        for m in (0, 2, 4):
            before = sobolev_norm(psi, m)
            assert sobolev_norm(semigroup_apply(psi, 0.5, 0.3, 1.0), m) <= before
            assert sobolev_norm(semigroup_apply(psi, 0.5, 0.0, 1.0), m) == pytest.approx(
                before, rel=1e-13
            )

    def test_strict_decay_off_dc(self, grid64):
        psi = plane_wave(grid64, 1.0, 3)
        out = semigroup_apply(psi, 0.1, 0.5, 1.0)
        assert abs(out.coeffs[3]) < abs(psi.coeffs[3])

    def test_backward_heat_rejected(self, grid64):
        psi = plane_wave(grid64, 1.0, 1)
        with pytest.raises(ValueError):
            semigroup_apply(psi, -0.1, 0.5, 1.0)
        # unitary case allows negative times
        semigroup_apply(psi, -0.1, 0.0, 1.0)

    @pytest.mark.parametrize("t,nu", [(1e308, 1.0), (1.0, 1e308)], ids=["t", "nu"])
    def test_non_finite_factors_rejected(self, grid64, t, nu):
        # the steppers' refusal, not numpy's overflow warning and NaN, naming
        # the time it was asked for, which is no step
        with pytest.raises(ValueError, match="^" + re.escape(
                f"the factors W_eps(t) overflow: nu={nu}, t={t}")):
            semigroup_apply(plane_wave(grid64, 1.0, 1), t, 0.0, nu)


class TestSmoothingMultiplier:
    def test_at_least_one(self, grid64):
        assert smoothing_multiplier_sup(0.5, 0.2, grid64) >= 1.0

    def test_strong_damping_hits_dc(self, grid64):
        assert smoothing_multiplier_sup(1.0, 10.0, grid64) == pytest.approx(1.0)

    def test_bound_sweep(self):
        grid = GridSpec(1024)
        for eps in np.logspace(-3, 0, 7):
            for s in np.logspace(-3, 0, 7):
                sup = smoothing_multiplier_sup(eps, s, grid)
                assert sup <= 1.0 + eps**-0.5 * s**-0.5

    @pytest.mark.parametrize("eps,s", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive(self, grid64, eps, s):
        with pytest.raises(ValueError):
            smoothing_multiplier_sup(eps, s, grid64)


class TestDuhamelStep:
    def test_zero_state_one_iteration(self, grid64, generic_coeffs):
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        out, iters = duhamel_step(zero_field(grid64), cfg, generic_coeffs)
        assert iters == 1
        assert np.all(out.coeffs == 0.0)

    def test_linear_case_is_semigroup(self, grid64):
        rng = rng_for(3)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        lin = CoefficientSet(nu=1.0)
        out, iters = _one_step(psi, cfg, lin, 0.1)
        assert iters <= 2
        expect = semigroup_apply(psi, 1e-3, 0.1, 1.0)
        assert np.allclose(out.coeffs, expect.coeffs, atol=1e-15)

    def test_nonconvergence_raised(self, grid64, monkeypatch):
        # second-derivative quintic forcing at order-one amplitude with a
        # huge step leaves the contraction regime; the first three iterates
        # are still finite (H^m gaps ~1e11, 1e32, 1e136), the fourth is not
        monkeypatch.setattr(dynamics, "PICARD_MAX_ITERS", 3)
        rng = rng_for(4)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=20.0)
        cfg = SolverConfig(dt=0.5, sobolev_index_m=4)
        with pytest.raises(NonConvergence) as err:
            duhamel_step(psi, cfg, integrable_coefficients(1.0))
        assert (err.value.time, err.value.member, err.value.iterations) == (0.0, 0, 3)
        assert "member" not in str(err.value)

    def test_divergence_is_nonfinite_at_time_0(self, grid64):
        psi = random_field(grid64, rng_for(1), decay=0.5, l2_mass=20.0)
        cfg = SolverConfig(dt=0.5, sobolev_index_m=4)
        with pytest.raises(NonFinite) as err:
            duhamel_step(psi, cfg, integrable_coefficients(1.0))
        assert (err.value.time, err.value.member) == (0.0, 0)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_is_the_first_step_of_integrate(self, grid64, generic_coeffs, epsilon):
        psi = _benign(grid64)
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        out, iters = _one_step(psi, cfg, generic_coeffs, epsilon)
        (seen,), observer = _observed(1)
        run = integrate(psi, 3 * cfg.dt, cfg, generic_coeffs, observer, eps=epsilon)
        assert seen[1][0] == cfg.dt
        assert np.array_equal(out.coeffs, seen[1][1])
        assert iters == run.picard_iterations[0] > 1


class TestIntegrate:
    def test_zero_time(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.2, 1)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        (seen,), observer = _observed(1)
        traj = integrate(psi, 0.0, cfg, generic_coeffs, observer)
        assert len(seen) == 1 and seen[0][0] == traj.time == 0.0
        assert np.array_equal(seen[0][1], psi.coeffs)
        assert np.array_equal(traj.state.coeffs, psi.coeffs)

    def test_linear_matches_closed_form(self, grid64):
        rng = rng_for(21)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        traj = integrate(psi, 0.25, cfg, CoefficientSet(nu=1.0))
        expect = semigroup_apply(psi, 0.25, 0.0, 1.0)
        rel = sobolev_distance(traj.state, expect, 4) / sobolev_norm(expect, 4)
        assert rel < 1e-10

    def test_final_partial_step_lands_exactly(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.1, 1)
        cfg = SolverConfig(dt=3e-3, sobolev_index_m=4)
        (seen,), observer = _observed(1)
        traj = integrate(psi, 0.01, cfg, generic_coeffs, observer)
        assert traj.time == 0.01
        assert len(seen) == 5  # 0, 3e-3, 6e-3, 9e-3, 1e-2

    def test_observers_see_every_sample(self, grid64, generic_coeffs):
        (seen,), observer = _observed(1)
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        traj = integrate(plane_wave(grid64, 0.1, 1), 0.01, cfg, generic_coeffs, observer)
        assert [t for t, _ in seen] == [k * 2e-3 for k in range(5)] + [0.01]
        assert seen[-1][0] == traj.time
        assert np.array_equal(seen[-1][1], traj.state.coeffs)

    @pytest.mark.parametrize("stepper", [integrate, reference_integrate],
                             ids=["duhamel", "rk4"])
    def test_blowup_marker(self, grid64, monkeypatch, stepper):
        # ceiling below the conserved norm trips immediately
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.99)
        psi = plane_wave(grid64, 0.5, 2)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        (seen,), observer = _observed(1)
        traj = stepper(psi, 0.01, cfg, CoefficientSet(nu=1.0), observer)
        assert traj.blowup_time == traj.time == 1e-3
        assert np.array_equal(traj.state.coeffs, seen[-1][1])
        assert len(seen) == 2

    def test_nonconvergence_carries_time(self, grid64, monkeypatch):
        monkeypatch.setattr(dynamics, "PICARD_MAX_ITERS", 3)
        rng = rng_for(4)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=20.0)
        cfg = SolverConfig(dt=0.5, sobolev_index_m=4)
        with pytest.raises(NonConvergence) as err:
            integrate(psi, 2.0, cfg, integrable_coefficients(1.0))
        assert err.value.time is not None

    def test_divergence_is_nonfinite(self, grid64):
        # the CLI's solver-error setup: Picard overflows at its fourth
        # iterate and must stop there, not after the whole budget
        psi = random_field(grid64, rng_for(1), decay=0.5, l2_mass=20.0)
        cfg = SolverConfig(dt=0.5, sobolev_index_m=4)
        with pytest.raises(NonFinite) as err:
            integrate(psi, 1.0, cfg, integrable_coefficients(1.0))
        assert err.value.time == 0.0


def _snapped_step_times(t_end, dt):
    """The step rule both steppers' clock replaced: a list of step ends,
    and each step's length ``t - prev_t`` snapped back to dt inside an
    absolute 1e-15 window, as (start, end, length)."""
    ends, k = [], 1
    while k * dt < t_end - 1e-12 * max(1.0, t_end):
        ends.append(k * dt)
        k += 1
    if t_end > 0.0:
        ends.append(t_end)
    steps, prev_t = [], 0.0
    for t in ends:
        h = dt if abs((t - prev_t) - dt) < 1e-15 else t - prev_t
        steps.append((prev_t, t, h))
        prev_t = t
    return steps


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call's arguments are recorded."""
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestStepClock:
    """``dynamics._steps`` is both steppers' one clock."""

    # the (t_end, dt) pairs of the benchmark's workloads
    @pytest.mark.parametrize("t_end,dt", [
        (2e-4, 1e-6), (2e-4, 5e-7), (2e-4, 1.25e-7), (0.05, 1e-3),
        (0.02, 5e-4), (0.1, 2e-3), (0.1, 1e-3), (0.02, 1e-4)])
    def test_workload_steps_are_the_snapped_ones(self, t_end, dt):
        assert list(dynamics._steps(t_end, dt)) == _snapped_step_times(t_end, dt)

    @pytest.mark.parametrize("t_end,dt,count", [(1e-13, 1e-14, 10), (1e-9, 1e-12, 1000)])
    def test_tiny_steps_are_not_merged(self, t_end, dt, count):
        # the round-off windows scale with dt, not with max(1, t_end)
        steps = list(dynamics._steps(t_end, dt))
        assert len(steps) == count and steps[-1][1] == t_end
        assert all(h == dt for _, _, h in steps)
        run = integrate(plane_wave(GridSpec(16), 0.2, 1), t_end, SolverConfig(dt=dt),
                        CoefficientSet(nu=1.0))
        assert run.time == t_end and len(run.picard_iterations) == count

    def test_short_last_step(self):
        steps = list(dynamics._steps(0.01, 3e-3))
        assert steps[:-1] == [((k - 1) * 3e-3, k * 3e-3, 3e-3) for k in (1, 2, 3)]
        assert steps[-1] == (3 * 3e-3, 0.01, 0.01 - 3 * 3e-3)

    @pytest.mark.parametrize("t_end,dt", [(10.0, 1e-3), (100.0, 1e-2)])
    def test_long_run_builds_its_factors_once(self, monkeypatch, t_end, dt):
        # past t ≈ 8 an absolute snap window no longer matches t - prev_t
        calls = _counting(monkeypatch, kernels, "semigroup_factors")
        run = integrate(plane_wave(GridSpec(16), 0.2, 1), t_end, SolverConfig(dt=dt),
                        CoefficientSet(nu=1.0))
        assert run.time == t_end and len(run.picard_iterations) == round(t_end / dt)
        assert [args[1] for args in calls] == [dt]

    def test_rk4_takes_full_steps(self, grid64, monkeypatch):
        # W(h) and W(h/2) are built once per step length, W(h) first
        calls = _counting(monkeypatch, kernels, "semigroup_factors")
        reference_integrate(_benign(grid64), 0.05, SolverConfig(dt=1e-3),
                            integrable_coefficients(1.0))
        assert [args[1] for args in calls] == [1e-3, 0.5e-3]
        calls.clear()
        reference_integrate(_benign(grid64), 0.01, SolverConfig(dt=3e-3),
                            integrable_coefficients(1.0))
        last = 0.01 - 3 * 3e-3
        assert [args[1] for args in calls] == [3e-3, 1.5e-3, last, 0.5 * last]


def _with_mode_31(grid, value):
    coeffs = np.zeros(grid.num_modes, dtype=complex)
    coeffs[grid.modes == 31] = value
    return SpectralField(grid, coeffs)


@pytest.mark.parametrize("value", [1e150, float("nan"), float("inf")])
@pytest.mark.parametrize("coeffs", [CoefficientSet(nu=1.0), integrable_coefficients(1.0)],
                         ids=["linear", "integrable"])
@pytest.mark.parametrize("stepper", [integrate, reference_integrate],
                         ids=["duhamel", "rk4"])
def test_non_finite_initial_norm_rejected_before_any_sample(grid64, stepper, coeffs,
                                                            value):
    # 1e150 at mode 31 is finite, but its weighted H^4 square overflows;
    # the check computes that norm without leaking numpy's RuntimeWarning
    seen = []
    with pytest.raises(ValueError, match=r"^the initial data has a non-finite H\^m norm"):
        stepper(_with_mode_31(grid64, value), 0.01, SolverConfig(dt=1e-3), coeffs,
                lambda *block: seen.append(block))
    assert seen == []
    with pytest.raises(ValueError, match="initial data of member 2 has a non-finite"):
        integrate_many([_benign(grid64)] * 2 + [_with_mode_31(grid64, value)], 0.01,
                       SolverConfig(dt=1e-3), coeffs,
                       lambda *block: seen.append(block))
    assert seen == []


def _pair(psi0, t_end, cfg, coeffs, observer):
    """A two-member ``integrate_many`` of ``psi0`` at ε = 0 and ε = 0.5."""
    return integrate_many([psi0] * 2, t_end, cfg, coeffs, observer,
                          epsilons=[0.0, 0.5])


@pytest.mark.parametrize("nu,dt,t_end", [(1e308, 1e-3, 0.003), (1.0, 1e308, 1e308)],
                         ids=["nu", "dt"])
@pytest.mark.parametrize("stepper", [_pair, reference_integrate], ids=["duhamel", "rk4"])
def test_non_finite_factors_rejected(grid64, stepper, nu, dt, t_end):
    # a linear step applies W_eps(dt) with no Picard gap to check, and the
    # blow-up test is False for NaN, so non-finite factors must be refused
    seen = []
    with pytest.raises(ValueError, match="^" + re.escape(
            f"the factors W_eps(dt) overflow: nu={nu}, dt={dt}")):
        stepper(_benign(grid64), t_end, SolverConfig(dt=dt), CoefficientSet(nu=nu),
                lambda *block: seen.append(block[0]))
    assert seen == [0.0]  # the first step's factors are refused


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("stepper", [integrate, reference_integrate],
                         ids=["duhamel", "rk4"])
def test_bad_t_end_rejected_before_any_sample(grid64, generic_coeffs, stepper,
                                              t_end):
    seen = []
    with pytest.raises(ValueError, match="t_end"):
        stepper(plane_wave(grid64, 0.2, 1), t_end, SolverConfig(dt=1e-3),
                generic_coeffs, lambda *block: seen.append(block))
    assert seen == []


class TestReferenceIntegrate:
    def test_linear_exact_vs_semigroup(self, grid64):
        rng = rng_for(31)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        traj = reference_integrate(psi, 0.2, cfg, CoefficientSet(nu=1.0))
        expect = semigroup_apply(psi, 0.2, 0.0, 1.0)
        rel = sobolev_distance(traj.state, expect, 4) / sobolev_norm(expect, 4)
        assert rel < 1e-11

    def test_fourth_order_self_convergence(self, grid64):
        # Richardson against a dt/8 self-reference: halving dt gains ~16x
        rng = rng_for(42)
        psi = random_field(grid64, rng, decay=2.0, hm_norm=0.2, m=4, max_mode=2)
        coeffs = integrable_coefficients(1.0)
        finals = {}
        for dt in (2e-3, 1e-3, 2.5e-4):
            cfg = SolverConfig(dt=dt, sobolev_index_m=4)
            finals[dt] = reference_integrate(psi, 0.05, cfg, coeffs).state
        e_coarse = sobolev_distance(finals[2e-3], finals[2.5e-4], 4)
        e_fine = sobolev_distance(finals[1e-3], finals[2.5e-4], 4)
        assert 10.0 <= e_coarse / e_fine <= 24.0

    def test_nonfinite_raised(self, grid64):
        rng = rng_for(4)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=50.0)
        cfg = SolverConfig(dt=1.0, sobolev_index_m=4)
        with pytest.raises(NonFinite):
            reference_integrate(psi, 5.0, cfg, integrable_coefficients(1.0))

    def test_run_keeps_only_the_final_state(self, grid64, generic_coeffs):
        # as in integrate: the observer holds each block by a weak reference
        # only, and the record holds its final state as a copy
        refs = []
        run = reference_integrate(
            _benign(grid64), 0.01, SolverConfig(dt=2e-3, sobolev_index_m=4),
            generic_coeffs, lambda time, rows, members: refs.append(weakref.ref(rows)),
        )
        assert len(refs) == 6 and all(ref() is None for ref in refs)
        assert run.time == 0.01 and run.state.coeffs.base is None
        assert run.picard_iterations == [0] * 5

    def test_observer_sees_one_read_only_row(self, grid64, generic_coeffs):
        blocks = []

        def observer(time, rows, members):
            assert rows.shape == (1, 64) and members == (0,)
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.0
            blocks.append((time, rows[0].copy()))

        run = reference_integrate(_benign(grid64), 0.01, SolverConfig(dt=3e-3),
                                  generic_coeffs, observer)
        assert len(blocks) == 5 and blocks[-1][0] == run.time
        assert np.array_equal(blocks[-1][1], run.state.coeffs)

    def test_observer_times_are_integrates(self, grid64, generic_coeffs):
        # full steps, then a short last one, as integrate takes them
        psi = _benign(grid64)
        cfg = SolverConfig(dt=3e-3, sobolev_index_m=4)
        times = []
        reference_integrate(psi, 0.01, cfg, generic_coeffs,
                            lambda time, rows, members: times.append(time))
        (seen,), observer = _observed(1)
        integrate(psi, 0.01, cfg, generic_coeffs, observer)
        assert times == [t for t, _ in seen] == [k * 3e-3 for k in range(4)] + [0.01]


class TestCrossIntegrator:
    def test_plane_wave_agreement(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.2, 1)
        duh = integrate(
            psi, 1.0, SolverConfig(dt=2e-4, sobolev_index_m=4), generic_coeffs
        ).state
        rk4 = reference_integrate(
            psi, 1.0, SolverConfig(dt=1e-3, sobolev_index_m=4), generic_coeffs
        ).state
        assert sobolev_distance(duh, rk4, 4) < 1e-7

    def test_discrepancy_shrinks_at_order_two(self, grid64):
        rng = rng_for(42)
        psi = random_field(grid64, rng, decay=2.0, hm_norm=0.3, m=4, max_mode=3)
        coeffs = integrable_coefficients(1.0)
        gaps = []
        for dt in (2e-3, 1e-3):
            duh = integrate(
                psi, 0.05, SolverConfig(dt=dt, sobolev_index_m=4), coeffs
            ).state
            rk4 = reference_integrate(
                psi, 0.05, SolverConfig(dt=dt, sobolev_index_m=4), coeffs
            ).state
            gaps.append(sobolev_distance(duh, rk4, 4))
        assert gaps[0] / gaps[1] >= 3.5

    def test_l2_decay_under_regularization(self, grid64):
        # eps > 0, no nonlinearity: mass strictly decreases off the DC mode
        psi = plane_wave(grid64, 0.5, 2)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        (seen,), observer = _observed(1)
        integrate(psi, 0.02, cfg, CoefficientSet(nu=1.0), observer, eps=0.5)
        masses = [l2_norm(SpectralField(grid64, c)) for _, c in seen]
        assert all(a > b for a, b in zip(masses, masses[1:]))


def _field_eval_nonlinearity(psi, coeffs, pad):
    """The field-level nonlinearity the raw-array path replaced: padded
    operators rebuilt per call and three separate inverse FFTs."""
    grid = psi.grid
    n = grid.num_modes
    m = pad * n
    modes_fine = GridSpec(m).modes if pad > 1 else grid.modes
    half = n // 2
    c = np.zeros(m, dtype=np.complex128)
    c[:half] = psi.coeffs[:half]
    c[m - half :] = psi.coeffs[half:]
    scale = m / np.sqrt(2.0 * np.pi)
    u = np.fft.ifft(c) * scale
    du = np.fft.ifft(1j * modes_fine * c) * scale
    d2u = np.fft.ifft(-(modes_fine**2) * c) * scale
    combined = kernels.nonlinear_combine(u, du, d2u, coeffs.lambdas)
    chat = np.fft.fft(combined) * (np.sqrt(2.0 * np.pi) / m)
    out = np.concatenate([chat[:half], chat[m - half :]])
    out[grid.nyquist_index] = 0.0
    return SpectralField(grid, out)


def _field_duhamel_step(psi, cfg, coeffs, eps):
    """The field-level Picard step the raw-array path replaced, at
    regularization ``eps``."""
    dt = cfg.dt
    nu = coeffs.nu
    pad = coeffs.dealias_pad
    w_psi = semigroup_apply(psi, dt, eps, nu)
    n0 = _field_eval_nonlinearity(psi, coeffs, pad)
    fixed = w_psi.coeffs - semigroup_apply(n0, dt, eps, nu).coeffs * (0.5j * dt)
    current = w_psi
    for iteration in range(1, dynamics.PICARD_MAX_ITERS + 1):
        n_current = _field_eval_nonlinearity(current, coeffs, pad)
        nxt = SpectralField(psi.grid, fixed - n_current.coeffs * (0.5j * dt))
        if sobolev_distance(nxt, current, cfg.sobolev_index_m) < dynamics.PICARD_TOL:
            return nxt, iteration
        current = nxt
    raise NonConvergence("reference step did not converge")


SRC = Path(__file__).resolve().parents[1] / "src"
CUBIC = CoefficientSet(nu=1.0, lambda1=0.7, lambda3=0.2, lambda4=-0.5,
                       lambda5=0.4, lambda6=0.1)


class TestRawPathMatchesFieldReference:
    """The raw-array Picard path keeps every arithmetic expression of the
    field-level one, so coefficients and iteration counts match exactly."""

    @pytest.mark.parametrize("num_modes", [64, 256])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    @pytest.mark.parametrize(
        "coeffs,pad",
        [(integrable_coefficients(1.0), 3), (CUBIC, 2)],
        ids=["integrable-pad3", "cubic-pad2"],
    )
    def test_steps_bitwise_equal(self, num_modes, epsilon, coeffs, pad):
        grid = GridSpec(num_modes)
        psi = random_field(grid, rng_for(num_modes), decay=2.0, hm_norm=0.4,
                           m=4, max_mode=6)
        cfg = SolverConfig(dt=2e-4, sobolev_index_m=4)
        assert coeffs.dealias_pad == pad
        assert np.array_equal(
            eval_nonlinearity(psi, coeffs).coeffs,
            _field_eval_nonlinearity(psi, coeffs, pad).coeffs,
        )
        new = ref = psi
        for _ in range(4):
            new, new_iters = _one_step(new, cfg, coeffs, epsilon)
            ref, ref_iters = _field_duhamel_step(ref, cfg, coeffs, epsilon)
            assert new_iters == ref_iters
            assert np.array_equal(new.coeffs, ref.coeffs)
        assert new_iters > 1

    @pytest.mark.parametrize("num_modes", [64, 256])
    def test_ensemble_bytewise_equal(self, num_modes):
        # four members at pad 3: both start-of-step evaluations are one
        # (8, N) call, of 1,536 padded points at N=64 and 6,144 at N=256
        grid = GridSpec(num_modes)
        coeffs = integrable_coefficients(1.0)
        psis = [random_field(grid, rng_for(num_modes + k), decay=2.0, hm_norm=0.4,
                             m=4, max_mode=6) for k in range(4)]
        cfg = SolverConfig(dt=2e-4, sobolev_index_m=4)
        epsilons = (0.0, 0.0, 0.05, 0.05)
        blocks = []
        runs = integrate_many(
            psis, 8e-4, cfg, coeffs,
            lambda time, rows, members: blocks.append((members, rows.copy())),
            epsilons=epsilons)
        assert len(blocks) == 5
        for k, (psi, eps, run) in enumerate(zip(psis, epsilons, runs)):
            ref = psi
            for step, (members, rows) in enumerate(blocks[1:]):
                ref, ref_iters = _field_duhamel_step(ref, cfg, coeffs, eps)
                assert run.picard_iterations[step] == ref_iters
                assert rows[members.index(k)].tobytes() == ref.coeffs.tobytes()
            assert ref_iters > 1


class TestNonlinearityRows:
    """Each row of a ``_nonlinearity`` block gets the bytes it gets alone,
    which the Picard step's fused start-of-step block relies on; the odd
    sizes are no multiple of a SIMD width."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 10])
    @pytest.mark.parametrize("num_modes", [4, 6, 10, 32, 64, 256])
    @pytest.mark.parametrize("coeffs,pad", [(CUBIC, 2), (integrable_coefficients(1.0), 3)],
                             ids=["cubic-pad2", "integrable-pad3"])
    def test_each_row_bytewise_equal(self, coeffs, pad, num_modes, rows):
        assert coeffs.dealias_pad == pad
        rng = np.random.default_rng(10 * num_modes + rows)
        block = (rng.standard_normal((rows, num_modes))
                 + 1j * rng.standard_normal((rows, num_modes))) * 0.3
        if rows > 1:
            block[1] = 0.0
        got = dynamics._nonlinearity(block, coeffs)
        assert got.shape == block.shape
        for row, out in zip(block, got):
            assert out.tobytes() == dynamics._nonlinearity(row[None], coeffs)[0].tobytes()


_FAULT_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from torus4nls import dynamics
from torus4nls.exact import integrable_coefficients

rows, num_modes = int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(0)
block = (rng.standard_normal((rows, num_modes))
         + 1j * rng.standard_normal((rows, num_modes))) * 0.3
coeffs = integrable_coefficients(1.0)
for _ in range(20):
    dynamics._nonlinearity(block, coeffs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(500):
    dynamics._nonlinearity(block, coeffs)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestNonlinearityWorkspace:
    """A ``_nonlinearity`` call writes its block shape's reused workspace and
    returns a new array: after a warm-up, calls fault in no pages, and a
    result outlives the calls after it."""

    @pytest.mark.parametrize("rows,num_modes", [(8, 256), (2, 1024), (1, 256), (2, 256)])
    def test_no_page_faults_per_call(self, rows, num_modes):
        # the riccati family's fused (8, 256) block, simulate's (2, 1024) and
        # the (1, 256) and fused (2, 256) blocks of riccati's one-member
        # runs, at pad 3, in a fresh interpreter: whether malloc hands freed
        # temporaries back to the system, and faults them in again on the
        # next call, depends on the heap's history, which in this process
        # is the suite's
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _FAULT_SCRIPT, str(SRC), str(rows),
             str(num_modes)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 50

    @pytest.mark.parametrize("coeffs", [CUBIC, integrable_coefficients(1.0)],
                             ids=["cubic-pad2", "integrable-pad3"])
    def test_result_is_a_new_array(self, coeffs):
        rng = np.random.default_rng(4)
        block = (rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))) * 0.3
        first = dynamics._nonlinearity(block, coeffs)
        kept = first.tobytes()
        second = dynamics._nonlinearity(block[::-1].copy(), coeffs)
        assert first.tobytes() == kept and second.tobytes() != kept
        samples, work, _ = dynamics._workspace(4, 64, coeffs.dealias_pad)
        arrays = [samples[0], *work[3:]]  # all but the combine's sample views
        for out in (first, second):
            assert out.flags.writeable and out.flags.c_contiguous
            assert not any(np.shares_memory(out, a) for a in arrays)


class TestPreparedEvaluation:
    """A call on a block shape's prepared ``_workspace`` gets every row's
    bytes of ``reference_nonlinearity``, the evaluation before it was
    prepared, at each block shape the workloads use: 1 to 12 rows, one
    member's fused pair to the family's, at N = 64, 256 and 1024 and an N
    whose band halves are odd, at pad 2 and pad 3."""

    @pytest.mark.parametrize("rows", [1, 2, 4, 5, 6, 8, 10, 12])
    @pytest.mark.parametrize("num_modes", [64, 102, 256, 1024])
    @pytest.mark.parametrize("coeffs,pad", [(CUBIC, 2), (integrable_coefficients(1.0), 3)],
                             ids=["cubic-pad2", "integrable-pad3"])
    def test_rows_bytewise_equal_reference(self, coeffs, pad, num_modes, rows):
        assert coeffs.dealias_pad == pad
        rng = np.random.default_rng(7 * num_modes + rows)
        block = (rng.standard_normal((rows, num_modes))
                 + 1j * rng.standard_normal((rows, num_modes))) * 0.3
        expect = reference_nonlinearity(block, coeffs)
        for _ in range(2):  # a new workspace, then the kept one
            got = dynamics._nonlinearity(block, coeffs)
            assert [row.tobytes() for row in got] == [row.tobytes() for row in expect]


class TestFusedStartOfStep:
    """A Picard step evaluates N(ψ₀) and its first iterate's N(W_ε(dt)ψ₀)
    in one call on their (2B, N) block at every size: k calls for k
    iterations, on the rows the step evaluates."""

    @pytest.mark.parametrize("num_modes,coeffs,members", [
        (64, integrable_coefficients(1.0), 1),  # 384 padded points
        (1024, CUBIC, 1),  # 4,096
        (1024, integrable_coefficients(1.0), 1),  # 6,144
        (256, integrable_coefficients(1.0), 4),  # 6,144, the riccati family's
    ], ids=["n64-pad3", "n1024-pad2", "n1024-pad3", "n256-pad3-four"])
    def test_calls_per_step(self, monkeypatch, num_modes, coeffs, members):
        points = []
        combine = kernels.nonlinear_combine

        def counting(u, du, d2u, lam, work=None):
            points.append(u.size)
            return combine(u, du, d2u, lam, work)

        monkeypatch.setattr(kernels, "nonlinear_combine", counting)
        grid = GridSpec(num_modes)
        psis = [random_field(grid, rng_for(64 + k), decay=2.0, hm_norm=0.4, m=4,
                             max_mode=6) for k in range(members)]
        runs = integrate_many(psis, 1e-3, SolverConfig(dt=2e-4), coeffs)
        iterations = [run.picard_iterations for run in runs]
        assert all(len(counts) == 5 for counts in iterations)
        per_step = [max(counts) for counts in zip(*iterations)]
        assert sum(per_step) > 5
        assert len(points) == sum(per_step)
        # one row for N(ψ₀) and one per iteration of each member
        assert sum(points) == coeffs.dealias_pad * num_modes * sum(
            len(counts) + sum(counts) for counts in iterations)


def _field_reference_integrate(psi0, t_end, cfg, coeffs, eps):
    """The field-level RK4 loop the array path replaced, at regularization
    ``eps``: every state it reaches, as (time, coefficients), from t=0 on.
    Fields are added and scaled on their coefficients, the coefficients
    first."""
    nu = coeffs.nu
    states = [(0.0, psi0.coeffs)]
    state = psi0.coeffs

    def semigroup(c, t):
        return semigroup_apply(SpectralField(psi0.grid, c), t, eps, nu).coeffs

    def rhs(c):
        return eval_nonlinearity(SpectralField(psi0.grid, c), coeffs).coeffs * (-1j)

    for _, t, h in dynamics._steps(t_end, cfg.dt):
        k1 = rhs(state)
        half = semigroup(state, 0.5 * h)
        k2 = rhs(half + semigroup(k1, 0.5 * h) * (0.5 * h))
        k3 = rhs(half + k2 * (0.5 * h))
        full = semigroup(state, h)
        k4 = rhs(full + semigroup(k3, 0.5 * h) * h)
        incr = semigroup(k1, h) + semigroup(k2 + k3, 0.5 * h) * 2.0 + k4
        state = full + incr * (h / 6.0)
        states.append((t, state))
    return states


class TestRK4MatchesFieldReference:
    """RK4 on (1, N) arrays keeps every arithmetic expression of the
    field-level loop, so every observed block and the final state keep
    their bytes (``tobytes``, which tells -0.0 from 0.0)."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    @pytest.mark.parametrize("kind", ["linear", "integrable", "cubic", "generic"])
    @pytest.mark.parametrize("t_end,dt", [(0.01, 3e-3), (0.02, 1e-3)],
                             ids=["short-last-step", "full-steps"])
    def test_every_block_bytewise_equal(self, grid64, generic_coeffs, kind, epsilon,
                                        t_end, dt):
        coeffs = {"linear": CoefficientSet(nu=1.0), "cubic": CUBIC,
                  "integrable": integrable_coefficients(1.0),
                  "generic": generic_coeffs}[kind]
        psi = _benign(grid64)
        cfg = SolverConfig(dt=dt)
        blocks = []
        run = reference_integrate(psi, t_end, cfg, coeffs,
                                  lambda time, rows, members: blocks.append(
                                      (time, rows.tobytes())), eps=epsilon)
        expected = _field_reference_integrate(psi, t_end, cfg, coeffs, epsilon)
        assert blocks == [(t, c.tobytes()) for t, c in expected]
        assert run.time == t_end
        assert run.state.coeffs.tobytes() == expected[-1][1].tobytes()


def _observed(count):
    """One list of (time, coefficients) per member, and the block observer
    that fills them with copies of its read-only rows."""
    seen = [[] for _ in range(count)]

    def observer(time, rows, members):
        assert not rows.flags.writeable
        assert rows.shape[0] == len(members) and list(members) == sorted(members)
        for row, member in zip(rows, members):
            seen[member].append((time, row.copy()))

    return seen, observer


def _assert_matches_serial(run, samples, psi0, cfg, coeffs, eps=0.0):
    """Replay one member's observed ``samples`` with the field-level
    reference step at ``eps``, one step at a time, as a run of its own:
    every state and every Picard count must be equal, and the record's
    final state is the last one observed."""
    assert samples[0][0] == 0.0 and np.array_equal(samples[0][1], psi0.coeffs)
    assert samples[-1][0] == run.time
    assert np.array_equal(samples[-1][1], run.state.coeffs)
    assert len(run.picard_iterations) == len(samples) - 1
    state = psi0
    for (prev_t, _), (t, coeffs_t), iters in zip(samples, samples[1:],
                                                run.picard_iterations):
        h = t - prev_t
        step_cfg = cfg if abs(h - cfg.dt) < 1e-15 else replace(cfg, dt=h)
        state, ref_iters = _field_duhamel_step(state, step_cfg, coeffs, eps)
        assert iters == ref_iters
        assert np.array_equal(coeffs_t, state.coeffs)


def _benign(grid):
    return random_field(grid, rng_for(64), decay=2.0, hm_norm=0.4, m=4, max_mode=6)


class TestIntegrateMany:
    """Each member of an ensemble run matches a serial run of its own."""

    def test_family_n256_pad3(self):
        # the riccati family: the widest pair takes one Picard iteration
        # more per step than the others, so rows freeze at different times
        grid = GridSpec(256)
        family = [mode_pair_field(grid, k, 2.0, 4) for k in (4, 8, 16, 32)]
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=1e-6, sobolev_index_m=4)
        assert coeffs.dealias_pad == 3
        seen, observer = _observed(4)
        runs = integrate_many(family, 1.25e-5, cfg, coeffs, observer)
        assert len({tuple(r.picard_iterations) for r in runs}) > 1
        for run, samples, psi0 in zip(runs, seen, family):
            assert run.time == 1.25e-5  # the last step is a partial one
            _assert_matches_serial(run, samples, psi0, cfg, coeffs)

    def test_epsilon_ladder_n64(self, grid64):
        psi = _benign(grid64)
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        epsilons = (0.0, 2.0**-7, 2.0**-5, 2.0**-3)
        seen, observer = _observed(4)
        runs = integrate_many([psi] * 4, 0.0102, cfg, coeffs, observer, epsilons=epsilons)
        assert len({tuple(r.picard_iterations) for r in runs}) > 1
        for run, samples, eps in zip(runs, seen, epsilons):
            assert run.time == 0.0102
            _assert_matches_serial(run, samples, psi, cfg, coeffs, eps)

    def test_single_member_is_integrate(self, grid64, generic_coeffs):
        psi = _benign(grid64)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        (samples,), observer = _observed(1)
        (run,) = integrate_many([psi], 0.01, cfg, generic_coeffs, observer)
        _assert_matches_serial(run, samples, psi, cfg, generic_coeffs)
        alone = integrate(psi, 0.01, cfg, generic_coeffs)
        assert alone.picard_iterations == run.picard_iterations
        assert np.array_equal(alone.state.coeffs, run.state.coeffs)

    def test_blowup_member_halts_others_continue(self, grid64, monkeypatch):
        # a ceiling below the initial norm trips the undamped member at its
        # first step; the damped ones drop below it before that and go on
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.9)
        coeffs = integrable_coefficients(1.0)
        members = [plane_wave(grid64, 0.3, 4), _benign(grid64),
                   plane_wave(grid64, 0.2, 5)]
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        epsilons = (1.0, 0.0, 1.0)
        seen, observer = _observed(3)
        runs = integrate_many(members, 0.01, cfg, coeffs, observer, epsilons=epsilons)
        assert runs[1].blowup_time == 2e-3
        assert len(seen[1]) == 2
        alone = integrate(members[1], 0.01, cfg, coeffs)
        assert alone.blowup_time == 2e-3
        for run, obs, psi0, eps in zip(runs, seen, members, epsilons):
            _assert_matches_serial(run, obs, psi0, cfg, coeffs, eps)
        assert runs[0].blowup_time is None and runs[0].time == 0.01
        assert runs[2].blowup_time is None and runs[2].time == 0.01

    def test_halted_member_compacts_its_factor_row(self, grid64, monkeypatch):
        # three distinct ε, so each member has its own W_ε(dt) row: once the
        # undamped middle member halts, the outer two must keep their own
        # rows, also for the shorter last step
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.9)
        coeffs = integrable_coefficients(1.0)
        members = [plane_wave(grid64, 0.3, 4), _benign(grid64),
                   plane_wave(grid64, 0.2, 5)]
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        epsilons = (1.0, 0.0, 0.5)
        seen, observer = _observed(3)
        runs = integrate_many(members, 0.011, cfg, coeffs, observer, epsilons=epsilons)
        assert [run.blowup_time for run in runs] == [None, 2e-3, None]
        for run, obs, psi0, eps in zip(runs, seen, members, epsilons):
            _assert_matches_serial(run, obs, psi0, cfg, coeffs, eps)
        assert runs[0].time == runs[2].time == 0.011

    def test_error_names_member_after_shrinking_to_one(self, grid64, monkeypatch):
        # member 0 halts at the first step; then the observer, seeing
        # member 1 after a step, cuts the Picard budget to one iteration,
        # which its next step needs more than
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.9)
        members = [plane_wave(grid64, 0.3, 4), _benign(grid64)]
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)

        def cut_budget(time, rows, members):
            if time > 0.0 and 1 in members:
                monkeypatch.setattr(dynamics, "PICARD_MAX_ITERS", 1)

        with pytest.raises(NonConvergence) as err:
            integrate_many(members, 0.01, cfg, integrable_coefficients(1.0),
                           cut_budget, epsilons=[0.0, 1.0])
        assert (err.value.member, err.value.time, err.value.iterations) == (1, 2e-3, 1)
        assert "t=0.002, member 1:" in str(err.value)

    def test_nonfinite_earliest_step_lowest_member(self, grid64):
        # member 0 fails only at t=0.041; members 2 and 3 overflow in the
        # first step, so the batch reports member 2 at t=0
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        late = random_field(grid64, rng_for(2), decay=1.5, l2_mass=1.0)
        first = random_field(grid64, rng_for(1), decay=1.5, l2_mass=1.5)
        second = random_field(grid64, rng_for(1), decay=1.5, l2_mass=3.0)
        members = [late, _benign(grid64), first, second]
        with pytest.raises(NonFinite) as err:
            integrate_many(members, 0.05, cfg, coeffs)
        assert (err.value.member, err.value.time) == (2, 0.0)
        assert "at t=0, member 2: Picard iterates diverged" in str(err.value)
        with pytest.raises(NonFinite) as alone:
            integrate(first, 0.05, cfg, coeffs)
        assert alone.value.time == 0.0
        with pytest.raises(NonConvergence) as alone:
            integrate(late, 0.05, cfg, coeffs)
        assert alone.value.time == pytest.approx(0.041)
        with pytest.raises(NonConvergence) as err:
            integrate_many(members[:2], 0.05, cfg, coeffs)
        assert (err.value.member, err.value.time) == (0, alone.value.time)

    def test_lowest_member_first_within_a_step(self, grid64):
        # member 2 overflows within a few iterations, member 1 spends the
        # whole budget first; both fail in the first step, member 1 is lower
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        stalls = random_field(grid64, rng_for(1), decay=1.5, l2_mass=1.0)
        overflows = random_field(grid64, rng_for(1), decay=1.5, l2_mass=3.0)
        with pytest.raises(NonConvergence) as err:
            integrate_many([_benign(grid64), stalls, overflows], 0.01, cfg, coeffs)
        assert (err.value.member, err.value.time) == (1, 0.0)

    def test_members_share_one_grid(self, grid64):
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        other = _benign(GridSpec(128))
        with pytest.raises(ValueError):
            integrate_many([_benign(grid64), other], 0.01, cfg,
                           integrable_coefficients(1.0))

    def test_one_entry_per_member(self, grid64):
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        psi = _benign(grid64)
        coeffs = integrable_coefficients(1.0)
        with pytest.raises(ValueError, match="at least one member"):
            integrate_many([], 0.01, cfg, coeffs)
        with pytest.raises(ValueError, match="one entry per member"):
            integrate_many([psi, psi], 0.01, cfg, coeffs, epsilons=[0.0])

    def test_no_observed_block_outlives_the_run(self, grid64, generic_coeffs):
        # the observer holds each block by a weak reference only; the
        # records hold their final states as copies
        refs = []

        def observer(time, rows, members):
            refs.append(weakref.ref(rows))

        runs = integrate_many(
            [_benign(grid64), plane_wave(grid64, 0.2, 1)], 0.01,
            SolverConfig(dt=2e-3, sobolev_index_m=4), generic_coeffs, observer,
        )
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)
        for run in runs:
            assert run.time == 0.01 and run.state.coeffs.base is None

    def test_writing_to_the_block_is_refused(self, grid64, generic_coeffs):
        def observer(time, rows, members):
            rows[0, 0] = 0.0

        with pytest.raises(ValueError, match="read-only"):
            integrate_many([_benign(grid64)] * 2, 0.01,
                           SolverConfig(dt=2e-3, sobolev_index_m=4),
                           generic_coeffs, observer)

    def test_one_field_per_member(self, grid64, generic_coeffs, monkeypatch):
        # no per-step record: an unobserved run builds each member's final
        # state and nothing else
        members = [_benign(grid64), plane_wave(grid64, 0.2, 1),
                   plane_wave(grid64, 0.1, 3)]
        built = []
        post_init = SpectralField.__post_init__

        def counted(field):
            built.append(field)
            post_init(field)

        monkeypatch.setattr(SpectralField, "__post_init__", counted)
        runs = integrate_many(members, 0.02, SolverConfig(dt=2e-3), generic_coeffs)
        assert [len(run.picard_iterations) for run in runs] == [10] * 3
        assert built == [run.state for run in runs]
