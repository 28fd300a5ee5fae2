"""Nonlinearity evaluation, semigroup, and both time integrators."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import oracle_samples

from torus4nls import kernels
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
    zero_field,
)


class TestCoefficientSet:
    def test_rejects_zero_nu(self):
        with pytest.raises(ValueError):
            CoefficientSet(nu=0.0)

    def test_is_linear(self):
        assert CoefficientSet(nu=1.0).is_linear
        assert not CoefficientSet(nu=1.0, lambda3=0.1).is_linear


class TestSolverConfig:
    def test_pad_default_cubic(self):
        cfg = SolverConfig(dt=1e-3)
        assert cfg.pad_for(CoefficientSet(nu=1.0, lambda1=-0.5)) == 2

    def test_pad_default_quintic(self):
        cfg = SolverConfig(dt=1e-3)
        assert cfg.pad_for(integrable_coefficients(1.0)) == 3

    def test_pad_too_small_for_quintic(self):
        cfg = SolverConfig(dt=1e-3, dealias_pad_factor=2)
        with pytest.raises(ValueError):
            cfg.pad_for(integrable_coefficients(1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": -1.0},
            {"dt": 1e-3, "epsilon": -0.1},
            {"dt": 1e-3, "epsilon": 1.5},
            {"dt": 1e-3, "picard_tol": 0.0},
            {"dt": 1e-3, "picard_max_iters": 0},
            {"dt": 1e-3, "sobolev_index_m": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestNonlinearity:
    def test_zero_field(self, grid64, generic_coeffs):
        out = eval_nonlinearity(zero_field(grid64), generic_coeffs, 3)
        assert np.all(out.coeffs == 0.0)

    def test_constant_field(self, grid64, generic_coeffs):
        c = 0.8 - 0.3j
        psi = SpectralField(grid64, np.eye(1, 64, 0)[0] * c * np.sqrt(2 * np.pi))
        out = eval_nonlinearity(psi, generic_coeffs, 3)
        lam = generic_coeffs
        expect = (lam.lambda1 * abs(c) ** 2 + lam.lambda2 * abs(c) ** 4) * c
        assert out.coeff(0) == pytest.approx(expect * np.sqrt(2 * np.pi))
        assert np.max(np.abs(np.delete(out.coeffs, 0))) < 1e-14

    @pytest.mark.parametrize("kappa,tau", [(0.5, 2), (0.3, -3), (1.1, 1)])
    def test_plane_wave_formula(self, grid64, generic_coeffs, kappa, tau):
        # hand substitution: each term maps kappa e^{i tau x} to a multiple
        psi = plane_wave(grid64, kappa, tau)
        out = eval_nonlinearity(psi, generic_coeffs, 3)
        lam = generic_coeffs
        mult = (
            lam.lambda1 * kappa**2
            + lam.lambda2 * kappa**4
            + (-lam.lambda3 + lam.lambda4 - lam.lambda5 - lam.lambda6)
            * tau**2
            * kappa**2
        )
        assert out.coeff(tau) == pytest.approx(mult * kappa * np.sqrt(2 * np.pi))
        others = np.abs(out.coeffs).copy()
        others[tau % 64] = 0.0
        assert np.max(others) < 1e-13

    def test_plane_wave_against_quadrature_oracle(self, grid64, generic_coeffs):
        # direct synthesis on a fine grid with analytic derivatives
        psi = plane_wave(grid64, 0.5, 2)
        out = eval_nonlinearity(psi, generic_coeffs, 3)
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
            assert out.coeff(n) == pytest.approx(oracle[n % (4 * 64)], abs=1e-12)

    def test_gauge_covariance(self, grid64, generic_coeffs):
        rng = rng_for(5)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        theta = 0.7321
        rotated = np.exp(1j * theta) * psi
        lhs = eval_nonlinearity(rotated, generic_coeffs, 3)
        rhs = np.exp(1j * theta) * eval_nonlinearity(psi, generic_coeffs, 3)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)

    def test_dealiasing_matches_fine_resolution(self, generic_coeffs):
        # band-limited field evaluated at N and at 4N agree on the band
        grid = GridSpec(64)
        rng = rng_for(8)
        psi = random_field(grid, rng, decay=1.0, l2_mass=1.0, max_mode=8)
        out = eval_nonlinearity(psi, generic_coeffs, 3)
        fine = GridSpec(256)
        fine_coeffs = np.zeros(256, dtype=complex)
        fine_coeffs[:32] = psi.coeffs[:32]
        fine_coeffs[256 - 32 :] = psi.coeffs[32:]
        out_fine = eval_nonlinearity(SpectralField(fine, fine_coeffs), generic_coeffs, 3)
        for n in range(-31, 32):
            assert abs(out.coeff(n) - out_fine.coeff(n)) < 1e-11

    def test_nyquist_zeroed(self, grid64, generic_coeffs):
        rng = rng_for(13)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=1.0)
        out = eval_nonlinearity(psi, generic_coeffs, 3)
        assert out.coeffs[32] == 0.0

    def test_rejects_bad_pad(self, grid64, generic_coeffs):
        with pytest.raises(ValueError):
            eval_nonlinearity(zero_field(grid64), generic_coeffs, 0)


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
        assert out.coeff(1) == pytest.approx(psi.coeff(1))

    def test_damping_rate(self, grid64):
        psi = plane_wave(grid64, 1.0, 1)
        out = semigroup_apply(psi, 1.0, 1.0, 0.3)
        assert abs(out.coeff(1)) == pytest.approx(abs(psi.coeff(1)) * np.exp(-1.0))

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
        assert abs(out.coeff(3)) < abs(psi.coeff(3))

    def test_backward_heat_rejected(self, grid64):
        psi = plane_wave(grid64, 1.0, 1)
        with pytest.raises(ValueError):
            semigroup_apply(psi, -0.1, 0.5, 1.0)
        # unitary case allows negative times
        semigroup_apply(psi, -0.1, 0.0, 1.0)


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
        cfg = SolverConfig(dt=1e-3, epsilon=0.1, sobolev_index_m=4)
        lin = CoefficientSet(nu=1.0)
        out, iters = duhamel_step(psi, cfg, lin)
        assert iters <= 2
        expect = semigroup_apply(psi, 1e-3, 0.1, 1.0)
        assert np.allclose(out.coeffs, expect.coeffs, atol=1e-15)

    def test_nonconvergence_raised(self, grid64):
        # second-derivative quintic forcing at order-one amplitude with a
        # huge step leaves the contraction regime; the first three iterates
        # are still finite (H^m gaps ~1e11, 1e32, 1e136), the fourth is not
        rng = rng_for(4)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=20.0)
        cfg = SolverConfig(dt=0.5, picard_max_iters=3, sobolev_index_m=4)
        with pytest.raises(NonConvergence):
            duhamel_step(psi, cfg, integrable_coefficients(1.0))


class TestIntegrate:
    def test_zero_time(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.2, 1)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        seen = []
        traj = integrate(psi, 0.0, cfg, generic_coeffs, observers=[seen.append])
        assert len(seen) == 1 and seen[0] is traj.final
        assert traj.final.time == 0.0
        assert np.array_equal(traj.final.state.coeffs, psi.coeffs)

    def test_linear_matches_closed_form(self, grid64):
        rng = rng_for(21)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        traj = integrate(psi, 0.25, cfg, CoefficientSet(nu=1.0))
        expect = semigroup_apply(psi, 0.25, 0.0, 1.0)
        rel = sobolev_distance(traj.final.state, expect, 4) / sobolev_norm(expect, 4)
        assert rel < 1e-10

    def test_final_partial_step_lands_exactly(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.1, 1)
        cfg = SolverConfig(dt=3e-3, sobolev_index_m=4)
        seen = []
        traj = integrate(psi, 0.01, cfg, generic_coeffs, observers=[seen.append])
        assert traj.final.time == 0.01
        assert len(seen) == 5  # 0, 3e-3, 6e-3, 9e-3, 1e-2

    def test_observers_see_every_sample(self, grid64, generic_coeffs):
        seen = []
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        traj = integrate(
            plane_wave(grid64, 0.1, 1), 0.01, cfg, generic_coeffs,
            observers=[seen.append],
        )
        assert [s.time for s in seen] == [k * 2e-3 for k in range(5)] + [0.01]
        assert seen[-1] is traj.final

    def test_blowup_marker(self, grid64):
        # ceiling below the conserved norm trips immediately
        psi = plane_wave(grid64, 0.5, 2)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        seen = []
        traj = integrate(psi, 0.01, cfg, CoefficientSet(nu=1.0), blowup_factor=0.99,
                         observers=[seen.append])
        assert traj.blowup_time == pytest.approx(1e-3)
        assert len(seen) == 2

    def test_nonconvergence_carries_time(self, grid64):
        rng = rng_for(4)
        psi = random_field(grid64, rng, decay=0.5, l2_mass=20.0)
        cfg = SolverConfig(dt=0.5, picard_max_iters=3, sobolev_index_m=4)
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

    def test_run_keeps_only_the_final_state(self, grid64, generic_coeffs):
        refs = [[], []]
        runs = integrate_many(
            [_benign(grid64), plane_wave(grid64, 0.2, 1)], 0.01,
            [SolverConfig(dt=2e-3, sobolev_index_m=4)] * 2, generic_coeffs,
            observers=[[_weak_state_observer(kept)] for kept in refs],
        )
        for run, kept in zip(runs, refs):
            _assert_only_final_alive(run, kept, 6)


def _weak_state_observer(refs):
    """An observer that holds each sample's state by a weak reference only."""
    return lambda sample: refs.append(weakref.ref(sample.state))


def _assert_only_final_alive(run, refs, count):
    """Once the run has returned, the record's final state is the only one
    of the ``count`` observed states still in memory."""
    assert len(refs) == count
    alive = [state for state in (ref() for ref in refs) if state is not None]
    assert len(alive) == 1 and alive[0] is run.final.state


class TestReferenceIntegrate:
    def test_linear_exact_vs_semigroup(self, grid64):
        rng = rng_for(31)
        psi = random_field(grid64, rng, decay=2.0, l2_mass=0.5)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        traj = reference_integrate(psi, 0.2, cfg, CoefficientSet(nu=1.0))
        expect = semigroup_apply(psi, 0.2, 0.0, 1.0)
        rel = sobolev_distance(traj.final.state, expect, 4) / sobolev_norm(expect, 4)
        assert rel < 1e-11

    def test_fourth_order_self_convergence(self, grid64):
        # Richardson against a dt/8 self-reference: halving dt gains ~16x
        rng = rng_for(42)
        psi = random_field(grid64, rng, decay=2.0, hm_norm=0.2, m=4, max_mode=2)
        coeffs = integrable_coefficients(1.0)
        finals = {}
        for dt in (2e-3, 1e-3, 2.5e-4):
            cfg = SolverConfig(dt=dt, sobolev_index_m=4)
            finals[dt] = reference_integrate(psi, 0.05, cfg, coeffs).final.state
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
        refs = []
        run = reference_integrate(
            _benign(grid64), 0.01, SolverConfig(dt=2e-3, sobolev_index_m=4),
            generic_coeffs, observers=[_weak_state_observer(refs)],
        )
        _assert_only_final_alive(run, refs, 6)


class TestCrossIntegrator:
    def test_plane_wave_agreement(self, grid64, generic_coeffs):
        psi = plane_wave(grid64, 0.2, 1)
        duh = integrate(
            psi, 1.0, SolverConfig(dt=2e-4, sobolev_index_m=4), generic_coeffs
        ).final.state
        rk4 = reference_integrate(
            psi, 1.0, SolverConfig(dt=1e-3, sobolev_index_m=4), generic_coeffs
        ).final.state
        assert sobolev_distance(duh, rk4, 4) < 1e-7

    def test_discrepancy_shrinks_at_order_two(self, grid64):
        rng = rng_for(42)
        psi = random_field(grid64, rng, decay=2.0, hm_norm=0.3, m=4, max_mode=3)
        coeffs = integrable_coefficients(1.0)
        gaps = []
        for dt in (2e-3, 1e-3):
            duh = integrate(
                psi, 0.05, SolverConfig(dt=dt, sobolev_index_m=4), coeffs
            ).final.state
            rk4 = reference_integrate(
                psi, 0.05, SolverConfig(dt=dt, sobolev_index_m=4), coeffs
            ).final.state
            gaps.append(sobolev_distance(duh, rk4, 4))
        assert gaps[0] / gaps[1] >= 3.5

    def test_l2_decay_under_regularization(self, grid64):
        # eps > 0, no nonlinearity: mass strictly decreases off the DC mode
        psi = plane_wave(grid64, 0.5, 2)
        cfg = SolverConfig(dt=1e-3, epsilon=0.5, sobolev_index_m=4)
        seen = []
        integrate(psi, 0.02, cfg, CoefficientSet(nu=1.0), observers=[seen.append])
        masses = [l2_norm(s.state) for s in seen]
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


def _field_duhamel_step(psi, cfg, coeffs):
    """The field-level Picard step the raw-array path replaced."""
    dt = cfg.dt
    eps = cfg.epsilon
    nu = coeffs.nu
    pad = cfg.pad_for(coeffs)
    w_psi = semigroup_apply(psi, dt, eps, nu)
    n0 = _field_eval_nonlinearity(psi, coeffs, pad)
    fixed = w_psi - (0.5j * dt) * semigroup_apply(n0, dt, eps, nu)
    current = w_psi
    for iteration in range(1, cfg.picard_max_iters + 1):
        nxt = fixed - (0.5j * dt) * _field_eval_nonlinearity(current, coeffs, pad)
        if sobolev_distance(nxt, current, cfg.sobolev_index_m) < cfg.picard_tol:
            return nxt, iteration
        current = nxt
    raise NonConvergence("reference step did not converge")


CUBIC = CoefficientSet(nu=1.0, lambda1=0.7, lambda3=0.2, lambda4=-0.5,
                       lambda5=0.4, lambda6=0.1)


class TestRawPathMatchesFieldReference:
    """The raw-array Picard path keeps every arithmetic expression of the
    field-level one, so coefficients and iteration counts match exactly."""

    @pytest.mark.parametrize("num_modes", [64, 256])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    @pytest.mark.parametrize(
        "coeffs,pad_factor,pad",
        [(integrable_coefficients(1.0), None, 3), (CUBIC, None, 2), (CUBIC, 1, 1)],
        ids=["integrable-pad3", "cubic-pad2", "cubic-pad1"],
    )
    def test_steps_bitwise_equal(self, num_modes, epsilon, coeffs, pad_factor, pad):
        grid = GridSpec(num_modes)
        psi = random_field(grid, rng_for(num_modes), decay=2.0, hm_norm=0.4,
                           m=4, max_mode=6)
        cfg = SolverConfig(dt=2e-4, epsilon=epsilon, dealias_pad_factor=pad_factor,
                           sobolev_index_m=4)
        assert cfg.pad_for(coeffs) == pad
        assert np.array_equal(
            eval_nonlinearity(psi, coeffs, pad).coeffs,
            _field_eval_nonlinearity(psi, coeffs, pad).coeffs,
        )
        new = ref = psi
        for _ in range(4):
            new, new_iters = duhamel_step(new, cfg, coeffs)
            ref, ref_iters = _field_duhamel_step(ref, cfg, coeffs)
            assert new_iters == ref_iters
            assert np.array_equal(new.coeffs, ref.coeffs)
        assert new_iters > 1


def _observed(count):
    """One sample list per member, and the observers that fill them."""
    seen = [[] for _ in range(count)]
    return seen, [[kept.append] for kept in seen]


def _assert_matches_serial(run, samples, psi0, cfg, coeffs):
    """Replay one member's observed ``samples`` with the field-level
    reference step, one step at a time, as a run of its own: every state
    and every Picard count must be equal."""
    assert np.array_equal(samples[0].state.coeffs, psi0.coeffs)
    assert samples[-1] is run.final
    assert len(run.picard_iterations) == len(samples) - 1
    state = psi0
    for prev, sample, iters in zip(samples, samples[1:], run.picard_iterations):
        h = sample.time - prev.time
        step_cfg = cfg if abs(h - cfg.dt) < 1e-15 else replace(cfg, dt=h)
        state, ref_iters = _field_duhamel_step(state, step_cfg, coeffs)
        assert iters == ref_iters
        assert np.array_equal(sample.state.coeffs, state.coeffs)


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
        assert cfg.pad_for(coeffs) == 3
        seen, observers = _observed(4)
        runs = integrate_many(family, 1.25e-5, [cfg] * 4, coeffs, observers=observers)
        assert len({tuple(r.picard_iterations) for r in runs}) > 1
        for run, samples, psi0 in zip(runs, seen, family):
            assert run.final.time == 1.25e-5  # the last step is a partial one
            _assert_matches_serial(run, samples, psi0, cfg, coeffs)

    def test_epsilon_ladder_n64(self, grid64):
        psi = _benign(grid64)
        coeffs = integrable_coefficients(1.0)
        cfgs = [SolverConfig(dt=2e-3, epsilon=e, sobolev_index_m=4)
                for e in (0.0, 2.0**-7, 2.0**-5, 2.0**-3)]
        seen, observers = _observed(4)
        runs = integrate_many([psi] * 4, 0.0102, cfgs, coeffs, observers=observers)
        assert len({tuple(r.picard_iterations) for r in runs}) > 1
        for run, samples, cfg in zip(runs, seen, cfgs):
            assert run.final.time == 0.0102
            _assert_matches_serial(run, samples, psi, cfg, coeffs)

    def test_single_member_is_integrate(self, grid64, generic_coeffs):
        psi = _benign(grid64)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        (samples,), observers = _observed(1)
        (run,) = integrate_many([psi], 0.01, [cfg], generic_coeffs, observers=observers)
        _assert_matches_serial(run, samples, psi, cfg, generic_coeffs)
        alone = integrate(psi, 0.01, cfg, generic_coeffs)
        assert alone.picard_iterations == run.picard_iterations
        assert np.array_equal(alone.final.state.coeffs, run.final.state.coeffs)

    def test_blowup_member_halts_others_continue(self, grid64):
        # a ceiling below the initial norm trips the undamped member at its
        # first step; the damped ones drop below it before that and go on
        coeffs = integrable_coefficients(1.0)
        members = [plane_wave(grid64, 0.3, 4), _benign(grid64),
                   plane_wave(grid64, 0.2, 5)]
        cfgs = [SolverConfig(dt=2e-3, epsilon=e, sobolev_index_m=4)
                for e in (1.0, 0.0, 1.0)]
        seen, observers = _observed(3)
        runs = integrate_many(members, 0.01, cfgs, coeffs, blowup_factor=0.9,
                              observers=observers)
        assert runs[1].blowup_time == 2e-3
        assert len(seen[1]) == 2
        alone = integrate(members[1], 0.01, cfgs[1], coeffs, blowup_factor=0.9)
        assert alone.blowup_time == 2e-3
        for run, obs, psi0, cfg in zip(runs, seen, members, cfgs):
            _assert_matches_serial(run, obs, psi0, cfg, coeffs)
        assert runs[0].blowup_time is None and runs[0].final.time == 0.01
        assert runs[2].blowup_time is None and runs[2].final.time == 0.01

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
            integrate_many(members, 0.05, [cfg] * 4, coeffs)
        assert (err.value.member, err.value.time) == (2, 0.0)
        with pytest.raises(NonFinite) as alone:
            integrate(first, 0.05, cfg, coeffs)
        assert alone.value.time == 0.0
        with pytest.raises(NonConvergence) as alone:
            integrate(late, 0.05, cfg, coeffs)
        assert alone.value.time == pytest.approx(0.041)
        with pytest.raises(NonConvergence) as err:
            integrate_many(members[:2], 0.05, [cfg] * 2, coeffs)
        assert (err.value.member, err.value.time) == (0, alone.value.time)

    def test_lowest_member_first_within_a_step(self, grid64):
        # member 2 overflows within a few iterations, member 1 spends the
        # whole budget first; both fail in the first step, member 1 is lower
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        stalls = random_field(grid64, rng_for(1), decay=1.5, l2_mass=1.0)
        overflows = random_field(grid64, rng_for(1), decay=1.5, l2_mass=3.0)
        with pytest.raises(NonConvergence) as err:
            integrate_many([_benign(grid64), stalls, overflows], 0.01, [cfg] * 3,
                           coeffs)
        assert (err.value.member, err.value.time) == (1, 0.0)

    @pytest.mark.parametrize("change", [
        {"dt": 2e-3}, {"picard_tol": 1e-10}, {"picard_max_iters": 20},
        {"dealias_pad_factor": 4}, {"sobolev_index_m": 3},
    ])
    def test_configs_may_differ_only_in_epsilon(self, grid64, change):
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        psi = _benign(grid64)
        with pytest.raises(ValueError):
            integrate_many([psi, psi], 0.01, [cfg, replace(cfg, **change)],
                           integrable_coefficients(1.0))

    def test_members_share_one_grid(self, grid64):
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        other = _benign(GridSpec(128))
        with pytest.raises(ValueError):
            integrate_many([_benign(grid64), other], 0.01, [cfg] * 2,
                           integrable_coefficients(1.0))

    def test_one_entry_per_member(self, grid64):
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        psi = _benign(grid64)
        coeffs = integrable_coefficients(1.0)
        with pytest.raises(ValueError):
            integrate_many([], 0.01, [], coeffs)
        with pytest.raises(ValueError):
            integrate_many([psi, psi], 0.01, [cfg], coeffs)
        with pytest.raises(ValueError):
            integrate_many([psi, psi], 0.01, [cfg] * 2, coeffs, observers=[[]])
