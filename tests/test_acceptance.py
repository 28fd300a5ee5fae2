"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they go). Criteria run independently so one failure never hides
another. Desk scale throughout: N <= 1024 for norm-only sweeps, N <= 256
for evolution, total runtime well under a minute on one core.
"""

import numpy as np

from conftest import certificate_sample

from torus4nls.cli import run_command
from torus4nls.dynamics import CoefficientSet, SolverConfig, integrate, reference_integrate
from torus4nls.exact import (
    integrable_coefficients,
    linear_solution,
    pde_residual,
    standing_wave,
)
from torus4nls.experiments import (
    bona_smith_rate_study,
    conservation_study,
    continuity_study,
    eps_convergence_study,
    riccati_study,
)
from torus4nls.functionals import certify_cm, modified_energy
from torus4nls.sampling import decay_field, mode_pair_field, random_field, rng_for
from torus4nls.spectral import (
    GridSpec,
    SpectralField,
    gn_ratio,
    sobolev_distance,
    sobolev_norm,
    sobolev_norm_sq,
)

GENERIC = CoefficientSet(
    nu=1.0, lambda1=0.7, lambda2=-0.3, lambda3=0.2,
    lambda4=-0.5, lambda5=0.4, lambda6=0.1,
)


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_linear_exactness():
    grid = GridSpec(64)
    data = random_field(grid, rng_for(1), decay=2.0, l2_mass=1.0)
    ref = linear_solution(data, 1.0, 1.0)
    cfg = SolverConfig(dt=1e-3, epsilon=0.0, sobolev_index_m=4)
    lin = CoefficientSet(nu=1.0)
    scale = sobolev_norm(ref, 4)
    err_duh = sobolev_distance(integrate(data, 1.0, cfg, lin).state, ref, 4) / scale
    err_rk4 = (
        sobolev_distance(reference_integrate(data, 1.0, cfg, lin).state, ref, 4)
        / scale
    )
    ok = err_duh <= 1e-10 and err_rk4 <= 1e-10
    report(1, "linear exactness", ok,
           f"rel H4 error duhamel {err_duh:.2e}, rk4 {err_rk4:.2e} (tol 1e-10)")


def test_criterion_02_standing_wave_fidelity():
    grid = GridSpec(64)
    psi0, omega = standing_wave(grid, 0.3, 1, GENERIC)
    residual = pde_residual(psi0, omega, GENERIC)
    cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
    worst_off = 0.0
    worst_phase = 0.0
    for stepper in (integrate, reference_integrate):
        samples = []
        stepper(psi0, 1.0, cfg, GENERIC,
                lambda time, rows, members: samples.append((time, rows[0].copy())))
        phases, times = [], []
        for time, c in samples:
            power = np.abs(c) ** 2
            worst_off = max(worst_off, float(np.sum(power) - power[1]))
            phases.append(np.angle(c[1]))
            times.append(time)
        slope = np.polyfit(times, np.unwrap(phases), 1)[0]
        worst_phase = max(worst_phase, abs(slope - omega) / abs(omega))
    ok = worst_off <= 1e-8 and worst_phase <= 1e-6 and residual <= 1e-11
    report(2, "standing-wave fidelity", ok,
           f"off-mode {worst_off:.2e} (tol 1e-8), phase-rate rel err "
           f"{worst_phase:.2e} (tol 1e-6), residual {residual:.2e} (tol 1e-11)")


def test_criterion_03_integrable_conservation():
    grid = GridSpec(64)
    data = random_field(grid, rng_for(42), decay=2.0, hm_norm=0.4, m=4, max_mode=4)
    assert sobolev_norm(data, 4) <= 0.5
    cfg = SolverConfig(dt=2e-3, epsilon=0.0, sobolev_index_m=4)
    res = conservation_study(data, 1.0, 0.1, cfg)
    assert res.thresholds == {"drift_tol": 1e-6, "min_gain": 4.0, "drift_floor": 1e-12}
    drifts = res.tables["drifts"]["drift_coarse"]
    gains = res.tables["drifts"]["gain"]
    measurable = [g for d, g in zip(drifts, gains) if d > res.thresholds["drift_floor"]]
    ok = res.verdict == "pass"
    report(3, "integrable conservation", ok,
           f"max drift {max(drifts):.2e} (tol 1e-6), min measurable gain "
           f"{min(measurable):.3f} (need >= 4)")


def test_criterion_04_bona_smith_rates():
    res = bona_smith_rate_study(4, [0, 1, 2], decay_field(GridSpec(1024), 4.6))
    assert res.thresholds == {"slope_band": 0.15, "r2_min": 0.98, "bound_const": 1.0}
    fits = res.tables["fits"]
    slopes = dict(zip(fits["param"], fits["slope"]))
    r2 = dict(zip(fits["param"], fits["r_squared"]))
    errs = res.tables["errors"]
    bound_ratio = max(errs["err_l0"]) / res.parameters["data_hm_norm"]
    ok = res.verdict == "pass"
    report(4, "mollifier rates", ok,
           f"slopes l1 {slopes[1.0]:.3f}, l2 {slopes[2.0]:.3f} (within 15%), "
           f"r2 {min(r2[1.0], r2[2.0]):.4f} (>= 0.98), l0 bounded "
           f"{bound_ratio:.3f} <= 1")


def test_criterion_05_smoothing_bound():
    ns = np.arange(-512, 513, dtype=float)
    n2 = ns * ns
    n4 = n2 * n2
    violations = 0
    worst = np.inf
    for eps in np.logspace(-3, 0, 13):
        for s in np.logspace(-3, 0, 13):
            sup = float(np.max((1.0 + n2) * np.exp(-eps * n4 * s)))
            bound = 1.0 + eps**-0.5 * s**-0.5
            worst = min(worst, bound - sup)
            violations += sup > bound
    ok = violations == 0
    report(5, "smoothing bound", ok,
           f"0 violations over 169 (eps, s) pairs x 1025 modes, "
           f"worst margin {worst:.3f}" if ok else f"{violations} violations")


def test_criterion_06_gn_sweep():
    cases = ((1, 2, 2.0), (1, 2, np.inf), (0, 1, np.inf), (3, 4, 2.0))
    growths = []
    finite = True
    for case_idx, (l, m, p) in enumerate(cases):
        worst = {}
        for n_modes in (64, 128):
            grid = GridSpec(n_modes)
            best = 0.0
            for i in range(1000):
                rng = rng_for(123, case_idx * 1_000_000 + n_modes * 1_000 + i)
                decay = float(rng.uniform(0.5, 2.5))
                psi = random_field(grid, rng, decay=decay, max_mode=n_modes // 4)
                best = max(best, gn_ratio(psi, l, m, p))
            worst[n_modes] = best
        finite = finite and np.isfinite(worst[128])
        growths.append(worst[128] / worst[64])
    ok = finite and all(g <= 1.05 for g in growths)
    report(6, "interpolation-inequality sweep", ok,
           f"1000 fields/case, max growth {max(growths):.4f} (tol 1.05)")


def test_criterion_07_energy_equivalence():
    m = 4
    coeffs = integrable_coefficients(1.0)
    cert = certify_cm(m, coeffs, 1.0, trials=400, rng_seed=314, target="sobolev")
    violations = 0
    worst_margin = np.inf
    upper = {}
    for n_modes in (64, 128):
        grid = GridSpec(n_modes)
        c_upper = 0.0
        for i in range(1000):
            psi = certificate_sample(grid, rng_for(2718, n_modes * 10_000 + i), 1.0)
            e = modified_energy(psi, m, coeffs, cert.c_m)
            hm_sq = sobolev_norm_sq(psi, m)
            margin = e - 0.5 * hm_sq
            worst_margin = min(worst_margin, margin)
            violations += margin < 0.0
            l2_sq = sobolev_norm_sq(psi, 0)
            c_upper = max(c_upper, e / ((l2_sq ** (2 * m) + 1.0) * hm_sq))
        upper[n_modes] = c_upper
    stability = upper[128] / upper[64]
    ok = violations == 0 and 0.5 <= stability <= 2.0
    report(7, "energy equivalence", ok,
           f"c_m {cert.c_m:.1f}, 0 violations of half-H4 lower bound over "
           f"2000 fields (worst margin {worst_margin:.2f}), upper-constant "
           f"ratio {stability:.3f} (within 2x)" if ok else
           f"{violations} violations, stability {stability:.3f}")


def test_criterion_08_riccati_contrast():
    m = 4
    coeffs = integrable_coefficients(1.0)
    cert = certify_cm(m, coeffs, 1.0, trials=60, rng_seed=2024, target="sobolev")
    grid = GridSpec(256)
    family = [mode_pair_field(grid, k, 2.0, m) for k in (4, 8, 16, 32)]
    cfg = SolverConfig(dt=1e-6, sobolev_index_m=m)
    res = riccati_study(family, coeffs, cfg, 2e-4, cert.c_m)
    assert res.thresholds == {"spread_max": 2.0, "raw_growth_min": 4.0,
                              "min_order": 1.8}
    q = res.tables["quotients"]
    spread = max(q["q_modified"]) / min(q["q_modified"])
    growth = q["q_raw"][-1] / q["q_raw"][0]
    ok = res.verdict == "pass"
    report(8, "energy growth-quotient contrast", ok,
           f"corrected-quotient spread {spread:.2f} (tol 2x), plain-quotient "
           f"growth {growth:.2f} (need >= 4x), stepper order "
           f"{res.parameters['stepper_order']:.2f}")


def test_criterion_09_eps_convergence():
    grid = GridSpec(64)
    data = random_field(grid, rng_for(7), decay=8.0, hm_norm=0.4, m=4)
    coeffs = integrable_coefficients(1.0)
    cfg = SolverConfig(dt=5e-4, sobolev_index_m=4)
    ladder = [2.0**-k for k in range(3, 8)]
    res = eps_convergence_study(data, coeffs, 0.02, ladder, cfg)
    assert res.thresholds == {"min_h1_order": 1.0}
    hm = res.tables["differences"]["hm_diff"]
    monotone = all(a > b for a, b in zip(hm, hm[1:]))
    slope = res.tables["fits"]["slope"][0]
    ok = res.verdict == "pass"
    report(9, "vanishing-regularization convergence", ok,
           f"H4 differences monotone: {monotone}, fitted H1 order "
           f"{slope:.3f} (need >= 1)")


def test_criterion_10_continuity():
    grid = GridSpec(64)
    data = random_field(grid, rng_for(11), decay=6.0, hm_norm=0.4, m=4)
    coeffs = integrable_coefficients(1.0)
    cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
    res = continuity_study(data, [1e-2, 1e-3, 1e-4, 1e-5], coeffs, 0.05,
                           cfg, rng_seed=7)
    assert res.thresholds == {"slope_band": 0.15, "quotient_spread_max": 2.0}
    slope = res.tables["fits"]["slope"][0]
    quotients = res.tables["scaling"]["gronwall_quotient"]
    spread = max(quotients) / min(quotients)
    ok = res.verdict == "pass"
    report(10, "data-to-solution continuity", ok,
           f"sup-difference slope {slope:.3f} (1 +/- 0.15), Gronwall-quotient "
           f"spread {spread:.4f} (tol 2x)")


def test_criterion_11_reproducibility(tmp_path, monkeypatch):
    monkeypatch.delenv("TORUS4NLS_OUTDIR", raising=False)
    argv = ["sweep-inequalities", "--trials", "60", "--seed", "9"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run_command(argv + ["--outdir", str(d)])
    names = sorted(p.name for p in dirs[0].iterdir())
    identical = bool(names) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    report(11, "byte reproducibility", identical,
           f"{len(names)} files (CSV+JSON) byte-identical across reruns")
