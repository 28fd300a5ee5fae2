"""Scripted studies that turn the qualitative estimates into measured numbers.

Every study returns a StudyResult: named parameter map, named columnar
tables, declared thresholds, and a pass/fail/inconclusive verdict judged
against those thresholds only. Studies are deterministic functions of
(seed, config). This module also owns the output format of every run:
``table_rows`` is the one CSV writer (header row, `time` or `param` first
column, LF endings), fed one row at a time; ``write_table`` feeds it a
table's columns, ``write_manifest`` writes a JSON manifest, and
``write_study`` a study's tables and manifest.
"""

import json
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate, integrate_many, smoothing_multiplier_sup
from .exact import integrable_coefficients
from .functionals import (
    EnergyRecorder,
    certificate_sample,
    certify_cm,
    difference_energy,
    modified_energy,
)
from .mollifier import mollify
from .sampling import decay_field, random_field, rng_for
from .spectral import (
    GridSpec,
    gn_ratio,
    sobolev_distance,
    sobolev_norm,
    sobolev_norm_sq,
)

DRIFT_FLOOR = 1e-12  # relative drifts below this are round-off, not signal


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log ys against log xs."""

    slope: float
    intercept: float
    r_squared: float

    @classmethod
    def fit(cls, xs, ys):
        xs = tuple(float(x) for x in xs)
        ys = tuple(float(y) for y in ys)
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if len(xs) < 2:
            raise ValueError("need at least two points to fit")
        if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
            raise ValueError("log-log fit needs positive data")
        lx = np.log(np.array(xs))
        ly = np.log(np.array(ys))
        slope, intercept = np.polyfit(lx, ly, 1)
        resid = ly - (slope * lx + intercept)
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
        if ss_tot <= 1e-30:
            r2 = 1.0 if ss_res <= 1e-30 else 0.0
        else:
            r2 = 1.0 - ss_res / ss_tot
        return cls(float(slope), float(intercept), r2)


@dataclass
class StudyResult:
    name: str
    parameters: dict
    thresholds: dict
    tables: dict = field(default_factory=dict)
    verdict: str = "inconclusive"


def _fmt(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return str(value)


@contextmanager
def table_rows(outdir, fname, names):
    """Write one CSV table as it goes: writes the header ``names``, whose
    first name is ``time`` or ``param``, and yields ``write_row(values)``.

    Cells are the shortest round-trip repr of each value as a float, and
    rows end in LF; a row of another length is a ValueError. Rows go to
    ``<fname>.part``, which becomes ``fname`` when the block ends. If the
    block raises, the partial file is removed, and so is every directory
    this call made for it; a file left by an earlier run stays as it was.
    """
    names = list(names)
    if names and names[0] not in ("time", "param"):
        raise ValueError(f"{fname}: first column must be time or param")
    outdir = Path(outdir)
    made = list(takewhile(lambda d: not d.exists(), (outdir, *outdir.parents)))
    part = _output_path(outdir, fname + ".part")
    try:
        with open(part, "w", encoding="ascii", newline="\n") as out:
            out.write(",".join(names) + "\n")

            def write_row(values):
                if len(values) != len(names):
                    raise ValueError(f"{fname}: row of {len(values)} cells "
                                     f"under {len(names)} columns")
                out.write(",".join(repr(float(v)) for v in values) + "\n")

            yield write_row
        part.replace(outdir / fname)
    except BaseException:
        part.unlink(missing_ok=True)
        for d in made:  # deepest first
            with suppress(OSError):
                d.rmdir()
        raise


def write_table(outdir, fname, columns):
    """Write one CSV table, ``columns`` mapping header names to equal-length
    columns, through ``table_rows``; returns the path."""
    if len({len(v) for v in columns.values()}) > 1:
        raise ValueError(f"{fname}: ragged columns")
    with table_rows(outdir, fname, columns) as write_row:
        for row in zip(*columns.values()):
            write_row(row)
    return Path(outdir) / fname


def write_manifest(outdir, name, fields):
    """Write ``<name>__manifest.json``: the fields (made JSON-ready by
    ``_fmt``) plus ``name`` and ``code_version``, keys sorted; returns the
    path."""
    manifest = _fmt(fields)
    manifest["name"] = name
    manifest["code_version"] = __version__
    path = _output_path(outdir, f"{name}__manifest.json")
    path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii"
    )
    return path


def _output_path(outdir, fname):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / fname


def write_study(result, outdir):
    """Write one CSV per table plus the manifest; returns the paths.

    Output is byte-deterministic for identical results.
    """
    paths = []
    table_files = {}
    for tname, columns in result.tables.items():
        table_files[tname] = f"{result.name}__{tname}.csv"
        paths.append(write_table(outdir, table_files[tname], columns))
    paths.append(write_manifest(outdir, result.name, {
        "parameters": result.parameters,
        "thresholds": result.thresholds,
        "verdict": result.verdict,
        "tables": table_files,
    }))
    return paths


def _relative_drifts(columns):
    out = []
    for name in ("i0", "i1", "i2"):
        arr = np.asarray(columns[name])
        scale = max(abs(arr[0]), DRIFT_FLOOR)
        out.append(float(np.max(np.abs(arr - arr[0])) / scale))
    return out


def conservation_study(data, nu, t_end, cfg, drift_tol=1e-6, min_gain=4.0):
    """Drift of I₀, I₁, I₂ along an unregularized integrable-case run.

    Integrates at cfg.dt and at dt/2; passes when every relative drift at
    the coarse step is within ``drift_tol`` and shrinks by ``min_gain``
    under halving (drifts already at the round-off floor are exempt from
    the gain requirement, since they carry no convergence signal).
    """
    if cfg.epsilon != 0.0:
        raise ValueError("conservation study runs the unregularized flow")
    coeffs = integrable_coefficients(nu)
    tables = {}
    drifts = {}
    for label, factor in (("coarse", 1.0), ("fine", 0.5)):
        run_cfg = replace(cfg, dt=cfg.dt * factor)
        rec = EnergyRecorder(cfg.sobolev_index_m, coeffs)
        integrate(data, t_end, run_cfg, coeffs, observers=[rec])
        tables[f"series_{label}"] = {
            name: rec.columns[name]
            for name in ("time", "i0", "i1", "i2", "l2_norm_sq", "h_m_norm_sq")
        }
        drifts[label] = _relative_drifts(rec.columns)
    gains = [
        c / f if f > 0 else float("inf")
        for c, f in zip(drifts["coarse"], drifts["fine"])
    ]
    tables["drifts"] = {
        "param": [0.0, 1.0, 2.0],
        "drift_coarse": drifts["coarse"],
        "drift_fine": drifts["fine"],
        "gain": gains,
    }
    within_tol = all(d <= drift_tol for d in drifts["coarse"])
    order_shown = all(
        d <= DRIFT_FLOOR or g >= min_gain for d, g in zip(drifts["coarse"], gains)
    )
    if not within_tol:
        verdict = "fail"
    elif order_shown:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return StudyResult(
        name="conservation",
        parameters={
            "nu": nu,
            "t_end": t_end,
            "dt": cfg.dt,
            "epsilon": cfg.epsilon,
            "num_modes": data.grid.num_modes,
            "m": cfg.sobolev_index_m,
        },
        thresholds={
            "drift_tol": drift_tol,
            "min_gain": min_gain,
            "drift_floor": DRIFT_FLOOR,
        },
        tables=tables,
        verdict=verdict,
    )


def bona_smith_rate_study(m, l_values, num_modes=1024,
                          eps_ladder=tuple(2.0**-k for k in range(1, 9)),
                          slope_band=0.15, r2_min=0.98, bound_const=1.0,
                          data=None):
    """Mollification error rates on critical-decay data.

    Fits ‖f - f_ε‖_{H^{m-l}} against ε. For l ≥ 1 the fitted slope must lie
    within ``slope_band`` of l with r² ≥ ``r2_min``; for l = 0 the error is
    only required to stay below ``bound_const``·‖f‖_{H^m}. Errors at machine
    zero (band-limited data mollified to nothing) make the case
    inconclusive rather than failed. ``data`` defaults to the critical
    spectrum ⟨n⟩^{-(m+0.6)} where the rates are attained.
    """
    if any(l < 0 or l > m for l in l_values):
        raise ValueError("need 0 <= l <= m")
    if len(set(l_values)) != len(l_values):
        raise ValueError(f"l_values repeats an entry: {list(l_values)}")
    if data is None:
        grid = GridSpec(num_modes)
        data = decay_field(grid, m + 0.6)
    else:
        num_modes = data.grid.num_modes
    hm = sobolev_norm(data, m)
    eps_ladder = sorted(eps_ladder, reverse=True)
    errors = {}
    for l in l_values:
        errors[l] = [
            sobolev_distance(data, mollify(data, e), m - l) for e in eps_ladder
        ]
    table = {"param": list(eps_ladder)}
    for l in l_values:
        table[f"err_l{l}"] = errors[l]
    fits = {"param": [], "slope": [], "intercept": [], "r_squared": [], "passed": []}
    case_verdicts = []
    for l in l_values:
        errs = errors[l]
        if min(errs) < 1e-13 * hm:
            case_verdicts.append("inconclusive")
            fits["param"].append(float(l))
            fits["slope"].append(float("nan"))
            fits["intercept"].append(float("nan"))
            fits["r_squared"].append(float("nan"))
            fits["passed"].append(0.0)
            continue
        f = RateFit.fit(eps_ladder, errs)
        fits["param"].append(float(l))
        fits["slope"].append(f.slope)
        fits["intercept"].append(f.intercept)
        fits["r_squared"].append(f.r_squared)
        if l == 0:
            ok = max(errs) <= bound_const * hm
        else:
            ok = (
                (1.0 - slope_band) * l <= f.slope <= (1.0 + slope_band) * l
                and f.r_squared >= r2_min
            )
        fits["passed"].append(1.0 if ok else 0.0)
        case_verdicts.append("pass" if ok else "fail")
    if any(v == "fail" for v in case_verdicts):
        verdict = "fail"
    elif any(v == "inconclusive" for v in case_verdicts):
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return StudyResult(
        name="bona_smith_rates",
        parameters={
            "m": m,
            "l_values": list(l_values),
            "num_modes": num_modes,
            "eps_ladder": list(eps_ladder),
            "data_hm_norm": hm,
        },
        thresholds={
            "slope_band": slope_band,
            "r2_min": r2_min,
            "bound_const": bound_const,
        },
        tables={"errors": table, "fits": fits},
        verdict=verdict,
    )


def eps_convergence_study(data, m, coeffs, t_end, eps_ladder, cfg,
                          min_h1_order=1.0, ref_divisor=4.0):
    """Vanishing-regularization convergence of the damped runs.

    Each ladder point solves the regularized problem with strength ε and
    data mollified at the same ε; the reference uses ε_min/``ref_divisor``.
    Passes when the H^m differences decrease monotonically along the ladder
    and the fitted H^1 order is at least ``min_h1_order``.
    """
    if m < 4:
        raise ValueError("the convergence regime needs m >= 4")
    ladder = sorted(eps_ladder, reverse=True)
    eps_ref = min(ladder) / ref_divisor
    epsilons = [eps_ref] + ladder
    runs = integrate_many(
        [mollify(data, e) for e in epsilons], t_end,
        [replace(cfg, epsilon=e, sobolev_index_m=m) for e in epsilons], coeffs,
    )
    ref = runs[0].final.state
    h1_diffs = []
    hm_diffs = []
    for run in runs[1:]:
        state = run.final.state
        h1_diffs.append(sobolev_distance(state, ref, 1))
        hm_diffs.append(sobolev_distance(state, ref, m))
    tables = {
        "differences": {
            "param": list(ladder),
            "h1_diff": h1_diffs,
            "hm_diff": hm_diffs,
        }
    }
    parameters = {
        "m": m,
        "t_end": t_end,
        "dt": cfg.dt,
        "eps_ladder": list(ladder),
        "eps_ref": eps_ref,
        "num_modes": data.grid.num_modes,
    }
    thresholds = {"min_h1_order": min_h1_order}
    if len(ladder) < 2:
        return StudyResult(
            name="eps_convergence",
            parameters=parameters,
            thresholds=thresholds,
            tables=tables,
            verdict="inconclusive",
        )
    fit = RateFit.fit(ladder, h1_diffs)
    tables["fits"] = {
        "param": [1.0],
        "slope": [fit.slope],
        "intercept": [fit.intercept],
        "r_squared": [fit.r_squared],
    }
    monotone = all(hm_diffs[i] > hm_diffs[i + 1] for i in range(len(hm_diffs) - 1))
    verdict = "pass" if (monotone and fit.slope >= min_h1_order) else "fail"
    return StudyResult(
        name="eps_convergence",
        parameters=parameters,
        thresholds=thresholds,
        tables=tables,
        verdict=verdict,
    )


def _max_quotient(times, values):
    """max over steps of |ΔE/Δt| / E², the differential-inequality quotient."""
    t = np.asarray(times)
    v = np.asarray(values)
    dv = np.abs(np.diff(v)) / np.diff(t)
    return float(np.max(dv / v[:-1] ** 2))


def _stepper_order(data, coarse, t_end, cfg, coeffs, m):
    """Observed self-convergence order of the stepper on this data, given
    ``coarse``, the final state of its run at cfg.dt."""
    fine = integrate(data, t_end, replace(cfg, dt=cfg.dt * 0.5), coeffs).final.state
    finest = integrate(data, t_end, replace(cfg, dt=cfg.dt * 0.125), coeffs).final.state
    e_coarse = sobolev_distance(coarse, finest, m)
    e_fine = sobolev_distance(fine, finest, m)
    if e_fine <= 0.0:
        return float("inf")
    return float(np.log2(e_coarse / e_fine))


def riccati_study(family, m, coeffs, cfg, t_end, c_m,
                  spread_max=2.0, raw_growth_min=4.0, min_order=1.8):
    """Growth-quotient contrast between the corrected and plain energies.

    For each family member (same H^m size, rising frequency content) the
    run records Q = max |ΔE/Δt|/E² for the corrected energy and for the
    plain ‖∂^m ψ‖² + ‖ψ‖² energy. Passes when the corrected quotient stays
    within a ``spread_max`` band across the family while the plain quotient
    grows by ``raw_growth_min`` from first to last member. The verdict is
    only trusted (not inconclusive) if the stepper shows order
    ≥ ``min_order`` on the first member.
    """
    if not family:
        raise ValueError("family must be nonempty")
    grid = family[0].grid
    if any(f.grid != grid for f in family):
        raise ValueError("family must share one grid")
    recorders = [EnergyRecorder(m, coeffs, c_m, invariants=False) for _ in family]
    runs = integrate_many(family, t_end, [cfg] * len(family), coeffs,
                          observers=[[rec] for rec in recorders])
    coarse = runs[0].final.state
    order = _stepper_order(family[0], coarse, t_end, cfg, coeffs, m)
    q_mod = []
    q_raw = []
    freq_span = []
    for member, rec in zip(family, recorders):
        cols = rec.columns
        q_mod.append(_max_quotient(cols["time"], cols["modified_energy"]))
        raw = np.asarray(cols["deriv_m_norm_sq"]) + np.asarray(cols["l2_norm_sq"])
        q_raw.append(_max_quotient(cols["time"], raw))
        populated = np.abs(member.coeffs) > 1e-14
        freq_span.append(float(np.max(np.abs(grid.modes[populated]))))
    spread = max(q_mod) / min(q_mod)
    growth = q_raw[-1] / q_raw[0]
    contrast_ok = spread <= spread_max and growth >= raw_growth_min
    if order < min_order:
        verdict = "inconclusive"
    else:
        verdict = "pass" if contrast_ok else "fail"
    return StudyResult(
        name="riccati_contrast",
        parameters={
            "m": m,
            "t_end": t_end,
            "dt": cfg.dt,
            "c_m": c_m,
            "num_modes": grid.num_modes,
            "family_size": len(family),
            "stepper_order": order,
        },
        thresholds={
            "spread_max": spread_max,
            "raw_growth_min": raw_growth_min,
            "min_order": min_order,
        },
        tables={
            "quotients": {
                "param": [float(i) for i in range(len(family))],
                "freq_span": freq_span,
                "q_modified": q_mod,
                "q_raw": q_raw,
            }
        },
        verdict=verdict,
    )


def continuity_study(phi, delta_ladder, m, coeffs, t_end, cfg, rng_seed,
                     slope_band=0.15, quotient_spread_max=2.0):
    """Data-to-solution continuity: perturbation growth and Gronwall quotient.

    Perturbs phi by seeded random fields of H^m size δ, integrates both,
    and records sup_t of the H^1 difference plus the quotient
    Ẽ₁(t)/Ẽ₁(0) of the difference energy around the base trajectory. The
    positivity constant of Ẽ₁ is measured from the recorded series (twice
    the smallest value keeping Ẽ₁ ≥ ½‖·‖²_{H^1}, floored at 1), never
    assumed. Passes when sup-differences scale like δ within ``slope_band``
    and the quotient band across the ladder stays within
    ``quotient_spread_max``.
    """
    deltas = sorted(delta_ladder, reverse=True)
    perturbed = [
        phi + random_field(
            phi.grid, rng_for(rng_seed, i), decay=float(m), hm_norm=delta, m=m
        )
        for i, delta in enumerate(deltas)
    ]
    run_cfg = replace(cfg, sobolev_index_m=m)
    samples = [[] for _ in range(len(deltas) + 1)]  # base run first
    integrate_many([phi] + perturbed, t_end, [run_cfg] * len(samples), coeffs,
                   observers=[[kept.append] for kept in samples])
    base, *others = samples
    runs = []
    for delta, other in zip(deltas, others):
        diffs = [b.state - o.state for b, o in zip(base, other)]
        runs.append((delta, [b.time for b in base], diffs))
    # measured positivity constant for the difference energy
    c_tilde_req = 1.0
    for _, _, diffs in runs:
        for d, ref_sample in zip(diffs, base):
            l2_sq = sobolev_norm_sq(d, 0)
            if l2_sq <= 0.0:
                continue
            base_energy = difference_energy(d, ref_sample.state, 1, coeffs, 0.0)
            h1_sq = sobolev_norm_sq(d, 1)
            need = (0.5 * h1_sq - base_energy) / l2_sq
            c_tilde_req = max(c_tilde_req, need)
    c_tilde = 2.0 * c_tilde_req
    sup_h1 = []
    quotients = []
    growth_rates = []
    for delta, times, diffs in runs:
        sup_h1.append(max(sobolev_norm(d, 1) for d in diffs[1:]))
        e1 = [
            difference_energy(d, ref_sample.state, 1, coeffs, c_tilde)
            for d, ref_sample in zip(diffs, base)
        ]
        q = max(e / e1[0] for e in e1) if e1[0] > 0 else float("nan")
        quotients.append(float(q))
        growth_rates.append(float(np.log(max(q, 1e-300)) / t_end))
    fit = RateFit.fit(deltas, sup_h1)
    spread = max(quotients) / min(quotients)
    ok = (
        (1.0 - slope_band) <= fit.slope <= (1.0 + slope_band)
        and spread <= quotient_spread_max
    )
    return StudyResult(
        name="continuity",
        parameters={
            "m": m,
            "t_end": t_end,
            "dt": cfg.dt,
            "rng_seed": rng_seed,
            "num_modes": phi.grid.num_modes,
            "c_tilde": c_tilde,
        },
        thresholds={
            "slope_band": slope_band,
            "quotient_spread_max": quotient_spread_max,
        },
        tables={
            "scaling": {
                "param": list(deltas),
                "sup_h1_diff": sup_h1,
                "gronwall_quotient": quotients,
                "implied_rate": growth_rates,
            },
            "fits": {
                "param": [1.0],
                "slope": [fit.slope],
                "intercept": [fit.intercept],
                "r_squared": [fit.r_squared],
            },
        },
        verdict="pass" if ok else "fail",
    )


GN_CASES = ((1, 2, 2.0), (1, 2, float("inf")), (0, 1, float("inf")), (3, 4, 2.0))


def inequality_sweeps(seed, trials, m=4, nu=1.0, certificate=None,
                      gn_cases=GN_CASES, resolutions=(64, 128),
                      gn_growth_max=1.05, upper_spread_max=2.0,
                      l2_ceiling=1.0):
    """Bundled randomized checks of the interpolation inequality, the
    smoothing-multiplier bound, and the two-sided energy equivalence.

    Passes only with zero violations: every interpolation ratio finite with
    the empirical constant growing at most ``gn_growth_max`` under
    resolution doubling; every smoothing multiplier below its closed-form
    bound; every sampled field satisfying the certified lower energy bound,
    with the upper equivalence constant stable under resolution doubling.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not l2_ceiling > 0:
        raise ValueError(f"l2_ceiling must be > 0, got {l2_ceiling}")
    coeffs = integrable_coefficients(nu)
    if certificate is None:
        certificate = certify_cm(
            m, coeffs, l2_ceiling, trials=max(trials // 2, 50),
            rng_seed=seed + 1, target="sobolev",
        )
    tables = {}
    failures = []

    # interpolation-ratio sweep
    gn_rows = {"param": [], "l": [], "m": [], "inv_p": [], "max_ratio": [], "growth": []}
    for case_idx, (l, mm, p) in enumerate(gn_cases):
        max_ratio = {}
        for n in resolutions:
            grid = GridSpec(n)
            worst = 0.0
            for i in range(trials):
                rng = rng_for(seed, case_idx * 1_000_000 + n * 1_000 + i)
                decay = float(rng.uniform(0.5, 2.5))
                psi = random_field(grid, rng, decay=decay, max_mode=n // 4)
                worst = max(worst, gn_ratio(psi, l, mm, p))
            max_ratio[n] = worst
        growth = max_ratio[resolutions[-1]] / max_ratio[resolutions[0]]
        gn_rows["param"].append(float(case_idx))
        gn_rows["l"].append(float(l))
        gn_rows["m"].append(float(mm))
        gn_rows["inv_p"].append(0.0 if np.isinf(p) else 1.0 / p)
        gn_rows["max_ratio"].append(max_ratio[resolutions[-1]])
        gn_rows["growth"].append(growth)
        if not np.isfinite(max_ratio[resolutions[-1]]) or growth > gn_growth_max:
            failures.append(f"gn case {(l, mm, p)}")
    tables["gn_sweep"] = gn_rows

    # smoothing-multiplier sweep: grid modes cover |n| <= 512 (n^4 symmetric)
    sm_grid = GridSpec(1024)
    eps_vals = np.logspace(-3, 0, 13)
    s_vals = np.logspace(-3, 0, 13)
    worst_margin = np.inf
    violations = 0
    for e in eps_vals:
        for s in s_vals:
            sup = smoothing_multiplier_sup(e, s, sm_grid)
            bound = 1.0 + e**-0.5 * s**-0.5
            worst_margin = min(worst_margin, bound - sup)
            if sup > bound:
                violations += 1
    tables["smoothing"] = {
        "param": [0.0],
        "grid_points": [float(len(eps_vals) * len(s_vals))],
        "violations": [float(violations)],
        "worst_margin": [worst_margin],
    }
    if violations:
        failures.append("smoothing bound")

    # two-sided energy equivalence
    lower_viol = 0
    worst_lower = np.inf
    upper_consts = {}
    for n in resolutions:
        grid = GridSpec(n)
        c_upper = 0.0
        for i in range(trials):
            rng = rng_for(seed + 2, n * 1_000_000 + i)
            psi = certificate_sample(grid, rng, l2_ceiling)
            e_val = modified_energy(psi, m, coeffs, certificate.c_m)
            hm_sq = sobolev_norm_sq(psi, m)
            l2_sq = sobolev_norm_sq(psi, 0)
            margin = e_val - 0.5 * hm_sq
            worst_lower = min(worst_lower, margin)
            if margin < 0.0:
                lower_viol += 1
            c_upper = max(c_upper, e_val / ((l2_sq ** (2 * m) + 1.0) * hm_sq))
        upper_consts[n] = c_upper
    upper_ratio = upper_consts[resolutions[-1]] / upper_consts[resolutions[0]]
    tables["energy_equivalence"] = {
        "param": [float(n) for n in resolutions],
        "upper_const": [upper_consts[n] for n in resolutions],
        "lower_violations": [float(lower_viol)] * len(resolutions),
        "worst_lower_margin": [worst_lower] * len(resolutions),
    }
    if lower_viol:
        failures.append("energy lower bound")
    if not (1.0 / upper_spread_max <= upper_ratio <= upper_spread_max):
        failures.append("energy upper constant stability")

    return StudyResult(
        name="inequality_sweeps",
        parameters={
            "seed": seed,
            "trials": trials,
            "m": m,
            "nu": nu,
            "resolutions": list(resolutions),
            "c_m": certificate.c_m,
            "certificate_trials": certificate.trials,
            "l2_ceiling": l2_ceiling,
            "failures": failures,
        },
        thresholds={
            "gn_growth_max": gn_growth_max,
            "upper_spread_max": upper_spread_max,
            "smoothing_bound": "1 + eps^-1/2 s^-1/2",
        },
        tables=tables,
        verdict="pass" if not failures else "fail",
    )
