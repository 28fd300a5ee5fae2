"""Scripted studies that turn the qualitative estimates into measured numbers.

Every study returns a StudyResult: named parameter map, named columnar
tables, declared thresholds, and a pass/fail/inconclusive verdict judged
against those thresholds only. Studies are deterministic functions of
(seed, config). This module also writes every output file of a run, each
through ``_output_file`` (``.part``, then rename; a failed write leaves
nothing): ``table_rows`` writes a CSV table (header row, `time` or `param`
first column, LF endings) one row at a time, ``write_table`` feeds it a
table's columns, ``streamed_table`` has a forked worker format the rows
while this process produces them, ``write_manifest`` writes a JSON
manifest, and ``write_study`` a study's tables and manifest.

Each study's thresholds are one module-level constant
(``CONSERVATION_THRESHOLDS`` and its five siblings). The verdict reads it
and the result records a copy of it, so the manifest shows exactly the
values compared against; no tolerance is an argument.
"""

import json
import math
import os
import pickle
import signal
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import integrate, integrate_many, smoothing_multiplier_sup
from .exact import integrable_coefficients
from .functionals import (
    EnergyRecorder,
    certificate_rows,
    certify_cm,
    difference_quartic_rows,
    energy_terms_rows,
)
from .mollifier import mollify
from .sampling import random_field, random_rows, rng_for, rng_states, rngs_from
from .spectral import (
    GridSpec,
    InputError,
    SpectralField,
    gn_ratio_rows,
    refusing,
    row_blocks,
    seminorm_sq_rows,
    sobolev_distance,
    sobolev_norm,
    sobolev_norm_sq_rows,
)

DRIFT_FLOOR = 1e-12  # relative drifts below this are round-off, not signal

CONSERVATION_THRESHOLDS = {"drift_tol": 1e-6, "min_gain": 4.0,
                           "drift_floor": DRIFT_FLOOR}
BONA_SMITH_THRESHOLDS = {"slope_band": 0.15, "r2_min": 0.98, "bound_const": 1.0}
EPS_CONVERGENCE_THRESHOLDS = {"min_h1_order": 1.0}
RICCATI_THRESHOLDS = {"spread_max": 2.0, "raw_growth_min": 4.0, "min_order": 1.8}
CONTINUITY_THRESHOLDS = {"slope_band": 0.15, "quotient_spread_max": 2.0}
INEQUALITY_THRESHOLDS = {"gn_growth_max": 1.05, "upper_spread_max": 2.0,
                         "smoothing_bound": "1 + eps^-1/2 s^-1/2"}

BONA_SMITH_EPS_LADDER = tuple(2.0**-k for k in range(1, 9))  # descending
EPS_REF_DIVISOR = 4.0  # the ε-convergence reference runs at ε_min / 4


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


NO_FIT = RateFit(float("nan"), float("nan"), float("nan"))  # a case with no fit


def _fits_table(params, fits):
    """The ``fits`` table: one row per (param, RateFit) pair."""
    return {
        "param": [float(p) for p in params],
        "slope": [f.slope for f in fits],
        "intercept": [f.intercept for f in fits],
        "r_squared": [f.r_squared for f in fits],
    }


def check_entries(name, values, ok=None, must=None, fewest=2):
    """An InputError of the list parameter ``name`` unless ``values`` has at
    least ``fewest`` (1 or 2) entries, repeats none, and each passes ``ok``
    (if given); ``must`` ends the message "{name} entries must ...". A
    repeated entry would only repeat a run."""
    values = list(values)
    if len(values) < fewest:
        least = "one entry" if fewest == 1 else "two entries"
        raise InputError(name, f"needs at least {least}: {values}")
    if len(set(values)) != len(values):
        raise InputError(name, f"repeats an entry: {values}")
    if ok is not None and not all(ok(v) for v in values):
        raise InputError(name, f"entries must {must}: {values}")


@dataclass
class StudyResult:
    name: str
    parameters: dict
    thresholds: dict
    tables: dict = field(default_factory=dict)
    verdict: str = "inconclusive"


@contextmanager
def _output_file(outdir, fname):
    """The one way a run writes a file: yields ``<fname>.part`` in
    ``outdir``, open as ASCII text with LF endings, which becomes ``fname``
    when the block ends. Missing directories are made first. If the block
    raises, the partial file is removed, and so is every directory this
    call made for it; a file left by an earlier run stays as it was.
    """
    outdir = Path(outdir)
    made = list(takewhile(lambda d: not d.exists(), (outdir, *outdir.parents)))
    part = outdir / (fname + ".part")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(part, "w", encoding="ascii", newline="\n") as out:
            yield out
        part.replace(outdir / fname)
    except BaseException:
        with suppress(OSError):
            part.unlink()
        for d in made:  # deepest first
            with suppress(OSError):
                d.rmdir()
        raise


@contextmanager
def table_rows(outdir, fname, names):
    """Write one CSV table as it goes: writes the header ``names``, whose
    first name is ``time`` or ``param``, and yields ``write_row(values)``.

    Cells are the shortest round-trip repr of each value as a float; a row
    of another length is a ValueError. The file comes from ``_output_file``.
    ``write_row.flush()`` flushes what is written so far: a forked writer
    (``streamed_table``) must not inherit it in a buffer, nor leave with it.
    """
    names = list(names)
    if names and names[0] not in ("time", "param"):
        raise ValueError(f"{fname}: first column must be time or param")
    with _output_file(outdir, fname) as out:
        out.write(",".join(names) + "\n")

        def write_row(values):
            _check_row(fname, names, values)
            out.write(",".join(map(repr, map(float, values))) + "\n")

        write_row.flush = out.flush
        yield write_row


def _check_row(fname, names, values):
    if len(values) != len(names):
        raise ValueError(f"{fname}: row of {len(values)} cells "
                         f"under {len(names)} columns")


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
    """Write ``<name>__manifest.json`` through ``_output_file``: the fields
    plus ``name`` and ``code_version``, keys sorted; a numpy scalar is
    written as its Python value, any value JSON has no form for as its
    ``str``. Returns the path."""
    manifest = {**fields, "name": name, "code_version": __version__}
    fname = f"{name}__manifest.json"
    with _output_file(outdir, fname) as out:
        out.write(json.dumps(manifest, sort_keys=True, indent=2, default=lambda v: (
            v.item() if isinstance(v, (np.floating, np.integer)) else str(v))) + "\n")
    return Path(outdir) / fname


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


def check_t_end(t_end):
    """An InputError of ``t_end`` unless it is > 0 and finite: a study
    measured on no step would give a verdict on nothing."""
    if not 0.0 < t_end < math.inf:
        raise InputError("t_end", f"must be positive and finite, got {t_end}")


def _relative_drifts(columns):
    out = []
    for name in ("i0", "i1", "i2"):
        arr = np.asarray(columns[name])
        scale = max(abs(arr[0]), DRIFT_FLOOR)
        out.append(float(np.max(np.abs(arr - arr[0])) / scale))
    return out


def conservation_study(data, nu, t_end, cfg):
    """Drift of I₀, I₁, I₂ along an unregularized (ε = 0) integrable-case run.

    Integrates at cfg.dt and at dt/2; passes when every relative drift at
    the coarse step is within ``drift_tol`` and shrinks by ``min_gain``
    under halving (``CONSERVATION_THRESHOLDS``; drifts already at the
    round-off floor are exempt from the gain requirement, since they carry
    no convergence signal).
    """
    check_t_end(t_end)
    coeffs = integrable_coefficients(nu)
    tables = {}
    drifts = {}
    for label, factor in (("coarse", 1.0), ("fine", 0.5)):
        run_cfg = replace(cfg, dt=cfg.dt * factor)
        rec = EnergyRecorder(cfg.sobolev_index_m, coeffs)
        integrate(data, t_end, run_cfg, coeffs, rec)
        columns = rec.columns  # evaluates the last block
        tables[f"series_{label}"] = {
            name: columns[name]
            for name in ("time", "i0", "i1", "i2", "l2_norm_sq", "h_m_norm_sq")
        }
        drifts[label] = _relative_drifts(columns)
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
    th = CONSERVATION_THRESHOLDS
    within_tol = all(d <= th["drift_tol"] for d in drifts["coarse"])
    order_shown = all(
        d <= th["drift_floor"] or g >= th["min_gain"]
        for d, g in zip(drifts["coarse"], gains)
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
            "epsilon": 0.0,
            "num_modes": data.grid.num_modes,
            "m": cfg.sobolev_index_m,
        },
        thresholds=dict(th),
        tables=tables,
        verdict=verdict,
    )


def bona_smith_rate_study(m, l_values, data):
    """Mollification error rates of ``data`` along ``BONA_SMITH_EPS_LADDER``.

    Fits ‖f - f_ε‖_{H^{m-l}} against ε. For l ≥ 1 the fitted slope must lie
    within ``slope_band`` of l with r² ≥ ``r2_min``; for l = 0 the error is
    only required to stay below ``bound_const``·‖f‖_{H^m}
    (``BONA_SMITH_THRESHOLDS``). Errors at machine zero (band-limited data
    mollified to nothing) make the case inconclusive rather than failed.
    The rates are attained on the critical spectrum ⟨n⟩^{-(m+0.6)}
    (``decay_field(grid, m + 0.6)``), which the CLI passes.
    """
    hm = sobolev_norm(data, m)  # checks m >= 0
    check_entries("l_values", l_values, lambda l: 0 <= l <= m,
                  f"lie in [0, m] = [0, {m}]", fewest=1)
    th = BONA_SMITH_THRESHOLDS
    eps_ladder = list(BONA_SMITH_EPS_LADDER)
    mollified = [mollify(data, e) for e in eps_ladder]
    table = {"param": list(eps_ladder)}
    fits = []
    passed = []
    case_verdicts = []
    for l in l_values:
        errs = table[f"err_l{l}"] = [sobolev_distance(data, f, m - l) for f in mollified]
        if min(errs) < 1e-13 * hm:
            fits.append(NO_FIT)
            passed.append(0.0)
            case_verdicts.append("inconclusive")
            continue
        f = RateFit.fit(eps_ladder, errs)
        if l == 0:
            ok = max(errs) <= th["bound_const"] * hm
        else:
            band = th["slope_band"]
            ok = (
                (1.0 - band) * l <= f.slope <= (1.0 + band) * l
                and f.r_squared >= th["r2_min"]
            )
        fits.append(f)
        passed.append(1.0 if ok else 0.0)
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
            "num_modes": data.grid.num_modes,
            "eps_ladder": eps_ladder,
            "data_hm_norm": hm,
        },
        thresholds=dict(th),
        tables={"errors": table,
                "fits": {**_fits_table(l_values, fits), "passed": passed}},
        verdict=verdict,
    )


def eps_convergence_study(data, coeffs, t_end, eps_ladder, cfg):
    """Vanishing-regularization convergence of the damped runs.

    Each ladder point solves the regularized problem with strength ε and
    data mollified at the same ε; the reference uses
    ε_min/``EPS_REF_DIVISOR``. Passes when the H^m differences (m =
    cfg.sobolev_index_m) decrease monotonically along the ladder and the
    fitted H^1 order is at least ``min_h1_order``
    (``EPS_CONVERGENCE_THRESHOLDS``). The ladder needs two or more distinct
    entries, each in (0, 1], and t_end must be > 0.
    """
    m = cfg.sobolev_index_m
    if m < 4:
        raise InputError("sobolev_index_m", f"must be >= 4 for this study, got {m}")
    # two entries are the fewest a rate can be fitted to; (0, 1] is mollify's range
    check_entries("eps_ladder", eps_ladder, lambda e: 0.0 < e <= 1.0, "lie in (0, 1]")
    check_t_end(t_end)
    ladder = sorted(eps_ladder, reverse=True)
    eps_ref = min(ladder) / EPS_REF_DIVISOR
    epsilons = [eps_ref] + ladder
    runs = integrate_many([mollify(data, e) for e in epsilons], t_end, cfg, coeffs,
                          epsilons=epsilons)
    ref = runs[0].state
    h1_diffs = []
    hm_diffs = []
    for run in runs[1:]:
        state = run.state
        h1_diffs.append(sobolev_distance(state, ref, 1))
        hm_diffs.append(sobolev_distance(state, ref, m))
    tables = {
        "differences": {
            "param": list(ladder),
            "h1_diff": h1_diffs,
            "hm_diff": hm_diffs,
        }
    }
    th = EPS_CONVERGENCE_THRESHOLDS
    fit = RateFit.fit(ladder, h1_diffs)
    tables["fits"] = _fits_table([1.0], [fit])
    monotone = all(hm_diffs[i] > hm_diffs[i + 1] for i in range(len(hm_diffs) - 1))
    verdict = "pass" if (monotone and fit.slope >= th["min_h1_order"]) else "fail"
    return StudyResult(
        name="eps_convergence",
        parameters={
            "m": m,
            "t_end": t_end,
            "dt": cfg.dt,
            "eps_ladder": list(ladder),
            "eps_ref": eps_ref,
            "num_modes": data.grid.num_modes,
        },
        thresholds=dict(th),
        tables=tables,
        verdict=verdict,
    )


def _max_quotient(times, values):
    """max over steps of |ΔE/Δt| / E², the differential-inequality quotient."""
    t = np.asarray(times)
    v = np.asarray(values)
    dv = np.abs(np.diff(v)) / np.diff(t)
    return float(np.max(dv / v[:-1] ** 2))


def in_worker(fn, args, meanwhile):
    """``(meanwhile(), fn(*args))``, with ``fn(*args)`` computed in a forked
    worker process while this process runs ``meanwhile()``.

    The worker pickles its value, or the exception it raised, into a pipe
    and always leaves through ``os._exit``: it never flushes this process's
    inherited stdio buffers or runs its exit handlers. If ``meanwhile``
    raises, the worker is killed and reaped before the exception goes on, so
    it takes precedence; otherwise the worker's exception, if any, is raised
    here with its type, message and attributes. A worker that ends without
    sending a result is a RuntimeError naming its exit status. Needs
    ``os.fork`` (Linux, macOS): where it is missing, a ValueError before
    either call starts. The worker has only the calling thread, so
    ``fn`` must not wait on a lock or pool of another thread; the stepper
    uses numpy's FFTs and elementwise kernels, which need none. Its two
    callers are ``riccati_study`` (the dt/8 order run) and
    ``streamed_table`` (simulate's trajectory writer).
    """
    if not hasattr(os, "fork"):
        raise ValueError("this command runs a worker process through os.fork, "
                         "which this platform lacks (Linux and macOS have it)")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker
        status = 1
        try:
            os.close(read_end)
            try:
                result = (True, fn(*args))
            except BaseException as exc:
                result = (False, exc)
            with open(write_end, "wb") as out:
                pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with open(read_end, "rb") as results:
        try:
            own = meanwhile()
            payload = results.read()  # to EOF: the worker has closed its end
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"worker process {pid} ended without a result ({how})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return own, value


def streamed_table(outdir, fname, names, produce):
    """``produce(send_row)``, with the rows it sends written to the CSV
    table ``fname`` in ``outdir`` by a forked worker (``in_worker``) while
    this process goes on producing them.

    ``send_row(values)`` checks the row's length in this process, where a
    row of another length is ``table_rows``' ValueError, and sends the row
    to the worker as float64 bytes over a pipe. The worker formats each row
    with ``table_rows``' ``write_row``, so the bytes are the ones a serial
    ``table_rows`` writes. The header is flushed before the fork and the
    worker flushes its rows before it leaves, so each is written once. An
    error of ``produce`` wins and the worker is killed. A worker that fails
    stops reading: its own error (an OSError, say), or the RuntimeError of
    a worker that died, is raised rather than the broken pipe this process
    meets on its next send. On any error the ``.part`` file is removed.
    """
    names = list(names)
    with table_rows(outdir, fname, names) as write_row:
        write_row.flush()  # the header, before the worker inherits the buffer
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as rows_in, open(write_end, "wb") as rows_out:
            def write_rows():  # in the worker
                rows_out.close()
                for row in iter(partial(rows_in.read, 8 * len(names)), b""):
                    write_row(np.frombuffer(row).tolist())
                write_row.flush()

            def send_row(values):
                _check_row(fname, names, values)
                rows_out.write(np.ascontiguousarray(values, dtype=np.float64))

            broken = []

            def stream():
                rows_in.close()
                try:
                    with rows_out:
                        return produce(send_row)
                except BrokenPipeError as exc:  # the worker's error, if any, wins
                    broken.append(exc)

            own, _ = in_worker(write_rows, (), stream)
            if broken:  # the worker read to the end: the pipe was not the cause
                raise broken[0]
    return own


def _final_state(data, t_end, cfg, coeffs):
    return integrate(data, t_end, cfg, coeffs).state


def _stepper_order(coarse, fine, finest, m):
    """Observed order of the stepper: log2 of the H^m errors of its final
    states at dt (``coarse``) and dt/2 (``fine``), each against the state
    at dt/8 (``finest``), which stands in for the exact solution.
    ``riccati_study`` computes ``finest`` in a worker process: it is the
    longest of the study's runs, 8 coarse runs' worth of steps."""
    e_coarse = sobolev_distance(coarse, finest, m)
    e_fine = sobolev_distance(fine, finest, m)
    if e_fine <= 0.0:
        return float("inf")
    return float(np.log2(e_coarse / e_fine))


def check_riccati(family, coeffs, t_end):
    """The checks of ``riccati_study``'s arguments that need no c_m, so that
    a caller can make them before it certifies one: an InputError for a
    family of fewer than two members or a t_end that is not > 0 and finite,
    and a ValueError for a linear coefficient set (its energies are
    constant, so every quotient is 0) or a family on more than one grid."""
    if len(family) < 2:  # growth from first to last member needs two
        raise InputError("family", f"needs at least two members, got {len(family)}")
    check_t_end(t_end)
    if coeffs.is_linear:
        raise ValueError("the riccati contrast needs a nonlinearity, but every lambda is 0")
    if any(f.grid != family[0].grid for f in family):
        raise ValueError("family must share one grid")


def riccati_study(family, coeffs, cfg, t_end, c_m):
    """Growth-quotient contrast between the corrected and plain energies.

    For each family member (same H^m size, rising frequency content) the
    run records Q = max |ΔE/Δt|/E² for the corrected energy and for the
    plain ‖∂^m ψ‖² + ‖ψ‖² energy, m = cfg.sobolev_index_m. Passes when the
    corrected quotient stays within a ``spread_max`` band across the family
    while the plain quotient grows by ``raw_growth_min`` from first to last
    member. The verdict is only trusted (not inconclusive) if the stepper
    shows order ≥ ``min_order`` on the first member (all three in
    ``RICCATI_THRESHOLDS``). Every run is unregularized (ε = 0). Its
    arguments pass ``check_riccati`` first; then a negative c_m, energies
    whose square underflows (the family's) and a t_end too short for the
    energies to move (a quotient the contrast divides by is 0) are
    InputErrors.

    The family runs as one ensemble, whose observer reduces each step's
    (B, N) block to the members' energies, both sums of one
    ``energy_terms_rows``. The order compares the first member's runs at dt
    (taken from the family batch) and dt/2 with its run at dt/8. That dt/8
    run is most of the study's steps and needs none of the others, so it
    goes to a forked worker (``in_worker``) and runs on a second core while
    this process runs the family and the dt/2 run. Every value is the one
    the serial runs give, and errors keep their order: the family's, then
    dt/2's, then dt/8's.
    """
    check_riccati(family, coeffs, t_end)
    if c_m < 0.0:
        raise InputError("c_m", f"must be nonnegative, got {c_m}")
    grid = family[0].grid
    m = cfg.sobolev_index_m
    series = [[] for _ in family]  # (time, corrected, plain energy) per sample

    def record(time, rows, members):
        terms = energy_terms_rows(rows, m, coeffs)
        modified = terms.energy(c_m).tolist()
        plain = (terms.deriv_sq + terms.l2_sq).tolist()
        if time == 0.0 and min(e * e for e in modified + plain) < np.finfo(float).tiny:
            raise InputError("family", "is so small that its energies' E^2 underflow")
        for member, mod, raw in zip(members, modified, plain):
            series[member].append((time, mod, raw))

    def family_and_fine():
        runs = integrate_many(family, t_end, cfg, coeffs, record)
        fine = _final_state(family[0], t_end, replace(cfg, dt=cfg.dt * 0.5), coeffs)
        return runs[0].state, fine

    (coarse, fine), finest = in_worker(
        _final_state, (family[0], t_end, replace(cfg, dt=cfg.dt * 0.125), coeffs),
        family_and_fine,
    )
    order = _stepper_order(coarse, fine, finest, m)
    q_mod = []
    q_raw = []
    freq_span = []
    for member, samples in zip(family, series):
        times, mods, raws = zip(*samples)
        q_mod.append(_max_quotient(times, mods))
        q_raw.append(_max_quotient(times, raws))
        populated = np.abs(member.coeffs) > 1e-14 * np.abs(member.coeffs).max()
        freq_span.append(float(np.max(np.abs(grid.modes[populated]))))
    if min(q_mod) == 0.0 or q_raw[0] == 0.0:
        raise InputError("t_end", f"{t_end} is too short for the energies to move, so a "
                                  "growth quotient is 0 and the contrast unmeasurable")
    spread = max(q_mod) / min(q_mod)
    growth = q_raw[-1] / q_raw[0]
    th = RICCATI_THRESHOLDS
    contrast_ok = spread <= th["spread_max"] and growth >= th["raw_growth_min"]
    if order < th["min_order"]:
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
        thresholds=dict(th),
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


def continuity_study(phi, delta_ladder, coeffs, t_end, cfg, rng_seed):
    """Data-to-solution continuity: perturbation growth and Gronwall quotient.

    Perturbs phi by seeded random fields of H^m size δ (m =
    cfg.sobolev_index_m), integrates all runs as one ensemble, and records
    sup_t of the H^1 difference plus the quotient Ẽ₁(t)/Ẽ₁(0) of the
    difference energy around the base trajectory, summed as
    ``difference_energy`` sums it from four numbers kept per step. The
    positivity constant of Ẽ₁ is measured from the recorded series (twice
    the smallest value keeping Ẽ₁ ≥ ½‖·‖²_{H^1}, floored at 1), never
    assumed. Passes when sup-differences scale like δ within ``slope_band``
    and the quotient band across the ladder stays within
    ``quotient_spread_max`` (``CONTINUITY_THRESHOLDS``). The ladder needs
    two or more distinct δ, each positive and finite and small enough that
    the perturbed data's H^m norm squared is finite, and t_end > 0; every
    run is unregularized (ε = 0).
    """
    check_entries("delta_ladder", delta_ladder, lambda d: 0.0 < d < math.inf,
                  "be positive and finite")
    check_t_end(t_end)
    m = cfg.sobolev_index_m
    # a perturbation of H^m size delta leaves the data's H^m norm at most
    # its own plus delta, whose square the stepper's first check computes
    bound = refusing(lambda: f"the initial data has a non-finite H^m norm (m={m})",
                     sobolev_norm, phi, m)
    for delta in delta_ladder:
        if not (bound + delta) * (bound + delta) < math.inf:
            raise InputError("delta_ladder", f"entry {delta!r} is too large: the "
                             f"perturbed data's H^m norm (m={m}) overflows")
    deltas = sorted(delta_ladder, reverse=True)
    perturbed = [
        SpectralField(phi.grid, phi.coeffs + random_field(
            phi.grid, rng_for(rng_seed, i), decay=float(m), hm_norm=delta, m=m
        ).coeffs)
        for i, delta in enumerate(deltas)
    ]
    # per perturbed run and sample, while the base run is live too: ‖∂d‖²,
    # ‖d‖², ‖d‖²_{H¹} and the quartic term of its difference d from the base
    terms = [[] for _ in deltas]

    def record(time, rows, members):
        if members[0] != 0 or len(members) == 1:
            return  # the base run, or every perturbed one, has halted
        diffs = rows[0] - rows[1:]
        values = zip(seminorm_sq_rows(diffs, 1).tolist(),
                     sobolev_norm_sq_rows(diffs, 0).tolist(),
                     sobolev_norm_sq_rows(diffs, 1).tolist(),
                     difference_quartic_rows(diffs, rows[0], 1, coeffs).tolist())
        for member, row in zip(members[1:], values):
            terms[member - 1].append(row)

    integrate_many([phi] + perturbed, t_end, cfg, coeffs, record)

    def energies(run, c):  # Ẽ₁ along a run, as difference_energy sums it
        return [s + c * l2_sq + quartic for s, l2_sq, _, quartic in run]

    # measured positivity constant for the difference energy
    c_tilde_req = 1.0
    for run in terms:
        for (_, l2_sq, h1_sq, _), base_energy in zip(run, energies(run, 0.0)):
            if l2_sq <= 0.0:
                continue
            need = (0.5 * h1_sq - base_energy) / l2_sq
            c_tilde_req = max(c_tilde_req, need)
    c_tilde = 2.0 * c_tilde_req
    sup_h1 = []
    quotients = []
    growth_rates = []
    for run in terms:
        sup_h1.append(max(math.sqrt(h1_sq) for _, _, h1_sq, _ in run[1:]))
        e1 = energies(run, c_tilde)
        q = max(e / e1[0] for e in e1) if e1[0] > 0 else float("nan")
        quotients.append(float(q))
        growth_rates.append(float(np.log(max(q, 1e-300)) / t_end))
    fit = RateFit.fit(deltas, sup_h1)
    spread = max(quotients) / min(quotients)
    th = CONTINUITY_THRESHOLDS
    ok = (
        (1.0 - th["slope_band"]) <= fit.slope <= (1.0 + th["slope_band"])
        and spread <= th["quotient_spread_max"]
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
        thresholds=dict(th),
        tables={
            "scaling": {
                "param": list(deltas),
                "sup_h1_diff": sup_h1,
                "gronwall_quotient": quotients,
                "implied_rate": growth_rates,
            },
            "fits": _fits_table([1.0], [fit]),
        },
        verdict="pass" if ok else "fail",
    )


GN_CASES = ((1, 2, 2.0), (1, 2, float("inf")), (0, 1, float("inf")), (3, 4, 2.0))
SWEEP_RESOLUTIONS = (64, 128)


def _gn_rows(grid, rngs):
    """Interpolation-sweep draws, one row per generator: random envelope
    decay, modes |n| <= N/4."""
    decays = [float(rng.uniform(0.5, 2.5)) for rng in rngs]
    return random_rows(grid, rngs, decays, [grid.num_modes // 4] * len(rngs))


def _ranges(firsts, count):
    """The indices first, …, first + count - 1 of each of ``firsts``, in turn."""
    return [first + i for first in firsts for i in range(count)]


def inequality_sweeps(seed, trials, m=4, nu=1.0, l2_ceiling=1.0):
    """Bundled randomized checks of the interpolation inequality, the
    smoothing-multiplier bound, and the two-sided energy equivalence, on
    the ``GN_CASES`` at ``SWEEP_RESOLUTIONS``.

    Certifies its own c_m (``max(trials // 2, 50)`` trials, seed + 1).
    Passes only with zero violations: every interpolation ratio finite with
    the empirical constant growing at most ``gn_growth_max`` under
    resolution doubling; every smoothing multiplier below its closed-form
    bound; every sampled field satisfying the certified lower energy bound,
    with the upper equivalence constant within ``upper_spread_max`` under
    resolution doubling (``INEQUALITY_THRESHOLDS``).

    Sample i of each sweep depends only on (seed, i), so growing ``trials``
    never changes earlier samples: its generator draws the stream of
    ``rng_for`` of the sweep's seed and sample index,
    ``np.random.default_rng([seed, index])``, from a seed state derived
    with the rest of its seed's in one ``sampling.rng_states`` call. Each
    resolution's samples are drawn and evaluated as (B, N) blocks of at
    most ``BLOCK_ROWS`` rows (``spectral.row_blocks``), one block at a
    time; every verdict input is bit for bit what drawing and evaluating
    the samples one at a time gives.
    """
    if trials < 1:
        raise InputError("trials", f"must be >= 1, got {trials}")
    coeffs = integrable_coefficients(nu)
    cert_trials = max(trials // 2, 50)
    c_m = certify_cm(m, coeffs, l2_ceiling, trials=cert_trials,
                     rng_seed=seed + 1, target="sobolev").c_m
    th = INEQUALITY_THRESHOLDS
    resolutions = SWEEP_RESOLUTIONS
    tables = {}
    failures = []

    # interpolation-ratio sweep; the seed states of every (case, resolution)
    # range at once, taken in the loops' order
    gn_firsts = [case_idx * 1_000_000 + n * 1_000
                 for case_idx in range(len(GN_CASES)) for n in resolutions]
    gn_states = iter(rng_states(seed, _ranges(gn_firsts, trials)).reshape(-1, trials, 4))
    gn_rows = {"param": [], "l": [], "m": [], "inv_p": [], "max_ratio": [], "growth": []}
    for case_idx, (l, mm, p) in enumerate(GN_CASES):
        max_ratio = {}
        for n in resolutions:
            grid = GridSpec(n)
            worst = 0.0
            states = next(gn_states)
            for block in row_blocks(trials):
                rows = _gn_rows(grid, rngs_from(states[block]))
                for ratio in gn_ratio_rows(rows, l, mm, p).tolist():
                    worst = max(worst, ratio)
            max_ratio[n] = worst
        growth = max_ratio[resolutions[-1]] / max_ratio[resolutions[0]]
        gn_rows["param"].append(float(case_idx))
        gn_rows["l"].append(float(l))
        gn_rows["m"].append(float(mm))
        gn_rows["inv_p"].append(0.0 if np.isinf(p) else 1.0 / p)
        gn_rows["max_ratio"].append(max_ratio[resolutions[-1]])
        gn_rows["growth"].append(growth)
        if not np.isfinite(max_ratio[resolutions[-1]]) or growth > th["gn_growth_max"]:
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
    firsts = [n * 1_000_000 for n in resolutions]
    energy_states = rng_states(seed + 2, _ranges(firsts, trials)).reshape(-1, trials, 4)
    for n, states in zip(resolutions, energy_states):
        grid = GridSpec(n)
        c_upper = 0.0
        for block in row_blocks(trials):
            rows = certificate_rows(grid, rngs_from(states[block]), l2_ceiling)
            terms = energy_terms_rows(rows, m, coeffs)
            energies = terms.energy(c_m).tolist()
            hm_sqs = sobolev_norm_sq_rows(rows, m).tolist()
            l2_sqs = terms.l2_sq.tolist()
            for e_val, hm_sq, l2_sq in zip(energies, hm_sqs, l2_sqs):
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
    if not 1.0 / th["upper_spread_max"] <= upper_ratio <= th["upper_spread_max"]:
        failures.append("energy upper constant stability")

    return StudyResult(
        name="inequality_sweeps",
        parameters={
            "seed": seed,
            "trials": trials,
            "m": m,
            "nu": nu,
            "resolutions": list(resolutions),
            "c_m": c_m,
            "certificate_trials": cert_trials,
            "l2_ceiling": l2_ceiling,
            "failures": failures,
        },
        thresholds=dict(th),
        tables=tables,
        verdict="pass" if not failures else "fail",
    )
