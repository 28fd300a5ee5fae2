"""Command-line surface: batch simulations and studies with persisted runs.

Configuration precedence: command-line flags override config-file keys,
which override built-in defaults. The config file is a flat ``key = value``
text format (``#`` comments allowed) whose keys are the long option names
of the subcommand with dashes replaced by underscores; any other key is a
usage error. The output directory may additionally be forced through the
``TORUS4NLS_OUTDIR`` environment variable, which takes precedence over
every other source (and is the only env override).

Exit codes: 0 pass/complete, 1 study failure, 2 usage error, 3 solver
error (Picard non-convergence or non-finite state).
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    CoefficientSet,
    NonConvergence,
    NonFinite,
    SolverConfig,
    integrate,
)
from .exact import (
    integrable_coefficients,
    pde_residual,
    plane_wave,
    standing_wave_frequency,
)
from .experiments import (
    bona_smith_rate_study,
    conservation_study,
    continuity_study,
    eps_convergence_study,
    inequality_sweeps,
    riccati_study,
    write_manifest,
    write_study,
    write_table,
)
from .functionals import EnergyRecorder, certify_cm
from .sampling import decay_field, mode_pair_field, random_field, rng_for
from .spectral import GridSpec, SpectralField, zero_field

CONFIG_HELP = """\
config file: flat `key = value` lines, `#` starts a comment; keys are the
long option names of the subcommand with `-` replaced by `_` (example:
`num_modes = 128`); other keys, `config` and repeated keys are rejected.

data specs:
  modes:n=1:amp=0.5:phase=0.0,n=-2:amp=0.1   explicit mode list
  standing:kappa=0.3:tau=1                    plane wave kappa e^{i tau x}
  decay:s=4.6:amp=1.0                         spectrum amp*<n>^-s
  random:seed=7:decay=2.0:l2=0.5              seeded random field
  random:seed=7:decay=2.0:hm=0.4:m=4          ...rescaled in H^m instead
ladders (eps/deltas): comma-separated floats; `2^-3` exponent form allowed.
"""


def _parse_number(tok):
    tok = tok.strip()
    if "^" in tok:
        base, exp = tok.split("^", 1)
        return float(base) ** float(exp)
    return float(tok)


def parse_ladder(text):
    vals = [_parse_number(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise ValueError("empty ladder")
    return vals


def _parse_kv(chunks, what, allowed):
    out = {}
    for chunk in chunks:
        k, eq, v = (part.strip() for part in chunk.partition("="))
        if not eq:
            raise ValueError(f"malformed {what} entry {chunk!r} (expected key=value)")
        if k not in allowed or k in out:
            raise ValueError(f"{what} spec: unknown or repeated key {k!r}")
        out[k] = v
    return out


def parse_data_spec(spec, grid):
    """Build initial data from the mini-language (see module help)."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "modes":
        f = zero_field(grid)
        coeffs = np.array(f.coeffs)
        seen = set()
        for entry in rest.split(","):
            kv = _parse_kv(entry.split(":"), "modes", ("n", "amp", "phase"))
            n = int(kv["n"])
            if n in seen:
                raise ValueError(f"modes spec: mode {n} given twice")
            seen.add(n)
            amp = float(kv.get("amp", "1.0"))
            phase = float(kv.get("phase", "0.0"))
            half = grid.num_modes // 2
            if not -half <= n < half:
                raise ValueError(f"mode {n} outside resolved band")
            coeffs[n % grid.num_modes] = amp * np.exp(1j * phase)
        return SpectralField(grid, coeffs)
    if kind == "standing":
        kv = _parse_kv([c for c in rest.split(":") if c], "standing", ("kappa", "tau"))
        return plane_wave(grid, float(kv.get("kappa", "0.3")), int(kv.get("tau", "1")))
    if kind == "decay":
        kv = _parse_kv([c for c in rest.split(":") if c], "decay", ("s", "amp"))
        return decay_field(grid, float(kv["s"]), amp=float(kv.get("amp", "1.0")))
    if kind == "random":
        kv = _parse_kv([c for c in rest.split(":") if c], "random",
                       ("seed", "decay", "l2", "hm", "m", "maxmode"))
        rng = rng_for(int(kv.get("seed", "0")))
        kwargs = {"decay": float(kv.get("decay", "2.0"))}
        if "l2" in kv:
            kwargs["l2_mass"] = float(kv["l2"])
        if "hm" in kv:
            kwargs["hm_norm"] = float(kv["hm"])
        if "hm" in kv or "m" in kv:
            kwargs["m"] = int(kv.get("m", "4"))
        if "maxmode" in kv:
            kwargs["max_mode"] = int(kv["maxmode"])
        return random_field(grid, rng, **kwargs)
    raise ValueError(f"unknown data spec kind {kind!r}")


def read_config(path):
    cfg = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in cfg:
            raise ValueError(f"config key {k!r} given twice")
        cfg[k] = v
    return cfg


LAMBDA_KEYS = ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6")


def add_common(parser, *, data=False, solver=False, coeffs=False, seed=False):
    parser.add_argument("--outdir", help="output directory (default ./runs)")
    parser.add_argument("--config", help="flat key=value config file")
    if data:
        parser.add_argument("--data", help="initial data spec (see --help)")
        parser.add_argument("--num-modes", type=int, help="grid size N")
    if solver:
        parser.add_argument("--dt", type=float, help="time step")
        parser.add_argument("--t-end", type=float, help="final time")
        parser.add_argument("--eps", type=float, help="regularization strength")
        parser.add_argument("--m", type=int, help="Sobolev index")
        parser.add_argument("--pad", type=int, help="dealias pad factor override")
    if coeffs:
        parser.add_argument("--nu", type=float, help="fourth-order dispersion")
        parser.add_argument(
            "--integrable", action="store_true", default=None,
            help="use the completely integrable coefficient set for nu",
        )
        for key in LAMBDA_KEYS:
            parser.add_argument(f"--{key}", type=float, help=f"{key} weight")
    if seed:
        parser.add_argument("--seed", type=int, help="random seed")


class Options:
    """Flag > config-file > default resolution for one subcommand."""

    def __init__(self, args, defaults):
        self.args = vars(args)
        self.defaults = defaults
        self.config = read_config(args.config) if args.config else {}
        known = set(self.args) - {"config", "command", "func"}  # not options
        unknown = sorted(set(self.config) - known)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")

    def get(self, key, cast=None):
        flag = self.args.get(key)
        if flag is not None:
            return flag
        if key in self.config:
            raw = self.config[key]
            return cast(raw) if cast else raw
        return self.defaults.get(key)


def resolve_outdir(opts):
    env = os.environ.get("TORUS4NLS_OUTDIR")
    if env:
        return Path(env)
    return Path(opts.get("outdir") or "runs")


def _parse_bool(text):
    """Config-file switch: 1/true/yes or 0/false/no, in any case."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


def build_coeffs(opts):
    nu = float(opts.get("nu", cast=float))
    if opts.get("integrable", cast=_parse_bool):
        given = [k for k in LAMBDA_KEYS if opts.get(k) is not None]
        if given:
            raise ValueError(f"--integrable fixes the lambdas; drop {', '.join(given)}")
        return integrable_coefficients(nu)
    lams = {k: float(opts.get(k, cast=float) or 0.0) for k in LAMBDA_KEYS}
    return CoefficientSet(nu=nu, **lams)


def build_solver_config(opts):
    return SolverConfig(
        dt=float(opts.get("dt", cast=float)),
        epsilon=float(opts.get("eps", cast=float) or 0.0),
        dealias_pad_factor=opts.get("pad", cast=int),
        sobolev_index_m=int(opts.get("m", cast=int)),
    )


def _report(path):
    print(f"  wrote {path}")


def finish_study(result, outdir):
    paths = write_study(result, outdir)
    print(f"{result.name}: verdict={result.verdict}")
    for p in paths:
        _report(p)
    return 0 if result.verdict == "pass" else 1


def cmd_simulate(args):
    defaults = {"num_modes": 64, "dt": 1e-3, "t_end": 0.1, "eps": 0.0, "m": 4,
                "nu": 1.0, "data": "decay:s=5.0:amp=0.05"}
    opts = Options(args, defaults)
    outdir = resolve_outdir(opts)
    grid = GridSpec(int(opts.get("num_modes", cast=int)))
    data = parse_data_spec(opts.get("data"), grid)
    coeffs = build_coeffs(opts)
    cfg = build_solver_config(opts)
    t_end = float(opts.get("t_end", cast=float))
    rec = EnergyRecorder(cfg.sobolev_index_m, coeffs)
    samples = []
    run = integrate(data, t_end, cfg, coeffs, observers=[rec, samples.append])
    order = np.argsort(grid.modes)
    states = np.array([s.state.coeffs[order] for s in samples])
    trajectory = {"time": [s.time for s in samples]}
    for n, column in zip(grid.modes[order], states.T):
        trajectory[f"re_n{int(n)}"] = column.real
        trajectory[f"im_n{int(n)}"] = column.imag
    rep = rec.report.validate()
    energy = {
        "time": rep.times,
        "h_m_norm_sq": rep.h_m_norm_sq,
        "deriv_m_norm_sq": rep.deriv_m_norm_sq,
        "l2_norm_sq": rep.l2_norm_sq,
        "modified_energy": rep.modified_energy,
        "i0": rep.i0,
        "i1": rep.i1,
        "i2": rep.i2,
    }
    _report(write_table(outdir, "simulate__trajectory.csv", trajectory))
    _report(write_table(outdir, "simulate__energy.csv", energy))
    _report(write_manifest(outdir, "simulate", {
        "parameters": {
            "data": opts.get("data"), "num_modes": grid.num_modes,
            "dt": cfg.dt, "t_end": t_end, "epsilon": cfg.epsilon,
            "m": cfg.sobolev_index_m, "nu": coeffs.nu,
            "lambdas": coeffs.lambdas,
        },
        "thresholds": {},
        "blow_up_suspected": run.blowup_time is not None,
        "final_time": run.final.time,
    }))
    return 0


def cmd_conserve(args):
    defaults = {"num_modes": 64, "dt": 2e-3, "t_end": 0.1, "eps": 0.0, "m": 4,
                "nu": 1.0, "data": "random:seed=42:decay=2.0:hm=0.4:m=4:maxmode=4"}
    opts = Options(args, defaults)
    grid = GridSpec(int(opts.get("num_modes", cast=int)))
    data = parse_data_spec(opts.get("data"), grid)
    cfg = build_solver_config(opts)
    result = conservation_study(
        data, float(opts.get("nu", cast=float)),
        float(opts.get("t_end", cast=float)), cfg,
    )
    return finish_study(result, resolve_outdir(opts))


def cmd_bona_smith(args):
    defaults = {"m": 4, "num_modes": 1024, "l_values": "0,1,2"}
    opts = Options(args, defaults)
    l_values = [int(v) for v in str(opts.get("l_values")).split(",")]
    result = bona_smith_rate_study(
        int(opts.get("m", cast=int)), l_values,
        num_modes=int(opts.get("num_modes", cast=int)),
    )
    return finish_study(result, resolve_outdir(opts))


def cmd_eps_converge(args):
    defaults = {"num_modes": 64, "dt": 5e-4, "t_end": 0.02, "m": 4, "nu": 1.0,
                "eps": 0.0, "eps_ladder": "2^-3,2^-4,2^-5,2^-6,2^-7",
                "data": "random:seed=7:decay=8.0:hm=0.4:m=4"}
    opts = Options(args, defaults)
    grid = GridSpec(int(opts.get("num_modes", cast=int)))
    data = parse_data_spec(opts.get("data"), grid)
    coeffs = build_coeffs(opts)
    cfg = build_solver_config(opts)
    result = eps_convergence_study(
        data, int(opts.get("m", cast=int)), coeffs,
        float(opts.get("t_end", cast=float)),
        parse_ladder(str(opts.get("eps_ladder"))), cfg,
    )
    return finish_study(result, resolve_outdir(opts))


def cmd_riccati(args):
    defaults = {"num_modes": 256, "dt": 1e-6, "t_end": 2e-4, "m": 4, "nu": 1.0,
                "seps": "4,8,16,32", "hm_size": 2.0,
                "cm_trials": 60, "seed": 2024, "ceiling": 1.0}
    opts = Options(args, defaults)
    grid = GridSpec(int(opts.get("num_modes", cast=int)))
    coeffs = build_coeffs(opts)
    m = int(opts.get("m", cast=int))
    cert = certify_cm(
        m, coeffs, float(opts.get("ceiling", cast=float)),
        trials=int(opts.get("cm_trials", cast=int)),
        rng_seed=int(opts.get("seed", cast=int)), target="sobolev",
    )
    seps = [int(v) for v in str(opts.get("seps")).split(",")]
    hm = float(opts.get("hm_size", cast=float))
    family = [mode_pair_field(grid, k, hm, m) for k in seps]
    cfg = build_solver_config(opts)
    result = riccati_study(
        family, m, coeffs, cfg, float(opts.get("t_end", cast=float)), cert.c_m,
    )
    result.parameters["separations"] = seps
    return finish_study(result, resolve_outdir(opts))


def cmd_continuity(args):
    defaults = {"num_modes": 64, "dt": 1e-3, "t_end": 0.05, "m": 4, "nu": 1.0,
                "eps": 0.0, "deltas": "1e-2,1e-3,1e-4,1e-5", "seed": 7,
                "data": "random:seed=11:decay=6.0:hm=0.4:m=4"}
    opts = Options(args, defaults)
    grid = GridSpec(int(opts.get("num_modes", cast=int)))
    data = parse_data_spec(opts.get("data"), grid)
    coeffs = build_coeffs(opts)
    cfg = build_solver_config(opts)
    result = continuity_study(
        data, parse_ladder(str(opts.get("deltas"))),
        int(opts.get("m", cast=int)), coeffs,
        float(opts.get("t_end", cast=float)), cfg,
        int(opts.get("seed", cast=int)),
    )
    return finish_study(result, resolve_outdir(opts))


def cmd_sweep_inequalities(args):
    defaults = {"trials": 200, "seed": 123, "m": 4, "nu": 1.0, "ceiling": 1.0}
    opts = Options(args, defaults)
    result = inequality_sweeps(
        int(opts.get("seed", cast=int)), int(opts.get("trials", cast=int)),
        m=int(opts.get("m", cast=int)), nu=float(opts.get("nu", cast=float)),
        l2_ceiling=float(opts.get("ceiling", cast=float)),
    )
    return finish_study(result, resolve_outdir(opts))


def cmd_standing_wave(args):
    defaults = {"kappa": 0.3, "tau": 1, "nu": 1.0, "num_modes": 64}
    opts = Options(args, defaults)
    coeffs = build_coeffs(opts)
    kappa = float(opts.get("kappa", cast=float))
    tau = int(opts.get("tau", cast=int))
    grid = GridSpec(int(opts.get("num_modes", cast=int)))
    psi0 = plane_wave(grid, kappa, tau)
    omega = standing_wave_frequency(kappa, tau, coeffs)
    residual = pde_residual(psi0, omega, coeffs)
    print(f"omega = {omega!r}")
    print(f"residual_l2 = {residual!r}")
    _report(write_manifest(resolve_outdir(opts), "standing_wave", {
        "parameters": {"kappa": kappa, "tau": tau, "nu": coeffs.nu,
                       "lambdas": coeffs.lambdas, "num_modes": grid.num_modes},
        "thresholds": {},
        "omega": omega,
        "residual_l2": residual,
    }))
    return 0


def cmd_certify_cm(args):
    defaults = {"m": 4, "nu": 1.0, "ceiling": 1.0, "trials": 200, "seed": 31,
                "target": "classic"}
    opts = Options(args, defaults)
    coeffs = build_coeffs(opts)
    cert = certify_cm(
        int(opts.get("m", cast=int)), coeffs,
        float(opts.get("ceiling", cast=float)),
        trials=int(opts.get("trials", cast=int)),
        rng_seed=int(opts.get("seed", cast=int)),
        target=str(opts.get("target")),
    )
    print(f"c_m = {cert.c_m!r} (worst margin {cert.worst_margin!r})")
    _report(write_manifest(resolve_outdir(opts), "certify_cm", {
        "parameters": {"m": cert.m, "nu": coeffs.nu, "lambdas": coeffs.lambdas,
                       "l2_ceiling": cert.l2_ceiling, "trials": cert.trials,
                       "rng_seed": cert.rng_seed, "target": cert.target,
                       "resolutions": cert.resolutions},
        "thresholds": {"worst_margin_min": 0.0},
        "c_m": cert.c_m,
        "worst_margin": cert.worst_margin,
    }))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torus4nls",
        description="Pseudospectral studies for a fourth-order NLS-type "
                    "equation on the torus.",
        epilog=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate and persist a trajectory")
    add_common(p, data=True, solver=True, coeffs=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("conserve", help="invariant-drift study (integrable case)")
    add_common(p, data=True, solver=True)
    p.add_argument("--nu", type=float, help="fourth-order dispersion")
    p.set_defaults(func=cmd_conserve)

    p = sub.add_parser("bona-smith", help="mollification rate study")
    add_common(p)
    p.add_argument("--m", type=int, help="Sobolev index")
    p.add_argument("--num-modes", type=int)
    p.add_argument("--l-values", help="comma list of l offsets")
    p.set_defaults(func=cmd_bona_smith)

    p = sub.add_parser("eps-converge", help="vanishing-regularization study")
    add_common(p, data=True, solver=True, coeffs=True)
    p.add_argument("--eps-ladder", help="comma list (2^-k allowed)")
    p.set_defaults(func=cmd_eps_converge)

    p = sub.add_parser("riccati", help="energy growth-quotient contrast study")
    add_common(p, solver=True, coeffs=True, seed=True)
    p.add_argument("--num-modes", type=int)
    p.add_argument("--seps", help="comma list of mode separations")
    p.add_argument("--hm-size", type=float, help="family H^m norm")
    p.add_argument("--cm-trials", type=int, help="certification trials")
    p.add_argument("--ceiling", type=float, help="certification L2 ceiling")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("continuity", help="data-to-solution continuity study")
    add_common(p, data=True, solver=True, coeffs=True, seed=True)
    p.add_argument("--deltas", help="comma list of perturbation sizes")
    p.set_defaults(func=cmd_continuity)

    p = sub.add_parser("sweep-inequalities", help="bundled inequality sweeps")
    add_common(p, seed=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--ceiling", type=float)
    p.set_defaults(func=cmd_sweep_inequalities)

    p = sub.add_parser("standing-wave", help="emit the rotation rate and residual")
    add_common(p, coeffs=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--tau", type=int)
    p.add_argument("--num-modes", type=int)
    p.set_defaults(func=cmd_standing_wave)

    p = sub.add_parser("certify-cm", help="randomized energy-positivity search")
    add_common(p, coeffs=True, seed=True)
    p.add_argument("--m", type=int)
    p.add_argument("--ceiling", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--target", choices=["classic", "sobolev"])
    p.set_defaults(func=cmd_certify_cm)

    return parser


def run_command(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonConvergence, NonFinite) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main():
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
