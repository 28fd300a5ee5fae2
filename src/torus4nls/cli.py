"""Command-line surface: batch simulations and studies with persisted runs.

Configuration precedence: command-line flags override config-file keys,
which override built-in defaults. The config file is a flat ``key = value``
text format (``#`` comments allowed) whose keys are the long option names
of the subcommand with dashes replaced by underscores; any other key is a
usage error. Its values become the subcommand parser's defaults, so each is
read with its flag's own type (``integrable`` takes 1/true/yes or
0/false/no). Flags must be spelled in full, and a config file that cannot
be read is a usage error. ``eps-converge`` takes ε only from
``--eps-ladder``. The output directory may additionally be forced through
the ``TORUS4NLS_OUTDIR`` environment variable, which takes precedence over
every other source (and is the only env override); an empty
``--outdir`` is a usage error.

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
    table_rows,
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
Each value is read with its flag's type (`integrable` takes 1/true/yes or
0/false/no) and a flag beats it; a file that cannot be read is rejected.
Flags must be spelled in full.

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


def read_config(path, args):
    """Config file ``path`` as string defaults for the subcommand in ``args``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    cfg = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in cfg:
            raise ValueError(f"config key {k!r} given twice")
        cfg[k] = v
    known = set(vars(args)) - {"config", "command", "func"}  # not options
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    if "integrable" in cfg:  # a switch: argparse has no type to convert it with
        cfg["integrable"] = _parse_bool(cfg["integrable"])
    return cfg


LAMBDA_KEYS = ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6")


def add_common(parser, *, data=False, solver=False, eps=True, coeffs=False,
               seed=False):
    parser.add_argument("--outdir", help="output directory (default ./runs)")
    parser.add_argument("--config", help="flat key=value config file")
    if data:
        parser.add_argument("--data", help="initial data spec (see --help)")
        parser.add_argument("--num-modes", type=int, help="grid size N")
    if solver:
        parser.add_argument("--dt", type=float, help="time step")
        parser.add_argument("--t-end", type=float, help="final time")
        if eps:
            parser.add_argument("--eps", type=float, help="regularization strength")
        parser.add_argument("--m", type=int, help="Sobolev index")
        parser.add_argument("--pad", type=int, help="dealias pad factor override")
    if coeffs:
        parser.add_argument("--nu", type=float, help="fourth-order dispersion")
        parser.add_argument(
            "--integrable", action="store_true",
            help="use the completely integrable coefficient set for nu",
        )
        for key in LAMBDA_KEYS:
            parser.add_argument(f"--{key}", type=float, help=f"{key} weight")
    if seed:
        parser.add_argument("--seed", type=int, help="random seed")


def resolve_outdir(args):
    """``TORUS4NLS_OUTDIR`` if set and not empty, else ``--outdir``, else
    ./runs. An empty ``--outdir`` (or config ``outdir``) is a ValueError."""
    if args.outdir == "":
        raise ValueError("--outdir must not be empty")
    return Path(os.environ.get("TORUS4NLS_OUTDIR") or args.outdir or "runs")


def _parse_bool(text):
    """Config-file switch: 1/true/yes or 0/false/no, in any case."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


def build_coeffs(args):
    if args.integrable:
        given = [k for k in LAMBDA_KEYS if getattr(args, k) is not None]
        if given:
            raise ValueError(f"--integrable fixes the lambdas; drop {', '.join(given)}")
        return integrable_coefficients(args.nu)
    lams = {k: getattr(args, k) or 0.0 for k in LAMBDA_KEYS}
    return CoefficientSet(nu=args.nu, **lams)


def build_solver_config(args):
    return SolverConfig(
        dt=args.dt,
        epsilon=getattr(args, "eps", 0.0),  # eps-converge has no --eps
        dealias_pad_factor=args.pad,
        sobolev_index_m=args.m,
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
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    rec = EnergyRecorder(cfg.sobolev_index_m, coeffs)
    order = np.argsort(grid.modes)
    names = ["time"]
    for n in grid.modes[order]:
        names += [f"re_n{int(n)}", f"im_n{int(n)}"]
    fname = "simulate__trajectory.csv"
    with table_rows(args.outdir, fname, names) as write_row:
        # the complex view interleaves re and im of each mode
        def write_sample(s):
            write_row([s.time] + s.state.coeffs[order].view(np.float64).tolist())

        run = integrate(data, args.t_end, cfg, coeffs, observers=[rec, write_sample])
    _report(args.outdir / fname)
    _report(write_table(args.outdir, "simulate__energy.csv", rec.columns))
    _report(write_manifest(args.outdir, "simulate", {
        "parameters": {
            "data": args.data, "num_modes": grid.num_modes,
            "dt": cfg.dt, "t_end": args.t_end, "epsilon": cfg.epsilon,
            "m": cfg.sobolev_index_m, "nu": coeffs.nu,
            "lambdas": coeffs.lambdas,
        },
        "thresholds": {},
        "blow_up_suspected": run.blowup_time is not None,
        "final_time": run.final.time,
    }))
    return 0


def cmd_conserve(args):
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    cfg = build_solver_config(args)
    result = conservation_study(data, args.nu, args.t_end, cfg)
    return finish_study(result, args.outdir)


def cmd_bona_smith(args):
    l_values = [int(v) for v in args.l_values.split(",")]
    result = bona_smith_rate_study(args.m, l_values, num_modes=args.num_modes)
    return finish_study(result, args.outdir)


def cmd_eps_converge(args):
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    result = eps_convergence_study(
        data, args.m, coeffs, args.t_end, parse_ladder(args.eps_ladder), cfg,
    )
    return finish_study(result, args.outdir)


def cmd_riccati(args):
    grid = GridSpec(args.num_modes)
    coeffs = build_coeffs(args)
    seps = [int(v) for v in args.seps.split(",")]
    family = [mode_pair_field(grid, k, args.hm_size, args.m) for k in seps]
    cert = certify_cm(
        args.m, coeffs, args.ceiling, trials=args.cm_trials,
        rng_seed=args.seed, target="sobolev",
    )
    cfg = build_solver_config(args)
    result = riccati_study(family, args.m, coeffs, cfg, args.t_end, cert.c_m)
    result.parameters["separations"] = seps
    return finish_study(result, args.outdir)


def cmd_continuity(args):
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    result = continuity_study(
        data, parse_ladder(args.deltas), args.m, coeffs, args.t_end, cfg, args.seed,
    )
    return finish_study(result, args.outdir)


def cmd_sweep_inequalities(args):
    result = inequality_sweeps(
        args.seed, args.trials, m=args.m, nu=args.nu, l2_ceiling=args.ceiling,
    )
    return finish_study(result, args.outdir)


def cmd_standing_wave(args):
    coeffs = build_coeffs(args)
    grid = GridSpec(args.num_modes)
    psi0 = plane_wave(grid, args.kappa, args.tau)
    omega = standing_wave_frequency(args.kappa, args.tau, coeffs)
    residual = pde_residual(psi0, omega, coeffs)
    print(f"omega = {omega!r}")
    print(f"residual_l2 = {residual!r}")
    _report(write_manifest(args.outdir, "standing_wave", {
        "parameters": {"kappa": args.kappa, "tau": args.tau, "nu": coeffs.nu,
                       "lambdas": coeffs.lambdas, "num_modes": grid.num_modes},
        "thresholds": {},
        "omega": omega,
        "residual_l2": residual,
    }))
    return 0


def cmd_certify_cm(args):
    coeffs = build_coeffs(args)
    cert = certify_cm(
        args.m, coeffs, args.ceiling, trials=args.trials, rng_seed=args.seed,
        target=args.target,
    )
    print(f"c_m = {cert.c_m!r} (worst margin {cert.worst_margin!r})")
    _report(write_manifest(args.outdir, "certify_cm", {
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
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="torus4nls",
        description="Pseudospectral studies for a fourth-order NLS-type "
                    "equation on the torus.",
        epilog=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, help):
        commands[name] = sub.add_parser(name, help=help, allow_abbrev=False)
        return commands[name]

    p = add_command("simulate", "integrate and persist a trajectory")
    add_common(p, data=True, solver=True, coeffs=True)
    p.set_defaults(func=cmd_simulate, num_modes=64, dt=1e-3, t_end=0.1, eps=0.0,
                   m=4, nu=1.0, data="decay:s=5.0:amp=0.05")

    p = add_command("conserve", "invariant-drift study (integrable case)")
    add_common(p, data=True, solver=True)
    p.add_argument("--nu", type=float, help="fourth-order dispersion")
    p.set_defaults(func=cmd_conserve, num_modes=64, dt=2e-3, t_end=0.1, eps=0.0,
                   m=4, nu=1.0, data="random:seed=42:decay=2.0:hm=0.4:m=4:maxmode=4")

    p = add_command("bona-smith", "mollification rate study")
    add_common(p)
    p.add_argument("--m", type=int, help="Sobolev index")
    p.add_argument("--num-modes", type=int)
    p.add_argument("--l-values", help="comma list of l offsets")
    p.set_defaults(func=cmd_bona_smith, m=4, num_modes=1024, l_values="0,1,2")

    p = add_command("eps-converge", "vanishing-regularization study")
    add_common(p, data=True, solver=True, eps=False, coeffs=True)
    p.add_argument("--eps-ladder",
                   help="comma list (2^-k allowed); the study's only eps")
    p.set_defaults(func=cmd_eps_converge, num_modes=64, dt=5e-4, t_end=0.02, m=4,
                   nu=1.0, eps_ladder="2^-3,2^-4,2^-5,2^-6,2^-7",
                   data="random:seed=7:decay=8.0:hm=0.4:m=4")

    p = add_command("riccati", "energy growth-quotient contrast study")
    add_common(p, solver=True, coeffs=True, seed=True)
    p.add_argument("--num-modes", type=int)
    p.add_argument("--seps", help="comma list of mode separations")
    p.add_argument("--hm-size", type=float, help="family H^m norm")
    p.add_argument("--cm-trials", type=int, help="certification trials")
    p.add_argument("--ceiling", type=float, help="certification L2 ceiling")
    p.set_defaults(func=cmd_riccati, num_modes=256, dt=1e-6, t_end=2e-4, eps=0.0,
                   m=4, nu=1.0, seps="4,8,16,32", hm_size=2.0, cm_trials=60,
                   seed=2024, ceiling=1.0)

    p = add_command("continuity", "data-to-solution continuity study")
    add_common(p, data=True, solver=True, coeffs=True, seed=True)
    p.add_argument("--deltas", help="comma list of perturbation sizes")
    p.set_defaults(func=cmd_continuity, num_modes=64, dt=1e-3, t_end=0.05, m=4,
                   nu=1.0, eps=0.0, deltas="1e-2,1e-3,1e-4,1e-5", seed=7,
                   data="random:seed=11:decay=6.0:hm=0.4:m=4")

    p = add_command("sweep-inequalities", "bundled inequality sweeps")
    add_common(p, seed=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--ceiling", type=float)
    p.set_defaults(func=cmd_sweep_inequalities, trials=200, seed=123, m=4, nu=1.0,
                   ceiling=1.0)

    p = add_command("standing-wave", "emit the rotation rate and residual")
    add_common(p, coeffs=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--tau", type=int)
    p.add_argument("--num-modes", type=int)
    p.set_defaults(func=cmd_standing_wave, kappa=0.3, tau=1, nu=1.0, num_modes=64)

    p = add_command("certify-cm", "randomized energy-positivity search")
    add_common(p, coeffs=True, seed=True)
    p.add_argument("--m", type=int)
    p.add_argument("--ceiling", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--target", choices=["classic", "sobolev"])
    p.set_defaults(func=cmd_certify_cm, m=4, nu=1.0, ceiling=1.0, trials=200,
                   seed=31, target="classic")

    return parser, commands


def run_command(argv):
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the subcommand's defaults; parsing again
            # converts each with its flag's type and lets the flags win.
            commands[args.command].set_defaults(**read_config(args.config, args))
            args = parser.parse_args(argv)
        args.outdir = resolve_outdir(args)  # before any study runs
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
