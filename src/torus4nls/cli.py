"""Command-line surface: batch simulations and studies with persisted runs.

Each option is declared once, in ``FLAGS``, so it means the same on every
subcommand; ``COMMANDS`` gives each subcommand's options and defaults.

Configuration precedence: command-line flags override config-file keys,
which override built-in defaults. The config file is a flat ``key = value``
text format (``#`` comments allowed) whose keys are the long option names
of the subcommand with dashes replaced by underscores; any other key is a
usage error. Its values become the subcommand parser's defaults, so each is
read with its flag's own type (``integrable`` takes 1/true/yes or
0/false/no). Flags must be spelled in full, and a config file that cannot
be read is a usage error. ε is a coefficient of the equation, given to
the run rather than the solver config: only ``simulate`` has ``--eps``,
``eps-converge`` takes its εs from ``--eps-ladder``, and the other
studies have no ε (they run at ε = 0). The dealiasing pad has no flag
either; the coefficients fix it (``CoefficientSet.dealias_pad``). No
environment variable is read; an empty ``--outdir`` is a usage error.

Exit codes: 0 pass/complete, 1 study failure, 2 usage error (a
``ValueError``), 3 solver error (Picard non-convergence or non-finite
state). Any other exception is a fault of the program and propagates.
Each constraint on an input is stated once, where the library takes the
value: a value outside its parameter's domain is a ``spectral.InputError``
that names the library's parameter, and exit 2 prints the flag that sets
it instead: ``--`` plus the name with ``-`` for ``_``, unless
``PARAM_FLAGS`` gives another. Of the flags' domains this module checks
only those no library function takes: ``--outdir``, ``--seed`` and the
``--seps`` list as a list.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    CoefficientSet,
    NonConvergence,
    NonFinite,
    SolverConfig,
    check_run,
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
    check_entries,
    check_riccati,
    conservation_study,
    continuity_study,
    eps_convergence_study,
    inequality_sweeps,
    riccati_study,
    streamed_table,
    write_manifest,
    write_study,
    write_table,
)
from .functionals import CM_RESOLUTIONS, EnergyRecorder, certify_cm
from .sampling import decay_field, mode_pair_field, random_field, rng_for
from .spectral import GridSpec, InputError, SpectralField, refusing

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
  random:seed=7:hm=0.4:m=4:maxmode=4          ...with modes |n| > maxmode zeroed
ladders (eps/deltas): comma-separated floats; `2^-3` exponent form allowed.
"""


def _power(tok):
    base, exp = (float(part) for part in tok.split("^", 1))
    try:
        return math.pow(base, exp)
    except ValueError:  # 0^-1, or -2^0.5: no real number
        raise ValueError(f"{tok.strip()} is not a real number") from None


def _comma_list(convert, text):
    """Nonempty comma list, each entry through ``convert``. Its errors are
    argparse's, so the message names the flag (or config key) given."""
    try:
        vals = [convert(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not vals:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return vals


def parse_ladder(text):
    """Comma list of floats; ``2^-3`` exponent form allowed. An entry that
    overflows is refused, and so is a nonzero entry that underflows to 0;
    the literals ``inf`` and ``nan`` are left to the flag's own check."""
    def entry(tok):
        if tok.strip().lstrip("+-").lower() in ("inf", "infinity", "nan"):
            return float(tok)
        value = refusing(lambda: f"an entry of {text!r} overflows",
                         _power if "^" in tok else float, tok)
        # the mantissa of a float, or the base of a power, says if it is 0
        if value == 0.0 and float(tok.split("^")[0].lower().split("e")[0]) != 0.0:
            raise ValueError(f"{tok.strip()} underflows to 0")
        return value

    return _comma_list(entry, text)


def parse_int_list(text):
    """Comma list of integers."""
    return _comma_list(int, text)


LAMBDA_KEYS = ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6")

# Every option, by dest: its type and help. ``bool`` marks a switch and a
# tuple lists the choices; a ``str`` option is taken as given.
FLAGS = {
    "outdir": (str, "output directory (default ./runs)"),
    "config": (str, "flat key=value config file"),
    "data": (str, "initial data spec (see --help)"),
    "num_modes": (int, "grid size N"),
    "dt": (float, "time step"),
    "t_end": (float, "final time"),
    "eps": (float, "regularization strength"),
    "m": (int, "Sobolev index"),
    "nu": (float, "fourth-order dispersion"),
    "integrable": (bool, "use the completely integrable coefficient set for nu"),
    **{key: (float, f"{key} weight") for key in LAMBDA_KEYS},
    "seed": (int, "random seed"),
    "l_values": (parse_int_list, "comma list of l offsets, each in [0, m]"),
    "eps_ladder": (parse_ladder, "comma list (2^-k allowed); the study's only eps"),
    "seps": (parse_int_list, "comma list of mode separations, each in [2, N/2-2]"),
    "hm_size": (float, "family H^m norm"),
    "cm_trials": (int, "certification trials"),
    "ceiling": (float, "certification L2 ceiling"),
    "deltas": (parse_ladder, "comma list of perturbation sizes"),
    "trials": (int, "random samples per sweep or certificate"),
    "kappa": (float, "plane-wave amplitude"),
    "tau": (int, "plane-wave mode"),
    "target": (("classic", "sobolev"), "energy lower bound to certify"),
}

# The flag of each library parameter whose flag is not "--" plus its name
# with "-" for "_"; a (command, parameter) key holds for that command only.
# riccati's family is built at --hm-size; its size, len(--seps), is checked
# as --seps before the family is built.
PARAM_FLAGS = {
    "delta_ladder": "--deltas", "l2_ceiling": "--ceiling", "sobolev_index_m": "--m",
    "hm_norm": "--hm-size", "epsilon": "--eps", "separation": "--seps",
    ("riccati", "trials"): "--cm-trials", ("riccati", "family"): "--hm-size",
}


def param_flag(command, param):
    """The flag that sets the library parameter ``param`` in ``command``."""
    flag = PARAM_FLAGS.get((command, param), PARAM_FLAGS.get(param))
    return flag or "--" + param.replace("_", "-")


COEFFS = {"nu": 1.0, "integrable": False, **dict.fromkeys(LAMBDA_KEYS)}

# Each subcommand: its help and the defaults of its flags, in help order
# (every one also takes --outdir and --config). Its handler is ``cmd_<name>``,
# looked up when it runs, so a wrapper rebound over that name is the one called.
COMMANDS = {
    "simulate": ("integrate and persist a trajectory", {
        "data": "decay:s=5.0:amp=0.05", "num_modes": 64, "dt": 1e-3, "t_end": 0.1,
        "eps": 0.0, "m": 4, **COEFFS}),
    "conserve": ("invariant-drift study (integrable case)", {
        "data": "random:seed=42:decay=2.0:hm=0.4:m=4:maxmode=4", "num_modes": 64,
        "dt": 2e-3, "t_end": 0.1, "m": 4, "nu": 1.0}),
    "bona-smith": ("mollification rate study", {
        "m": 4, "num_modes": 1024, "l_values": "0,1,2"}),
    "eps-converge": ("vanishing-regularization study", {
        "data": "random:seed=7:decay=8.0:hm=0.4:m=4", "num_modes": 64, "dt": 5e-4,
        "t_end": 0.02, "m": 4, **COEFFS, "eps_ladder": "2^-3,2^-4,2^-5,2^-6,2^-7"}),
    "riccati": ("energy growth-quotient contrast study", {
        "dt": 1e-6, "t_end": 2e-4, "m": 4, **COEFFS, "seed": 2024,
        "num_modes": 256, "seps": "4,8,16,32", "hm_size": 2.0, "cm_trials": 60,
        "ceiling": 1.0}),
    "continuity": ("data-to-solution continuity study", {
        "data": "random:seed=11:decay=6.0:hm=0.4:m=4", "num_modes": 64, "dt": 1e-3,
        "t_end": 0.05, "m": 4, **COEFFS, "seed": 7,
        "deltas": "1e-2,1e-3,1e-4,1e-5"}),
    "sweep-inequalities": ("bundled inequality sweeps", {
        "seed": 123, "trials": 200, "m": 4, "nu": 1.0, "ceiling": 1.0}),
    "standing-wave": ("emit the rotation rate and residual", {
        **COEFFS, "kappa": 0.3, "tau": 1, "num_modes": 64}),
    "certify-cm": ("randomized energy-positivity search", {
        **COEFFS, "seed": 31, "m": 4, "ceiling": 1.0, "trials": 200,
        "target": "classic"}),
}


def _parse_kv(chunks, kind, types):
    """The ``key=value`` chunks of a ``kind`` spec as a dict, each value read
    with its key's type in ``types``; every error names the kind and key."""
    out = {}
    for chunk in chunks:
        k, eq, v = (part.strip() for part in chunk.partition("="))
        if not eq:
            raise ValueError(f"malformed {kind} entry {chunk!r} (expected key=value)")
        if k not in types or k in out:
            raise ValueError(f"{kind} spec: unknown or repeated key {k!r}")
        try:
            value = types[k](v)
        except ValueError:
            what = "an integer" if types[k] is int else "a number"
            raise ValueError(f"{kind} spec: {k} must be {what}, got {v!r}") from None
        # as a float, so an int too large for one is refused too
        refusing(lambda: f"{kind} spec: {k} must be finite, got {v}", float, value)
        out[k] = value
    return out


def _required(kv, kind, key):
    if key not in kv:
        raise ValueError(f"{kind} spec: {key} is required")
    return kv[key]


# The key of each library parameter that a data spec sets under another name.
SPEC_KEYS = {"l2_mass": "l2", "hm_norm": "hm"}


def parse_data_spec(spec, grid):
    """Build initial data from the mini-language (see module help). Every
    error names the spec's kind, and the key at fault where there is one."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    try:
        return _spec_data(kind, rest, grid)
    except InputError as exc:  # a library parameter, named as the spec's key
        param, must = exc.args
        raise ValueError(f"{kind} spec: {SPEC_KEYS.get(param, param)} {must}") from None


def _spec_data(kind, rest, grid):
    chunks = [c for c in rest.split(":") if c]
    if kind == "modes":
        coeffs = np.zeros(grid.num_modes, np.complex128)
        seen = set()
        for entry in rest.split(","):
            kv = _parse_kv(entry.split(":"), "modes",
                           {"n": int, "amp": float, "phase": float})
            n = _required(kv, "modes", "n")
            if n in seen:
                raise ValueError(f"modes spec: mode {n} given twice")
            seen.add(n)
            grid.check_mode(n, "n")
            phase = kv.get("phase", 0.0)
            coeffs[n % grid.num_modes] = kv.get("amp", 1.0) * np.exp(1j * phase)
        return SpectralField(grid, coeffs)
    if kind == "standing":
        kv = _parse_kv(chunks, "standing", {"kappa": float, "tau": int})
        return plane_wave(grid, kv.get("kappa", 0.3), kv.get("tau", 1))
    if kind == "decay":
        kv = _parse_kv(chunks, "decay", {"s": float, "amp": float})
        s = _required(kv, "decay", "s")
        return refusing(lambda: f"decay spec: s={s} overflows the data's envelope",
                        decay_field, grid, s, kv.get("amp", 1.0))
    if kind == "random":
        kv = _parse_kv(chunks, "random", {"seed": int, "decay": float, "l2": float,
                                          "hm": float, "m": int, "maxmode": int})
        if "l2" in kv and "hm" in kv:
            raise ValueError("random spec: give l2 or hm, not both")
        if "m" in kv and "hm" not in kv:
            raise ValueError("random spec: m is the index of hm; give hm with it")
        # numpy's own seed error names no key, and a negative maxmode
        # empties every mode
        for key in ("seed", "maxmode"):
            if kv.get(key, 0) < 0:
                raise ValueError(f"random spec: {key} must be >= 0, got {kv[key]}")
        decay = kv.get("decay", 2.0)
        return refusing(
            lambda: f"random spec: decay={decay} overflows the data's envelope "
                    f"or its norm",
            lambda: random_field(grid, rng_for(kv.get("seed", 0)), decay=decay,
                                 l2_mass=kv.get("l2"), hm_norm=kv.get("hm"),
                                 m=kv.get("m", 4) if "hm" in kv else None,
                                 max_mode=kv.get("maxmode")))
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
    known = set(vars(args)) - {"config", "command"}  # not options
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for k in cfg:
        if FLAGS[k][0] is bool:  # a switch: argparse has no type to convert it with
            cfg[k] = _parse_bool(cfg[k])
    return cfg


def resolve_outdir(args):
    """``--outdir``, else ./runs. An empty ``--outdir`` (or config
    ``outdir``) is a ValueError, and so is a directory that names an
    existing file or lies under one: no run could write its files there."""
    if args.outdir == "":
        raise ValueError("--outdir must not be empty")
    outdir = Path(args.outdir or "runs")
    nearest = next((p for p in (outdir, *outdir.parents) if p.exists()), Path("/"))
    if not nearest.is_dir():
        raise ValueError(f"--outdir {str(outdir)!r}: {str(nearest)!r} "
                         "is not a directory")
    return outdir


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
    return SolverConfig(dt=args.dt, sobolev_index_m=args.m)


def _report(path):
    print(f"  wrote {path}")


def finish_study(result, outdir):
    paths = write_study(result, outdir)
    print(f"{result.name}: verdict={result.verdict}")
    for p in paths:
        _report(p)
    return 0 if result.verdict == "pass" else 1


def cmd_simulate(args):
    """Integrate one run and write its trajectory, energies and manifest.
    This process steps and records the energies; the trajectory's rows go
    to a forked writer (``streamed_table``), so ``os.fork`` is needed. The
    run's own argument checks (``check_run``) come first, so that no writer
    is started and no directory made for a run that would refuse to start."""
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    check_run(args.t_end, [args.eps])
    rec = EnergyRecorder(cfg.sobolev_index_m, coeffs)
    order = np.argsort(grid.modes)
    names = ["time"]
    for n in grid.modes[order]:
        names += [f"re_n{int(n)}", f"im_n{int(n)}"]
    fname = "simulate__trajectory.csv"

    def produce(send_row):
        def observe(time, rows, members):
            rec(time, rows, members)
            # the complex view interleaves re and im of each mode
            send_row(np.concatenate(([time], rows[0][order].view(np.float64))))

        run = integrate(data, args.t_end, cfg, coeffs, observe, eps=args.eps)
        # the last block is evaluated here, so that its error removes the
        # trajectory's .part file
        return run, rec.columns

    run, energies = streamed_table(args.outdir, fname, names, produce)
    _report(args.outdir / fname)
    _report(write_table(args.outdir, "simulate__energy.csv", energies))
    _report(write_manifest(args.outdir, "simulate", {
        "parameters": {
            "data": args.data, "num_modes": grid.num_modes,
            "dt": cfg.dt, "t_end": args.t_end, "epsilon": args.eps,
            "m": cfg.sobolev_index_m, "nu": coeffs.nu,
            "lambdas": coeffs.lambdas,
        },
        "thresholds": {},
        "blow_up_suspected": run.blowup_time is not None,
        "final_time": run.time,
    }))
    return 0


def cmd_conserve(args):
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    cfg = build_solver_config(args)
    result = conservation_study(data, args.nu, args.t_end, cfg)
    return finish_study(result, args.outdir)


def cmd_bona_smith(args):
    data = decay_field(GridSpec(args.num_modes), args.m + 0.6)
    result = bona_smith_rate_study(args.m, args.l_values, data)
    return finish_study(result, args.outdir)


def cmd_eps_converge(args):
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    result = eps_convergence_study(
        data, coeffs, args.t_end, args.eps_ladder, cfg,
    )
    return finish_study(result, args.outdir)


def cmd_riccati(args):
    """Certify c_m, then run the study at it; the study's own argument
    checks (``check_riccati``) come first, so that no certification is
    drawn for a study that would refuse to run."""
    grid = GridSpec(args.num_modes)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    check_entries("seps", args.seps)  # each entry is mode_pair_field's to check
    family = [mode_pair_field(grid, k, args.hm_size, args.m) for k in args.seps]
    check_riccati(family, coeffs, args.t_end)
    cert = certify_cm(
        args.m, coeffs, args.ceiling, trials=args.cm_trials,
        rng_seed=args.seed, target="sobolev",
    )
    result = riccati_study(family, coeffs, cfg, args.t_end, cert.c_m)
    result.parameters["separations"] = args.seps
    return finish_study(result, args.outdir)


def cmd_continuity(args):
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    coeffs = build_coeffs(args)
    cfg = build_solver_config(args)
    result = continuity_study(
        data, args.deltas, coeffs, args.t_end, cfg, args.seed,
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

    def refused():
        return (f"omega or its residual is not finite at --kappa {args.kappa!r}, "
                f"--tau {args.tau}, --nu {coeffs.nu!r}, lambdas {coeffs.lambdas}")

    omega = refusing(refused, standing_wave_frequency, args.kappa, args.tau, coeffs)
    residual = refusing(refused, pde_residual, psi0, omega, coeffs)
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
        "parameters": {"m": args.m, "nu": coeffs.nu, "lambdas": coeffs.lambdas,
                       "l2_ceiling": args.ceiling, "trials": args.trials,
                       "rng_seed": args.seed, "target": args.target,
                       "resolutions": CM_RESOLUTIONS},
        "thresholds": {"worst_margin_min": 0.0},
        "c_m": cert.c_m,
        "worst_margin": cert.worst_margin,
    }))
    return 0


def build_parser(command=None):
    """The top-level parser, and each subcommand's parser by name. Given a
    ``command``, only that subcommand's parser gets its options: a command
    line needs no other, and adding them all triples the build's time
    (about 3 ms against 1 ms)."""
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
    for name, (help, defaults) in COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help, allow_abbrev=False)
        if command not in (None, name):
            continue
        defaults = {"outdir": None, "config": None, **defaults}
        for dest in defaults:
            kind, text = FLAGS[dest]
            kwargs = ({"action": "store_true"} if kind is bool
                      else {"choices": kind} if isinstance(kind, tuple)
                      else {} if kind is str else {"type": kind})
            p.add_argument("--" + dest.replace("_", "-"), help=text, **kwargs)
        p.set_defaults(**defaults)
    return parser, commands


def run_command(argv):
    # the top-level parser has no option that takes a value, so the first
    # argument that is not an option names the subcommand
    parser, commands = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values become the subcommand's defaults; parsing again
            # converts each with its flag's type and lets the flags win.
            commands[args.command].set_defaults(**read_config(args.config, args))
            args = parser.parse_args(argv)
        args.outdir = resolve_outdir(args)  # before any study runs
        if getattr(args, "seed", 0) < 0:  # numpy's own error names no flag
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (NonConvergence, NonFinite) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        if isinstance(exc, InputError):  # the parameter, as the flag that sets it
            exc = f"{param_flag(args.command, exc.args[0])} {exc.args[1]}"
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main():
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
