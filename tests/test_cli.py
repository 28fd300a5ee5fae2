"""Command-line surface: exit codes, manifests, precedence, reproducibility."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import torus4nls.cli as cli
import torus4nls.dynamics as dynamics
import torus4nls.experiments as experiments
import torus4nls.functionals as functionals
import torus4nls.mollifier as mollifier
from torus4nls import __version__
from torus4nls.cli import (
    build_coeffs,
    build_parser,
    build_solver_config,
    parse_data_spec,
    parse_ladder,
    run_command,
)
from torus4nls.dynamics import integrate
from torus4nls.exact import integrable_coefficients, linear_solution
from torus4nls.spectral import GridSpec, SpectralField, sobolev_distance, sobolev_norm

COMMANDS = ["simulate", "conserve", "bona-smith", "eps-converge", "riccati",
            "continuity", "sweep-inequalities", "standing-wave", "certify-cm"]
STEPPING = ["simulate", "conserve", "eps-converge", "riccati", "continuity"]

# The work a refused command must not reach: the first draw of a study or a
# certificate (its seed states, or eps-converge's and bona-smith's first
# mollification) and the first run (a study's, or simulate's own).
FIRST_WORK = ((functionals, "rng_states"), (experiments, "rng_states"),
              (experiments, "mollify"), (experiments, "integrate"),
              (experiments, "integrate_many"), (cli, "integrate"))
# The same draws, and the first step of any run: simulate's run checks its
# t_end and ε when it starts, before its first step.
FIRST_DRAW_OR_STEP = (*FIRST_WORK[:3], (dynamics, "_picard_step"))


def run_in(tmp_path, argv):
    return run_command(argv + ["--outdir", str(tmp_path)])


def exit_code(tmp_path, argv):
    """The process exit code of ``argv``: argparse's errors raise SystemExit."""
    try:
        return run_in(tmp_path, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def output_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def columns_trajectory_csv(argv):
    """simulate's trajectory CSV as the column-building ``cmd_simulate``
    wrote it: every sample kept, stacked into an (S, N) array, split into a
    column dict and zipped back into rows by the old ``write_table``."""
    parser, _ = build_parser()
    args = parser.parse_args(argv)
    grid = GridSpec(args.num_modes)
    data = parse_data_spec(args.data, grid)
    samples = []
    cli.integrate(data, args.t_end, build_solver_config(args), build_coeffs(args),
                  lambda time, rows, members: samples.append((time, rows[0].copy())))
    order = np.argsort(grid.modes)
    states = np.array([c[order] for _, c in samples])
    trajectory = {"time": [time for time, _ in samples]}
    for n, column in zip(grid.modes[order], states.T):
        trajectory[f"re_n{int(n)}"] = column.real
        trajectory[f"im_n{int(n)}"] = column.imag
    lines = [",".join(trajectory)]
    for row in zip(*trajectory.values()):
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


# Picard loses contraction at t=0.09, after ten samples
MIDRUN_FAILURE = [
    "simulate", "--num-modes", "32", "--data", "random:seed=3:decay=1.0:l2=2:maxmode=8",
    "--lambda1", "1", "--lambda3", "2", "--dt", "1e-2", "--t-end", "0.5",
]


class TestDataSpecs:
    def test_modes_entries(self):
        grid = GridSpec(32)
        f = parse_data_spec("modes:n=1:amp=0.5:phase=0.0,n=-2:amp=0.1", grid)
        assert f.coeffs[1] == pytest.approx(0.5)
        assert f.coeffs[-2] == pytest.approx(0.1)
        assert np.count_nonzero(f.coeffs) == 2

    def test_standing_preset(self):
        grid = GridSpec(32)
        f = parse_data_spec("standing:kappa=0.4:tau=2", grid)
        assert f.coeffs[2] == pytest.approx(0.4 * np.sqrt(2 * np.pi))

    def test_decay_preset(self):
        grid = GridSpec(32)
        f = parse_data_spec("decay:s=3.0:amp=2.0", grid)
        assert f.coeffs[0] == pytest.approx(2.0)
        assert f.coeffs[3] == pytest.approx(2.0 * 10.0**-1.5)

    def test_random_preset_deterministic(self):
        grid = GridSpec(32)
        a = parse_data_spec("random:seed=7:decay=2.0:l2=0.5", grid)
        b = parse_data_spec("random:seed=7:decay=2.0:l2=0.5", grid)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert sobolev_norm(a, 0) == pytest.approx(0.5)

    # each malformed spec, and the start of the message naming its kind and key
    MALFORMED = {
        "nope:1": "unknown data spec kind 'nope'",
        "modes:amp=1": "modes spec: n is required",
        "modes:amp=0.5": "modes spec: n is required",
        "modes:n=99:amp=1": "modes spec: n must lie in the resolved band [-15, 15], "
                            "got 99",
        "modes:n=1:amp=": "modes spec: amp must be a number, got ''",
        "decay:amp=1": "decay spec: s is required",
        "standing:tau=1.5": "standing spec: tau must be an integer, got '1.5'",
        # input the parser would otherwise drop without a word
        "random:seed=7:l2=0.5:hm=0.4": "random spec: give l2 or hm",  # two rescalings
        "random:seed=7:decya=9.0": "random spec: unknown or repeated key 'decya'",
        "random:seed=7:m=2": "random spec: m is the index of hm",  # m without hm
        "random:seed=7:seed=8": "random spec: unknown or repeated key 'seed'",
        "decay:s=3.0:amp=1.0:tau=2": "decay spec: unknown or repeated key 'tau'",
        "standing:kappa=0.3:s=2": "standing spec: unknown or repeated key 's'",
        "modes:n=1:amp=0.5:decay=2": "modes spec: unknown or repeated key 'decay'",
        # the later entry would win
        "modes:n=1:amp=0.5,n=1:amp=0.2": "modes spec: mode 1 given twice",
        "standing:tau=16": "standing spec: tau must lie in the resolved band "
                           "[-15, 15], got 16",
        # κ√(2π) overflows: with no leaked RuntimeWarning either
        "standing:kappa=1e308": "standing spec: kappa must be",
        # an envelope that overflows: with no leaked RuntimeWarning either
        "decay:s=-1000": "decay spec: s=-1000.0 overflows",
        "decay:s=-1000:amp=0": "decay spec: s=-1000.0 overflows",
        "random:seed=1:decay=-1000": "random spec: decay=-1000.0 overflows",
        "random:seed=1:decay=-1000:hm=0.4:m=4": "random spec: decay=-1000.0 overflows",
        # finite coefficients whose H^4 norm overflows would rescale to zero
        "random:seed=1:decay=-130:hm=0.4:m=4": "random spec: decay=-130.0 overflows",
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed_specs(self, bad):
        with pytest.raises(ValueError, match="^" + re.escape(self.MALFORMED[bad])):
            parse_data_spec(bad, GridSpec(32))

    def test_ladder_exponent_notation(self):
        assert parse_ladder("2^-3,0.5,1e-2") == [0.125, 0.5, 0.01]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            run_command(["no-such-command"])
        assert err.value.code == 2

    def test_standing_wave_zero_amplitude(self, tmp_path, capsys):
        code = run_in(tmp_path,
                      ["standing-wave", "--kappa", "0", "--tau", "1", "--nu", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "omega = 0.0" in out
        manifest = json.loads((tmp_path / "standing_wave__manifest.json").read_text())
        assert manifest["omega"] == 0.0
        assert manifest["residual_l2"] <= 1e-11
        assert manifest["code_version"]

    def test_solver_error_is_3(self, tmp_path):
        # fails at the first step, after the t=0 row has been written
        out = tmp_path / "out"
        code = run_in(out, [
            "simulate", "--data", "random:seed=1:decay=0.5:l2=20",
            "--nu", "1", "--integrable", "--dt", "0.5", "--t-end", "1.0",
        ])
        assert code == 3
        assert not out.exists()

    def test_midrun_solver_error_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        seen = []

        def integrate_seen(psi0, t_end, cfg, coeffs, observer, *, eps):
            def observe(time, rows, members):
                observer(time, rows, members)
                seen.append(time)

            return integrate(psi0, t_end, cfg, coeffs, observe, eps=eps)

        monkeypatch.setattr(cli, "integrate", integrate_seen)
        out = tmp_path / "a" / "b"
        assert run_in(out, MIDRUN_FAILURE) == 3
        assert len(seen) == 10  # rows streamed before the failure
        assert "at t=0.09" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_midrun_solver_error_reaps_the_writer(self, tmp_path, capsys):
        # the trajectory's forked writer is killed and reaped, its .part removed
        out = tmp_path / "a" / "b"
        assert run_in(out, MIDRUN_FAILURE) == 3
        assert "at t=0.09" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert run_in(tmp_path, MIDRUN_FAILURE) == 3
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_solver_error_keeps_earlier_run(self, tmp_path):
        assert run_in(tmp_path, MIDRUN_FAILURE[:-1] + ["0.05"]) == 0
        earlier = output_bytes(tmp_path)
        assert run_in(tmp_path, MIDRUN_FAILURE) == 3
        assert output_bytes(tmp_path) == earlier

    def test_overflowing_data_is_2(self, tmp_path, capsys):
        # finite coefficients whose H^m norm overflows: refused before any step
        out = tmp_path / "out"
        code = run_in(out, [
            "simulate", "--data", "modes:n=31:amp=1e150", "--nu", "1",
            "--num-modes", "64", "--t-end", "0.01",
        ])
        assert code == 2
        assert "initial data has a non-finite H^m norm" in capsys.readouterr().err
        assert not out.exists()

    def test_study_failure_is_1(self, tmp_path):
        # on 16 modes the mollifier ladder leaves errors at machine zero,
        # which makes the rate study inconclusive -> 1
        code = run_in(tmp_path, ["bona-smith", "--num-modes", "16"])
        assert code == 1
        manifest = json.loads((tmp_path / "bona_smith_rates__manifest.json").read_text())
        assert manifest["verdict"] == "inconclusive"


class TestSimulate:
    def test_linear_final_state_matches_closed_form(self, tmp_path):
        code = run_in(tmp_path, [
            "simulate", "--data", "random:seed=3:decay=3.0:l2=0.5",
            "--nu", "1", "--dt", "1e-3", "--t-end", "0.1", "--num-modes", "64",
        ])
        assert code == 0
        lines = (tmp_path / "simulate__trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 0.1
        grid = GridSpec(64)
        coeffs = np.zeros(64, dtype=complex)
        for col, name in enumerate(header[1::2]):
            n = int(name.removeprefix("re_n"))
            coeffs[n % 64] = last[1 + 2 * col] + 1j * last[2 + 2 * col]
        final = SpectralField(grid, coeffs)
        data = parse_data_spec("random:seed=3:decay=3.0:l2=0.5", grid)
        expect = linear_solution(data, 0.1, 1.0)
        rel = sobolev_distance(final, expect, 4) / sobolev_norm(expect, 4)
        assert rel < 1e-10

    def test_manifest_and_energy_written(self, tmp_path):
        code = run_in(tmp_path, [
            "simulate", "--data", "standing:kappa=0.2:tau=1", "--nu", "1",
            "--integrable", "--dt", "1e-3", "--t-end", "0.01",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "simulate__manifest.json").read_text())
        assert manifest["parameters"]["t_end"] == 0.01
        assert manifest["blow_up_suspected"] is False
        energy = (tmp_path / "simulate__energy.csv").read_text().splitlines()
        assert energy[0].startswith("time,")
        assert len(energy) == 12


class TestStreamedTrajectory:
    """simulate writes its trajectory one row per sample, with the bytes of
    the column-building writer it replaced, and holds no (S, N) history."""

    @pytest.mark.parametrize("argv,blowup_factor", [
        (["simulate", "--num-modes", "32", "--data",
          "modes:n=1:amp=0.5:phase=0.3,n=-2:amp=0.1,n=5:amp=0.02",
          "--nu", "1", "--integrable", "--dt", "1e-3", "--t-end", "0.02"], None),
        (["simulate", "--data", "random:seed=5:decay=2.0:l2=0.3", "--nu", "1",
          "--lambda1", "0.3", "--lambda2", "-0.2", "--lambda5", "0.1",
          "--t-end", "0.05"], None),
        # the H^m norm doubles near t=0.03, well before t_end
        (["simulate", "--data", "random:seed=3:decay=1.0:l2=2:maxmode=8",
          "--lambda1", "1", "--lambda3", "2", "--dt", "1e-3", "--t-end", "0.05"],
         2.0),
    ], ids=["n32-modes", "n64-random", "blowup-halted"])
    def test_bytes_match_column_writer(self, tmp_path, monkeypatch, argv,
                                       blowup_factor):
        if blowup_factor is not None:
            monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", blowup_factor)
        assert run_in(tmp_path, argv) == 0
        streamed = (tmp_path / "simulate__trajectory.csv").read_bytes()
        assert streamed == columns_trajectory_csv(argv)
        manifest = json.loads((tmp_path / "simulate__manifest.json").read_text())
        halted = blowup_factor is not None
        assert manifest["blow_up_suspected"] is halted
        assert (manifest["final_time"] < manifest["parameters"]["t_end"]) is halted

    def test_trajectory_not_held(self, tmp_path):
        # a 51-sample N=1024 run may not peak higher than a 3-sample one by
        # as much as one (S, N) complex128 array; the stepper's own arrays
        # and lazily built caches are common to both
        argv = ["simulate", "--nu", "1", "--integrable", "--num-modes", "1024",
                "--data", "random:seed=42:decay=2.0:hm=0.4:m=4:maxmode=4",
                "--dt", "1e-4", "--t-end"]

        def traced_peak(t_end):
            tracemalloc.start()
            try:
                assert run_in(tmp_path / t_end, argv + [t_end]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert run_in(tmp_path / "warm", argv + ["2e-4"]) == 0
        growth = traced_peak("0.005") - traced_peak("2e-4")
        assert growth < 51 * 1024 * 16


class TestConfigPrecedence:
    def test_flag_overrides_config_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\ntau = 2\n# comment\n")
        out1 = tmp_path / "a"
        code = run_command([
            "standing-wave", "--config", str(cfg), "--nu", "1",
            "--outdir", str(out1),
        ])
        assert code == 0
        m1 = json.loads((out1 / "standing_wave__manifest.json").read_text())
        assert m1["parameters"]["kappa"] == 0.5  # from config
        assert m1["parameters"]["tau"] == 2

        out2 = tmp_path / "b"
        code = run_command([
            "standing-wave", "--config", str(cfg), "--kappa", "0.3",
            "--nu", "1", "--outdir", str(out2),
        ])
        assert code == 0
        m2 = json.loads((out2 / "standing_wave__manifest.json").read_text())
        assert m2["parameters"]["kappa"] == 0.3  # flag wins
        assert m2["parameters"]["tau"] == 2  # config still wins over default


    @pytest.mark.parametrize("command,settings", [
        ("simulate", [("data", "random:seed=5:decay=2.0:l2=0.3"), ("num_modes", "32"),
                      ("dt", "1e-3"), ("t_end", "0.01"), ("eps", "0.01"), ("m", "3"),
                      ("nu", "1.5"), ("lambda1", "0.1"),
                      ("lambda2", "-0.2"), ("lambda3", "0.3"), ("lambda4", "0.05"),
                      ("lambda5", "-0.1"), ("lambda6", "0.2")]),
        ("certify-cm", [("m", "3"), ("nu", "1.2"), ("integrable", None),
                        ("ceiling", "0.8"), ("trials", "20"), ("seed", "5"),
                        ("target", "sobolev")]),
    ], ids=["simulate", "certify-cm"])
    def test_config_equals_flags(self, tmp_path, command, settings):
        flags = [command]
        lines = []
        for key, value in settings:
            flags.append("--" + key.replace("_", "-"))
            if value is None:  # a switch
                lines.append(f"{key} = yes")
            else:
                flags.append(value)
                lines.append(f"{key} = {value}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert run_in(tmp_path / "flags", flags) == 0
        assert run_in(tmp_path / "config", [command, "--config", str(cfg)]) == 0
        from_flags = output_bytes(tmp_path / "flags")
        assert from_flags and output_bytes(tmp_path / "config") == from_flags


class TestParser:
    @pytest.mark.parametrize("command", [None] + COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            run_command(([command] if command else []) + ["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: torus4nls")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_build_helps_as_the_full_one(self, command, capsys):
        # run_command adds options only to the subcommand it was given:
        # `torus4nls --help` and that subcommand's help keep every byte
        full, full_commands = build_parser()
        parser, commands = build_parser(command)
        assert parser.format_help() == full.format_help()
        assert commands[command].format_help() == full_commands[command].format_help()
        with pytest.raises(SystemExit):
            run_command([command, "--help"])
        assert capsys.readouterr().out == full_commands[command].format_help()

    def test_help_names_every_data_spec_key(self, capsys):
        with pytest.raises(SystemExit):
            run_command(["--help"])
        out = capsys.readouterr().out
        keys = ["n", "amp", "phase", "kappa", "tau", "s", "seed", "decay", "l2",
                "hm", "m", "maxmode"]  # every key parse_data_spec accepts
        assert [k for k in keys if not re.search(rf"\b{k}=", out)] == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_command(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_each_option_has_one_meaning(self):
        # every option has a help line, and one shared by several
        # subcommands means the same thing in each
        _, commands = build_parser()
        seen = {}
        for name, sub in commands.items():
            for action in sub._actions:
                if action.dest == "help":
                    continue
                assert action.help, f"{name} {action.option_strings} has no help"
                meaning = (tuple(action.option_strings), type(action), action.type,
                           action.help, tuple(action.choices or ()))
                assert seen.setdefault(action.dest, meaning) == meaning, \
                    f"{name} {action.option_strings} differs from another command's"
        assert len(seen) == 28


class TestReproducibility:
    @pytest.mark.parametrize("argv", [
        ["sweep-inequalities", "--trials", "40", "--seed", "9"],
        ["simulate", "--data", "random:seed=5:decay=2.0:l2=0.3", "--nu", "1",
         "--integrable", "--num-modes", "32", "--dt", "1e-3", "--t-end", "0.01"],
        ["standing-wave", "--kappa", "0.4", "--tau", "2", "--nu", "1",
         "--lambda3", "0.2"],
        ["certify-cm", "--nu", "1", "--integrable", "--trials", "20",
         "--seed", "3"],
    ], ids=lambda argv: argv[0])
    def test_identical_argv_byte_identical_outputs(self, tmp_path, argv):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_command(argv + ["--outdir", str(a)]) in (0, 1)
        assert run_command(argv + ["--outdir", str(b)]) in (0, 1)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_riccati_prints_once(tmp_path):
    """riccati's order run forks a worker. With stdout on a pipe, and so
    block-buffered, a worker that returned into the CLI would print and
    write a second time, and one that left through ``sys.exit`` would flush
    the buffer it inherited."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "torus4nls.cli", "riccati", "--nu", "1",
         "--integrable", "--outdir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["riccati_contrast: verdict=pass"] + [
        f"  wrote {tmp_path / name}"
        for name in ("riccati_contrast__quotients.csv",
                     "riccati_contrast__manifest.json")
    ]


class TestCertifyCmCommand:
    def test_certificate_manifest(self, tmp_path):
        code = run_in(tmp_path, [
            "certify-cm", "--nu", "1", "--integrable", "--m", "4",
            "--trials", "30", "--seed", "7", "--target", "sobolev",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "certify_cm__manifest.json").read_text())
        assert manifest["worst_margin"] >= 0.0
        assert manifest["parameters"]["target"] == "sobolev"


class TestUsageErrors:
    @staticmethod
    def _forbid_runs(monkeypatch):
        """Fail a command that reaches its work: the first draw of a study
        or a certificate, or the first run."""
        def no_run(*args, **kwargs):
            raise AssertionError("ran before checking its arguments")

        for module, name in FIRST_WORK:
            monkeypatch.setattr(module, name, no_run)

    def test_missing_fork_is_2(self, tmp_path, monkeypatch, capsys):
        # riccati's order reference runs in a forked worker: where os.fork
        # does not exist, that is a named usage error before any run
        def no_run(*args, **kwargs):
            raise AssertionError("ran without os.fork")

        for name in ("integrate", "integrate_many"):
            monkeypatch.setattr(experiments, name, no_run)
        monkeypatch.delattr(os, "fork")
        code = run_in(tmp_path, ["riccati", "--nu", "1", "--integrable"])
        assert code == 2
        assert "os.fork" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_simulate_without_fork_is_2(self, tmp_path, monkeypatch, capsys):
        # simulate's trajectory is written by a forked worker: where os.fork
        # does not exist, that is the same usage error, before any step
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("ran"))
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "out"
        assert run_in(out, ["simulate", "--t-end", "0.01"]) == 2
        out_text, err = capsys.readouterr()
        assert "usage error: " in err and "os.fork" in err
        assert out_text == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--eps", "2"], "--eps must lie in [0, 1], got 2.0"),
        (["--t-end=-1"], "--t-end must be nonnegative and finite, got -1.0"),
    ], ids=["eps", "t-end"])
    def test_simulate_refuses_its_run_before_forking(self, tmp_path, monkeypatch,
                                                     capsys, argv, message):
        # the run's own checks come before its trajectory's writer is forked
        # and its output directory made
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        out = tmp_path / "out"
        assert run_in(out, ["simulate", "--nu", "1", *argv]) == 2
        out_text, err = capsys.readouterr()
        assert err == f"usage error: {message}\n"
        assert out_text == "" and forks == []
        assert not out.exists()

    def test_key_error_is_a_bug_not_a_usage_error(self, tmp_path, monkeypatch):
        # a KeyError from study code is a fault of the program: it propagates
        def lookup_fails(args):
            return {}["missing"]

        monkeypatch.setattr(cli, "cmd_standing_wave", lookup_fails)
        with pytest.raises(KeyError, match="missing"):
            run_in(tmp_path, ["standing-wave"])

    def test_unmeasurable_riccati_contrast_is_2(self, tmp_path, capsys):
        # the energies do not move in one 1e-300 step, so every growth
        # quotient is 0 and the contrast would divide by it
        out = tmp_path / "out"
        argv = ["riccati", "--nu", "1", "--integrable", "--t-end", "1e-300"]
        assert run_in(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert err.startswith("usage error: --t-end 1e-300 is too short for the "
                              "energies to move, ")
        assert out_text == ""
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1.5", "2", "-0.1"])
    def test_bad_parameter_value_is_2(self, tmp_path, capsys, eps):
        # epsilon must lie in [0, 1]; the run refuses it before its first
        # sample, so the trajectory's writer is reaped and the directory
        # made for its table is removed
        out = tmp_path / "out"
        argv = ["simulate", "--nu", "1", f"--eps={eps}", "--t-end", "0.01"]
        assert run_in(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert err == f"usage error: --eps must lie in [0, 1], got {float(eps)}\n"
        assert out_text == ""
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # the writer was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_unknown_config_key_is_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\nkapa = 0.7\n")
        code = run_in(tmp_path, ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("text", [
        "kappa = 0.5\nkappa = 0.7\n",
        "config = other.cfg\n",
        "command = simulate\n",
        "func = x\n",
    ], ids=["repeated", "config", "command", "func"])
    def test_ignored_config_key_is_2(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = run_in(tmp_path, ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("value", ["ture", "2", "on", ""])
    def test_unrecognised_integrable_is_2(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"integrable = {value}\n")
        code = run_in(tmp_path, ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("value,integrable", [
        ("1", True), ("True", True), ("YES", True),
        ("0", False), ("false", False), ("No", False),
    ])
    def test_integrable_config_spellings(self, tmp_path, value, integrable):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"integrable = {value}\n")
        code = run_in(tmp_path, ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 0
        manifest = json.loads((tmp_path / "standing_wave__manifest.json").read_text())
        expect = integrable_coefficients(1.0).lambdas if integrable else (0.0,) * 6
        assert manifest["parameters"]["lambdas"] == list(expect)

    def test_riccati_has_no_n_low(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_in(tmp_path, [
                "riccati", "--nu", "1", "--integrable", "--n-low", "1",
                "--cm-trials", "2", "--t-end", "4e-6",
            ])
        assert err.value.code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_lambdas_with_integrable_is_2(self, tmp_path, source):
        argv = ["standing-wave", "--nu", "1", "--integrable"]
        if source == "flag":
            argv += ["--lambda3", "0.2"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("lambda3 = 0.2\n")
            argv += ["--config", str(cfg)]
        assert run_in(tmp_path, argv) == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        # eps-converge sets eps per ladder rung: a given --eps would be ignored
        ["eps-converge", "--nu", "1", "--integrable", "--eps", "0.3",
         "--t-end", "0.005", "--dt", "1e-3"],
        ["standing-wave", "--nu", "1", "--kap", "0.4", "--ta", "2"],
        ["--vers"],
        # the coefficients fix the dealiasing pad
        *([command, "--pad", "3", "--t-end", "0.005"] for command in STEPPING),
        # conservation, riccati and continuity have no ε: they run at ε = 0
        ["conserve", "--eps", "0", "--t-end", "0.005"],
        ["riccati", "--nu", "1", "--integrable", "--eps", "0", "--cm-trials", "2",
         "--t-end", "4e-6"],
        ["continuity", "--eps", "0", "--t-end", "0.005"],
    ], ids=["eps-converge-eps", "abbreviated", "abbreviated-top-level",
            *(f"{command}-pad" for command in STEPPING), "conserve-eps",
            "riccati-eps", "continuity-eps"])
    def test_unknown_flag_is_2(self, tmp_path, argv):
        assert exit_code(tmp_path, argv) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,text", [
        *((command, "pad = 3") for command in STEPPING),
        *((command, "eps = 0") for command in ("conserve", "riccati", "continuity")),
    ], ids=[*(f"{command}-pad" for command in STEPPING), "conserve-eps",
            "riccati-eps", "continuity-eps"])
    def test_config_key_without_flag_is_2(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\nt_end = 0.005\n")
        out = tmp_path / "out"
        assert run_in(out, [command, "--config", str(cfg)]) == 2
        assert "unknown config key(s): " + text.split()[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--dt", "nan", "--t-end", "0.01"], "--dt"),
        (["simulate", "--dt", "inf", "--t-end", "0.01"], "--dt"),
        (["simulate", "--t-end", "nan"], "--t-end"),
        (["simulate", "--t-end", "inf"], "--t-end"),
        (["conserve", "--t-end", "nan"], "--t-end"),
        (["standing-wave", "--kappa", "nan"], "--kappa"),
        (["standing-wave", "--kappa", "inf"], "--kappa"),
        (["standing-wave", "--nu", "nan"], "--nu"),
        (["standing-wave", "--lambda1", "nan"], "--lambda1"),
        (["certify-cm", "--nu", "nan", "--trials", "5"], "--nu"),
        (["simulate", "--lambda1", "nan", "--t-end", "0.01"], "--lambda1"),
        (["conserve", "--nu", "nan"], "--nu"),
        (["sweep-inequalities", "--nu", "nan", "--trials", "3"], "--nu"),
    ], ids=["dt-nan", "dt-inf", "t-end-nan", "t-end-inf", "conserve-t-end-nan",
            "kappa-nan", "kappa-inf", "standing-wave-nu", "standing-wave-lambda1",
            "certify-cm-nu", "simulate-lambda1", "conserve-nu",
            "sweep-inequalities-nu"])
    def test_nonfinite_value_is_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert run_in(out, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["eps-converge", "--nu", "1", "--integrable", "--eps-ladder", "2^100000,2^-3"],
         "argument --eps-ladder: an entry of '2^100000,2^-3' overflows"),
        (["continuity", "--nu", "1", "--integrable", "--deltas", "2^100000,1e-3"],
         "argument --deltas: an entry of '2^100000,1e-3' overflows"),
        # a plain float that overflows is refused the same way; inf and nan
        # are left to the study's own check
        (["eps-converge", "--nu", "1", "--integrable", "--eps-ladder", "1e400,2^-3"],
         "argument --eps-ladder: an entry of '1e400,2^-3' overflows"),
        (["continuity", "--nu", "1", "--integrable", "--deltas", "1e400,1e-3"],
         "argument --deltas: an entry of '1e400,1e-3' overflows"),
        # ω overflows in Python floats; at 1e60 ω is finite but the residual is not
        (["standing-wave", "--kappa", "1e100"], "not finite at --kappa 1e+100,"),
        (["standing-wave", "--nu", "1", "--integrable", "--kappa", "1e60"],
         "not finite at --kappa 1e+60,"),
        # the residual's ν n⁴ overflows: the message names every input of ω
        (["standing-wave", "--nu", "1e308"],
         "--kappa 0.3, --tau 1, --nu 1e+308, lambdas (0.0,"),
        # the integrable λ6 = -2ν overflows
        (["sweep-inequalities", "--nu", "1e308", "--trials", "3"],
         "usage error: --nu must be finite with finite integrable lambdas"),
        # the plane wave's coefficient κ√(2π) overflows
        (["standing-wave", "--kappa", "1e308"], "usage error: --kappa must be"),
        # the certificate divides by the mass power l2_ceiling^(4m+2)
        (["certify-cm", "--ceiling", "1e18"], "l2_ceiling^(4m+2) must be"),
        (["certify-cm", "--ceiling", "1e200"], "l2_ceiling^(4m+2) must be"),
        (["certify-cm", "--ceiling", "1e-30"], "l2_ceiling^(4m+2) must be"),
        (["riccati", "--nu", "1", "--integrable", "--ceiling", "1e40"],
         "l2_ceiling^(4m+2) must be"),
        (["sweep-inequalities", "--ceiling", "1e40"], "l2_ceiling^(4m+2) must be"),
        # an m whose weights <n>^(2m) or |n|^(2m) overflow on a grid it uses
        (["certify-cm", "--m", "140", "--trials", "5"],
         "usage error: --m must be small enough for |n|^(2m) to be finite at N=32, "
         "got 140"),
        (["certify-cm", "--m", "100", "--trials", "5"],
         "usage error: --m must be small enough for |n|^(2m) to be finite at N=128, "
         "got 100"),
        (["sweep-inequalities", "--m", "120", "--trials", "3"],
         "usage error: --m must be small enough for <n>^(2m) to be finite at N=64, "
         "got 120"),
        (["bona-smith", "--m", "200"],
         "usage error: --m must be small enough for <n>^(2m) to be finite at N=1024, "
         "got 200"),
        *((argv, "usage error: --m must be small enough for <n>^(2m) to be finite at "
                 "N=64, got 400")
          for argv in (["simulate", "--m", "400"], ["conserve", "--m", "400"],
                       ["continuity", "--m", "400"])),
        (["riccati", "--nu", "1", "--integrable", "--m", "200"],
         "a weight <n>^(2m) does, got hm_norm=2.0, m=200"),
        # linear factors W_eps(dt) that are not finite
        (["simulate", "--nu", "1e308", "--t-end", "0.003"], "nu=1e+308, dt=0.001"),
        (["simulate", "--dt", "1e308", "--t-end", "1e308"], "nu=1.0, dt=1e+308"),
    ], ids=["eps-ladder", "deltas", "eps-ladder-float", "deltas-float", "kappa-omega",
            "kappa-residual", "standing-wave-nu", "sweep-inequalities-nu",
            "kappa-coefficient", "certify-cm", "certify-cm-nan-margin",
            "certify-cm-underflow", "riccati", "sweep-inequalities", "certify-cm-m140",
            "certify-cm-m100", "sweep-inequalities-m", "bona-smith-m", "simulate-m",
            "conserve-m", "continuity-m", "riccati-m",
            "simulate-nu", "simulate-dt"])
    def test_overflowing_value_is_2(self, tmp_path, monkeypatch, capsys, argv, name):
        monkeypatch.setattr(experiments, "integrate_many",
                            lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "out"
        assert exit_code(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert err.startswith(name) if name.startswith("usage error: ") else name in err
        assert out_text == ""  # refused before printing a result
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # riccati's worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--data", "modes:n=1:amp=1e18", "--t-end", "0.01"],
         "mass power ||psi||^(4m+2) overflows"),
        (["conserve", "--nu", "1", "--data", "modes:n=1:amp=1e30"],
         "mass power ||psi||^(4m+2) overflows"),
        # the correction integrals would overflow too, after the mass power
        (["conserve", "--nu", "1", "--data", "modes:n=1:amp=1e100"],
         "mass power ||psi||^(4m+2) overflows"),
        (["riccati", "--nu", "1", "--integrable", "--hm-size", "1e20",
          "--t-end", "1e-5"], "mass power ||psi||^(4m+2) overflows"),
        (["riccati", "--nu", "1", "--integrable", "--hm-size", "1e200"],
         "hm_norm^2 overflows"),
        # refused by the runs' first H^m norm, before a step
        (["eps-converge", "--m", "400"],
         "--m must be small enough for <n>^(2m) to be finite at N=64, got 400"),
    ], ids=["simulate", "conserve", "conserve-correction", "riccati-energy",
            "riccati-hm-size", "eps-converge-m"])
    def test_overflowing_energy_is_2(self, tmp_path, capsys, argv, message):
        # finite data whose modified energy overflows in Python floats: a
        # RuntimeWarning leaked on the way would fail here as an error
        out = tmp_path / "out"
        assert run_in(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert err.startswith("usage error: ") and message in err
        assert out_text == ""
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # riccati's worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv,blocks", [
        (["simulate", "--t-end", "0.02"], [1, 16]),
        (["simulate", "--t-end", "0.01"], [1, 10]),
        (["conserve", "--nu", "1"], [1, 16]),
    ], ids=["simulate-full-block", "simulate-last-block", "conserve"])
    def test_failing_later_recorder_block_is_2(self, tmp_path, capsys,
                                               fail_second_block, argv, blocks):
        # the recorder fails after the first step: in a block filled while
        # stepping, or in simulate's last block, evaluated when it reads
        # the columns before its writer is done
        out = tmp_path / "out"
        assert run_in(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert err.startswith("usage error: ") and "a later block" in err
        assert out_text == ""
        assert fail_second_block == blocks
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # simulate's writer was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", [
        ("eps-converge", "--eps-ladder", "0^-1,2^-3"),
        ("eps-converge", "--eps-ladder", "-2^0.5,2^-3"),
        ("continuity", "--deltas", "-4^0.5,1e-3"),
    ], ids=["zero-to-negative", "negative-to-fraction", "deltas"])
    def test_ladder_entry_with_no_real_value_is_2(self, tmp_path, monkeypatch,
                                                  capsys, command, flag, value,
                                                  source):
        # 0^-1 would divide by zero, and -2^0.5 would be a complex number
        self._forbid_runs(monkeypatch)
        out, entry = tmp_path / "out", value.split(",")[0]
        argv = [command, "--nu", "1", "--integrable", f"{flag}={value}"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
            argv[-1:] = ["--config", str(cfg)]
        assert exit_code(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert f"argument {flag}: {entry} is not a real number" in err
        assert out_text == ""
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", [
        ("continuity", "--deltas", "1e-2,1e-400"),
        ("eps-converge", "--eps-ladder", "2^-3,2^-1e400"),
    ], ids=["deltas", "eps-ladder"])
    def test_ladder_entry_that_underflows_is_2(self, tmp_path, monkeypatch, capsys,
                                               command, flag, value, source):
        # a nonzero entry that parses to 0.0 is the flag's error, not the study's
        self._forbid_runs(monkeypatch)
        out, entry = tmp_path / "out", value.split(",")[1]
        argv = [command, "--nu", "1", "--integrable", f"{flag}={value}"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
            argv[-1:] = ["--config", str(cfg)]
        assert exit_code(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert f"argument {flag}: {entry} underflows to 0" in err
        assert out_text == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["standing-wave", "--tau", "40"],
         "--tau must lie in the resolved band [-31, 31], got 40\n"),
        (["simulate", "--data", "standing:tau=40"],
         "standing spec: tau must lie in the resolved band [-31, 31], got 40\n"),
        (["simulate", "--data", "decay:s=-1000"], "decay spec: s=-1000.0"),
        (["conserve", "--data", "random:seed=1:decay=-1000:hm=0.4:m=4"],
         "random spec: decay=-1000.0"),
        # the Nyquist mode -N/2 is stored, but the scheme zeroes it
        (["standing-wave", "--nu", "1", "--integrable", "--tau", "-32"],
         "--tau must lie in the resolved band [-31, 31], got -32\n"),
        (["simulate", "--data", "standing:tau=-32"],
         "standing spec: tau must lie in the resolved band [-31, 31], got -32\n"),
        (["simulate", "--data", "modes:n=-32:amp=0.1"],
         "modes spec: n must lie in the resolved band [-31, 31], got -32\n"),
    ], ids=["tau-flag", "tau-spec", "decay-envelope", "random-envelope",
            "nyquist-tau-flag", "nyquist-tau-spec", "nyquist-modes"])
    def test_unresolved_data_names_its_flag_or_key(self, tmp_path, monkeypatch,
                                                   capsys, argv, message):
        # a RuntimeWarning leaked on the way would fail here as an error
        self._forbid_runs(monkeypatch)
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "out"
        assert run_in(out, argv) == 2
        out_text, err = capsys.readouterr()
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1
        assert out_text == ""
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["standing-wave", "riccati"])
    def test_outdir_that_cannot_be_a_directory_is_2(self, tmp_path, monkeypatch,
                                                    capsys, command, source, under):
        # refused before the study runs, not as a traceback after it
        self._forbid_runs(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("a file\n")
        outdir = "taken/run/x" if under else "taken"
        argv = [command, "--nu", "1", "--integrable"]
        if source == "flag":
            argv += ["--outdir", outdir]
        else:
            (tmp_path / "run.cfg").write_text(f"outdir = {outdir}\n")
            argv += ["--config", "run.cfg"]
        assert run_command(argv) == 2
        out_text, err = capsys.readouterr()
        assert f"usage error: --outdir '{outdir}': 'taken' is not a directory" in err
        assert out_text == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["taken"] + (["run.cfg"] if source == "config" else []))
        assert (tmp_path / "taken").read_text() == "a file\n"

    @pytest.mark.parametrize("argv,flag,value", [
        (["riccati", "--nu", "1", "--integrable", "--cm-trials", "0"], "--cm-trials", 0),
        (["certify-cm", "--nu", "1", "--integrable", "--trials", "0"], "--trials", 0),
        (["sweep-inequalities", "--trials", "0"], "--trials", 0),
        (["certify-cm", "--m", "-1", "--trials", "3"], "--m", -1),
        (["sweep-inequalities", "--m", "0"], "--m", 0),
        (["sweep-inequalities", "--m", "-2"], "--m", -2),
        *[([command, "--nu", "1", "--integrable", "--m", "0"], "--m", 0)
          for command in ("riccati", "continuity", "eps-converge", "simulate")],
        (["conserve", "--nu", "1", "--m", "0"], "--m", 0),
    ], ids=["riccati", "certify-cm", "sweep-inequalities", "certify-cm-m",
            "sweep-inequalities-m0", "sweep-inequalities-m-2", "riccati-m",
            "continuity-m", "eps-converge-m", "simulate-m", "conserve-m"])
    def test_below_one_is_2(self, tmp_path, monkeypatch, capsys, argv, flag, value):
        # counts and --m below 1 are refused naming the flag, before any work
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        assert run_in(out, argv) == 2
        assert capsys.readouterr().err == f"usage error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    def test_riccati_underflowing_hm_size_is_2(self, tmp_path, capsys):
        # the growth quotients divide by E^2, which underflows at this size
        out = tmp_path / "out"
        argv = ["riccati", "--nu", "1", "--integrable", "--hm-size", "1e-80",
                "--cm-trials", "2", "--t-end", "4e-6"]
        assert run_in(out, argv) == 2
        assert capsys.readouterr().err == ("usage error: --hm-size is so small that "
                                           "its energies' E^2 underflow\n")
        assert not out.exists()

    def test_riccati_linear_flow_is_2(self, tmp_path, monkeypatch, capsys):
        # every lambda 0 at the defaults: each growth quotient would be 0, so
        # no certificate is drawn for it either
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        assert run_in(out, ["riccati", "--cm-trials", "2"]) == 2
        assert capsys.readouterr().err == ("usage error: the riccati contrast needs a "
                                           "nonlinearity, but every lambda is 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_outdir_is_2(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        argv = ["standing-wave", "--nu", "1"]
        if source == "flag":
            argv += ["--outdir", ""]
        else:
            (tmp_path / "run.cfg").write_text("outdir =\n")
            argv += ["--config", "run.cfg"]
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before the study ran
        assert "--outdir must not be empty" in err
        assert not (tmp_path / "runs").exists()

    def test_eps_converge_config_eps_is_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.3\nt_end = 0.005\ndt = 1e-3\n")
        out = tmp_path / "out"
        code = run_in(out,
                      ["eps-converge", "--nu", "1", "--integrable", "--config", str(cfg)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, kind):
        path = tmp_path / "absent.cfg" if kind == "missing" else tmp_path
        code = run_in(tmp_path, ["standing-wave", "--nu", "1", "--config", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("command,text,flag", [
        ("standing-wave", "tau = 1.5", "--tau"),
        ("standing-wave", "kappa = abc", "--kappa"),
        ("simulate", "eps =", "--eps"),
    ], ids=["int", "float", "empty"])
    def test_bad_typed_config_value_is_2(self, tmp_path, capsys, command, text, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "out"
        code = exit_code(out, [command, "--num-modes", "32", "--config", str(cfg)])
        assert code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["certify-cm", "sweep-inequalities", "riccati"])
    def test_nonpositive_ceiling_is_2(self, tmp_path, monkeypatch, capsys, command,
                                      value):
        # every sample is drawn at the ceiling's L2 mass
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        argv = [command, f"--ceiling={value}"]
        if command == "riccati":  # its linear default lambdas are refused first
            argv += ["--nu", "1", "--integrable"]
        assert exit_code(out, argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: --ceiling must be > 0 and finite, got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "nan", "inf"])
    def test_nonpositive_hm_size_is_2(self, tmp_path, capsys, value):
        # the family's amplitudes come from hm_size squared
        out = tmp_path / "out"
        code = exit_code(out, ["riccati", f"--hm-size={value}"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: --hm-size must be > 0 and finite, got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["bona-smith", "--l-values", "0,1,0"], "--l-values"),
        (["eps-converge", "--nu", "1", "--integrable", "--t-end", "0.005",
          "--eps-ladder", "2^-3,2^-3,2^-4"], "--eps-ladder"),
        (["continuity", "--nu", "1", "--integrable", "--t-end", "0.005",
          "--deltas", "1e-2,1e-2,1e-3"], "--deltas"),
        (["riccati", "--nu", "1", "--integrable", "--seps", "4,4"], "--seps"),
    ], ids=["bona-smith", "eps-converge", "continuity", "riccati"])
    def test_repeated_entry_is_2(self, tmp_path, capsys, argv, name):
        # a repeated ladder entry would only repeat a run
        out = tmp_path / "out"
        assert exit_code(out, argv) == 2
        assert capsys.readouterr().err.startswith(f"usage error: {name} repeats an entry")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["riccati", "--nu", "1", "--integrable", "--seps", "4,200"],
         "--seps must lie in [2, 126], got 200\n"),
        (["riccati", "--nu", "1", "--integrable", "--seps", "1,4"],
         "--seps must lie in [2, 126], got 1\n"),
        (["riccati", "--nu", "1", "--integrable", "--seps", "4,x"],
         "argument --seps: invalid literal for int()"),
        (["bona-smith", "--l-values", "0,5"],
         "--l-values entries must lie in [0, m] = [0, 4]: [0, 5]\n"),
        (["eps-converge", "--nu", "1", "--integrable", "--eps-ladder", ","],
         "argument --eps-ladder: empty list"),
        (["continuity", "--nu", "1", "--integrable", "--deltas", "1e-2,x"],
         "argument --deltas: could not convert string to float"),
    ], ids=["seps-above", "seps-below", "seps-literal", "l-values-range",
            "eps-ladder-empty", "deltas-literal"])
    def test_bad_list_entry_names_the_flag(self, tmp_path, monkeypatch, capsys,
                                           argv, message):
        # argparse's own message follows its usage text; every other is the line
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        assert exit_code(out, argv) == 2
        err = capsys.readouterr().err
        assert message in err if message.startswith("argument ") else (
            err == f"usage error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command,line,message", [
        ("riccati", "seps = 4,x", "argument --seps: invalid literal for int()"),
        ("continuity", "deltas = 1e-2", "--deltas needs at least two entries: [0.01]"),
        ("continuity", "deltas = 1e-2,1e-2", "--deltas repeats an entry"),
        ("continuity", "deltas = 1e-2,0", "--deltas entries must be positive"),
        ("bona-smith", "l_values = 0,0", "--l-values repeats an entry: [0, 0]"),
        ("bona-smith", "l_values = 0,5", "--l-values entries must lie in [0, m]"),
        ("eps-converge", "eps_ladder = 2^-3",
         "--eps-ladder needs at least two entries"),
    ], ids=["seps-literal", "deltas-one", "deltas-repeat", "deltas-zero",
            "l-values-repeat", "l-values-range", "eps-ladder-one"])
    def test_bad_config_list_names_the_flag(self, tmp_path, monkeypatch, capsys,
                                            command, line, message):
        # a list read from the config file is checked as its flag is
        self._forbid_runs(monkeypatch)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "bona-smith":
            argv += ["--nu", "1", "--integrable"]
        assert exit_code(out, argv) == 2
        err = capsys.readouterr().err
        assert message in err if message.startswith("argument ") else (
            err.startswith(f"usage error: {message}"))
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["0", "-1e-3", "inf"])
    def test_bad_delta_is_2_before_any_run(self, tmp_path, monkeypatch, capsys, delta):
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        argv = ["continuity", "--nu", "1", "--integrable", "--deltas", f"1e-2,{delta}"]
        assert exit_code(out, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --deltas entries must be positive and finite")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_delta_that_overflows_the_norm_is_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, source):
        # 1e300 is finite, but the perturbed data's H^m norm squared is not
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        argv = ["continuity", "--nu", "1", "--integrable", "--deltas", "1e300,1"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("deltas = 1e300,1\n")
            argv[-2:] = ["--config", str(cfg)]
        assert exit_code(out, argv) == 2
        err = capsys.readouterr().err
        assert err == ("usage error: --deltas entry 1e+300 is too large: the perturbed "
                       "data's H^m norm (m=4) overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,spec,key", [
        ("simulate", "modes:n=1:amp=nan", "amp"),
        ("simulate", "modes:n=1:amp=inf", "amp"),
        ("simulate", "modes:n=1:phase=inf", "phase"),
        ("simulate", "decay:s=nan", "s"),
        ("simulate", "random:seed=1:l2=nan", "l2"),
        ("simulate", "random:seed=1:decay=nan", "decay"),
        ("conserve", "random:seed=1:hm=inf:m=4", "hm"),
        # a norm to rescale to must be > 0: -1 would flip the sign of the data
        ("simulate", "random:seed=1:l2=-1", "l2"),
        ("conserve", "random:seed=1:hm=0:m=4", "hm"),
        # an integer past the float range
        pytest.param("simulate", "modes:n=1" + "0" * 309, "n", id="huge-int"),
    ])
    def test_bad_data_number_is_2(self, tmp_path, capsys, command, spec, key):
        out = tmp_path / "out"
        assert run_in(out, [command, "--data", spec]) == 2
        assert f": {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,spec,value", [
        ("simulate", "random:seed=1:l2=-1", "l2 must be > 0 and finite, got -1.0"),
        ("conserve", "random:seed=1:hm=0:m=4", "hm must be > 0 and finite, got 0.0"),
    ], ids=["l2", "hm"])
    def test_rescaling_norm_is_named_by_its_key(self, tmp_path, capsys, command, spec,
                                                value):
        # random_rows states the constraint on l2_mass and hm_norm; the spec
        # names each by its key
        out = tmp_path / "out"
        assert run_in(out, [command, "--data", spec]) == 2
        assert capsys.readouterr().err == f"usage error: random spec: {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["0", "-1e-3"])
    @pytest.mark.parametrize("command", ["conserve", "eps-converge", "riccati",
                                         "continuity"])
    def test_nonpositive_t_end_is_2_before_any_run(self, tmp_path, monkeypatch,
                                                    capsys, command, t_end):
        # a study measured on no step would report a verdict on nothing
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        argv = [command, "--nu", "1", f"--t-end={t_end}"]
        if command != "conserve":
            argv.append("--integrable")
        assert exit_code(out, argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: --t-end must be positive and finite, got {float(t_end)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["eps-converge", "--eps-ladder", "2^-3"], "--eps-ladder"),
        (["continuity", "--deltas", "1e-2"], "--deltas"),
        # one member has no growth from first to last to contrast
        (["riccati", "--seps", "4"], "--seps"),
    ], ids=["eps-converge", "continuity", "riccati"])
    def test_one_entry_ladder_is_2_before_any_run(self, tmp_path, monkeypatch,
                                                  capsys, argv, name):
        # one rung fits no rate
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        assert exit_code(out, argv + ["--nu", "1", "--integrable"]) == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: {name} needs at least two entries: [")
        assert not out.exists()

    def test_negative_maxmode_is_2_before_any_run(self, tmp_path, monkeypatch, capsys):
        # random_field zeroes |n| > max_mode: a negative one empties every mode
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "out"
        argv = ["simulate", "--data", "random:seed=1:maxmode=-1", "--t-end", "0.01"]
        assert exit_code(out, argv) == 2
        assert "random spec: maxmode must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_maxmode_keeps_the_mean(self):
        psi = parse_data_spec("random:seed=1:maxmode=0", GridSpec(16))
        assert psi.coeffs[0] != 0.0 and not np.any(psi.coeffs[1:])

    @pytest.mark.parametrize("argv", [
        ["sweep-inequalities"],
        ["certify-cm"],
        ["continuity", "--nu", "1", "--integrable"],
        ["riccati", "--nu", "1", "--integrable"],
    ], ids=["sweep-inequalities", "certify-cm", "continuity", "riccati"])
    def test_negative_seed_is_2_before_any_run(self, tmp_path, monkeypatch, capsys,
                                               argv):
        # numpy's own error ("expected non-negative integer") names no flag
        self._forbid_runs(monkeypatch)
        out = tmp_path / "out"
        assert exit_code(out, argv + ["--seed=-1"]) == 2
        assert capsys.readouterr().err == "usage error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_negative_spec_seed_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "out"
        argv = ["simulate", "--data", "random:seed=-3", "--t-end", "0.01"]
        assert exit_code(out, argv) == 2
        assert "random spec: seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry,value", [("0", "0.0"), ("-2^-3", "-0.125"),
                                             ("1.5", "1.5"), ("nan", "nan")])
    def test_eps_ladder_outside_unit_interval_is_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, entry, value):
        # mollification is defined for ε in (0, 1]: mollify's error, printed
        # under the flag of the ladder, names the entry it refuses. mollify
        # states the check, so it is called; no run starts
        self._forbid_runs(monkeypatch)
        monkeypatch.setattr(experiments, "mollify", mollifier.mollify)
        out = tmp_path / "out"
        argv = ["eps-converge", "--nu", "1", "--integrable", "--eps-ladder",
                f"2^-3,{entry}"]
        assert exit_code(out, argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: --eps-ladder must lie in (0, 1], got {value}\n")
        assert not out.exists()


# One value outside the domain of each flag that has one: a count below 1,
# a NaN, a value out of range, or a list of one entry. A switch, a choice, a
# file and a data spec (whose errors name its key) have no such value here.
INVALID = {
    "outdir": "", "num_modes": "5", "dt": "0", "t_end": "-1", "eps": "2", "m": "-1",
    "nu": "nan", **dict.fromkeys(cli.LAMBDA_KEYS, "nan"), "seed": "-1",
    "l_values": "5", "eps_ladder": "2^-3", "seps": "4", "hm_size": "0",
    "cm_trials": "0", "ceiling": "0", "deltas": "1e-2", "trials": "0",
    "kappa": "nan", "tau": "40",
}
NO_DOMAIN = {"config", "data", "integrable", "target"}
FLAG_CASES = [(command, dest) for command, (_, defaults) in cli.COMMANDS.items()
              for dest in ["outdir", *defaults] if dest not in NO_DOMAIN]


class TestEveryFlagError:
    """Each command refuses each of its flags at an invalid value before any
    draw or step, with one stderr line that names the flag."""

    def test_every_flag_is_classified(self):
        assert set(cli.FLAGS) == set(INVALID) | NO_DOMAIN

    @staticmethod
    def refused(tmp_path, monkeypatch, capsys, argv):
        """stderr of ``argv``, run in an empty ``tmp_path`` with no draw or
        step allowed, after checking that it exits 2, prints nothing to
        stdout and leaves ``tmp_path`` empty."""
        def no_work(*args, **kwargs):
            raise AssertionError("reached a draw or a step before refusing")

        for module, name in FIRST_DRAW_OR_STEP:
            monkeypatch.setattr(module, name, no_work)
        monkeypatch.chdir(tmp_path)
        if not any(a.startswith("--outdir=") for a in argv):
            argv = argv + ["--outdir=out"]
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert not list(tmp_path.iterdir())
        return err

    @pytest.mark.parametrize("command,dest", FLAG_CASES,
                             ids=[f"{command}-{dest}" for command, dest in FLAG_CASES])
    def test_invalid_value_names_its_flag(self, tmp_path, monkeypatch, capsys,
                                          command, dest):
        argv = [command, f"--{dest.replace('_', '-')}={INVALID[dest]}"]
        # every other input valid: riccati refuses linear coefficients first
        if "integrable" in cli.COMMANDS[command][1] and dest not in cli.LAMBDA_KEYS:
            argv.append("--integrable")
        err = self.refused(tmp_path, monkeypatch, capsys, argv)
        assert err.startswith(f"usage error: --{dest.replace('_', '-')} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,line", [
        (["simulate", "--dt", "0"], "--dt must be positive and finite, got 0.0"),
        (["simulate", "--num-modes", "5"], "--num-modes must be even and >= 4, got 5"),
        (["simulate", "--nu", "0"], "--nu must be finite and nonzero, got 0.0"),
        (["standing-wave", "--lambda4", "nan"], "--lambda4 must be finite, got nan"),
        (["simulate", "--eps", "2"], "--eps must lie in [0, 1], got 2.0"),
        (["simulate", "--t-end", "-1"],
         "--t-end must be nonnegative and finite, got -1.0"),
        (["sweep-inequalities", "--ceiling", "0"],
         "--ceiling must be > 0 and finite, got 0.0"),
        (["riccati", "--integrable", "--hm-size", "0"],
         "--hm-size must be > 0 and finite, got 0.0"),
        (["eps-converge", "--integrable", "--m", "2"],
         "--m must be >= 4 for this study, got 2"),
        (["certify-cm", "--m", "-1"], "--m must be >= 1, got -1"),
        (["bona-smith", "--m", "-1"], "--m must be >= 0, got -1"),
        (["riccati", "--integrable", "--cm-trials", "0"], "--cm-trials must be >= 1, got 0"),
        (["riccati"], "the riccati contrast needs a nonlinearity, but every lambda is 0"),
    ], ids=["dt", "num-modes", "nu", "lambda", "eps", "t-end", "ceiling", "hm-size",
            "eps-converge-m", "certify-cm-m", "bona-smith-m", "cm-trials",
            "riccati-linear"])
    def test_refusal_line(self, tmp_path, monkeypatch, capsys, argv, line):
        err = self.refused(tmp_path, monkeypatch, capsys, argv)
        assert err == f"usage error: {line}\n"
