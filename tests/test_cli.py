"""Command-line surface: exit codes, manifests, precedence, reproducibility."""

import functools
import json
import tracemalloc

import numpy as np
import pytest

import torus4nls.cli as cli
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


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("TORUS4NLS_OUTDIR", raising=False)
    return run_command(argv + ["--outdir", str(tmp_path)])


def exit_code(tmp_path, monkeypatch, argv):
    """The process exit code of ``argv``: argparse's errors raise SystemExit."""
    try:
        return run_in(tmp_path, monkeypatch, argv)
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
                  observers=[samples.append])
    order = np.argsort(grid.modes)
    states = np.array([s.state.coeffs[order] for s in samples])
    trajectory = {"time": [s.time for s in samples]}
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
        assert f.coeff(1) == pytest.approx(0.5)
        assert f.coeff(-2) == pytest.approx(0.1)
        assert np.count_nonzero(f.coeffs) == 2

    def test_standing_preset(self):
        grid = GridSpec(32)
        f = parse_data_spec("standing:kappa=0.4:tau=2", grid)
        assert f.coeff(2) == pytest.approx(0.4 * np.sqrt(2 * np.pi))

    def test_decay_preset(self):
        grid = GridSpec(32)
        f = parse_data_spec("decay:s=3.0:amp=2.0", grid)
        assert f.coeff(0) == pytest.approx(2.0)
        assert f.coeff(3) == pytest.approx(2.0 * 10.0**-1.5)

    def test_random_preset_deterministic(self):
        grid = GridSpec(32)
        a = parse_data_spec("random:seed=7:decay=2.0:l2=0.5", grid)
        b = parse_data_spec("random:seed=7:decay=2.0:l2=0.5", grid)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert sobolev_norm(a, 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [
        "nope:1", "modes:amp=1", "modes:n=99:amp=1",
        # input the parser would otherwise drop without a word
        "random:seed=7:l2=0.5:hm=0.4",  # two rescalings
        "random:seed=7:decya=9.0",  # a key random does not read
        "random:seed=7:m=2",  # m without hm
        "random:seed=7:seed=8",
        "decay:s=3.0:amp=1.0:tau=2",
        "standing:kappa=0.3:s=2",
        "modes:n=1:amp=0.5:decay=2",
        "modes:n=1:amp=0.5,n=1:amp=0.2",  # the later entry would win
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises((ValueError, KeyError)):
            parse_data_spec(bad, GridSpec(32))

    def test_ladder_exponent_notation(self):
        assert parse_ladder("2^-3,0.5,1e-2") == [0.125, 0.5, 0.01]


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            run_command(["no-such-command"])
        assert err.value.code == 2

    def test_standing_wave_zero_amplitude(self, tmp_path, monkeypatch, capsys):
        code = run_in(tmp_path, monkeypatch,
                      ["standing-wave", "--kappa", "0", "--tau", "1", "--nu", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "omega = 0.0" in out
        manifest = json.loads((tmp_path / "standing_wave__manifest.json").read_text())
        assert manifest["omega"] == 0.0
        assert manifest["residual_l2"] <= 1e-11
        assert manifest["code_version"]

    def test_solver_error_is_3(self, tmp_path, monkeypatch):
        # fails at the first step, after the t=0 row has been written
        out = tmp_path / "out"
        code = run_in(out, monkeypatch, [
            "simulate", "--data", "random:seed=1:decay=0.5:l2=20",
            "--nu", "1", "--integrable", "--dt", "0.5", "--t-end", "1.0",
        ])
        assert code == 3
        assert not out.exists()

    def test_midrun_solver_error_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        seen = []

        def integrate_seen(psi0, t_end, cfg, coeffs, observers):
            return integrate(psi0, t_end, cfg, coeffs, [*observers, seen.append])

        monkeypatch.setattr(cli, "integrate", integrate_seen)
        out = tmp_path / "a" / "b"
        assert run_in(out, monkeypatch, MIDRUN_FAILURE) == 3
        assert len(seen) == 10  # rows streamed before the failure
        assert "at t=0.09" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_solver_error_keeps_earlier_run(self, tmp_path, monkeypatch):
        assert run_in(tmp_path, monkeypatch, MIDRUN_FAILURE[:-1] + ["0.05"]) == 0
        earlier = output_bytes(tmp_path)
        assert run_in(tmp_path, monkeypatch, MIDRUN_FAILURE) == 3
        assert output_bytes(tmp_path) == earlier

    def test_study_failure_is_1(self, tmp_path, monkeypatch):
        # a ladder too short to fit makes the eps study inconclusive -> 1
        code = run_in(tmp_path, monkeypatch, [
            "eps-converge", "--eps-ladder", "0.125", "--nu", "1", "--integrable",
            "--t-end", "0.005", "--dt", "1e-3",
        ])
        assert code == 1


class TestSimulate:
    def test_linear_final_state_matches_closed_form(self, tmp_path, monkeypatch):
        code = run_in(tmp_path, monkeypatch, [
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

    def test_manifest_and_energy_written(self, tmp_path, monkeypatch):
        code = run_in(tmp_path, monkeypatch, [
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
            halting = functools.partial(integrate, blowup_factor=blowup_factor)
            monkeypatch.setattr(cli, "integrate", halting)
        assert run_in(tmp_path, monkeypatch, argv) == 0
        streamed = (tmp_path / "simulate__trajectory.csv").read_bytes()
        assert streamed == columns_trajectory_csv(argv)
        manifest = json.loads((tmp_path / "simulate__manifest.json").read_text())
        halted = blowup_factor is not None
        assert manifest["blow_up_suspected"] is halted
        assert (manifest["final_time"] < manifest["parameters"]["t_end"]) is halted

    def test_trajectory_not_held(self, tmp_path, monkeypatch):
        # a 51-sample N=1024 run may not peak higher than a 3-sample one by
        # as much as one (S, N) complex128 array; the stepper's own arrays
        # and lazily built caches are common to both
        argv = ["simulate", "--nu", "1", "--integrable", "--num-modes", "1024",
                "--data", "random:seed=42:decay=2.0:hm=0.4:m=4:maxmode=4",
                "--dt", "1e-4", "--t-end"]

        def traced_peak(t_end):
            tracemalloc.start()
            try:
                assert run_in(tmp_path / t_end, monkeypatch, argv + [t_end]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert run_in(tmp_path / "warm", monkeypatch, argv + ["2e-4"]) == 0
        growth = traced_peak("0.005") - traced_peak("2e-4")
        assert growth < 51 * 1024 * 16


class TestConfigPrecedence:
    def test_flag_overrides_config_overrides_default(self, tmp_path, monkeypatch):
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

    def test_env_var_outdir_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_dir"
        monkeypatch.setenv("TORUS4NLS_OUTDIR", str(env_dir))
        code = run_command([
            "standing-wave", "--kappa", "0.1", "--tau", "1", "--nu", "1",
            "--outdir", str(tmp_path / "flag_dir"),
        ])
        assert code == 0
        assert (env_dir / "standing_wave__manifest.json").exists()
        assert not (tmp_path / "flag_dir").exists()


    @pytest.mark.parametrize("command,settings", [
        ("simulate", [("data", "random:seed=5:decay=2.0:l2=0.3"), ("num_modes", "32"),
                      ("dt", "1e-3"), ("t_end", "0.01"), ("eps", "0.01"), ("m", "3"),
                      ("pad", "3"), ("nu", "1.5"), ("lambda1", "0.1"),
                      ("lambda2", "-0.2"), ("lambda3", "0.3"), ("lambda4", "0.05"),
                      ("lambda5", "-0.1"), ("lambda6", "0.2")]),
        ("certify-cm", [("m", "3"), ("nu", "1.2"), ("integrable", None),
                        ("ceiling", "0.8"), ("trials", "20"), ("seed", "5"),
                        ("target", "sobolev")]),
    ], ids=["simulate", "certify-cm"])
    def test_config_equals_flags(self, tmp_path, monkeypatch, command, settings):
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
        assert run_in(tmp_path / "flags", monkeypatch, flags) == 0
        assert run_in(tmp_path / "config", monkeypatch,
                      [command, "--config", str(cfg)]) == 0
        from_flags = output_bytes(tmp_path / "flags")
        assert from_flags and output_bytes(tmp_path / "config") == from_flags


class TestParser:
    @pytest.mark.parametrize("command", [None] + COMMANDS)
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            run_command(([command] if command else []) + ["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: torus4nls")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_command(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


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
    def test_identical_argv_byte_identical_outputs(self, tmp_path, monkeypatch,
                                                   argv):
        monkeypatch.delenv("TORUS4NLS_OUTDIR", raising=False)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_command(argv + ["--outdir", str(a)]) in (0, 1)
        assert run_command(argv + ["--outdir", str(b)]) in (0, 1)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCertifyCmCommand:
    def test_certificate_manifest(self, tmp_path, monkeypatch):
        code = run_in(tmp_path, monkeypatch, [
            "certify-cm", "--nu", "1", "--integrable", "--m", "4",
            "--trials", "30", "--seed", "7", "--target", "sobolev",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "certify_cm__manifest.json").read_text())
        assert manifest["worst_margin"] >= 0.0
        assert manifest["parameters"]["target"] == "sobolev"


class TestUsageErrors:
    def test_bad_parameter_value_is_2(self, tmp_path, monkeypatch):
        # conservation runs require the unregularized flow
        code = run_in(tmp_path, monkeypatch,
                      ["conserve", "--nu", "1", "--eps", "0.1", "--t-end", "0.01"])
        assert code == 2

    def test_unknown_config_key_is_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\nkapa = 0.7\n")
        code = run_in(tmp_path, monkeypatch,
                      ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("text", [
        "kappa = 0.5\nkappa = 0.7\n",
        "config = other.cfg\n",
        "command = simulate\n",
        "func = x\n",
    ], ids=["repeated", "config", "command", "func"])
    def test_ignored_config_key_is_2(self, tmp_path, monkeypatch, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code = run_in(tmp_path, monkeypatch,
                      ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("value", ["ture", "2", "on", ""])
    def test_unrecognised_integrable_is_2(self, tmp_path, monkeypatch, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"integrable = {value}\n")
        code = run_in(tmp_path, monkeypatch,
                      ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("value,integrable", [
        ("1", True), ("True", True), ("YES", True),
        ("0", False), ("false", False), ("No", False),
    ])
    def test_integrable_config_spellings(self, tmp_path, monkeypatch, value,
                                         integrable):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"integrable = {value}\n")
        code = run_in(tmp_path, monkeypatch,
                      ["standing-wave", "--config", str(cfg), "--nu", "1"])
        assert code == 0
        manifest = json.loads((tmp_path / "standing_wave__manifest.json").read_text())
        expect = integrable_coefficients(1.0).lambdas if integrable else (0.0,) * 6
        assert manifest["parameters"]["lambdas"] == list(expect)

    def test_riccati_has_no_n_low(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as err:
            run_in(tmp_path, monkeypatch, [
                "riccati", "--nu", "1", "--integrable", "--n-low", "1",
                "--cm-trials", "2", "--t-end", "4e-6",
            ])
        assert err.value.code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_lambdas_with_integrable_is_2(self, tmp_path, monkeypatch, source):
        argv = ["standing-wave", "--nu", "1", "--integrable"]
        if source == "flag":
            argv += ["--lambda3", "0.2"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("lambda3 = 0.2\n")
            argv += ["--config", str(cfg)]
        assert run_in(tmp_path, monkeypatch, argv) == 2
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        # eps-converge sets eps per ladder rung: a given --eps would be ignored
        ["eps-converge", "--nu", "1", "--integrable", "--eps", "0.3",
         "--t-end", "0.005", "--dt", "1e-3"],
        ["standing-wave", "--nu", "1", "--kap", "0.4", "--ta", "2"],
        ["--vers"],
    ], ids=["eps-converge-eps", "abbreviated", "abbreviated-top-level"])
    def test_unknown_flag_is_2(self, tmp_path, monkeypatch, argv):
        assert exit_code(tmp_path, monkeypatch, argv) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_outdir_is_2(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TORUS4NLS_OUTDIR", raising=False)
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

    def test_empty_env_outdir_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TORUS4NLS_OUTDIR", "")
        argv = ["standing-wave", "--nu", "1", "--outdir", str(tmp_path)]
        assert run_command(argv) == 0
        assert (tmp_path / "standing_wave__manifest.json").exists()

    def test_eps_converge_config_eps_is_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.3\nt_end = 0.005\ndt = 1e-3\n")
        out = tmp_path / "out"
        code = run_in(out, monkeypatch,
                      ["eps-converge", "--nu", "1", "--integrable", "--config", str(cfg)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_is_2(self, tmp_path, monkeypatch, capsys, kind):
        path = tmp_path / "absent.cfg" if kind == "missing" else tmp_path
        code = run_in(tmp_path, monkeypatch,
                      ["standing-wave", "--nu", "1", "--config", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "standing_wave__manifest.json").exists()

    @pytest.mark.parametrize("command,text,flag", [
        ("standing-wave", "tau = 1.5", "--tau"),
        ("standing-wave", "kappa = abc", "--kappa"),
        ("simulate", "eps =", "--eps"),
    ], ids=["int", "float", "empty"])
    def test_bad_typed_config_value_is_2(self, tmp_path, monkeypatch, capsys,
                                         command, text, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "out"
        code = exit_code(out, monkeypatch,
                         [command, "--num-modes", "32", "--config", str(cfg)])
        assert code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", ["certify-cm", "sweep-inequalities", "riccati"])
    def test_nonpositive_ceiling_is_2(self, tmp_path, monkeypatch, capsys,
                                      command, value):
        # every sample is drawn at the ceiling's L2 mass
        out = tmp_path / "out"
        assert exit_code(out, monkeypatch, [command, f"--ceiling={value}"]) == 2
        assert "l2_ceiling must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "nan"])
    def test_nonpositive_hm_size_is_2(self, tmp_path, monkeypatch, capsys, value):
        # the family's amplitudes come from hm_size squared
        out = tmp_path / "out"
        code = exit_code(out, monkeypatch, ["riccati", f"--hm-size={value}"])
        assert code == 2
        assert "hm_norm must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_l_value_is_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        code = exit_code(out, monkeypatch, ["bona-smith", "--l-values", "0,1,0"])
        assert code == 2
        assert "l_values repeats an entry" in capsys.readouterr().err
        assert not out.exists()
