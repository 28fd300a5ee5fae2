"""Study harness: rate fits, serialization, study verdicts and determinism."""

import errno
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import zero_field

from torus4nls import __version__, dynamics, functionals
from torus4nls.dynamics import (
    CoefficientSet,
    NonConvergence,
    NonFinite,
    SolverConfig,
    integrate,
)
from torus4nls.exact import integrable_coefficients, standing_wave
from torus4nls import experiments
from torus4nls.experiments import (
    BONA_SMITH_EPS_LADDER,
    RateFit,
    StudyResult,
    bona_smith_rate_study,
    conservation_study,
    continuity_study,
    eps_convergence_study,
    in_worker,
    inequality_sweeps,
    riccati_study,
    streamed_table,
    table_rows,
    write_manifest,
    write_study,
    write_table,
)
from torus4nls.functionals import (
    EnergyRecorder,
    certify_cm,
    difference_energy,
    modified_energy,
)
from torus4nls.mollifier import mollify
from torus4nls.sampling import (
    decay_field,
    mode_pair_field,
    random_field,
    rng_for,
)
from torus4nls.spectral import (
    GridSpec,
    InputError,
    SpectralField,
    sobolev_distance,
    sobolev_norm,
    sobolev_norm_sq,
)


class TestRateFit:
    def test_exact_power_law(self):
        xs = [0.5**k for k in range(1, 7)]
        ys = [3.7 * x**2.5 for x in xs]
        fit = RateFit.fit(xs, ys)
        assert fit.slope == pytest.approx(2.5, rel=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.7), rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noise_lowers_r_squared(self):
        rng = np.random.default_rng(1)
        xs = [0.5**k for k in range(1, 9)]
        ys = [x * np.exp(rng.normal(0, 0.3)) for x in xs]
        fit = RateFit.fit(xs, ys)
        assert fit.r_squared < 1.0

    @pytest.mark.parametrize("xs,ys", [([1.0], [2.0]), ([1, 2], [0.0, 1.0]), ([1, -1], [1, 1])])
    def test_rejects_bad_data(self, xs, ys):
        with pytest.raises(ValueError):
            RateFit.fit(xs, ys)


class TestWriteStudy:
    def make_result(self):
        return StudyResult(
            name="demo",
            parameters={"alpha": 1.5, "labels": [1, 2]},
            thresholds={"tol": 1e-6},
            tables={"main": {"param": [1.0, 2.0], "value": [0.25, 0.125]}},
            verdict="pass",
        )

    def test_files_and_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        paths_a = write_study(self.make_result(), a)
        write_study(self.make_result(), b)
        for pa in paths_a:
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_csv_shape(self, tmp_path):
        write_study(self.make_result(), tmp_path)
        text = (tmp_path / "demo__main.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "param,value"
        assert len(lines) == 3
        assert text.endswith("\n") and "\r" not in text

    def test_rejects_bad_first_column(self, tmp_path):
        res = self.make_result()
        res.tables = {"bad": {"value": [1.0]}}
        with pytest.raises(ValueError):
            write_study(res, tmp_path)

    def test_rejects_ragged_table(self, tmp_path):
        res = self.make_result()
        res.tables = {"bad": {"param": [1.0, 2.0], "value": [1.0]}}
        with pytest.raises(ValueError):
            write_study(res, tmp_path)

    def test_manifest_fields_made_json_ready(self, tmp_path):
        path = write_manifest(tmp_path, "demo", {
            "pair": (1, 2.5), "count": np.int64(3), "value": np.float32(0.25),
        })
        assert path == tmp_path / "demo__manifest.json"
        text = path.read_text()
        assert text.endswith("}\n")
        manifest = json.loads(text)
        assert manifest["pair"] == [1, 2.5]
        assert manifest["count"] == 3
        assert manifest["value"] == 0.25
        assert manifest["name"] == "demo"
        assert manifest["code_version"]

    def test_manifest_bytes(self, tmp_path):
        # the bytes the recursive converter gave before json's default= took
        # over: numpy scalars as Python values, anything else as its str
        path = write_manifest(tmp_path, "demo", {
            "pair": (1, np.float32(0.1)), "where": Path("x/y"), "none": None,
            "sizes": {"n": np.int64(3), "tiny": np.float64(1e-300)}, "flag": True,
        })
        assert path.read_bytes() == (
            '{\n  "code_version": "%s",\n  "flag": true,\n  "name": "demo",\n'
            '  "none": null,\n  "pair": [\n    1,\n    0.10000000149011612\n  ],\n'
            '  "sizes": {\n    "n": 3,\n    "tiny": 1e-300\n  },\n  "where": "x/y"\n}\n'
            % __version__).encode("ascii")

    def test_failed_manifest_removes_made_dirs(self, tmp_path):
        # sort_keys cannot order 1 and "y": the write fails part way
        out = tmp_path / "a" / "b"
        with pytest.raises(TypeError):
            write_manifest(out, "demo", {"labels": {1: "x", "y": 2}})
        assert not (tmp_path / "a").exists()

    def test_failed_rewrite_keeps_earlier_manifest(self, tmp_path):
        path = write_manifest(tmp_path, "demo", {"alpha": 1.5})
        earlier = path.read_bytes()
        with pytest.raises(TypeError):
            write_manifest(tmp_path, "demo", {"labels": {1: "x", "y": 2}})
        assert [p.name for p in tmp_path.iterdir()] == ["demo__manifest.json"]
        assert path.read_bytes() == earlier

    def test_manifest_leaves_fields_as_given(self, tmp_path):
        fields = {"alpha": 1.5}
        write_manifest(tmp_path, "demo", fields)
        assert fields == {"alpha": 1.5}


class TestTableRows:
    def test_rows_as_written(self, tmp_path):
        with table_rows(tmp_path, "t.csv", ["time", "x"]) as write_row:
            write_row([0.0, np.float64(0.1)])
            write_row((1, -0.0))
        assert (tmp_path / "t.csv").read_bytes() == b"time,x\n0.0,0.1\n1.0,-0.0\n"

    def test_ragged_row_removes_file_and_made_dirs(self, tmp_path):
        out = tmp_path / "a" / "b"
        with pytest.raises(ValueError, match="t.csv"):
            with table_rows(out, "t.csv", ["time", "x"]) as write_row:
                write_row([0.0, 1.0])
                write_row([1.0])
        assert not (tmp_path / "a").exists()

    def test_failure_keeps_existing_dir_and_file(self, tmp_path):
        (tmp_path / "t.csv").write_text("param\n0.5\n")  # an earlier run's
        with pytest.raises(RuntimeError):
            with table_rows(tmp_path, "t.csv", ["param"]) as write_row:
                write_row([1.0])
                raise RuntimeError("stop")
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert (tmp_path / "t.csv").read_text() == "param\n0.5\n"

    def test_bad_first_name_raises_before_any_file(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="first column"):
            with table_rows(out, "t.csv", ["value", "time"]):
                pass
        assert not out.exists()

    def test_write_table_bytes(self, tmp_path):
        path = write_table(tmp_path, "demo__main.csv", {
            "param": [1, 2.5, np.float64(1e-300)],
            "value": [np.float32(0.1), -0.0, np.int64(3)],
        })
        assert path == tmp_path / "demo__main.csv"
        assert path.read_bytes() == (
            b"param,value\n1.0,0.10000000149011612\n2.5,-0.0\n1e-300,3.0\n"
        )


class TestConservationStudy:
    def test_zero_data_passes_with_zero_drift(self):
        grid = GridSpec(32)
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        res = conservation_study(zero_field(grid), 1.0, 0.02, cfg)
        assert res.verdict == "pass"
        assert all(d == 0.0 for d in res.tables["drifts"]["drift_coarse"])

    def test_standing_wave_near_steady(self):
        grid = GridSpec(32)
        coeffs = integrable_coefficients(1.0)
        psi0, _ = standing_wave(grid, 0.3, 1, coeffs)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        res = conservation_study(psi0, 1.0, 0.05, cfg)
        assert max(res.tables["drifts"]["drift_coarse"]) <= 1e-10

    def test_verdict_consistent_with_thresholds(self):
        grid = GridSpec(64)
        data = random_field(grid, rng_for(42), decay=2.0, hm_norm=0.4, m=4, max_mode=4)
        cfg = SolverConfig(dt=2e-3, sobolev_index_m=4)
        res = conservation_study(data, 1.0, 0.1, cfg)
        drifts = res.tables["drifts"]["drift_coarse"]
        gains = res.tables["drifts"]["gain"]
        tol = res.thresholds["drift_tol"]
        floor = res.thresholds["drift_floor"]
        min_gain = res.thresholds["min_gain"]
        expect_pass = all(d <= tol for d in drifts) and all(
            d <= floor or g >= min_gain for d, g in zip(drifts, gains)
        )
        assert (res.verdict == "pass") == expect_pass

    def test_recorder_blocks(self, monkeypatch):
        # conserve's defaults: 51 coarse and 101 fine states at N=64, each
        # run's first state alone, then recorder blocks of 16 rows. A count
        # of deterministic work, pinned exactly
        blocks, original = [], functionals.conserved_rows

        def counted(block, **kwargs):
            blocks.append(len(block))
            return original(block, **kwargs)

        monkeypatch.setattr(functionals, "conserved_rows", counted)
        data = random_field(GridSpec(64), rng_for(42), decay=2.0, hm_norm=0.4, m=4,
                            max_mode=4)
        conservation_study(data, 1.0, 0.1, SolverConfig(dt=2e-3, sobolev_index_m=4))
        assert blocks == [1, 16, 16, 16, 2] + [1, 16, 16, 16, 16, 16, 16, 4]


class TestBonaSmithStudy:
    def test_critical_data_passes(self):
        res = bona_smith_rate_study(4, [0, 1, 2], decay_field(GridSpec(1024), 4.6))
        assert res.verdict == "pass"
        slopes = dict(zip(res.tables["fits"]["param"], res.tables["fits"]["slope"]))
        assert 0.85 <= slopes[1.0] <= 1.15
        assert 1.7 <= slopes[2.0] <= 2.3

    def test_band_limited_superconvergence_inconclusive(self):
        # at the ladder's fine end (eps n <= 1/64) mollifying leaves the
        # band untouched: machine-zero errors
        grid = GridSpec(256)
        data = random_field(grid, rng_for(3), decay=1.0, l2_mass=1.0, max_mode=4)
        res = bona_smith_rate_study(4, [1], data)
        assert res.verdict == "inconclusive"

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            bona_smith_rate_study(2, [3], decay_field(GridSpec(32), 2.6))

    def test_mollifies_each_eps_once(self, monkeypatch):
        calls = []

        def counted(f, eps):
            calls.append(eps)
            return mollify(f, eps)

        monkeypatch.setattr(experiments, "mollify", counted)
        data = decay_field(GridSpec(1024), 4.6)
        res = bona_smith_rate_study(4, [0, 1, 2], data)
        assert calls == list(BONA_SMITH_EPS_LADDER)
        for l in (0, 1, 2):
            assert res.tables["errors"][f"err_l{l}"] == [
                sobolev_distance(data, mollify(data, e), 4 - l)
                for e in BONA_SMITH_EPS_LADDER
            ]

    def test_unfitted_case_is_a_nan_row(self):
        grid = GridSpec(256)
        data = random_field(grid, rng_for(3), decay=1.0, l2_mass=1.0, max_mode=4)
        fits = bona_smith_rate_study(4, [1, 3], data).tables["fits"]
        assert list(fits) == ["param", "slope", "intercept", "r_squared", "passed"]
        assert fits["param"] == [1.0, 3.0] and fits["passed"][0] == 0.0
        assert all(np.isnan(fits[k][0]) for k in ("slope", "intercept", "r_squared"))


class TestEpsConvergenceStudy:
    def test_single_point_ladder_rejected(self):
        # one rung fits no rate: refused before any run
        grid = GridSpec(32)
        data = decay_field(grid, 5.0, amp=0.05)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        with pytest.raises(ValueError, match="eps_ladder needs at least two"):
            eps_convergence_study(data, integrable_coefficients(1.0), 0.01,
                                  [0.125], cfg)

    def test_linear_case_matches_closed_form(self):
        # lambda = 0: the run is exactly W_eps(t) applied to mollified data
        grid = GridSpec(64)
        data = decay_field(grid, 6.0, amp=0.5)
        coeffs = CoefficientSet(nu=1.0)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        ladder = [2.0**-k for k in range(3, 7)]
        t_end = 0.02
        res = eps_convergence_study(data, coeffs, t_end, ladder, cfg)
        eps_ref = min(ladder) / 4.0
        from torus4nls.dynamics import semigroup_apply

        ref = semigroup_apply(mollify(data, eps_ref), t_end, eps_ref, 1.0)
        for eps, h1 in zip(res.tables["differences"]["param"],
                           res.tables["differences"]["h1_diff"]):
            state = semigroup_apply(mollify(data, eps), t_end, eps, 1.0)
            assert h1 == pytest.approx(sobolev_distance(state, ref, 1), rel=1e-6)
        assert res.verdict == "pass"
        assert res.tables["fits"]["slope"][0] >= 1.0

    def test_rejects_small_m(self):
        grid = GridSpec(32)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=3)
        with pytest.raises(ValueError):
            eps_convergence_study(zero_field(grid), integrable_coefficients(1.0),
                                  0.01, [0.1, 0.05], cfg)


class TestRiccatiStudy:
    def test_single_mode_family_quotients_tiny(self):
        # one populated mode: every growth integrand vanishes, energies are
        # steady up to stepper round-off
        grid = GridSpec(64)
        coeffs = integrable_coefficients(1.0)
        from torus4nls.exact import plane_wave

        family = [plane_wave(grid, 0.3 / (1 + n**2) ** 2, n) for n in (2, 4, 8)]
        cfg = SolverConfig(dt=1e-4, sobolev_index_m=4)
        res = riccati_study(family, coeffs, cfg, 2e-3, c_m=10.0)
        assert max(res.tables["quotients"]["q_modified"]) < 1e-3
        assert max(res.tables["quotients"]["q_raw"]) < 1e-3

    def test_one_member_family_rejected(self):
        family = [mode_pair_field(GridSpec(64), 4, 1.0, 4)]
        cfg = SolverConfig(dt=1e-4, sobolev_index_m=4)
        with pytest.raises(ValueError, match="at least two members"):
            riccati_study(family, integrable_coefficients(1.0), cfg, 2e-3, c_m=1.0)

    def test_negative_c_m_rejected(self):
        family = [mode_pair_field(GridSpec(64), k, 1.0, 4) for k in (4, 8)]
        cfg = SolverConfig(dt=1e-4, sobolev_index_m=4)
        with pytest.raises(ValueError, match="c_m must be nonnegative"):
            riccati_study(family, integrable_coefficients(1.0), cfg, 2e-3, c_m=-1.0)

    def test_freq_span_is_relative_to_each_member(self):
        # at H^m size 1e-9 the k=16 member's mode 17 is about 6e-15, yet
        # populated: the span is measured against the member's largest mode
        family = [mode_pair_field(GridSpec(64), k, 1e-9, 4) for k in (4, 16)]
        cfg = SolverConfig(dt=1e-5, sobolev_index_m=4)
        res = riccati_study(family, integrable_coefficients(1.0), cfg, 4e-5, c_m=1.0)
        assert res.tables["quotients"]["freq_span"] == [5.0, 17.0]

    def test_underflowing_energy_square_rejected(self):
        # E ~ 1e-160, so the quotient's denominator E^2 is below the
        # smallest normal float; refused at t=0, before any step
        family = [mode_pair_field(GridSpec(64), k, 1e-80, 4) for k in (4, 16)]
        cfg = SolverConfig(dt=1e-5, sobolev_index_m=4)
        with pytest.raises(InputError,
                           match=r"^family is so small that its energies' E\^2 underflow$"):
            riccati_study(family, integrable_coefficients(1.0), cfg, 4e-5, c_m=1.0)

    def test_no_corrections_means_equal_quotients(self):
        # lambda3..6 = 0 and c_m = 0 make the corrected energy identical to
        # the plain one
        grid = GridSpec(64)
        coeffs = CoefficientSet(nu=1.0, lambda1=-0.5, lambda2=-0.375)
        family = [mode_pair_field(grid, k, 1.0, 4) for k in (4, 8)]
        cfg = SolverConfig(dt=1e-5, sobolev_index_m=4)
        res = riccati_study(family, coeffs, cfg, 2e-4, c_m=0.0)
        q = res.tables["quotients"]
        assert np.allclose(q["q_modified"], q["q_raw"], rtol=1e-10)

    def test_contrast_on_pair_family(self):
        grid = GridSpec(256)
        coeffs = integrable_coefficients(1.0)
        cert = certify_cm(4, coeffs, 1.0, trials=40, rng_seed=2024, target="sobolev")
        family = [mode_pair_field(grid, k, 2.0, 4) for k in (4, 8, 16, 32)]
        cfg = SolverConfig(dt=1e-6, sobolev_index_m=4)
        res = riccati_study(family, coeffs, cfg, 2e-4, cert.c_m)
        assert res.verdict == "pass"
        q = res.tables["quotients"]
        assert max(q["q_modified"]) / min(q["q_modified"]) <= 2.0
        assert q["q_raw"][-1] / q["q_raw"][0] >= 4.0


def assert_no_child_left():
    """This process has no child: every worker was reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def same_error(a, b):
    return (type(a), str(a), vars(a)) == (type(b), str(b), vars(b))


class TestInWorker:
    def test_returns_both_results(self):
        assert in_worker(divmod, (7, 2), lambda: "own") == ("own", (3, 1))
        assert_no_child_left()

    def test_stepper_errors_cross_intact(self, monkeypatch):
        # the divergent and stalling setups of test_dynamics: each error
        # raised in the worker is the one an in-process run raises
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=0.5, sobolev_index_m=4)
        grid = GridSpec(64)
        diverges = random_field(grid, rng_for(1), decay=0.5, l2_mass=20.0)
        stalls = random_field(grid, rng_for(4), decay=0.5, l2_mass=20.0)
        for psi, kind, budget in ((diverges, NonFinite, 50),
                                  (stalls, NonConvergence, 3)):
            monkeypatch.setattr(dynamics, "PICARD_MAX_ITERS", budget)
            with pytest.raises(kind) as here:
                integrate(psi, 2.0, cfg, coeffs)
            with pytest.raises(kind) as there:
                in_worker(integrate, (psi, 2.0, cfg, coeffs), lambda: None)
            assert same_error(there.value, here.value)
            assert there.value.time == 0.0 and there.value.member == 0
        assert there.value.iterations == 3
        assert_no_child_left()

    def test_attributes_cross_intact(self):
        sent = NonConvergence("stalled", time=0.25, iterations=50, member=3)

        def fail():
            raise sent

        with pytest.raises(NonConvergence) as err:
            in_worker(fail, (), lambda: None)
        assert same_error(err.value, sent)
        assert_no_child_left()

    def test_worker_killed_before_result(self):
        def killed():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(RuntimeError, match=r"without a result \(killed by signal 9\)"):
            in_worker(killed, (), lambda: None)
        assert_no_child_left()

    def test_worker_exit_before_result(self):
        with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
            in_worker(os._exit, (3,), lambda: None)
        assert_no_child_left()

    def test_worker_leaves_stdio_alone(self):
        # stdout on a pipe is block-buffered, so "before" is still in the
        # buffer the worker inherits; the worker must not flush it again
        script = ("from torus4nls.experiments import in_worker\n"
                  "print('before')\n"
                  "print(in_worker(divmod, (7, 2), lambda: 'own'))\n")
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        proc = subprocess.run([sys.executable, "-I", "-c",
                               f"import sys; sys.path.insert(0, {src!r})\n" + script],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "before\n('own', (3, 1))\n"

    def test_missing_fork_is_a_value_error_before_either_call(self, monkeypatch):
        calls = []
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match=r"os\.fork"):
            in_worker(calls.append, ("worker",), lambda: calls.append("own"))
        assert calls == []

    def test_own_error_wins_and_kills_the_worker(self):
        def fail():
            raise NonFinite("here first", time=0.0)

        start = time.monotonic()
        with pytest.raises(NonFinite, match="here first"):
            in_worker(time.sleep, (60,), fail)
        assert time.monotonic() - start < 30
        assert_no_child_left()


def fork_with(monkeypatch, in_child):
    """Make ``os.fork`` call ``in_child()`` in the child; returns the list
    the parent's child pids are appended to."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid == 0:
            in_child()
        else:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestStreamedTable:
    """The rows ``produce`` sends are written by a forked worker, with the
    bytes of a serial ``table_rows``; every failure leaves no ``.part``."""

    NAMES = ["time", "x", "y"]

    def test_header_and_rows_written_once(self, tmp_path):
        # all of it fits in the .part's block buffer: a header left in the
        # buffer the worker inherits would be written twice, and rows the
        # worker did not flush before leaving would be lost
        rows = [[0.0, 0.1, -0.0], [0.5, 1e-300, 3.0], [1.0, np.float32(0.1), -2.5]]

        def produce(send_row):
            for row in rows:
                send_row(row)
            return "done"

        assert streamed_table(tmp_path / "s", "t.csv", self.NAMES, produce) == "done"
        write_table(tmp_path / "t", "t.csv", dict(zip(self.NAMES, zip(*rows))))
        streamed = (tmp_path / "s" / "t.csv").read_bytes()
        assert streamed == (tmp_path / "t" / "t.csv").read_bytes()
        assert streamed.count(b"time,x,y\n") == 1 and streamed.count(b"\n") == 4
        assert_no_child_left()

    def test_wrong_length_row_is_raised_here(self, tmp_path):
        def produce(send_row):
            with pytest.raises(ValueError, match=r"t\.csv: row of 2 cells under 3"):
                send_row([0.0, 1.0])
            send_row([1.0, 2.0, 3.0])

        streamed_table(tmp_path, "t.csv", self.NAMES, produce)
        assert (tmp_path / "t.csv").read_bytes() == b"time,x,y\n1.0,2.0,3.0\n"
        assert_no_child_left()

    def test_produce_error_wins_and_removes_part(self, tmp_path):
        def produce(send_row):
            send_row([0.0, 1.0, 2.0])
            raise NonFinite("here", time=0.1)

        with pytest.raises(NonFinite, match="here"):
            streamed_table(tmp_path / "a" / "b", "t.csv", self.NAMES, produce)
        assert not (tmp_path / "a").exists()
        assert_no_child_left()

    def test_killed_writer_is_named(self, tmp_path, monkeypatch):
        pids = fork_with(monkeypatch, lambda: None)

        def produce(send_row):
            send_row([0.0, 1.0, 2.0])
            os.kill(pids[0], signal.SIGKILL)
            for k in range(100_000):  # until the pipe breaks
                send_row([float(k), 1.0, 2.0])
            pytest.fail("the pipe did not break")

        with pytest.raises(RuntimeError, match=r"without a result \(killed by signal 9\)"):
            streamed_table(tmp_path, "t.csv", self.NAMES, produce)
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    def test_writer_os_error_is_raised_as_itself(self, tmp_path, monkeypatch):
        # the worker may not grow a file past 100 bytes: its first flush of
        # rows fails with EFBIG (SIGXFSZ is ignored, as Python starts it)
        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (100, hard))

        fork_with(monkeypatch, limit_file_size)

        def produce(send_row):
            for k in range(100_000):  # until the pipe breaks
                send_row([float(k), 1.0, 2.0])
            pytest.fail("the pipe did not break")

        with pytest.raises(OSError) as err:
            streamed_table(tmp_path, "t.csv", self.NAMES, produce)
        assert not isinstance(err.value, BrokenPipeError)
        assert err.value.errno == errno.EFBIG
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    def test_missing_fork_is_a_value_error_before_produce(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match=r"os\.fork"):
            streamed_table(tmp_path / "out", "t.csv", self.NAMES,
                           lambda send_row: pytest.fail("produced"))
        assert not (tmp_path / "out").exists()


def _contrast_family():
    grid = GridSpec(64)
    return [mode_pair_field(grid, k, 1.0, 4) for k in (4, 8)]


class TestRiccatiWorker:
    """The dt/8 order run goes to a worker; nothing else may change."""

    CFG = SolverConfig(dt=1e-5, sobolev_index_m=4)
    COEFFS = integrable_coefficients(1.0)
    FINEST_DT = 1e-5 * 0.125

    def fail_at(self, monkeypatch, errors):
        """Make ``_final_state`` raise ``errors[dt]`` for a run at that dt."""
        real = experiments._final_state

        def final_state(data, t_end, cfg, coeffs):
            if cfg.dt in errors:
                raise errors[cfg.dt]
            return real(data, t_end, cfg, coeffs)

        monkeypatch.setattr(experiments, "_final_state", final_state)

    def run(self):
        return riccati_study(_contrast_family(), self.COEFFS, self.CFG, 2e-4, 1.0)

    def test_returns_with_no_child_left(self):
        assert self.run().parameters["stepper_order"] > 1.8
        assert_no_child_left()

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        sent = NonConvergence("finest stalled", time=1e-4, iterations=50, member=0)
        self.fail_at(monkeypatch, {self.FINEST_DT: sent})
        with pytest.raises(NonConvergence) as err:
            self.run()
        assert same_error(err.value, sent)
        assert_no_child_left()

    def test_fine_error_before_finest(self, monkeypatch):
        self.fail_at(monkeypatch, {self.CFG.dt * 0.5: NonFinite("fine"),
                                   self.FINEST_DT: NonFinite("finest")})
        with pytest.raises(NonFinite, match="^fine$"):
            self.run()
        assert_no_child_left()

    def test_family_error_first_and_worker_killed(self, monkeypatch):
        real = experiments._final_state

        def slow_finest(data, t_end, cfg, coeffs):
            if cfg.dt == self.FINEST_DT:
                time.sleep(60)
            return real(data, t_end, cfg, coeffs)

        def family_fails(*args, **kwargs):
            raise NonFinite("family", time=0.0, member=1)

        monkeypatch.setattr(experiments, "_final_state", slow_finest)
        monkeypatch.setattr(experiments, "integrate_many", family_fails)
        start = time.monotonic()
        with pytest.raises(NonFinite, match="^family$"):
            self.run()
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_order_is_the_serial_one(self):
        # criterion 8's setup; the order does not depend on c_m
        m = 4
        grid = GridSpec(256)
        family = [mode_pair_field(grid, k, 2.0, m) for k in (4, 8, 16, 32)]
        cfg = SolverConfig(dt=1e-6, sobolev_index_m=m)
        res = riccati_study(family, self.COEFFS, cfg, 2e-4, 10.0)
        coarse, fine, finest = (
            integrate(family[0], 2e-4, replace(cfg, dt=cfg.dt * f), self.COEFFS)
            .state for f in (1.0, 0.5, 0.125)
        )
        serial = float(np.log2(sobolev_distance(coarse, finest, m)
                               / sobolev_distance(fine, finest, m)))
        assert res.parameters["stepper_order"].hex() == serial.hex()


def _kept_rows():
    """An observer of one run that keeps a copy of every state it sees, in
    its ``rows`` list."""
    rows = []

    def observer(time, block, members):
        rows.append(block[0].copy())

    observer.rows = rows
    return observer


class TestContinuityStudy:
    def test_same_data_same_trajectory(self):
        # delta = 0 perturbation: bitwise-identical runs (uniqueness in the
        # deterministic sense)
        grid = GridSpec(32)
        data = decay_field(grid, 5.0, amp=0.2)
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        a, b = _kept_rows(), _kept_rows()
        integrate(data, 0.02, cfg, coeffs, a)
        integrate(data, 0.02, cfg, coeffs, b)
        assert len(a.rows) == len(b.rows) == 21
        for ca, cb in zip(a.rows, b.rows):
            assert np.array_equal(ca, cb)

    def test_gauge_rotation_commutes_with_flow(self, generic_coeffs):
        grid = GridSpec(32)
        data = decay_field(grid, 5.0, amp=0.2)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        theta = 1.234
        a, b = _kept_rows(), _kept_rows()
        rotated = SpectralField(grid, data.coeffs * np.exp(1j * theta))
        integrate(rotated, 0.02, cfg, generic_coeffs, a)
        integrate(data, 0.02, cfg, generic_coeffs, b)
        assert len(a.rows) == len(b.rows) == 21
        for ca, cb in zip(a.rows, b.rows):
            assert np.allclose(ca, np.exp(1j * theta) * cb, atol=1e-13)

    def test_linear_scaling_verdict(self):
        grid = GridSpec(64)
        data = random_field(grid, rng_for(11), decay=6.0, hm_norm=0.4, m=4)
        coeffs = integrable_coefficients(1.0)
        cfg = SolverConfig(dt=1e-3, sobolev_index_m=4)
        res = continuity_study(data, [1e-2, 1e-3, 1e-4, 1e-5], coeffs, 0.05,
                               cfg, rng_seed=7)
        assert res.verdict == "pass"
        assert 0.85 <= res.tables["fits"]["slope"][0] <= 1.15
        q = res.tables["scaling"]["gronwall_quotient"]
        assert max(q) / min(q) <= 2.0


class TestInequalitySweeps:
    def test_sweep_passes(self):
        # enough trials for the empirical sup to saturate across resolutions
        res = inequality_sweeps(123, 200)
        assert res.verdict == "pass"
        assert res.parameters["failures"] == []

    def test_deterministic_given_seed(self):
        a = inequality_sweeps(5, 30)
        b = inequality_sweeps(5, 30)
        assert a.tables == b.tables

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            inequality_sweeps(1, 0)


def _continuity_reference(phi, delta_ladder, coeffs, t_end, cfg, rng_seed):
    """``continuity_study``'s c̃, sup-differences and quotients as it
    computed them before its block observer: each run alone, every sample
    of every run kept, and ``difference_energy`` evaluated in two passes.
    Also returns each run's sample count."""
    m = cfg.sobolev_index_m
    deltas = sorted(delta_ladder, reverse=True)
    runs = []
    for i, delta in enumerate([None] + deltas):
        psi0 = phi
        if delta is not None:
            kick = random_field(phi.grid, rng_for(rng_seed, i - 1), decay=float(m),
                                hm_norm=delta, m=m)
            psi0 = SpectralField(phi.grid, phi.coeffs + kick.coeffs)
        kept = []
        integrate(psi0, t_end, cfg, coeffs, lambda time, rows, members:
                  kept.append(SpectralField(psi0.grid, rows[0])))
        runs.append(kept)
    base, *others = runs
    diffs = [[SpectralField(phi.grid, b.coeffs - o.coeffs) for b, o in zip(base, other)]
             for other in others]
    c_tilde_req = 1.0
    for run in diffs:
        for d, ref in zip(run, base):
            l2_sq = sobolev_norm_sq(d, 0)
            if l2_sq <= 0.0:
                continue
            base_energy = difference_energy(d, ref, 1, coeffs, 0.0)
            need = (0.5 * sobolev_norm_sq(d, 1) - base_energy) / l2_sq
            c_tilde_req = max(c_tilde_req, need)
    c_tilde = 2.0 * c_tilde_req
    sup_h1 = []
    quotients = []
    for run in diffs:
        sup_h1.append(max(sobolev_norm(d, 1) for d in run[1:]))
        e1 = [difference_energy(d, ref, 1, coeffs, c_tilde)
              for d, ref in zip(run, base)]
        quotients.append(max(e / e1[0] for e in e1))
    return c_tilde, sup_h1, quotients, [len(run) for run in runs]


def _riccati_reference(family, coeffs, cfg, t_end, c_m):
    """``riccati_study``'s quotients as it computed them before its block
    observer: each member run alone under its own ``EnergyRecorder``, with
    the modified energy at the study's c_m taken sample by sample. Also
    returns each run's sample count."""
    m = cfg.sobolev_index_m
    q_mod, q_raw, lengths = [], [], []
    for psi0 in family:
        rec = EnergyRecorder(m, coeffs)
        energies = []

        def observe(time, rows, members):
            rec(time, rows, members)
            psi = SpectralField(psi0.grid, rows[0])
            energies.append(modified_energy(psi, m, coeffs, c_m))

        integrate(psi0, t_end, cfg, coeffs, observe)
        cols = rec.columns
        raw = np.asarray(cols["deriv_m_norm_sq"]) + np.asarray(cols["l2_norm_sq"])
        q_mod.append(experiments._max_quotient(cols["time"], energies))
        q_raw.append(experiments._max_quotient(cols["time"], raw))
        lengths.append(len(energies))
    return q_mod, q_raw, lengths


def _hex(values):
    return [float(v).hex() for v in values]


class TestEnsembleStudiesReplaySerialRuns:
    """riccati and continuity reduce each step's (B, N) block as it comes
    and keep no state; every output keeps the bits of the serial runs that
    kept every sample. A monkeypatched ``BLOWUP_FACTOR`` halts some members
    before the others: for continuity, the base run before two perturbed
    ones, and a perturbed one before the base run."""

    @pytest.mark.parametrize("data_seed, rng_seed, blowup, lengths", [
        (3, 18, None, [51] * 5),
        (3, 18, 1.0000073, [19, 20, 20, 19, 19]),
        (29, 5, None, [51] * 5),
        (29, 5, 1.0008, [45, 44, 45, 45, 45]),
    ])
    def test_continuity(self, monkeypatch, data_seed, rng_seed, blowup, lengths):
        if blowup is not None:
            monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", blowup)
        data = random_field(GridSpec(64), rng_for(data_seed), decay=6.0,
                            hm_norm=0.4, m=4)
        args = (data, [1e-2, 1e-3, 1e-4, 1e-5], integrable_coefficients(1.0), 0.05,
                SolverConfig(dt=1e-3, sobolev_index_m=4), rng_seed)
        res = continuity_study(*args)
        c_tilde, sup_h1, quotients, counts = _continuity_reference(*args)
        assert counts == lengths
        assert res.parameters["c_tilde"].hex() == c_tilde.hex()
        assert _hex(res.tables["scaling"]["sup_h1_diff"]) == _hex(sup_h1)
        assert _hex(res.tables["scaling"]["gronwall_quotient"]) == _hex(quotients)

    def test_riccati_criterion_8(self, monkeypatch):
        # below 1, the ceiling halts the first member at its first step and
        # the widest pair midway, when its H^4 norm grows back; the other
        # two run on
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.9999995)
        m = 4
        coeffs = integrable_coefficients(1.0)
        cert = certify_cm(m, coeffs, 1.0, trials=60, rng_seed=2024, target="sobolev")
        family = [mode_pair_field(GridSpec(256), k, 2.0, m) for k in (4, 8, 16, 32)]
        cfg = SolverConfig(dt=1e-6, sobolev_index_m=m)
        res = riccati_study(family, coeffs, cfg, 2e-4, cert.c_m)
        q_mod, q_raw, counts = _riccati_reference(family, coeffs, cfg, 2e-4, cert.c_m)
        assert counts == [2, 201, 201, 41]
        assert _hex(res.tables["quotients"]["q_modified"]) == _hex(q_mod)
        assert _hex(res.tables["quotients"]["q_raw"]) == _hex(q_raw)
