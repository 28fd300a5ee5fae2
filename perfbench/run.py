#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the torus4nls CLI studies.

    python3 perfbench/run.py --workload riccati --seed 0 --seconds 25 --trace 0

Run from the repository root. Each pass runs one workload's CLI calls in a
fresh interpreter (``passrun.py``), one pass at a time, with BLAS/OpenMP
pinned to one thread, so lazily filled caches are paid inside the timing
as a user pays them. Passes repeat until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times, call counts and work counters (see ``spans.py``); the work
counters of every traced pass must agree exactly.

Correctness: at the default seed every output file is compared with
``reference.json`` (SHA-256 for ``outputs_identical_frac``; table and
manifest values within a tolerance, plus exit code and verdict, for
``passed_frac``). At any other seed the exit code must agree with the
verdict and every pass must repeat the first pass's verdicts and bytes.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Lines before it start with ``#`` and record the environment.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PASSRUN = HERE / "passrun.py"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
# The machine's speed drifts by tens of percent over minutes on a shared
# host. Each pass times a fixed probe loop (``passrun.probe``) just before
# and after its calls, and every end-to-end time is scaled by
# PROBE_REF_S / probe_s: seconds at the speed where the probe takes
# PROBE_REF_S (its typical time on the 2-core box the benchmark was tuned on).
PROBE_REF_S = 0.03
RTOL = 1e-6
ATOL = 1e-12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
EXIT_FOR_VERDICT = {None: 0, "pass": 0, "fail": 1, "inconclusive": 1}


def derive(seed, slot):
    """Study seed for ``slot`` under workload seed ``seed`` (stable, hashed)."""
    digest = hashlib.sha256(f"{seed}:{slot}".encode()).hexdigest()
    return str(int(digest[:8], 16) % 1_000_000)


def _call(base, seeded=None):
    """A call that runs ``base`` at the default seed and appends the
    seed-derived arguments ``seeded(d)`` otherwise (argparse keeps the
    last occurrence of a repeated flag)."""
    def build(seed):
        if seed == DEFAULT_SEED or seeded is None:
            return list(base)
        return list(base) + seeded(lambda slot: derive(seed, slot))
    return build


INTEGRABLE = ["--nu", "1", "--integrable"]

# Why each workload, and which layer it isolates, is set out in README.md.
WORKLOADS = {
    "riccati": [
        _call(["riccati", *INTEGRABLE], lambda d: ["--seed", d("riccati")]),
    ],
    "families_n64": [
        _call(["continuity", *INTEGRABLE], lambda d: [
            "--seed", d("continuity"),
            "--data", f"random:seed={d('continuity.data')}:decay=6.0:hm=0.4:m=4"]),
        _call(["eps-converge", *INTEGRABLE], lambda d: [
            "--data", f"random:seed={d('eps-converge.data')}:decay=8.0:hm=0.4:m=4"]),
        _call(["conserve", "--nu", "1"], lambda d: [
            "--data",
            f"random:seed={d('conserve.data')}:decay=2.0:hm=0.4:m=4:maxmode=4"]),
    ],
    "verify": [
        _call(["sweep-inequalities"], lambda d: ["--seed", d("sweep-inequalities")]),
        _call(["certify-cm", *INTEGRABLE], lambda d: ["--seed", d("certify-cm")]),
        _call(["bona-smith"]),
        _call(["standing-wave", *INTEGRABLE]),
    ],
    "simulate_n1024": [
        _call(["simulate", *INTEGRABLE, "--num-modes", "1024",
               "--data", "random:seed=42:decay=2.0:hm=0.4:m=4:maxmode=4",
               "--dt", "1e-4", "--t-end", "0.02"], lambda d: [
            "--data",
            f"random:seed={d('simulate.data')}:decay=2.0:hm=0.4:m=4:maxmode=4"]),
    ],
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "passed_frac": "ratio", "outputs_identical_frac": "ratio"}


def workload_calls(name, seed):
    return [build(seed) for build in WORKLOADS[name]]


# ---------------------------------------------------------------- outputs

def read_outputs(call_dir):
    """{file name: bytes} of one call's output directory."""
    if not call_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(call_dir.iterdir()) if p.is_file()}


def verdict_of(files):
    """The manifest's verdict; None when the command gives none."""
    for fname, data in files.items():
        if fname.endswith("__manifest.json"):
            try:
                return json.loads(data).get("verdict")
            except ValueError:
                return "unreadable manifest"
    return None


def parse_csv(data):
    lines = data.decode("ascii").splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def csv_fingerprint(data, max_values=20000):
    """Header and rows of a table. A large table (the simulate trajectory)
    keeps its first and last rows plus every row's sum of magnitudes."""
    header, rows = parse_csv(data)
    if len(rows) * len(header) <= max_values:
        return {"header": header, "rows": {str(i): row for i, row in enumerate(rows)}}
    return {
        "header": header,
        "rows": {"0": rows[0], str(len(rows) - 1): rows[-1]},
        "row_abs_sums": [math.fsum(abs(v) for v in row) for row in rows],
    }


def fingerprint(fname, data):
    if fname.endswith(".csv"):
        return csv_fingerprint(data)
    return json.loads(data)


def close(a, b):
    """Whether value ``a`` matches the reference ``b`` within RTOL/ATOL;
    a reference entry of None is not compared."""
    if b is None:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ passes

@contextlib.contextmanager
def work_dir():
    """A fresh directory for pass outputs inside the checkout, removed after."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield work / "pass"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def run_pass(calls, work, trace):
    """Run one pass in a fresh interpreter; returns its report and outputs."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argvs = [argv + ["--outdir", str(work / str(i))] for i, argv in enumerate(calls)]
    spec = {"src": str(SRC), "calls": argvs, "trace": bool(trace),
            "spawned_at": time.monotonic()}
    env = {k: v for k, v in os.environ.items()
           if k not in ("TORUS4NLS_BACKEND", "TORUS4NLS_OUTDIR")}
    proc = subprocess.run(
        [sys.executable, "-I", str(PASSRUN), json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["outputs"] = [read_outputs(work / str(i)) for i in range(len(calls))]
    report["bytes_written"] = sum(len(d) for out in report["outputs"] for d in out.values())
    report["files_written"] = sum(len(out) for out in report["outputs"])
    return report


class Checker:
    """Judges each call of each pass against the reference outputs."""

    def __init__(self, workload, seed):
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE.read_text())["workloads"][workload]["calls"]
        self._value_ok = {}
        self.verdicts = {}

    def check(self, report):
        """Returns (failed calls, identical files, files) of one pass."""
        if self.reference is None:
            self.reference = [
                {"exit": code, "verdict": verdict_of(out),
                 "files": {f: {"sha256": sha256(d)} for f, d in out.items()}}
                for code, out in zip(report["exits"], report["outputs"])
            ]
        failed = identical = total = 0
        for code, out, ref in zip(report["exits"], report["outputs"], self.reference):
            verdict = verdict_of(out)
            self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
            ok = (EXIT_FOR_VERDICT.get(verdict) == code and verdict == ref["verdict"]
                  and code == ref["exit"] and out.keys() == ref["files"].keys())
            for fname, data in out.items():
                total += 1
                want = ref["files"].get(fname)
                if want is None:
                    continue
                digest = sha256(data)
                if digest == want["sha256"]:
                    identical += 1
                elif "values" in want:
                    ok = ok and self._values_close(fname, digest, data, want["values"])
                else:
                    ok = False
            failed += not ok
        return failed, identical, total

    def _values_close(self, fname, digest, data, want):
        if digest not in self._value_ok:
            try:
                self._value_ok[digest] = close(fingerprint(fname, data), want)
            except (ValueError, IndexError):  # not a parseable table or manifest
                self._value_ok[digest] = False
        return self._value_ok[digest]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload, seed, seconds, trace, work):
    """Run passes for ``seconds``; returns the result object and report lines."""
    calls = workload_calls(workload, seed)
    checker = Checker(workload, seed)
    untraced, traced = [], []
    attempted = failed = identical = files = 0
    start = time.monotonic()
    while True:
        want_trace = bool(trace) and len(traced) < len(untraced)
        report = run_pass(calls, work, want_trace)
        f, i, t = checker.check(report)
        del report["outputs"]
        attempted += len(calls)
        failed += f
        identical += i
        files += t
        (traced if want_trace else untraced).append(report)
        enough = len(untraced) >= MIN_PASSES if not trace else (
            len(traced) >= 2 and len(untraced) >= 1)
        if enough and time.monotonic() - start >= seconds:
            break
    env = untraced[0]["env"]
    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# workload {workload} seed {seed}: {len(untraced)} untraced + "
             f"{len(traced)} traced passes, {len(calls)} calls each; "
             f"verdicts {json.dumps({str(k): v for k, v in checker.verdicts.items()})}"]
    correct = failed == 0
    if not trace:
        samples = {k: [r[k] * PROBE_REF_S / r["probe_s"] for r in untraced]
                   for k in ("wall_s", "cpu_s", "setup_s")}
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["passed_frac"] = (attempted - failed) / attempted
        metrics["outputs_identical_frac"] = identical / files if files else 0.0
        for k, v in samples.items():
            q1, q3 = quartiles(v)
            lines.append(f"# {k:<23} median {metrics[k]:.6g} {E2E_UNITS[k]}  "
                         f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(v)}")
        raw = {k: statistics.median(r[k] for r in untraced)
               for k in ("wall_s", "cpu_s", "setup_s", "probe_s")}
        lines.append(f"# unscaled medians (s) {json.dumps(raw)}")
        lines.append(f"# passed_frac {metrics['passed_frac']} (failed_frac "
                     f"{failed / attempted}, {failed} of {attempted} calls failed)")
        lines.append(f"# outputs_identical_frac {metrics['outputs_identical_frac']} "
                     f"({identical} of {files} files)")
        result_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    else:
        baseline = None
        if seed == DEFAULT_SEED:
            baseline = json.loads(REFERENCE.read_text())["workloads"][workload]["counters"]
        result_metrics, counter_lines, deterministic = layer_summary(
            traced, untraced, baseline)
        lines += counter_lines
        correct = correct and deterministic
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result_metrics}, lines


def layer_summary(traced, untraced, baseline=None):
    """Per-layer metrics of a traced run: self times are medians over the
    traced passes, counters must be identical across them; differences from
    the ``baseline`` counters are reported, not judged."""
    layers = [dict(r["layers"], **{"cli.bytes_written": r["bytes_written"],
                                   "cli.files_written": r["files_written"]})
              for r in traced]
    counters = {k: v for k, v in layers[0].items() if not k.endswith(".self_s")}
    mismatched = sorted(k for layer in layers[1:] for k in counters
                        if layer[k] != counters[k])
    values = dict(counters)
    for k in layers[0]:
        if k.endswith(".self_s"):
            values[k] = statistics.median(layer[k] for layer in layers)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in units}
    lines = [f"# fft calls by size {json.dumps(traced[0]['fft_calls_by_size'])}"]
    if mismatched:
        lines.append(f"# NONDETERMINISTIC counters across traced passes: {mismatched}")
    if baseline is not None:
        moved = {k: [baseline.get(k), v] for k, v in counters.items() if baseline.get(k) != v}
        lines.append(f"# counters vs recorded baseline: "
                     f"{json.dumps(moved) if moved else 'all identical'}")
    for k in sorted(values):
        lines.append(f"# {k} {values[k]}")
    return metrics, lines, not mismatched


def _terminate(signum, frame):
    # Raising here makes subprocess.run kill and reap the running pass.
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torus4nls" / "cli.py").is_file():
        print(f"error: package source {SRC / 'torus4nls'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        with work_dir() as work:
            result, lines = run_workload(args.workload, args.seed, args.seconds,
                                         args.trace, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
