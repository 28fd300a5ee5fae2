#!/usr/bin/env python3
"""Record the benchmark's reference outputs and baseline work counters.

    python3 perfbench/record.py [workload ...]

Runs every workload (or those named) once untraced and twice traced at the
default seed, and rewrites ``reference.json``: each output file's SHA-256
and table values, each call's exit code and verdict, and the traced work
counters. Refuses to record if the traced outputs or counters differ
between passes.
"""

import json
import os
import sys

import run
from run import DEFAULT_SEED, REFERENCE, WORKLOADS, fingerprint, sha256, verdict_of


def drop_roundoff_gains(files):
    """Leave uncompared the conservation gains of drifts at round-off level.

    The study exempts a drift at or below its ``drift_floor`` from the gain
    test because the ratio of two round-off drifts carries no signal; any
    change in operation order moves it freely, so the benchmark does not
    compare it either.
    """
    table = files.get("conservation__drifts.csv")
    if table is None:
        return
    floor = files["conservation__manifest.json"]["values"]["thresholds"]["drift_floor"]
    header = table["values"]["header"]
    coarse, gain = header.index("drift_coarse"), header.index("gain")
    for row in table["values"]["rows"].values():
        if row[coarse] <= floor:
            row[gain] = None


def record(workload, work):
    calls = run.workload_calls(workload, DEFAULT_SEED)
    plain = run.run_pass(calls, work, trace=False)
    traced = [run.run_pass(calls, work, trace=True) for _ in range(2)]
    for report in traced:
        if [{f: sha256(d) for f, d in o.items()} for o in report["outputs"]] != \
           [{f: sha256(d) for f, d in o.items()} for o in plain["outputs"]]:
            raise SystemExit(f"{workload}: traced outputs differ from untraced ones")
    metrics, _, deterministic = run.layer_summary(traced, [plain])
    if not deterministic:
        raise SystemExit(f"{workload}: counters differ between traced passes")
    recorded = []
    for argv, code, out in zip(calls, plain["exits"], plain["outputs"]):
        files = {f: {"sha256": sha256(d), "values": fingerprint(f, d)}
                 for f, d in out.items()}
        drop_roundoff_gains(files)
        recorded.append({"argv": argv, "exit": code, "verdict": verdict_of(out),
                         "files": files})
    return {
        "calls": recorded,
        "counters": {k: v["value"] for k, v in metrics.items()
                     if not k.endswith(".self_s") and k != "trace.overhead_s"},
        "env": plain["env"],
    }


def main(names):
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference.update({"seed": DEFAULT_SEED, "rtol": run.RTOL, "atol": run.ATOL})
    reference.setdefault("workloads", {})
    with run.work_dir() as work:
        for name in names or sorted(WORKLOADS):
            reference["workloads"][name] = record(name, work)
            print(f"recorded {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
