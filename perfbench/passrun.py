"""One benchmark pass in a fresh interpreter, the way one CLI process runs.

Usage (from run.py): python -I passrun.py '<json spec>'. The spec gives the
package source directory, the argv of each CLI call (output directory
included), whether to trace, and the parent's monotonic clock reading just
before it started this process. Prints one JSON object on stdout; the CLI's
own printing goes to stderr.
"""

import contextlib
import json
import os
import platform
import sys
import time
import traceback

import numpy as np

CRASHED = 99
PROBE_REPS = 400
_fft, _ifft = np.fft.fft, np.fft.ifft  # kept unwrapped for the probe


def probe():
    """Seconds a fixed loop of numpy FFTs, array arithmetic and interpreter
    work takes now: the machine's current speed, measured in this process."""
    x = np.exp(1j * np.arange(768.0))

    def once():
        y = _ifft(_fft(x) * x)
        counts = {}
        for i in range(200):
            counts[i % 7] = counts.get(i % 7, 0) + i
        return float((y.real * y.real + y.imag * y.imag).sum())

    once()
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        once()
    return time.perf_counter() - start


def peak_rss_mb():
    """High-water resident set of this process image (VmHWM). Unlike
    ``ru_maxrss`` it does not count the parent's pages before exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    import torus4nls.cli as cli

    setup_s = time.monotonic() - spec["spawned_at"]
    from torus4nls import kernels

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"torus4nls imported from {cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.install()

    probe_before = probe()
    exits = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        for argv in spec["calls"]:
            try:
                exits.append(cli.run_command(argv))
            except SystemExit as exc:
                exits.append(exc.code if isinstance(exc.code, int) else 2)
            except Exception:
                traceback.print_exc()
                exits.append(CRASHED)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    probe_after = probe()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "probe_s": (probe_before + probe_after) / 2,
        "exits": exits,
        "env": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": kernels.BACKEND,
        },
    }
    if tracer is not None:
        result["layers"], result["fft_calls_by_size"] = spans.layer_metrics(tracer, wall_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
