"""The benchmark tracer (perfbench/spans.py) still finds every name it wraps.

The tracer rebinds package attributes by name, so deleting or renaming one
of them breaks ``perfbench/run.py --trace 1`` without failing any other test.
It wraps ``np.fft.fft`` and ``np.fft.ifft`` on the numpy module, so an FFT
reached through a by-name import (``from numpy.fft import ifft``) goes
untraced; the stepping run below accounts for every transform.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import torus4nls.cli as cli
import spans

tracer = spans.install()
assert cli.run_command(["standing-wave", "--nu", "1", "--outdir", sys.argv[3]]) == 0
assert tracer.calls["cli.write_manifest"] == 1, dict(tracer.calls)

# integrable run at N=32: pad 3 in the stepper and the quartic corrections
# (96-point grid), pad 4 for the invariants (128-point grid)
calls0, counts0 = tracer.calls.copy(), tracer.counts.copy()
assert cli.run_command(["simulate", "--nu", "1", "--integrable", "--num-modes",
                        "32", "--t-end", "0.002", "--outdir", sys.argv[3]]) == 0
calls, counts = tracer.calls - calls0, tracer.counts - counts0
rows = calls["functionals.recorder"]
combines = calls["kernels.nonlinear_combine"]
assert rows == 3 and combines > 0, dict(calls)
# the recorder evaluates the state at t=0 alone, then the other two as one
# block when simulate reads its columns (a block holds 32 rows at N=32)
blocks = 2
# one inverse FFT per recorder block for each of the modified energy and
# the invariants; an inverse and a forward FFT per nonlinearity evaluation,
# of 3 and 1 times the points combined (a call may combine several rows)
combined = counts["kernels.nonlinear_combine.points"]
assert counts["fft.calls_n128"] == blocks, dict(counts)
assert counts["fft.calls_n96"] == blocks + 2 * combines, dict(counts)
assert calls["fft"] == 2 * blocks + 2 * combines, dict(calls)
assert counts["fft.points"] == 128 * 3 * rows + 96 * 2 * rows + 4 * combined, \
    dict(counts)
"""


def test_tracer_installs_on_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
