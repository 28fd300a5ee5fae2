"""The benchmark tracer (perfbench/spans.py) still finds every name it wraps.

The tracer rebinds package attributes by name, so deleting or renaming one
of them breaks ``perfbench/run.py --trace 1`` without failing any other test.
"""

import os
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
"""


def test_tracer_installs_on_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "TORUS4NLS_OUTDIR"},
    )
    assert proc.returncode == 0, proc.stderr
