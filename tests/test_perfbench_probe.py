"""The benchmark's trace probe installs on the current program.

``perfbench/probe.py`` wraps ssrs functions and methods by name when
tracing is on, so renaming or deleting one of them breaks the benchmark.
This test installs the probe in a fresh interpreter, so such a change
fails here as well.  It only reads ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_probe_installs(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]),
               PERFBENCH_TRACE="1",
               PERFBENCH_PROBE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", "import probe; probe.install()"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("proc_*.json"))) == 1
