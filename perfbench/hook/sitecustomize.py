"""Start-up hook for ``python -m ssrs`` processes launched by the benchmark.

The benchmark puts this directory on PYTHONPATH only for the CLI workload, so
the orchestrator and every seed worker it starts install the probe before
the CLI runs.  Without PERFBENCH_PROBE_DIR in the environment it does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_PROBE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import probe

    probe.install()
