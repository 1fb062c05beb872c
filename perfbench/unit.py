"""One in-process benchmark unit: a fresh interpreter that trains one seed.

Usage (from the repository root, with ``src`` on PYTHONPATH and
PERFBENCH_PROBE_DIR set):

    python3 perfbench/unit.py --out DIR --seed N [--set key=value ...]

Runs ``train`` and ``write_run_outputs`` exactly as the README's Python
example does, under the probe that times them (and traces them when
PERFBENCH_TRACE=1).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402

probe.install()

from ssrs import training  # noqa: E402
from ssrs.config import RunConfig, apply_overrides  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", action="append", default=[])
    args = parser.parse_args()
    config = apply_overrides(RunConfig(), [*args.set, f"seed={args.seed}"])
    try:
        record, backbone, params, buffer = training.train(config)
    except probe.SetupOnly:
        return 0
    training.write_run_outputs(record, config, args.out, backbone=backbone,
                               params=params, buffer=buffer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
