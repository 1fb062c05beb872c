"""The benchmark's own test: workload-property guards and exact-count repeats.

Usage, from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) it traces the first pool seed twice and
fails unless both units match their golden outputs, pass the workload's
property guards, and give identical exact counts (calls, rows, writes, MLP
GFLOP and saved bytes).  Exits 1 on any failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

EXACT = (*run.EXACT_COUNTS, "estimator.mlp_forward.gflop_computed")


def check(workload) -> list:
    golden = run.load_golden()
    seed = workload.seeds[0]
    units = [run.run_unit(workload, seed, trace=True, golden=golden)
             for _ in range(2)]
    problems = [p for u in units for p in u.problems]
    if problems:
        return problems
    first, second = (run.layer_metrics([u]) for u in units)
    for key in EXACT:
        if first[key] != second[key]:
            problems.append(f"{key}: {first[key]} then {second[key]}")
    counts = ", ".join(f"{k.rsplit('.', 1)[0]}={first[k]:.6g}" for k in (
        "envs.state_id_of.calls", "core.set_reward.calls",
        "augment.weak_strong_pair.calls", "estimator.mlp_forward.gflop_computed"))
    print(f"  seed {seed}: {counts}")
    return problems


def main(argv) -> int:
    names = argv or list(run.WORKLOADS)
    failed = 0
    for name in names:
        problems = check(run.WORKLOADS[name])
        print(f"{name}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"  {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
