"""Training benchmark for ssrs: four sparse-reward workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden [--workload NAME]

A *unit* is one training run in a fresh interpreter: ``perfbench/unit.py``
(``train`` + ``write_run_outputs``) for the in-process workloads, or the
``ssrs train`` CLI for ``chain_vanilla``.  The benchmark is a closed loop of
one caller: units run one after another, never two at once, so there is no
queue and no wait time to report.

Each workload trains a fixed pool of seeds whose outputs are pinned in
``golden.json``; ``--seed`` picks the pool member a run starts with.  Every
unit's outputs are hashed against the golden digests and checked against the
workload's property guards; a unit that fails either counts in ``failed``.

``--trace 0`` reports the end-to-end metrics (medians over the run's units).
``--trace 1`` runs each pool seed once untraced and once traced and reports
the per-layer metrics, per unit, plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
clock = time.perf_counter  # CLOCK_MONOTONIC, as in probe.py

SETUP_PROBES = 5          # set-up-only starts per untraced run
RUN_LIMIT_S = 170.0       # a run ends well inside the 180 s allowance
UNIT_TIMEOUT_S = 150.0
# Units run single-threaded BLAS.  The estimator's matrices are small, and
# with threaded BLAS a second busy process on a 2-core box made the MLP
# forward pass up to 5x slower, so timings swung with the neighbours' load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool                 # run through `ssrs train` instead of unit.py
    overrides: tuple
    seeds: tuple              # pool of training seeds ("0,1" lists for the CLI)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("chain_shaped", False, ("episodes=120",), ("0", "1")),
    Workload("grid_shaped", False,
             ("env.kind=key_door_grid", "episodes=60", "epsilon_final=1.0",
              "estimator_lr=0.4", "buffer_capacity=4500"),
             ("0", "2")),
    Workload("chain_smallbuf", False,
             ("episodes=120", "env.length=30", "env.max_steps=60",
              "buffer_capacity=1500", "estimator_lr=0.01"),
             ("0", "1")),
    Workload("chain_vanilla", True,
             ("shaping=off", "episodes=120", "checkpoint_interval=12"),
             ("0,1", "2,3")),
)}


# ---------------------------------------------------------------------------
# outputs: golden digests and workload-property guards
# ---------------------------------------------------------------------------

def _stable_bytes(path: Path) -> bytes:
    """File bytes for the golden digest.

    ``run.json`` is hashed without ``summary.wall_time_seconds``: that field
    is a timing, so the file is not byte-stable between reruns.  Only that
    one key is dropped.
    """
    data = path.read_bytes()
    if path.name == "run.json":
        payload = json.loads(data)
        payload.get("summary", {}).pop("wall_time_seconds", None)
        data = json.dumps(payload, indent=2, sort_keys=True).encode()
    return data


def output_digests(out: Path) -> dict:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(_stable_bytes(p)).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _seed_dirs(out: Path, workload: Workload) -> list:
    return sorted(out.glob("seed_*")) if workload.cli else [out]


def _read_curve(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


def _buffer_fill(path: Path):
    _, _, _, capacity, count = struct.unpack_from("<5Q", path.read_bytes())
    return count, capacity


def run_outcome(out: Path, workload: Workload) -> dict:
    """Learning outcome and guard inputs read back from a unit's outputs."""
    seeds = []
    for seed_dir in _seed_dirs(out, workload):
        curve = _read_curve(seed_dir / "curve.csv")
        summary = json.loads((seed_dir / "run.json").read_text())["summary"]
        count, capacity = _buffer_fill(seed_dir / "buffer_final.bin")
        seeds.append({
            # a seed that never succeeds counts as succeeding one episode late
            "first_success_episode": (summary["first_success_episode"]
                                      or summary["episodes"] + 1),
            "final_success_rate": summary["final_success_rate"],
            "shaped_writes": int(sum(curve["shaped_count"])),
            "loss_logged": any(v != 0.0 for col in ("L_r", "L_QV", "L_s")
                               for v in curve[col]),
            "buffer_full": count == capacity,
            "params_files": len(list(seed_dir.glob("params_*.txt"))),
            "buffer_checkpoints": len(list(seed_dir.glob("buffer_ep*.bin"))),
        })
    return {"seeds": seeds}


def guard_problems(workload: Workload, outcome: dict, layers: dict | None) -> list:
    """Fail loudly when a workload stops exercising what it exists for."""
    problems = []

    def need(ok, message):
        if not ok:
            problems.append(f"{workload.name}: {message}")

    seeds = outcome["seeds"]
    need(seeds, "no seed outputs")
    name = workload.name
    if name == "grid_shaped":
        for s in seeds:
            need(s["buffer_full"], "replay window not full")
            need(s["shaped_writes"] >= 40_000,
                 f"only {s['shaped_writes']} shaped writes (need >= 40000)")
    if name == "chain_smallbuf":
        for s in seeds:
            need(s["buffer_full"], "replay window not full")
    if name in ("chain_shaped", "grid_shaped", "chain_smallbuf"):
        for s in seeds:
            need(s["loss_logged"], "estimator never trained")
    if name == "chain_vanilla":
        need(len(seeds) == 2, f"expected 2 seed directories, found {len(seeds)}")
        for s in seeds:
            need(s["shaped_writes"] == 0 and not s["loss_logged"]
                 and s["params_files"] == 0, "estimator path was used")
            need(s["buffer_checkpoints"] == 10,
                 f"{s['buffer_checkpoints']} buffer checkpoints (need 10)")
    if layers is None:
        return problems
    rows = layers["estimator.shape_buffer.rows_visited"]
    writes = layers["estimator.shape_buffer.writes"]
    if name in ("chain_shaped", "grid_shaped", "chain_smallbuf"):
        need(rows > 0, "shape_buffer visited no rows")
        need(layers["losses.total_loss.smooth.calls"] > 0, "no estimator steps")
    if name == "chain_smallbuf":
        need(writes * 100 <= rows, f"{writes} shaped writes of {rows} rows "
             "visited (need <= 1%)")
    if name == "chain_vanilla":
        for key in ("estimator.shape_buffer.calls",
                    "losses.total_loss.smooth.calls",
                    "losses.total_loss.hard.calls",
                    "augment.weak_strong_pair.calls",
                    "estimator.mlp_forward.rows"):
            need(layers[key] == 0, f"{key} is {layers[key]} (need 0)")
    need(layers["training.backbone_update.calls"] > 0, "no TD updates")
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


# ---------------------------------------------------------------------------
# running one unit
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    seed: str
    setup_s: float = float("nan")
    train_s: float = 0.0
    transitions: int = 0
    wall_s: float = float("nan")
    rss_mib: float = float("nan")
    procs: list = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


_unit_ids = itertools.count()


def _command(workload: Workload, seed: str, out: Path, setup_only: bool) -> list:
    sets = [arg for item in workload.overrides for arg in ("--set", item)]
    if workload.cli:
        seeds = seed.split(",")[0] if setup_only else seed
        return [sys.executable, "-m", "ssrs", "train", "--seed", seeds,
                "--out", str(out), *sets]
    return [sys.executable, str(HERE / "unit.py"), "--out", str(out),
            "--seed", seed, *sets]


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` (killing its process group past the deadline); return
    (exit code, resource usage, timed out)."""
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if clock() > deadline:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def run_unit(workload: Workload, seed: str, trace: bool = False,
             setup_only: bool = False, timeout: float = UNIT_TIMEOUT_S,
             golden: dict | None = None) -> Unit:
    """Run one unit in a fresh interpreter and check its outputs."""
    unit = Unit(seed=seed)
    work = WORK / f"{workload.name}-{os.getpid()}-{next(_unit_ids)}"
    probe_dir, out = work / "probe", work / "out"
    probe_dir.mkdir(parents=True)
    out.mkdir()
    paths = [str(ROOT / "src")]
    if workload.cli:
        paths.append(str(HERE / "hook"))
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **BLAS_THREADS,
               PERFBENCH_PROBE_DIR=str(probe_dir),
               PERFBENCH_TRACE="1" if trace else "0",
               PERFBENCH_SETUP_ONLY="1" if setup_only else "0")
    try:
        with open(work / "log.txt", "wb") as log:
            start = clock()
            proc = subprocess.Popen(
                _command(workload, seed, out, setup_only), cwd=work, env=env,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            code, usage, timed_out = _wait(proc, start + timeout)
            end = clock()
        unit.rss_mib = usage.ru_maxrss / 1024.0
        unit.procs = [json.loads(p.read_text())
                      for p in sorted(probe_dir.glob("proc_*.json"))]
        calls = [c for proc_rec in unit.procs for c in proc_rec["train"]]
        if timed_out:
            unit.problems.append(f"timed out after {timeout:.0f} s")
        if not calls:
            unit.problems.append("train() was never called")
            return _fail_log(unit, work)
        unit.setup_s = min(c["enter"] for c in calls) - start
        if setup_only:
            return unit
        if code != 0:
            unit.problems.append(f"exit status {code}")
            return _fail_log(unit, work)
        unit.train_s = sum(c["s"] for c in calls)
        unit.transitions = sum(c["transitions"] for c in calls)
        writes = sum(s for proc_rec in unit.procs for s in proc_rec["write_s"])
        unit.wall_s = end - start if workload.cli else unit.train_s + writes
        unit.outcome = run_outcome(out, workload)
        unit.outcome["digests"] = digests = output_digests(out)
        if golden is not None:
            entry = golden.get(workload.name, {})
            expected = entry.get("seeds", {}).get(seed)
            if entry.get("overrides") != list(workload.overrides):
                unit.problems.append("golden.json was written for other "
                                     "overrides; rerun --write-golden")
            elif expected is None:
                unit.problems.append(f"no golden digests for seed {seed}")
            elif digests != expected:
                bad = sorted(k for k in set(digests) | set(expected)
                             if digests.get(k) != expected.get(k))
                unit.problems.append("output differs from golden: "
                                     + ", ".join(bad))
        layers = layer_metrics([unit]) if trace else None
        unit.problems += guard_problems(workload, unit.outcome, layers)
        return unit
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fail_log(unit: Unit, work: Path) -> Unit:
    log = (work / "log.txt").read_text(errors="replace")[-2000:]
    print(f"unit failed ({'; '.join(unit.problems)}); log tail:\n{log}",
          file=sys.stderr)
    return unit


# ---------------------------------------------------------------------------
# traces -> per-layer metrics
# ---------------------------------------------------------------------------

# Phases of ROADMAP aim 1.  A span's self time goes to the phase of its
# nearest ancestor (itself included) that names one.  The TD batch is
# gathered in run_episode's step hook and the estimator batch in train(), so
# a gather directly under either takes its phase from that caller.
PHASES = {
    "estimator.shape_buffer": "shaping",
    "training.backbone_update": "td",
    "losses.total_loss.smooth": "estimator",
    "losses.total_loss.hard": "estimator",
    "losses.sgd_step": "estimator",
    "training.evaluate": "eval",
    "training.write_run_outputs": "io",
    "core.save_buffer": "io",
    "estimator.save_params": "io",
    "training.run_episode": "act",
    "training.train": "glue",
    "cli.main": "cli",
}
GATHERS = {"core.sample_slots", "core.batch_arrays"}
GATHER_PHASES = {"training.run_episode": "td", "training.train": "estimator"}


def span_table(procs: list):
    """Per span name: [calls, inclusive seconds, self seconds]; the summed
    self time of every span inside (and including) ``training.train``; and
    self seconds per phase."""
    table, phases, inside = {}, {}, 0.0
    for rec in procs:
        names, spans = rec["names"], rec["spans"]
        child = [0.0] * len(spans)
        in_train = [False] * len(spans)
        phase = [None] * len(spans)
        for i, span in enumerate(spans):
            if span is None:
                continue
            nid, start, end, parent = span
            name = names[nid]
            up = names[spans[parent][0]] if parent >= 0 else None
            in_train[i] = name == "training.train" or (
                parent >= 0 and in_train[parent])
            if name in GATHERS and up in GATHER_PHASES:
                phase[i] = GATHER_PHASES[up]
            else:
                phase[i] = PHASES.get(name, phase[parent] if parent >= 0 else None)
            if parent >= 0:
                child[parent] += end - start
        for i, span in enumerate(spans):
            if span is None:
                continue
            nid, start, end, _ = span
            own = end - start - child[i]
            entry = table.setdefault(names[nid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
            phases[phase[i]] = phases.get(phase[i], 0.0) + own
            if in_train[i]:
                inside += own
    return table, inside, phases


# name -> (span, field) with field 0 calls, 1 inclusive seconds, 2 self seconds
SPAN_METRICS = {
    "training.backbone_update.self_s": ("training.backbone_update", 2, "s"),
    "training.backbone_update.calls": ("training.backbone_update", 0, "count"),
    "training.run_episode.self_s": ("training.run_episode", 2, "s"),
    "envs.step.s": ("envs.step", 1, "s"),
    "estimator.shape_buffer.self_s": ("estimator.shape_buffer", 2, "s"),
    "estimator.shape_buffer.calls": ("estimator.shape_buffer", 0, "count"),
    "core.zero_reward_slots.s": ("core.zero_reward_slots", 1, "s"),
    "losses.total_loss.smooth.s": ("losses.total_loss.smooth", 1, "s"),
    "losses.total_loss.smooth.calls": ("losses.total_loss.smooth", 0, "count"),
    "losses.total_loss.hard.s": ("losses.total_loss.hard", 1, "s"),
    "losses.total_loss.hard.calls": ("losses.total_loss.hard", 0, "count"),
    "losses.sgd_step.s": ("losses.sgd_step", 1, "s"),
    "augment.weak_strong_pair.s": ("augment.weak_strong_pair", 1, "s"),
    "augment.weak_strong_pair.calls": ("augment.weak_strong_pair", 0, "count"),
    "estimator.mlp_forward.s": ("estimator.mlp_forward", 1, "s"),
    "estimator.mlp_backward.s": ("estimator.mlp_backward", 1, "s"),
    "core.push.s": ("core.push", 1, "s"),
    "core.sample_slots.s": ("core.sample_slots", 1, "s"),
    "core.batch_arrays.s": ("core.batch_arrays", 1, "s"),
    "core.save_buffer.s": ("core.save_buffer", 1, "s"),
    "estimator.save_params.s": ("estimator.save_params", 1, "s"),
    "training.evaluate.s": ("training.evaluate", 1, "s"),
    "training.train.self_s": ("training.train", 2, "s"),
}
COUNT_METRICS = {
    "envs.state_id_of.calls": "count",
    "core.set_reward.calls": "count",
    "core.batch_arrays.rows": "count",
    "estimator.shape_buffer.rows_visited": "count",
    "estimator.shape_buffer.writes": "count",
    "estimator.mlp_forward.rows": "count",
    "estimator.mlp_backward.rows": "count",
    "core.save_buffer.bytes": "B",
    "estimator.save_params.bytes": "B",
}
DERIVED_UNITS = {
    "estimator.shape_buffer.yield": "ratio",
    "estimator.mlp_forward.gflop_computed": "GFLOP",
    "cli.seed_wall_s": "s",
    "training.first_success_episode": "episode",
    "training.final_success_rate": "ratio",
    "trace.train_wall_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_ms_per_transition": "ms",
}
# Exact counts: identical for two traced runs of one seed.
EXACT_COUNTS = tuple(
    [k for k, (_, f, _) in SPAN_METRICS.items() if f == 0] + list(COUNT_METRICS))


def layer_metrics(units: list) -> dict:
    """Per-layer metrics of traced units, as means per unit."""
    n = len(units)
    sums = dict.fromkeys([*SPAN_METRICS, *COUNT_METRICS], 0.0)
    flop = seed_wall = seed_calls = train_wall = inside = 0.0
    firsts, finals = [], []
    for unit in units:
        table, own, _ = span_table(unit.procs)
        for name, (span, fld, _) in SPAN_METRICS.items():
            sums[name] += table.get(span, [0, 0.0, 0.0])[fld]
        for rec in unit.procs:
            for name in COUNT_METRICS:
                sums[name] += rec["counts"].get(name, 0)
            flop += rec["counts"].get("estimator.mlp_forward.flop", 0)
        worker = table.get("cli.seed_worker", [0, 0.0, 0.0])
        seed_calls += worker[0]
        seed_wall += worker[1]
        train_wall += unit.train_s
        inside += own
        for s in unit.outcome.get("seeds", []):
            firsts.append(s["first_success_episode"])
            finals.append(s["final_success_rate"])
    out = {k: v / n for k, v in sums.items()}
    rows = out["estimator.shape_buffer.rows_visited"]
    out["estimator.shape_buffer.yield"] = (
        out["estimator.shape_buffer.writes"] / rows if rows else 0.0)
    out["estimator.mlp_forward.gflop_computed"] = flop / n / 1e9
    out["cli.seed_wall_s"] = seed_wall / seed_calls if seed_calls else 0.0
    out["training.first_success_episode"] = (
        statistics.fmean(firsts) if firsts else 0.0)
    out["training.final_success_rate"] = statistics.fmean(finals) if finals else 0.0
    out["trace.train_wall_s"] = train_wall / n
    out["trace.accounted_share"] = inside / train_wall if train_wall else 0.0
    return out


def print_split(workload: Workload, units: list):
    """Self time per span and per phase, as shares of the traced time of
    train() plus artifact writes (in the CLI's seed workers; the
    orchestrator's cli.* spans are left out, as they contain the workers)."""
    table, phases = {}, {}
    for unit in units:
        spans, _, unit_phases = span_table(unit.procs)
        for name, (calls, total, own) in spans.items():
            entry = table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for phase, own in unit_phases.items():
            phases[phase] = phases.get(phase, 0.0) + own
    for name in ("cli.main", "cli.seed_worker"):
        table.pop(name, None)
    phases.pop("cli", None)
    wall = sum(phases.values())
    print(f"{workload.name} traced self-time split ({len(units)} units, "
          f"{wall:.3f} s):")
    for name, (calls, _, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:32s} {calls:9d} calls {own:9.3f} s {100 * own / wall:6.2f}%")
    print("  phases: " + ", ".join(
        f"{phase} {100 * own / wall:.1f}%" for phase, own in
        sorted(phases.items(), key=lambda kv: -kv[1])))


def metric_unit(name: str) -> str:
    if name in SPAN_METRICS:
        return SPAN_METRICS[name][2]
    return COUNT_METRICS.get(name) or DERIVED_UNITS[name]


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def _by_seed(units: list) -> list:
    groups = {}
    for unit in units:
        groups.setdefault(unit.seed, []).append(unit)
    return list(groups.values())


def _ms_per_transition(units: list) -> float:
    """Sum over pool seeds of each seed's median train() wall time, per
    transition, in ms.  A seed's transition count is fixed."""
    groups = _by_seed(units)
    train = sum(statistics.median(u.train_s for u in g) for g in groups)
    return 1000.0 * train / sum(g[0].transitions for g in groups)


def _per_seed_median(units: list, attr: str) -> float:
    return statistics.fmean(statistics.median(getattr(u, attr) for u in g)
                            for g in _by_seed(units))


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run units for about ``seconds``; return (attempted, failed, metrics)."""
    golden = load_golden()
    pool = workload.seeds
    first = seed % len(pool)
    order = pool[first:] + pool[:first]
    start = clock()
    attempted = failed = 0
    good, setups, traced, plain = [], [], [], []

    def remaining():
        return max(1.0, RUN_LIMIT_S - (clock() - start))

    def record(unit):
        nonlocal attempted, failed
        attempted += 1
        print(f"unit seed {unit.seed}: setup {unit.setup_s:.3f} s, train "
              f"{unit.train_s:.3f} s, {unit.transitions} transitions",
              file=sys.stderr)
        if unit.problems:
            failed += 1
            print(f"FAILED {workload.name} seed {unit.seed}: "
                  + "; ".join(unit.problems), file=sys.stderr)
            return False
        return True

    if trace:
        # One untraced and one traced unit per pool seed.
        for s in order:
            untraced = run_unit(workload, s, timeout=remaining(), golden=golden)
            if record(untraced):
                plain.append(untraced)
            unit = run_unit(workload, s, trace=True, timeout=remaining(),
                            golden=golden)
            if record(unit):
                traced.append(unit)
        if not traced or not plain:
            return attempted, failed, {}
        print_split(workload, traced)
        metrics = layer_metrics(traced)
        metrics["trace.overhead_ms_per_transition"] = (
            _ms_per_transition(traced) - _ms_per_transition(plain))
        return attempted, failed, metrics

    for i in range(SETUP_PROBES):
        unit = run_unit(workload, order[i % len(order)], setup_only=True,
                        timeout=remaining())
        if record(unit):
            setups.append(unit.setup_s)
    # Whole cycles over the pool, so every seed is measured equally often;
    # another cycle starts while it would end less than half a cycle late.
    cycle_start = clock()
    for cycles in itertools.count(1):
        for s in order:
            unit = run_unit(workload, s, timeout=remaining(), golden=golden)
            if record(unit):
                good.append(unit)
                setups.append(unit.setup_s)
        per_cycle = (clock() - cycle_start) / cycles
        if clock() - start + per_cycle / 2 > min(seconds, RUN_LIMIT_S):
            break
    if not good or {u.seed for u in good} != set(pool):
        return attempted, failed, {}
    metrics = {
        "ms_per_transition": _ms_per_transition(good),
        "train_wall_s": _per_seed_median(good, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(u.rss_mib for u in good),
    }
    outcome = layer_metrics(good)
    print(f"units {len(good)} ok of {attempted} attempted "
          f"(error_rate {failed / attempted:.4f}); first_success_episode "
          f"{outcome['training.first_success_episode']:.1f}, "
          f"final_success_rate {outcome['training.final_success_rate']:.3f} "
          f"(means over seeds {', '.join(sorted({u.seed for u in good}))})")
    return attempted, failed, metrics


END_TO_END_UNITS = {"ms_per_transition": "ms", "train_wall_s": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


def write_golden(names: list) -> int:
    golden = load_golden()
    for name in names:
        workload = WORKLOADS[name]
        entry = {"overrides": list(workload.overrides), "seeds": {}}
        for seed in workload.seeds:
            unit = run_unit(workload, seed)
            if unit.problems:
                print(f"{name} seed {seed}: " + "; ".join(unit.problems),
                      file=sys.stderr)
                return 1
            entry["seeds"][seed] = unit.outcome["digests"]
            print(f"{name} seed {seed}: {len(entry['seeds'][seed])} files, "
                  f"{unit.transitions} transitions, {unit.train_s:.2f} s")
        golden[name] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json from the current program")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ssrs" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'ssrs'} "
              "is missing)", file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    try:
        attempted, failed, metrics = measure(workload, args.seed, args.seconds,
                                             bool(args.trace))
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or metric_unit(name)
        print(f"{workload.name} {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if metrics else max(failed, 1),
        "metrics": {
            name: {"value": value,
                   "unit": END_TO_END_UNITS.get(name) or metric_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
