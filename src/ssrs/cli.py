"""Command-line entry point: config parsing, subcommand dispatch, seed
orchestration and output management.

Subcommands
-----------
train          train one or more seeds, one after another in this process,
               and aggregate the best-score curves
eval           greedy evaluation of a trained run directory
gradcheck      verify analytic loss gradients against finite differences
augment-check  apply a named transform to a trajectory file, report entropies
rollout        dump one random-policy episode as a trajectory file; the
               episode's codes are decoded to rows in one call
consensus      co-assignment matrix over repeated clusterings of a buffer
dist           shaped-reward histograms across buffer checkpoints
compare        mean/std of best scores across aggregated run directories

Each subcommand accepts only the flags it reads; another flag is a usage
error that the subcommand reports with its own usage line.  ``train`` and
``rollout`` take ``--config PATH`` and ``--set key=value`` (repeatable)
for config overrides.  ``train`` and ``gradcheck`` take ``--seed LIST``;
``rollout``, ``augment-check`` and ``consensus`` take one ``--seed N``.
List flags (``--seed LIST``, ``--epochs``) reject an empty entry.
``consensus`` takes exactly one of ``--run`` and ``--buffer``.
Every subcommand that writes files takes ``--out DIR`` (default from the
``SSRS_OUT`` environment variable, else the working directory) and
``--force`` to overwrite existing outputs; ``eval`` takes ``--run`` alone.
All CSV outputs use RFC-4180 quoting, "\\n" line endings and
17-significant-digit decimal floats.

Errors: a flag argparse rejects exits 2 with the subcommand's usage line.
Every invalid value, file or key ends the command with ``error: MESSAGE``
on stderr and exit status 1: ``main`` reports each ValueError that way,
whether it is a :class:`CliError`, a ``ConfigError`` or the library's own,
whose messages name the file or key.  A wrapper here only adds context,
such as the path a message would otherwise lack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tokenize
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import best_score_series, reward_distribution, trajectory_consensus
from .augment import KINDS, AugmentSpec, apply_augment, partition_entropies
from .config import (ConfigError, RunConfig, apply_overrides, config_hash,
                     parse_config, parse_int_list)
from .core import (Batch, RewardSet, format_cell, load_buffer, load_trajectory,
                   read_csv, save_trajectory, TrajectoryMatrix, write_csv,
                   write_json)
from .envs import make_env
from .estimator import EstimatorParams
from .losses import consistency_views, finite_diff_gradient, loss_qv, loss_r, loss_s
from .training import BackboneQ, evaluate, train, write_run_outputs

__all__ = ["main", "gradcheck_report", "CliError"]

GRADCHECK_BOUND = 1e-4


class CliError(ValueError):
    """A user-facing failure: ``main`` prints it, as it does every
    ValueError, as ``error: MESSAGE`` and exits 1."""


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    """The run configuration of ``--config`` (else the defaults) with the
    ``--set`` overrides applied."""
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        try:
            config = parse_config(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ConfigError) as exc:
            raise CliError(f"{path}: {exc}") from None
    else:
        config = RunConfig()
    return apply_overrides(config, args.set or [])


def _int_list(flag: str, raw: str, lo: int) -> tuple:
    """The comma-separated distinct integers of ``flag``, each at least
    ``lo``."""
    try:
        values = parse_int_list(raw, lo)
    except ValueError as exc:
        raise CliError(f"{flag} {exc}") from None
    if len(set(values)) != len(values):
        raise CliError(f"{flag} holds a duplicate entry; got {raw!r}")
    return values


def _seed_list(args, default):
    """The seeds of ``--seed``, or ``default`` when it was not given."""
    return default if args.seed is None else _int_list("--seed", args.seed, 0)


def _one_seed(args, default: int) -> int:
    """The single seed of ``--seed``, or ``default`` when it was not given."""
    seeds = _seed_list(args, [default])
    if len(seeds) != 1:
        raise CliError(f"--seed takes one integer here, got {args.seed!r}")
    return seeds[0]


def _outputs(args, *names) -> list:
    """The paths of ``names`` under ``--out`` (default ``$SSRS_OUT``, else
    the working directory); one that exists is refused unless ``--force``
    was given."""
    root = Path(args.out or os.environ.get("SSRS_OUT") or ".")
    paths = [root / name for name in names]
    existing = [str(p) for p in paths if p.exists()]
    if existing and not args.force:
        raise CliError("output already exists (pass --force to overwrite): "
                       + ", ".join(existing))
    return paths


def _positive_int(text: str) -> int:
    """argparse type of the count flags; argparse names the flag on error."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {text!r}")
    return int(text)


def _run_config_of(run_dir: Path) -> RunConfig:
    meta = Path(run_dir) / "run.json"
    if not meta.is_file():
        raise CliError(f"not a run directory (no run.json): {run_dir}")
    try:
        payload = json.loads(meta.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CliError(f"{meta}: not valid JSON ({exc})")
    if isinstance(payload, dict) and "error" in payload:
        raise CliError(f"run {run_dir} failed: {payload['error']}")
    text = payload.get("config") if isinstance(payload, dict) else None
    if not isinstance(text, str):
        raise CliError(f"{meta}: holds no serialized config")
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise CliError(f"{meta}: {exc}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    config = _load_config(args)
    seeds = _seed_list(args, [config.seed])
    *curves, aggregate = _outputs(
        args, *(f"seed_{s}/curve.csv" for s in seeds), "aggregate.csv")

    results = {seed: _train_seed(replace(config, seed=seed), curve.parent)
               for seed, curve in zip(seeds, curves)}
    failed = [seed for seed, record in results.items() if record is None]
    records = [record for record in results.values() if record is not None]

    write_json(aggregate.parent / "run.json", {
        "config_hash": config_hash(config),
        "seeds": seeds,
        "failed": failed,
    })
    if records:
        episodes, mean, std = best_score_series(records)
        write_csv(aggregate, ("episode", "mean_best", "std_best"),
                  zip(episodes, mean, std))
        print(f"aggregate over {len(records)} seed(s) -> {aggregate}")
    if failed:
        print(f"failed seeds: {', '.join(map(str, failed))}", file=sys.stderr)
        return 1
    return 0


def _train_seed(config: RunConfig, out_dir: Path):
    """Train one seed into ``out_dir``; return its RunRecord, or None after
    recording the error in its run.json.  Only the record outlives the call."""
    try:
        record, backbone, params, buffer = train(config, out_dir=out_dir)
        write_run_outputs(record, config, out_dir, backbone=backbone,
                          params=params, buffer=buffer)
    except Exception as exc:
        write_json(out_dir / "run.json",
                   {"seed": config.seed, "error": str(exc)})
        print(f"seed {config.seed}: {exc}", file=sys.stderr)
        return None
    summary = record.summary()
    print(f"seed {config.seed}: best {summary['best_score']:.4f} "
          f"final {summary['final_score']:.4f} -> {out_dir}")
    return record


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    config = _run_config_of(run_dir)
    table_path = run_dir / "backbone_q.npy"
    if not table_path.is_file():
        raise CliError(f"missing value table: {table_path}")
    try:
        with open(table_path, "rb") as fh:
            table = np.lib.format.read_array(fh)
    # empty, truncated or not .npy; a header with an unclosed bracket fails
    # numpy's tokenizer
    except (ValueError, tokenize.TokenError) as exc:
        raise CliError(f"{table_path}: {exc}") from None
    if table.dtype != np.float64:
        raise CliError(f"{table_path}: dtype {table.dtype} is not float64")
    env = make_env(config.env)
    if table.shape != (env.n_states, env.n_actions):
        raise CliError(f"value table shape {table.shape} does not match "
                       f"environment ({env.n_states}, {env.n_actions})")
    if not np.isfinite(table).all():
        raise CliError(f"{table_path}: value table holds a non-finite value")
    ret, success = evaluate(env, BackboneQ(table))
    print(f"mean_return {format_cell(ret)}")
    print(f"success_rate {format_cell(success)}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _toy_estimator(rng: np.random.Generator):
    """A deliberately tiny two-head estimator for finite-difference checks."""
    m1, m2, n_z = 4, 2, 3
    params = EstimatorParams.create(m1, m2, n_z, rng, hidden=(6,),
                                    dropout=0.0, input_scale=1.0)
    # Nonzero biases keep every relu preactivation away from its kink, where
    # central differences straddle the corner and disagree with the
    # (one-sided) analytic derivative regardless of step size.
    for net in (params.q_net, params.v_net):
        for bias in net.biases:
            bias[...] = rng.normal(0.0, 0.1, size=bias.shape)
    zset = RewardSet(values=np.array([1.0, 2.0, 4.0]),
                     observed=(1.0, 2.0, 4.0))
    return params, zset, m1, m2


def _toy_batch(rng: np.random.Generator, m1: int, m2: int, n: int,
               nonzero: bool) -> Batch:
    states = rng.uniform(0.0, 1.0, size=(n, m1))
    next_states = rng.uniform(0.0, 1.0, size=(n, m1))
    actions = np.zeros((n, m2))
    actions[np.arange(n), rng.integers(0, m2, size=n)] = 1.0
    rewards = rng.choice([1.0, 2.0, 4.0], size=n) if nonzero else np.zeros(n)
    return Batch.from_arrays(states, actions, rewards, next_states)


def gradcheck_report(seed: int) -> dict:
    """Max relative backprop-vs-finite-difference error for each loss.

    Uses dropout-free toy estimators well under 200 parameters; the relative
    error is |g_bp - g_fd| / (|g_fd| + 1e-8), reduced with max over
    coordinates.
    """
    rng = np.random.default_rng(seed)
    params, zset, m1, m2 = _toy_estimator(rng)
    batch_nz = _toy_batch(rng, m1, m2, 4, nonzero=True)
    batch_z = _toy_batch(rng, m1, m2, 3, nonzero=False)
    pairing = (AugmentSpec("gaussian", {"sigma": 0.1}),
               AugmentSpec("double_entropy", {"n": 2}))
    threshold, mix = 0.5, 0.5
    views = consistency_views(batch_z, pairing, seed + 1)

    checks = {
        "L_r": lambda p: loss_r(p, batch_nz, zset, threshold, mix,
                                temperature=0.5, mode="smooth"),
        "L_QV": lambda p: loss_qv(p, batch_nz, mode="smooth"),
        "L_s": lambda p: loss_s(p, batch_z, views, zset, threshold, mix,
                                mode="smooth"),
    }
    report = {}
    for name, loss in checks.items():
        g_bp = loss(params)[1]
        g_fd = finite_diff_gradient(lambda p: loss(p)[0], params)
        rel = np.abs(g_bp - g_fd) / (np.abs(g_fd) + 1e-8)
        report[name] = float(rel.max())
    return report


def _cmd_gradcheck(args) -> int:
    seeds = _seed_list(args, [0, 1, 2])
    worst = 0.0
    for seed in seeds:
        report = gradcheck_report(seed)
        for name in ("L_r", "L_QV", "L_s"):
            err = report[name]
            worst = max(worst, err)
            verdict = "PASS" if err <= GRADCHECK_BOUND else "FAIL"
            print(f"seed {seed}  {name:<4}  max_rel_err {err:.3e}  {verdict}")
    ok = worst <= GRADCHECK_BOUND
    print(f"gradcheck: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, bound {GRADCHECK_BOUND:.0e})")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# augment-check
# ---------------------------------------------------------------------------

def _cmd_augment_check(args) -> int:
    if not Path(args.traj).is_file():
        raise CliError(f"trajectory file not found: {args.traj}")
    traj = load_trajectory(args.traj)
    params = {name: getattr(args, name) for name in ("sigma", "n", "low", "high")
              if getattr(args, name) is not None}
    spec = AugmentSpec(args.kind, params)
    m1 = traj.states.shape[1]
    # Cutout would clamp a larger count to the width, and double entropy
    # cannot split the columns into more partitions than there are.
    if (args.n is not None and args.kind in ("cutout", "double_entropy")
            and args.n > m1):
        raise CliError(f"--n: value {args.n} above the trajectory's state "
                       f"width {m1}")
    rng = np.random.default_rng(_one_seed(args, 0))
    out = apply_augment(spec, traj, rng)

    n_parts = args.n if (args.n and args.kind == "double_entropy") else min(8, m1)
    entropies = partition_entropies(traj.states[None], n_parts)[0].tolist()

    out_csv, out_json = _outputs(args, "augmented.csv", "augment_report.json")
    save_trajectory(out, out_csv)
    write_json(out_json, {
        "kind": spec.kind,
        "params": spec.params,
        "entropy_per_partition": entropies,
        "shapes": {
            "states": list(out.states.shape),
            "actions": list(out.actions.shape),
            "rewards": list(out.rewards.shape),
        },
    })
    print(f"augmented trajectory -> {out_csv}")
    print(f"report -> {out_json}")
    return 0


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def _cmd_rollout(args) -> int:
    config = _load_config(args)
    rng = np.random.default_rng(_one_seed(args, config.seed))
    env = make_env(config.env)
    code, done = env.reset(), False
    codes, actions, rewards = [], [], []
    while not done:
        action = int(rng.integers(0, env.n_actions))
        codes.append(code)
        actions.append(action)
        code, reward, done = env.step(action)
        rewards.append(reward)
    traj = TrajectoryMatrix(states=env.observations(np.array(codes)),
                            actions=env.action_vectors(actions),
                            rewards=np.array(rewards))
    (out_csv,) = _outputs(args, "rollout.csv")
    save_trajectory(traj, out_csv)
    print(f"{len(traj)} steps, return {format_cell(traj.rewards.sum())} "
          f"-> {out_csv}")
    return 0


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------

def _cmd_consensus(args) -> int:
    # argparse admits exactly one of --buffer and --run
    if args.buffer:
        path, config = Path(args.buffer), RunConfig()
    else:
        config = _run_config_of(Path(args.run))
        path = Path(args.run) / "buffer_final.bin"
    if not path.is_file():
        raise CliError(f"missing buffer checkpoint: {path}")
    entries = load_buffer(path)
    if not len(entries):
        raise CliError(f"{path}: the checkpoint holds no entries")
    k = args.k if args.k is not None else config.n_z
    if k > len(entries):
        raise CliError(f"--k {k} exceeds the {len(entries)} entries of {path}")
    seed = _one_seed(args, config.seed)
    grid_path, pairs_path = _outputs(args, "consensus_matrix.csv",
                                     "consensus_pairs.csv")
    matrix, n_traj = trajectory_consensus(entries, k, runs=args.runs,
                                          seed=seed)
    write_csv(grid_path, [f"t{j}" for j in range(n_traj)], matrix)
    pairs = ((i, j, matrix[i, j])
             for i in range(n_traj) for j in range(n_traj))
    write_csv(pairs_path, ("i", "j", "value"), pairs)
    print(f"{n_traj} trajectories, {args.runs} clustering runs, k={k}")
    print(f"matrix -> {grid_path}")
    print(f"pairs  -> {pairs_path}")
    return 0


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def _cmd_dist(args) -> int:
    run_dir = Path(args.run)
    _run_config_of(run_dir)  # validates the directory
    epochs = _int_list("--epochs", args.epochs, 1)
    snapshots = {}
    for epoch in epochs:
        path = run_dir / f"buffer_ep{epoch}.bin"
        if not path.is_file():
            raise CliError(f"missing buffer checkpoint: {path} "
                           f"(train with checkpoint_interval set)")
        snapshots[epoch] = load_buffer(path)
        if not len(snapshots[epoch]):
            raise CliError(f"{path}: the checkpoint holds no entries")
    (out_csv,) = _outputs(args, "dist.csv")
    _, rows = reward_distribution(snapshots, bins=args.bins)
    write_csv(out_csv, ("epoch", "bin_left", "bin_right", "probability"), rows)
    print(f"{len(epochs)} snapshot(s), {args.bins} bins -> {out_csv}")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _cmd_compare(args) -> int:
    columns = ("mean_best", "std_best")
    rows = []
    named = {}
    for raw in args.dirs:
        d = Path(raw)
        first = named.setdefault(d.name, d)
        if first is not d:
            raise CliError(f"{first} and {d} share the variant name {d.name!r}")
        agg = d / "aggregate.csv"
        if not agg.is_file():
            raise CliError(f"missing aggregate.csv in {d}")
        header, data = read_csv(agg)
        missing = [name for name in columns if name not in header]
        if missing:
            raise CliError(f"{agg}: no column {', '.join(missing)}")
        if not len(data):
            raise CliError(f"{agg}: no data rows")
        row = [d.name]
        for name in columns:
            column = data[:, header.index(name)]
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise CliError(f"{agg}: non-finite {name} in data row {bad[0] + 1}")
            row.append(float(column[-1]))
        rows.append(row)

    (out_csv,) = _outputs(args, "compare.csv")
    write_csv(out_csv, ("variant", *columns), rows)

    name_w = max(len("variant"), *(len(r[0]) for r in rows))
    print(f"{'variant':<{name_w}}  {'mean_best':>12}  {'std_best':>12}")
    for name, mean, std in rows:
        print(f"{name:<{name_w}}  {mean:>12.6f}  {std:>12.6f}")
    print(f"table -> {out_csv}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports arguments it does not take itself,
    with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class _RunDirs(argparse.Action):
    """``compare``'s run directories: at least two."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) < 2:
            parser.error("compare needs at least two run directories")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    # Parent parsers: each subcommand takes exactly the groups it reads.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="run configuration file")
    config.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="config override, repeatable")
    seeds = argparse.ArgumentParser(add_help=False)
    seeds.add_argument("--seed", help="comma-separated seed list")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", help="generator seed (one integer)")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", help="output directory "
                         "(default: $SSRS_OUT, else the working directory)")
    outputs.add_argument("--force", action="store_true",
                         help="overwrite existing outputs")

    parser = argparse.ArgumentParser(
        prog="ssrs",
        description="semi-supervised reward shaping toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("train", parents=[config, seeds, outputs],
                       help="train one run directory per seed")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation of a trained run")
    p.add_argument("--run", required=True, help="run directory")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", parents=[seeds],
                       help="verify loss gradients against finite differences")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("augment-check", parents=[seed, outputs],
                       help="apply one transform to a trajectory file")
    p.add_argument("--traj", required=True, help="trajectory CSV")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--sigma", type=float, help="gaussian noise scale")
    p.add_argument("--n", type=int,
                   help="column/window/partition count for cutout, smooth "
                        "or double_entropy")
    p.add_argument("--low", type=float, help="draw-range low (scale/translate)")
    p.add_argument("--high", type=float, help="draw-range high (scale/translate)")
    p.set_defaults(fn=_cmd_augment_check)

    p = sub.add_parser("rollout", parents=[config, seed, outputs],
                       help="dump one random-policy episode")
    p.set_defaults(fn=_cmd_rollout)

    p = sub.add_parser("consensus", parents=[seed, outputs],
                       help="co-assignment matrix over repeated clusterings")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--run", help="run directory holding buffer_final.bin")
    source.add_argument("--buffer", help="buffer checkpoint file")
    p.add_argument("--k", type=_positive_int, help="mixture components "
                   "(default: the run's candidate count)")
    p.add_argument("--runs", type=_positive_int, default=100,
                   help="clustering repeats")
    p.set_defaults(fn=_cmd_consensus)

    p = sub.add_parser("dist", parents=[outputs],
                       help="shaped-reward histograms across checkpoints")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--epochs", default="200,400,600,800,1000",
                   help="comma-separated checkpoint episodes")
    p.add_argument("--bins", type=_positive_int, default=20,
                   help="histogram bins")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("compare", parents=[outputs],
                       help="mean/std of best score across variants")
    p.add_argument("dirs", nargs="+", metavar="DIR", action=_RunDirs,
                   help="two or more aggregated run directories")
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # CliError, ConfigError and the library's own
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
