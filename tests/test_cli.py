"""Command-line entry points: orchestration, outputs, guards, plumbing."""

import argparse
import hashlib
import json
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

import ssrs.cli
from ssrs.augment import AugmentSpec, shannon_entropy
from ssrs.cli import gradcheck_report, main
from ssrs.config import ConfigError, RunConfig, serialize_config
from ssrs.core import BUFFER_FORMAT_VERSION, load_buffer, load_trajectory

QUICK = """\
episodes = 12
env.length = 4
env.max_steps = 12
n_z = 3
estimator_hidden = 8
estimator_dropout = 0
eval_interval = 4
eval_episodes = 2
batch_size = 8
buffer_capacity = 200
"""


@pytest.fixture(scope="module")
def trained_root(tmp_path_factory):
    """One real two-seed orchestrated train, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("runs")
    cfg = root / "run.cfg"
    cfg.write_text(QUICK)
    out = root / "out"
    code = main(["train", "--config", str(cfg), "--seed", "0,1",
                 "--out", str(out)])
    assert code == 0
    return root


@pytest.fixture()
def worker_run(tmp_path):
    """The run directory of a single-seed train with buffer checkpoints."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--seed", "3",
                 "--out", str(out), "--set", "checkpoint_interval=6"])
    assert code == 0
    return out / "seed_3"


RUN_FILES = ("curve.csv", "run.json", "backbone_q.npy", "params_final.txt",
             "buffer_final.bin")


class TestTrain:
    def test_run_directories_complete(self, trained_root):
        out = trained_root / "out"
        for seed in (0, 1):
            d = out / f"seed_{seed}"
            for name in RUN_FILES:
                assert (d / name).is_file(), name
            curve = (d / "curve.csv").read_text().splitlines()
            assert len(curve) == 1 + 12

    def test_root_metadata_and_aggregate(self, trained_root):
        out = trained_root / "out"
        meta = json.loads((out / "run.json").read_text())
        assert meta["seeds"] == [0, 1]
        assert meta["failed"] == []
        assert len(meta["config_hash"]) == 64
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "episode,mean_best,std_best"
        assert len(agg) == 1 + 12

    def test_aggregate_matches_seed_curves(self, trained_root):
        out = trained_root / "out"
        bests = []
        for seed in (0, 1):
            rows = (out / f"seed_{seed}" / "curve.csv").read_text().splitlines()
            header = rows[0].split(",")
            col = header.index("best")
            bests.append([float(r.split(",")[col]) for r in rows[1:]])
        bests = np.array(bests)
        agg_rows = (out / "aggregate.csv").read_text().splitlines()[1:]
        mean = np.array([float(r.split(",")[1]) for r in agg_rows])
        std = np.array([float(r.split(",")[2]) for r in agg_rows])
        np.testing.assert_allclose(mean, bests.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(std, bests.std(axis=0), atol=1e-15)

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK)
        code = main(["train", "--config", str(cfg), "--seed", "1,1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    def test_empty_seed_list_rejected(self, tmp_path, capsys):
        code = main(["train", "--seed", ",", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "at least one" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["1,,2", "1,", ",1", " , "])
    def test_empty_seed_entry_rejected(self, tmp_path, capsys, seeds):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK)
        code = main(["train", "--config", str(cfg), "--seed", seeds,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and repr(seeds) in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_override_reported(self, tmp_path, capsys):
        code = main(["train", "--set", "beta=5", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta", "discount", "estimator_lr",
                                     "q_init", "backbone_lr",
                                     "sigmoid_sharpness"])
    def test_non_finite_config_value_reported(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"episodes = 1\n{key} = nan\n")
        code = main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "a")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: line 2: {key}: ")
        assert "finite" in err
        code = main(["train", "--set", "episodes=1", "--set", f"{key}=inf",
                     "--out", str(tmp_path / "b")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: override 2: ") and key in err
        assert "finite" in err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_non_utf8_config_reported(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"episodes = 5\n\xff\xfe = 1\n")
        code = main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not (tmp_path / "o").exists()

    def test_config_byte_flips_never_escape(self, tmp_path):
        # Every single-bit flip of a serialized default config either loads
        # or fails with a CliError/ConfigError; nothing here trains.
        raw = serialize_config(RunConfig()).encode()
        cfg = tmp_path / "run.cfg"
        args = argparse.Namespace(config=str(cfg), set=None)
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[i] ^= 1 << bit
                cfg.write_bytes(bytes(flipped))
                try:
                    loaded = ssrs.cli._load_config(args)
                except (ssrs.cli.CliError, ConfigError) as exc:
                    assert str(exc)
                    outcomes["rejected"] += 1
                else:
                    assert isinstance(loaded, RunConfig)
                    outcomes["loaded"] += 1
        assert outcomes["loaded"] and outcomes["rejected"]

    def test_seeds_in_one_process_match_separate_runs(self, trained_root,
                                                      tmp_path):
        # no state leaks from one seed into the next within one process
        cfg = trained_root / "run.cfg"
        for seed in (0, 1):
            single = tmp_path / f"single_{seed}"
            assert main(["train", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(single)]) == 0
            for name in RUN_FILES:
                joint = trained_root / "out" / f"seed_{seed}" / name
                alone = single / f"seed_{seed}" / name
                assert joint.read_bytes() == alone.read_bytes(), name

    def test_seed_state_released_before_next_seed(self, tmp_path, monkeypatch):
        train = ssrs.cli.train
        refs, alive_at_start = [], []

        def tracking_train(config, out_dir=None):
            alive_at_start.append(sum(ref() is not None for ref in refs))
            result = train(config, out_dir=out_dir)
            refs.extend(weakref.ref(obj) for obj in result[1:])
            return result

        monkeypatch.setattr(ssrs.cli, "train", tracking_train)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK)
        assert main(["train", "--config", str(cfg), "--seed", "0,1,2",
                     "--out", str(tmp_path / "o")]) == 0
        # backbone, estimator and buffer of every earlier seed are gone
        assert alive_at_start == [0, 0, 0]
        assert len(refs) == 9

    def test_first_seed_failure_recorded(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK)
        out = tmp_path / "o"
        (out / "seed_0" / "curve.csv").mkdir(parents=True)
        code = main(["train", "--config", str(cfg), "--seed", "0,1",
                     "--out", str(out), "--force"])
        assert code == 1
        assert "failed seeds: 0" in capsys.readouterr().err
        assert json.loads((out / "run.json").read_text())["failed"] == [0]
        assert json.loads((out / "seed_0" / "run.json").read_text()) \
            .keys() == {"seed", "error"}
        # the second seed still trains, and aggregates alone
        for name in RUN_FILES:
            assert (out / "seed_1" / name).is_file(), name
        best = [r.split(",")[2] for r in
                (out / "seed_1" / "curve.csv").read_text().splitlines()[1:]]
        agg = [r.split(",") for r in
               (out / "aggregate.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in agg] == best
        assert {r[2] for r in agg} == {"0"}

    def test_worker_failure_recorded(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(QUICK)
        out = tmp_path / "o"
        # sabotage seed 1's curve target so that seed fails mid-write
        (out / "seed_1" / "curve.csv").mkdir(parents=True)
        code = main(["train", "--config", str(cfg), "--seed", "0,1",
                     "--out", str(out), "--force"])
        assert code == 1
        assert json.loads((out / "run.json").read_text())["failed"] == [1]
        assert "error" in json.loads((out / "seed_1" / "run.json").read_text())
        # the surviving seed still aggregates
        assert (out / "aggregate.csv").is_file()

    def test_overwrite_guard(self, trained_root, capsys):
        cfg = trained_root / "run.cfg"
        code = main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(trained_root / "out")])
        assert code == 1
        assert "force" in capsys.readouterr().err


class TestEval:
    def test_reports_metrics(self, trained_root, capsys):
        code = main(["eval", "--run", str(trained_root / "out" / "seed_0")])
        assert code == 0
        text = capsys.readouterr().out
        # one greedy rollout: no episode count
        assert [line.split()[0] for line in text.splitlines()] == [
            "mean_return", "success_rate"]

    def test_acts_on_the_saved_value_table(self, worker_run, capsys):
        # eval loads backbone_q.npy: a table preferring "right" solves the
        # corridor, one preferring "left" never does
        table_path = worker_run / "backbone_q.npy"
        saved = np.load(table_path)
        assert saved.shape == (4, 2) and saved.flags.writeable
        for column, success in ((1, "1"), (0, "0")):
            table = np.zeros_like(saved)
            table[:, column] = 1.0
            np.save(table_path, table)
            assert main(["eval", "--run", str(worker_run)]) == 0
            assert f"success_rate {success}\n" in capsys.readouterr().out

    def test_missing_run_dir(self, tmp_path, capsys):
        code = main(["eval", "--run", str(tmp_path / "ghost")])
        assert code == 1
        assert "run.json" in capsys.readouterr().err


BAD_RUN_JSON = {
    "not_json": '{"config": "episodes = 3"',
    "no_config": '{"summary": {}}\n',
    "config_not_text": '{"config": 3}\n',
    "not_an_object": '[1, 2]\n',
}


@pytest.mark.parametrize("command", ["eval", "consensus", "dist"])
@pytest.mark.parametrize("content", sorted(BAD_RUN_JSON))
def test_bad_run_json_named(tmp_path, capsys, command, content):
    run = tmp_path / "run"
    run.mkdir()
    (run / "run.json").write_text(BAD_RUN_JSON[content])
    argv = [command, "--run", str(run)]
    if command != "eval":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(run / "run.json") in err


@pytest.mark.parametrize("command", ["train", "rollout", "gradcheck",
                                     "augment-check"])
def test_negative_seed_rejected(tmp_path, capsys, command):
    argv = [command, "--seed", "-1"]
    if command != "gradcheck":
        argv += ["--out", str(tmp_path / "o")]
    if command == "augment-check":
        assert main(["rollout", "--out", str(tmp_path)]) == 0
        argv += ["--traj", str(tmp_path / "rollout.csv"), "--kind", "gaussian"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed ") and "'-1'" in err
    assert not (tmp_path / "o").exists()


# The optional flags of each subcommand: exactly the ones it reads.
FLAGS = {
    "train": {"--config", "--set", "--seed", "--out", "--force"},
    "eval": {"--run"},
    "gradcheck": {"--seed"},
    "augment-check": {"--traj", "--kind", "--sigma", "--n", "--low", "--high",
                      "--seed", "--out", "--force"},
    "rollout": {"--config", "--set", "--seed", "--out", "--force"},
    "consensus": {"--run", "--buffer", "--k", "--runs", "--seed", "--out",
                  "--force"},
    "dist": {"--run", "--epochs", "--bins", "--out", "--force"},
    "compare": {"--out", "--force"},
}
# The flags every subcommand once accepted, whether it read them or not.
FORMERLY_SHARED = ("--config", "--seed", "--out", "--force", "--set")
REMOVED_FLAGS = [(command, flag) for command, flags in FLAGS.items()
                 for flag in FORMERLY_SHARED if flag not in flags]
REMOVED_FLAGS.append(("eval", "--episodes"))
# What argparse needs before it reports an unrecognized flag.
REQUIRED_ARGS = {"eval": ["--run", "r"], "dist": ["--run", "r"],
                 "augment-check": ["--traj", "t", "--kind", "flip"],
                 "consensus": ["--buffer", "b"], "compare": ["a", "b"]}


def _taken_flags():
    """The optional flags of each subcommand the parser builds."""
    (commands,) = [action.choices for action in ssrs.cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {command: {flag for action in parser._actions
                      for flag in action.option_strings
                      if flag not in ("-h", "--help")}
            for command, parser in commands.items()}


def test_each_command_takes_exactly_the_flags_it_reads():
    taken = _taken_flags()
    assert taken == FLAGS
    assert sum(map(len, taken.values())) == 35
    assert len(REMOVED_FLAGS) == 20


def test_readme_cli_table_lists_each_commands_flags():
    # a row reads | `command` | what it does | flags |
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`[a-z-]+`", cells[0]):
            rows[cells[0].strip("`")] = set(re.findall(r"--[a-z-]+", cells[2]))
    taken = _taken_flags()
    assert {command: rows.get(command) for command in taken} == taken


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flag_exits_2_naming_it(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED_ARGS.get(command, []), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--run", "x", "--episodes", "3"],
     "unrecognized arguments: --episodes 3"),
    (["compare", "a"], "compare needs at least two run directories"),
], ids=["unknown-flag", "one-directory"])
def test_flag_errors_show_the_command_usage(capsys, argv, message):
    # the subcommand's own parser reports them, listing the flags it takes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ssrs {argv[0]} ")
    assert f"ssrs {argv[0]}: error: {message}" in err


@pytest.mark.parametrize("command", ["rollout", "augment-check", "consensus"])
def test_single_seed_commands_reject_a_seed_list(trained_root, tmp_path, capsys,
                                                 command):
    argv = {
        "rollout": ["rollout"],
        "augment-check": ["augment-check", "--traj", str(tmp_path / "rollout.csv"),
                          "--kind", "gaussian"],
        "consensus": ["consensus", "--run", str(trained_root / "out" / "seed_0"),
                      "--runs", "2"],
    }[command]
    assert main(["rollout", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main([*argv, "--seed", "1,2", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed ") and "'1,2'" in err
    assert not (tmp_path / "o").exists()


def test_augment_check_rejects_a_parameter_its_kind_does_not_read(tmp_path,
                                                                  capsys):
    assert main(["rollout", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["augment-check", "--traj", str(tmp_path / "rollout.csv"),
                 "--kind", "flip", "--sigma", "0.5", "--n", "3",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: flip takes no parameter n, sigma\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["cutout", "double_entropy"])
def test_augment_check_rejects_n_above_the_state_width(tmp_path, capsys, kind):
    # cutout would clamp 25 columns to the 24 there are and double entropy
    # cannot make 25 partitions of them; both name --n and write nothing
    assert main(["rollout", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    traj = str(tmp_path / "rollout.csv")
    assert main(["augment-check", "--traj", traj, "--kind", kind, "--n", "25",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: --n: value 25 above the trajectory's state width 24\n")
    assert not (tmp_path / "o").exists()
    assert main(["augment-check", "--traj", traj, "--kind", kind, "--n", "24",
                 "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "augmented.csv").is_file()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_augment_check_names_a_non_finite_sigma(tmp_path, capsys, sigma):
    # it used to reach the trajectory and fail with "states must be finite"
    assert main(["rollout", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["augment-check", "--traj", str(tmp_path / "rollout.csv"),
                 "--kind", "gaussian", "--sigma", sigma,
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: gaussian sigma must be finite and nonnegative, got {sigma}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_augment_check_rejects_a_non_finite_trajectory_cell(tmp_path, capsys,
                                                           cell):
    traj = tmp_path / "traj.csv"
    traj.write_text(f"s0,s1,a0,r\n1,{cell},1,0\n2,3,1,1\n")
    assert main(["augment-check", "--traj", str(traj), "--kind",
                 "double_entropy", "--n", "2",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj}: states must be finite\n")
    assert not (tmp_path / "o").exists()


def test_train_rejects_a_key_on_the_start_cell_before_writing(tmp_path, capsys):
    code = main(["train", "--set", "env.kind=key_door_grid",
                 "--set", "env.key_x=0", "--set", "env.key_y=0",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "start cell" in err
    assert not (tmp_path / "o").exists()


def _copy_run_json(trained_root, run):
    """A run directory holding only the trained run's run.json."""
    run.mkdir()
    (run / "run.json").write_bytes(
        (trained_root / "out" / "seed_0" / "run.json").read_bytes())
    return run


BAD_TABLES = {
    "empty": lambda good: b"",
    "truncated_data": lambda good: good[:-5],
    "truncated_header": lambda good: good[:20],
    "not_npy": lambda good: b"not an array\n",
    # 'shape': (20, 2, in place of (20, 2): numpy's header parse raises
    # tokenize.TokenError, not ValueError
    "unclosed_shape": lambda good: good.replace(b")", b",", 1),
}


@pytest.mark.parametrize("content", sorted(BAD_TABLES))
def test_malformed_value_table_named(trained_root, tmp_path, capsys, content):
    run = _copy_run_json(trained_root, tmp_path / "run")
    good = (trained_root / "out" / "seed_0" / "backbone_q.npy").read_bytes()
    table = run / "backbone_q.npy"
    table.write_bytes(BAD_TABLES[content](good))
    assert main(["eval", "--run", str(run)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {table}: ")


@pytest.mark.parametrize("save, message", [
    (lambda fh: np.savez(fh, q=np.zeros((4, 2))), "magic string"),
    (lambda fh: np.save(fh, np.full((4, 2), "a")), "not float64"),
], ids=["npz_archive", "string_array"])
def test_value_table_not_a_float_array_named(trained_root, tmp_path, capsys,
                                             save, message):
    run = _copy_run_json(trained_root, tmp_path / "run")
    table = run / "backbone_q.npy"
    with open(table, "wb") as fh:
        save(fh)
    assert main(["eval", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}: ") and message in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_value_table_named(trained_root, tmp_path, capsys, bad):
    # a non-finite table used to be scored: success_rate 0, exit 0
    run = _copy_run_json(trained_root, tmp_path / "run")
    table = np.load(trained_root / "out" / "seed_0" / "backbone_q.npy")
    table[1, 0] = bad
    path = run / "backbone_q.npy"
    np.save(path, table)
    assert main(["eval", "--run", str(run)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert "non-finite" in captured.err and captured.out == ""


BAD_BUFFERS = {
    "empty": lambda good: b"",
    "truncated": lambda good: good[:-1],
    "trailing_byte": lambda good: good + b"\0",
    # an empty buffer whose header names 2**58 slots: it loads, as no
    # entries, and the commands refuse it naming the file
    "unallocatable_capacity": lambda good: struct.pack(
        "<5Q", BUFFER_FORMAT_VERSION, 2, 1, 2 ** 58, 0),
}


@pytest.mark.parametrize("content", sorted(BAD_BUFFERS))
@pytest.mark.parametrize("source", ["consensus_run", "consensus_buffer",
                                    "dist"])
def test_malformed_buffer_named(trained_root, tmp_path, capsys, source,
                                content):
    run = _copy_run_json(trained_root, tmp_path / "run")
    good = (trained_root / "out" / "seed_0" / "buffer_final.bin").read_bytes()
    if source == "dist":
        path = run / "buffer_ep6.bin"
        argv = ["dist", "--run", str(run), "--epochs", "6"]
    else:
        path = run / "buffer_final.bin"
        argv = (["consensus", "--run", str(run)] if source == "consensus_run"
                else ["consensus", "--buffer", str(path)])
    path.write_bytes(BAD_BUFFERS[content](good))
    if content == "unallocatable_capacity":
        assert len(load_buffer(path)) == 0
    else:
        with pytest.raises(ValueError):
            load_buffer(path)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("capacity", [2, 2 ** 58])
def test_dist_names_an_empty_checkpoint(worker_run, tmp_path, capsys,
                                        monkeypatch, capacity):
    # a checkpoint that holds no entry loads, whatever capacity its header
    # names, and dist refuses it naming the file, before any histogram
    path = worker_run / "buffer_ep6.bin"
    path.write_bytes(struct.pack("<5Q", BUFFER_FORMAT_VERSION, 2, 1,
                                 capacity, 0))
    assert len(load_buffer(path)) == 0
    calls = []
    monkeypatch.setattr(ssrs.cli, "reward_distribution",
                        lambda *args, **kwargs: calls.append(args))
    code = main(["dist", "--run", str(worker_run), "--epochs", "6,12",
                 "--out", str(tmp_path / "d")])
    assert code == 1 and calls == []
    assert capsys.readouterr().err == \
        f"error: {path}: the checkpoint holds no entries\n"
    assert not (tmp_path / "d").exists()


class TestGradcheck:
    def test_report_values_small(self):
        report = gradcheck_report(0)
        assert set(report) == {"L_r", "L_QV", "L_s"}
        assert all(err <= 1e-4 for err in report.values())

    def test_command_passes(self, capsys):
        assert main(["gradcheck", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_repeated_seed_rejected(self, monkeypatch, capsys):
        checked = []
        monkeypatch.setattr(ssrs.cli, "gradcheck_report",
                            lambda seed: checked.append(seed))
        assert main(["gradcheck", "--seed", "0,1,0"]) == 1
        assert checked == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: --seed holds a duplicate entry; got '0,1,0'\n"


class TestRolloutAndAugmentCheck:
    def test_rollout_then_augment(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["rollout", "--seed", "4", "--out", str(out),
                     "--set", "env.length=4", "--set", "env.max_steps=15"])
        assert code == 0
        traj = load_trajectory(out / "rollout.csv")
        assert traj.states.shape[1] == 8  # 4 + 4 extras, already padded
        assert traj.actions.shape[1] == 2

        code = main(["augment-check", "--traj", str(out / "rollout.csv"),
                     "--kind", "double_entropy", "--n", "4",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "augment_report.json").read_text())
        assert report["kind"] == "double_entropy"
        assert len(report["entropy_per_partition"]) == 4
        assert all(h >= 0.0 for h in report["entropy_per_partition"])
        augmented = load_trajectory(out / "augmented.csv")
        assert augmented.states.shape == traj.states.shape
        np.testing.assert_array_equal(augmented.rewards, traj.rewards)

    @pytest.mark.parametrize("kind, n", [
        ("gaussian", None), ("cutout", None), ("smooth", None),
        ("scale", None), ("translate", None), ("flip", None),
        ("double_entropy", None), ("double_entropy", 3),
    ])
    def test_report_bytes_match_per_slice_entropies(self, tmp_path, kind, n):
        # The report's partitions as augment-check laid them out by hand:
        # width m1 // n, the last partition taking the remainder.
        out = tmp_path / "r"
        assert main(["rollout", "--seed", "4", "--out", str(out)]) == 0
        traj = load_trajectory(out / "rollout.csv")
        args = ["augment-check", "--traj", str(out / "rollout.csv"),
                "--kind", kind, "--out", str(out)]
        assert main(args + (["--n", str(n)] if n else [])) == 0
        m1 = traj.states.shape[1]
        parts = n or min(8, m1)
        width = m1 // parts
        entropies = [shannon_entropy(traj.states[:, i * width:
                                                 (i + 1) * width
                                                 if i < parts - 1 else m1])
                     for i in range(parts)]
        spec = AugmentSpec(kind, {"n": n} if n else {})
        expected = json.dumps({
            "kind": kind,
            "params": spec.params,
            "entropy_per_partition": entropies,
            "shapes": {"states": list(traj.states.shape),
                       "actions": list(traj.actions.shape),
                       "rewards": list(traj.rewards.shape)},
        }, indent=2, sort_keys=True) + "\n"
        assert (out / "augment_report.json").read_text() == expected

    def test_rollout_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["rollout", "--seed", "9", "--out", str(out)]) == 0
            outs.append((out / "rollout.csv").read_bytes())
        assert outs[0] == outs[1]

    # sha256 of rollout.csv, computed when the steps still returned rows
    @pytest.mark.parametrize("overrides, pinned", [
        ([], "1a640c68e0838f505fbb69fa4ae80c9ac48be7d7a91c132f45712c6d81894f05"),
        (["--set", "env.kind=key_door_grid"],
         "1c9b2fe7c3f8a1839305621cf0e56bc9156af307d800de436fd462ac4630d518"),
    ], ids=["chain", "grid"])
    def test_rollout_matches_pinned_digest(self, tmp_path, overrides, pinned):
        out = tmp_path / "r"
        assert main(["rollout", "--seed", "4", "--out", str(out),
                     *overrides]) == 0
        data = (out / "rollout.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == pinned

    def test_guard_and_force(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["rollout", "--seed", "1", "--out", str(out)]) == 0
        assert main(["rollout", "--seed", "1", "--out", str(out)]) == 1
        assert "force" in capsys.readouterr().err
        assert main(["rollout", "--seed", "1", "--out", str(out),
                     "--force"]) == 0

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSRS_OUT", str(tmp_path / "envout"))
        assert main(["rollout", "--seed", "2"]) == 0
        assert (tmp_path / "envout" / "rollout.csv").is_file()

    @pytest.mark.parametrize("text", ["s0,s1,a0,r\n1,2,0\n",
                                      "s0,s1,a0,r\n1,2,0,x\n"])
    def test_malformed_trajectory_reported(self, tmp_path, capsys, text):
        traj = tmp_path / "t.csv"
        traj.write_text(text)
        code = main(["augment-check", "--traj", str(traj), "--kind", "flip",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(traj) in err
        assert "line 2" in err

    def test_missing_trajectory_reported(self, tmp_path, capsys):
        traj = tmp_path / "nope.csv"
        code = main(["augment-check", "--traj", str(traj), "--kind", "flip",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: trajectory file not found: {traj}\n")
        assert not (tmp_path / "o").exists()

    def test_seed_with_empty_entry_rejected(self, tmp_path, capsys):
        code = main(["rollout", "--seed", "3,", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and "'3,'" in err
        assert not (tmp_path / "o").exists()

    def test_bad_transform_params(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["rollout", "--seed", "0", "--out", str(out)]) == 0
        code = main(["augment-check", "--traj", str(out / "rollout.csv"),
                     "--kind", "gaussian", "--sigma", "-2",
                     "--out", str(out)])
        assert code == 1
        assert "sigma" in capsys.readouterr().err


class TestConsensus:
    def test_matrix_outputs(self, worker_run, tmp_path, capsys):
        out = tmp_path / "c"
        code = main(["consensus", "--run", str(worker_run), "--k", "2",
                     "--runs", "3", "--out", str(out)])
        assert code == 0
        grid = (out / "consensus_matrix.csv").read_text().splitlines()
        n_traj = len(grid[0].split(","))
        assert grid[0].split(",")[0] == "t0"
        assert len(grid) == 1 + n_traj
        pairs = (out / "consensus_pairs.csv").read_text().splitlines()
        assert pairs[0] == "i,j,value"
        assert len(pairs) == 1 + n_traj * n_traj
        # diagonal entries are exactly 1
        diag = [float(grid[1 + i].split(",")[i]) for i in range(n_traj)]
        assert diag == [1.0] * n_traj

    def test_buffer_argument(self, worker_run, tmp_path):
        out = tmp_path / "c"
        code = main(["consensus", "--buffer",
                     str(worker_run / "buffer_final.bin"), "--k", "2",
                     "--runs", "2", "--out", str(out)])
        assert code == 0
        assert (out / "consensus_matrix.csv").is_file()

    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["consensus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ssrs consensus ")
        assert "one of the arguments --run --buffer is required" in err

    def test_run_and_buffer_exclusive(self, trained_root, tmp_path, capsys):
        # --run is not ignored beside --buffer, even when it names nothing
        run = trained_root / "out" / "seed_0"
        for run_arg in (str(tmp_path / "nonexistent"), str(run)):
            with pytest.raises(SystemExit) as exc:
                main(["consensus", "--run", run_arg,
                      "--buffer", str(run / "buffer_final.bin"),
                      "--runs", "2", "--out", str(tmp_path / "c")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ssrs consensus ")
            assert "not allowed with argument" in err
        assert not (tmp_path / "c").exists()

    def test_k_above_the_entry_count_named(self, trained_root, tmp_path,
                                           capsys, monkeypatch):
        # refused before any clustering, naming the flag, the entry count
        # and the checkpoint; as many components as entries pass
        calls = []

        def clustering(buffer, k, runs, seed):
            calls.append(k)
            return np.ones((1, 1)), 1

        monkeypatch.setattr(ssrs.cli, "trajectory_consensus", clustering)
        buffer = trained_root / "out" / "seed_0" / "buffer_final.bin"
        n = len(load_buffer(buffer))
        code = main(["consensus", "--buffer", str(buffer), "--k", str(n + 1),
                     "--runs", "2", "--out", str(tmp_path / "c")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --k {n + 1} exceeds the {n} entries of {buffer}\n")
        assert not (tmp_path / "c").exists() and calls == []
        assert main(["consensus", "--buffer", str(buffer), "--k", str(n),
                     "--runs", "2", "--out", str(tmp_path / "c")]) == 0
        assert calls == [n]

    def test_existing_output_refused_before_clustering(self, worker_run,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        out = tmp_path / "c"
        out.mkdir()
        (out / "consensus_matrix.csv").write_text("kept\n")
        calls = []
        monkeypatch.setattr(ssrs.cli, "trajectory_consensus",
                            lambda *args, **kwargs: calls.append(args))
        code = main(["consensus", "--run", str(worker_run), "--k", "2",
                     "--out", str(out)])
        assert code == 1
        assert "output already exists" in capsys.readouterr().err
        assert calls == []
        assert (out / "consensus_matrix.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("runs", ["0", "-3", "x"])
    def test_nonpositive_runs_rejected(self, tmp_path, capsys, runs):
        with pytest.raises(SystemExit):
            main(["consensus", "--buffer", str(tmp_path / "b.bin"),
                  "--runs", runs])
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-2", "x"])
    def test_nonpositive_k_rejected(self, tmp_path, capsys, k):
        # a usage error naming the flag, like --runs, before any file is read
        with pytest.raises(SystemExit) as info:
            main(["consensus", "--buffer", str(tmp_path / "b.bin"),
                  "--k", k])
        assert info.value.code == 2
        assert "--k" in capsys.readouterr().err


class TestDist:
    def test_histograms(self, worker_run, tmp_path):
        out = tmp_path / "d"
        code = main(["dist", "--run", str(worker_run), "--epochs", "6,12",
                     "--bins", "5", "--out", str(out)])
        assert code == 0
        rows = (out / "dist.csv").read_text().splitlines()
        assert rows[0] == "epoch,bin_left,bin_right,probability"
        by_epoch = {}
        for row in rows[1:]:
            epoch, _, _, p = row.split(",")
            by_epoch.setdefault(epoch, 0.0)
            by_epoch[epoch] += float(p)
        assert set(by_epoch) == {"6", "12"}
        for total in by_epoch.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_existing_output_refused_before_histograms(self, worker_run,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        out = tmp_path / "d"
        out.mkdir()
        (out / "dist.csv").write_text("kept\n")
        calls = []
        monkeypatch.setattr(ssrs.cli, "reward_distribution",
                            lambda *args, **kwargs: calls.append(args))
        code = main(["dist", "--run", str(worker_run), "--epochs", "6,12",
                     "--out", str(out)])
        assert code == 1
        assert "output already exists" in capsys.readouterr().err
        assert calls == []
        assert (out / "dist.csv").read_text() == "kept\n"

    def test_zero_bins_rejected(self, worker_run, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["dist", "--run", str(worker_run), "--epochs", "6",
                  "--bins", "0", "--out", str(tmp_path / "d")])
        assert "--bins" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("epochs", ["6,", "6,,12", ",6", "0"])
    def test_bad_epoch_list_rejected(self, worker_run, tmp_path, capsys,
                                     epochs):
        code = main(["dist", "--run", str(worker_run), "--epochs", epochs,
                     "--out", str(tmp_path / "d")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --epochs ") and repr(epochs) in err
        assert not (tmp_path / "d").exists()

    def test_duplicate_epochs_rejected(self, worker_run, tmp_path, capsys):
        code = main(["dist", "--run", str(worker_run), "--epochs", "6,12,6",
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: --epochs holds a duplicate entry; got '6,12,6'\n"
        assert not (tmp_path / "d").exists()

    def test_missing_checkpoint(self, worker_run, tmp_path, capsys):
        code = main(["dist", "--run", str(worker_run), "--epochs", "7",
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


# A shaped run whose ring wraps: at the end 204 of its 300 entries hold a
# shaped reward.  The digests were computed before the checkpoint loader
# returned its entries as a Batch, so they pin that the analyses read the
# same values through either loader.
SHAPED_WRAPPED_RUN = ["episodes=20", "checkpoint_interval=5", "env.length=6",
                      "env.max_steps=30", "p_u_base=0.3", "estimator_lr=1.0",
                      "buffer_capacity=300", "static_pu=on"]
ANALYSIS_DIGESTS = {
    "consensus_matrix.csv":
        "8ca9bd2e661bdeee5a47a3e970abf7b33e83f983072ddf95fddff9d32fc1dfcf",
    "consensus_pairs.csv":
        "7bc562b328df7a1a5670068d7ec3e47e7ed04bfb793bb65c2a59b85535e0168c",
    "dist.csv":
        "c7cc8cc186e70f2aebffbadcc566110f97e17196444e2513a117cf1a7d7e117c",
}


def test_analysis_outputs_match_golden_hashes(tmp_path):
    sets = [arg for key in SHAPED_WRAPPED_RUN for arg in ("--set", key)]
    assert main(["train", "--seed", "3", "--out", str(tmp_path / "run"),
                 *sets]) == 0
    run = tmp_path / "run" / "seed_3"
    entries = load_buffer(run / "buffer_final.bin")
    assert len(entries) == 300
    assert np.count_nonzero(entries.rewards != entries.originals) == 204
    assert main(["consensus", "--run", str(run), "--runs", "10",
                 "--out", str(tmp_path / "out")]) == 0
    assert main(["dist", "--run", str(run), "--epochs", "5,10,15,20",
                 "--out", str(tmp_path / "out")]) == 0
    for name, digest in ANALYSIS_DIGESTS.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


class TestCompare:
    def _fake_aggregate(self, path, best):
        path.mkdir(parents=True)
        lines = ["episode,mean_best,std_best"]
        for i, b in enumerate(best, start=1):
            lines.append(f"{i},{b},0.125")
        (path / "aggregate.csv").write_text("\n".join(lines) + "\n")

    def test_table_from_final_rows(self, tmp_path, capsys):
        self._fake_aggregate(tmp_path / "shaped", [0.1, 0.8])
        self._fake_aggregate(tmp_path / "vanilla", [0.1, 0.4])
        code = main(["compare", str(tmp_path / "shaped"),
                     str(tmp_path / "vanilla"), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()
        assert rows[0] == "variant,mean_best,std_best"
        assert rows[1].startswith("shaped,0.8")
        assert rows[2].startswith("vanilla,0.4")
        text = capsys.readouterr().out
        assert "shaped" in text and "vanilla" in text

    def test_needs_two_directories(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", str(tmp_path)])

    @pytest.mark.parametrize("text", [
        "",                                        # empty file
        "episode,mean_best,std_best\n",            # header only
        "episode,mean_best,std_best\n1,0.5\n",     # short row
        "episode,mean_best\n1,0.5\n",              # no std_best column
        "episode,mean_best,std_best\n1,high,0\n",  # non-numeric cell
    ])
    def test_malformed_aggregate_named(self, tmp_path, capsys, text):
        self._fake_aggregate(tmp_path / "good", [0.5])
        (tmp_path / "bad").mkdir()
        bad = tmp_path / "bad" / "aggregate.csv"
        bad.write_text(text)
        code = main(["compare", str(tmp_path / "good"), str(tmp_path / "bad"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not (tmp_path / "compare.csv").exists()

    @pytest.mark.parametrize("column, cell", [
        ("mean_best", "nan"), ("std_best", "inf"), ("mean_best", "-inf")])
    def test_non_finite_aggregate_named(self, tmp_path, capsys, column,
                                        cell):
        self._fake_aggregate(tmp_path / "good", [0.5])
        self._fake_aggregate(tmp_path / "bad", [0.1, 0.5])
        bad = tmp_path / "bad" / "aggregate.csv"
        rows = bad.read_text().splitlines()
        cells = rows[2].split(",")
        cells[1 if column == "mean_best" else 2] = cell
        rows[2] = ",".join(cells)
        bad.write_text("\n".join(rows) + "\n")
        code = main(["compare", str(tmp_path / "good"), str(tmp_path / "bad"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: non-finite {column} in data row 2\n"
        assert not (tmp_path / "compare.csv").exists()

    def test_missing_aggregate(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 1
        assert "aggregate.csv" in capsys.readouterr().err


class TestRealComparison(object):
    def test_trained_run_roundtrip(self, trained_root, tmp_path, capsys):
        # compare the trained output against itself: identical stats
        out = trained_root / "out"
        code = main(["compare", str(out), str(out),
                     "--out", str(tmp_path), "--force"])
        assert code == 0
        rows = (tmp_path / "compare.csv").read_text().splitlines()[1:]
        a, b = (r.split(",") for r in rows)
        assert a[1:] == b[1:]
