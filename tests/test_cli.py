"""Command-line entry points: orchestration, outputs, guards, plumbing."""

import argparse
import json
import weakref

import numpy as np
import pytest

import ssrs.cli
from ssrs.augment import AugmentSpec, shannon_entropy
from ssrs.cli import gradcheck_report, main
from ssrs.config import ConfigError, RunConfig, serialize_config
from ssrs.core import load_buffer, load_trajectory

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
        assert "episodes 2" in text  # the run's eval_episodes
        assert "mean_return" in text
        assert "success_rate" in text

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
                 "compare": ["a", "b"]}


def test_each_command_takes_exactly_the_flags_it_reads():
    (commands,) = [action.choices for action in ssrs.cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    taken = {command: {flag for action in parser._actions
                       for flag in action.option_strings
                       if flag not in ("-h", "--help")}
             for command, parser in commands.items()}
    assert taken == FLAGS
    assert sum(map(len, taken.values())) == 35
    assert len(REMOVED_FLAGS) == 20


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


BAD_BUFFERS = {
    "empty": lambda good: b"",
    "truncated": lambda good: good[:-1],
    "trailing_byte": lambda good: good + b"\0",
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
    with pytest.raises(ValueError):
        load_buffer(path)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "o").exists()


class TestGradcheck:
    def test_report_values_small(self):
        report = gradcheck_report(0)
        assert set(report) == {"L_r", "L_QV", "L_s"}
        assert all(err <= 1e-4 for err in report.values())

    def test_command_passes(self, capsys):
        assert main(["gradcheck", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


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
        assert main(["consensus"]) == 1
        assert "--run" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-3", "x"])
    def test_nonpositive_runs_rejected(self, tmp_path, capsys, runs):
        with pytest.raises(SystemExit):
            main(["consensus", "--buffer", str(tmp_path / "b.bin"),
                  "--runs", runs])
        assert "--runs" in capsys.readouterr().err


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

    def test_zero_bins_rejected(self, worker_run, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["dist", "--run", str(worker_run), "--epochs", "6",
                  "--bins", "0", "--out", str(tmp_path / "d")])
        assert "--bins" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_checkpoint(self, worker_run, tmp_path, capsys):
        code = main(["dist", "--run", str(worker_run), "--epochs", "7",
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


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
