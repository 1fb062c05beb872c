"""Backbone updates, acting loop, draw contracts, end-to-end training runs."""

import hashlib
import json

import numpy as np
import pytest

from ssrs.config import RunConfig, apply_overrides, parse_config
from ssrs.core import Batch, ReplayBuffer, load_buffer
from ssrs.envs import KeyDoorGrid, SparseChain
from ssrs.estimator import load_params
from ssrs.training import (
    STREAM_NAMES,
    BackboneQ,
    backbone_update,
    epsilon_at,
    evaluate,
    run_episode,
    spawn_streams,
    train,
    write_run_outputs,
)

QUICK_CONFIG = """
episodes = 30
env.length = 5
env.max_steps = 20
n_z = 3
estimator_hidden = 8
estimator_dropout = 0
eval_interval = 5
eval_episodes = 2
batch_size = 8
buffer_capacity = 500
"""


def _quick_config(*overrides):
    return apply_overrides(parse_config(QUICK_CONFIG), list(overrides))


def _first_column(rows):
    """Encoder reading the state id from the first observation column."""
    return np.asarray(rows)[:, 0].astype(int)


def _td_batch(states, actions, rewards, next_states, terminals):
    """A TD batch of unshaped entries."""
    return Batch(states, actions, rewards, next_states, terminals, rewards)


def _chain_backbone(env, bias_right=True, init=0.0):
    backbone = BackboneQ.create(env.n_states, env.n_actions, env.state_ids_of,
                                init)
    backbone.table[:, 1 if bias_right else 0] += 1.0
    return backbone


class TestStreams:
    def test_names_and_count(self):
        streams = spawn_streams(0)
        assert tuple(streams) == STREAM_NAMES
        assert len(streams) == 8

    def test_deterministic_per_seed(self):
        a = spawn_streams(123)
        b = spawn_streams(123)
        for name in STREAM_NAMES:
            assert a[name].random() == b[name].random()

    def test_streams_differ_from_each_other(self):
        streams = spawn_streams(7)
        draws = {name: streams[name].random() for name in STREAM_NAMES}
        assert len(set(draws.values())) == len(STREAM_NAMES)


class TestBackbone:
    def test_create_fills_init(self):
        backbone = BackboneQ.create(4, 2, _first_column, init=1.5)
        assert backbone.table.shape == (4, 2)
        assert np.all(backbone.table == 1.5)

    def test_greedy_action_uses_encoder(self):
        env = SparseChain(length=4)
        backbone = _chain_backbone(env, bias_right=True)
        obs = env.reset()
        assert backbone.greedy_action(obs) == 1

    def test_terminal_update(self):
        backbone = BackboneQ.create(3, 2, _first_column, init=0.0)
        batch = _td_batch(
            states=np.array([[0.0]]), actions=np.array([[1.0, 0.0]]),
            rewards=np.array([1.0]), next_states=np.array([[1.0]]),
            terminals=np.array([True]),
        )
        backbone_update(backbone, batch, lr=0.1, discount=0.99)
        assert backbone.table[0, 0] == pytest.approx(0.1, abs=1e-15)
        assert np.all(backbone.table.ravel()[1:] == 0.0)

    def test_zero_reward_update_is_noop_on_zero_table(self):
        backbone = BackboneQ.create(3, 2, _first_column, init=0.0)
        batch = _td_batch(
            states=np.array([[0.0]]), actions=np.array([[0.0, 1.0]]),
            rewards=np.array([0.0]), next_states=np.array([[1.0]]),
            terminals=np.array([False]),
        )
        backbone_update(backbone, batch, lr=0.1, discount=0.99)
        assert np.all(backbone.table == 0.0)

    def test_nonterminal_bootstraps_from_next_state(self):
        backbone = BackboneQ.create(3, 2, _first_column, init=0.0)
        backbone.table[1] = [2.0, 0.5]
        batch = _td_batch(
            states=np.array([[0.0]]), actions=np.array([[1.0, 0.0]]),
            rewards=np.array([1.0]), next_states=np.array([[1.0]]),
            terminals=np.array([False]),
        )
        backbone_update(backbone, batch, lr=0.5, discount=0.5)
        # target = 1 + 0.5 * max(2, 0.5) = 2
        assert backbone.table[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_terminal_ignores_next_state_values(self):
        backbone = BackboneQ.create(3, 2, _first_column, init=0.0)
        backbone.table[1] = [5.0, 5.0]
        batch = _td_batch(
            states=np.array([[0.0]]), actions=np.array([[1.0, 0.0]]),
            rewards=np.array([1.0]), next_states=np.array([[1.0]]),
            terminals=np.array([True]),
        )
        backbone_update(backbone, batch, lr=1.0, discount=0.99)
        assert backbone.table[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_updates_apply_sequentially(self):
        backbone = BackboneQ.create(2, 1, _first_column, init=0.0)
        batch = _td_batch(
            states=np.array([[0.0], [0.0]]),
            actions=np.array([[1.0], [1.0]]),
            rewards=np.array([1.0, 1.0]),
            next_states=np.array([[1.0], [1.0]]),
            terminals=np.array([True, True]),
        )
        backbone_update(backbone, batch, lr=0.5, discount=0.9)
        # 0 -> 0.5 -> 0.75; a batched (parallel) update would land on 0.5
        assert backbone.table[0, 0] == pytest.approx(0.75, abs=1e-15)


def _per_row_update(table, state_id_of, batch, lr, discount):
    """The per-row TD loop ``backbone_update`` replaced: the reference its
    batch-encoded version must match bit for bit."""
    for state, action, reward, next_state, terminal in zip(
        batch.states, batch.actions, batch.rewards, batch.next_states,
        batch.terminals,
    ):
        sid = state_id_of(state)
        aid = int(np.argmax(action))
        if terminal:
            target = reward
        else:
            target = reward + discount * table[state_id_of(next_state)].max()
        table[sid, aid] += lr * (target - table[sid, aid])


@pytest.mark.parametrize("env", [
    SparseChain(length=5, max_steps=12),
    KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2),
                max_steps=15),
], ids=["chain", "grid"])
def test_backbone_update_matches_per_row_loop(env):
    rng = np.random.default_rng(11)
    buffer = ReplayBuffer(400)
    walker = BackboneQ.create(env.n_states, env.n_actions, env.state_ids_of)
    for _ in range(30):
        run_episode(env, walker, 1.0, rng, buffer=buffer)
    # Shaped-looking rewards exercise the float arithmetic beyond 0 and 1.
    slots = buffer.slots()
    shaped = rng.random(slots.size) < 0.5
    originals = np.array([buffer.original_reward_at(s) for s in slots])
    buffer.set_reward(slots, np.where(shaped, rng.normal(size=slots.size),
                                      originals), shaped)
    backbone = BackboneQ.create(env.n_states, env.n_actions, env.state_ids_of)
    reference = backbone.table.copy()
    saw_repeat = saw_terminal = False
    for _ in range(200):
        # Small logical range: batches repeat (s, a) pairs and slots.
        batch = buffer.batch_arrays(rng.choice(slots[:40], size=32))
        pairs = {(env.state_id_of(s), int(np.argmax(a)))
                 for s, a in zip(batch.states, batch.actions)}
        saw_repeat |= len(pairs) < 32
        saw_terminal |= bool(batch.terminals.any())
        backbone_update(backbone, batch, lr=0.3, discount=0.97)
        _per_row_update(reference, env.state_id_of, batch, 0.3, 0.97)
    assert saw_repeat and saw_terminal
    assert backbone.table.tobytes() == reference.tobytes()


class TestEpsilonSchedule:
    def test_linear_decay_values(self):
        cfg = _quick_config("episodes=100", "epsilon_start=1.0",
                            "epsilon_final=0.05", "epsilon_decay_frac=0.5")
        assert epsilon_at(cfg, 0) == pytest.approx(1.0)
        assert epsilon_at(cfg, 25) == pytest.approx(0.525)
        assert epsilon_at(cfg, 50) == pytest.approx(0.05)
        assert epsilon_at(cfg, 99) == pytest.approx(0.05)

    def test_zero_decay_fraction(self):
        cfg = _quick_config("episodes=100", "epsilon_decay_frac=0",
                            "epsilon_final=0.2")
        assert epsilon_at(cfg, 0) == 0.2

    def test_nonincreasing(self):
        cfg = _quick_config("episodes=60")
        values = [epsilon_at(cfg, ep) for ep in range(60)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestRunEpisode:
    def test_greedy_right_solves_chain(self):
        env = SparseChain(length=6, max_steps=30)
        backbone = _chain_backbone(env, bias_right=True)
        transitions, ret = run_episode(env, backbone, 0.0, None)
        assert ret == 1.0
        assert len(transitions) == 5
        assert transitions[-1].terminal
        assert transitions[-1].reward == 1.0
        assert all(t.reward == 0.0 for t in transitions[:-1])

    def test_exploration_requires_generator(self):
        env = SparseChain(length=4)
        backbone = _chain_backbone(env)
        with pytest.raises(ValueError):
            run_episode(env, backbone, 0.1, None)

    def test_greedy_consumes_no_draws(self):
        env = SparseChain(length=5, max_steps=20)
        backbone = _chain_backbone(env, bias_right=True)
        rng = np.random.default_rng(3)
        run_episode(env, backbone, 0.0, rng)
        assert rng.random() == np.random.default_rng(3).random()

    def test_exploring_draw_contract(self):
        # epsilon 1: every step costs one uniform and one integer draw
        env = SparseChain(length=5, max_steps=15)
        backbone = _chain_backbone(env)
        rng = np.random.default_rng(11)
        transitions, _ = run_episode(env, backbone, 1.0, rng)
        mirror = np.random.default_rng(11)
        for _ in transitions:
            mirror.random()
            mirror.integers(env.n_actions)
        assert rng.random() == mirror.random()

    def test_reproducible_per_seed(self):
        env_a, env_b = SparseChain(length=8), SparseChain(length=8)
        backbone = _chain_backbone(env_a)
        tr_a, ret_a = run_episode(env_a, backbone, 0.5,
                                  np.random.default_rng(21))
        tr_b, ret_b = run_episode(env_b, backbone, 0.5,
                                  np.random.default_rng(21))
        assert ret_a == ret_b
        assert len(tr_a) == len(tr_b)
        for a, b in zip(tr_a, tr_b):
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.action, b.action)

    def test_buffer_and_callback(self):
        env = SparseChain(length=4, max_steps=10)
        backbone = _chain_backbone(env, bias_right=True)
        buffer = ReplayBuffer(capacity=16)
        seen = []
        transitions, _ = run_episode(env, backbone, 0.0, None, buffer=buffer,
                                     on_step=lambda slot, tr: seen.append(slot))
        assert len(buffer) == len(transitions) == len(seen)
        assert seen == list(range(len(transitions)))

    def test_callback_without_buffer_gets_none_slot(self):
        env = SparseChain(length=3, max_steps=5)
        backbone = _chain_backbone(env, bias_right=True)
        slots = []
        run_episode(env, backbone, 0.0, None,
                    on_step=lambda slot, tr: slots.append(slot))
        assert slots and all(s is None for s in slots)


class TestEvaluate:
    def test_success_and_failure(self):
        env = SparseChain(length=5, max_steps=12)
        good = _chain_backbone(env, bias_right=True)
        assert evaluate(env, good, 3) == (1.0, 1.0)
        bad = _chain_backbone(env, bias_right=False)
        assert evaluate(env, bad, 3) == (0.0, 0.0)


class TestTrain:
    def test_record_invariants(self):
        record, backbone, params, buffer = train(_quick_config())
        assert record.episodes.size == 30
        best = record.best
        assert all(b >= a for a, b in zip(best, best[1:]))
        assert np.all((record.scores >= 0.0) & (record.scores <= 1.0))
        assert np.all(np.diff(record.lam) > 0)
        assert np.all(np.diff(record.alpha) >= 0)
        assert record.total_transitions == int(record.lengths.sum())
        assert set(np.unique(record.returns)).issubset({0.0, 1.0})
        assert params is not None
        assert len(buffer) == record.total_transitions  # under capacity

    def test_learns_short_chain(self):
        record, *_ = train(_quick_config("episodes=40"))
        assert record.first_success_episode is not None
        assert record.best[-1] == 1.0
        assert record.final_success_rate == 1.0

    def test_deterministic(self):
        a, *_ = train(_quick_config())
        b, *_ = train(_quick_config())
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.returns, b.returns)
        np.testing.assert_array_equal(a.shaped_count, b.shaped_count)

    def test_seed_changes_run(self):
        a, *_ = train(_quick_config())
        b, *_ = train(_quick_config("seed=1"))
        assert not np.array_equal(a.returns, b.returns)

    def test_shaping_off_disables_estimator(self):
        record, backbone, params, _ = train(_quick_config("shaping=off"))
        assert params is None
        assert np.all(record.shaped_count == 0)
        assert np.all(record.l_r == 0.0)

    def test_trajectories_match_vanilla_until_first_success(self):
        # estimator streams are separate, and shaping waits for a real
        # reward, so the early episodes coincide step for step
        shaped, *_ = train(_quick_config())
        vanilla, *_ = train(_quick_config("shaping=off"))
        cut = shaped.first_success_episode
        assert cut == vanilla.first_success_episode
        np.testing.assert_array_equal(shaped.lengths[:cut],
                                      vanilla.lengths[:cut])
        np.testing.assert_array_equal(shaped.returns[:cut],
                                      vanilla.returns[:cut])

    def test_checkpoints_written_and_loadable(self, tmp_path):
        cfg = _quick_config("checkpoint_interval=10")
        train(cfg, out_dir=tmp_path)
        for ep in (10, 20, 30):
            buf = load_buffer(tmp_path / f"buffer_ep{ep}.bin")
            assert len(buf) > 0
            params = load_params(tmp_path / f"params_ep{ep}.txt")
            assert params.q_net.layer_sizes[-1] == 3

    def test_static_pu_uses_base_rate(self):
        record, *_ = train(_quick_config("static_pu=on", "p_u_base=0.25"))
        assert np.all(record.p_u == 0.25)

    @pytest.mark.parametrize("override", ["augment.gaussian_sigma=0.5",
                                          "augment.partitions=2"])
    def test_augment_keys_change_consistency_views(self, override):
        # the consistency term's smooth gradient depends on both views, so
        # changing either transform's parameter moves the trained estimator
        base = _quick_config("episodes=3")
        _, _, params, _ = train(base)
        _, _, changed, _ = train(_quick_config("episodes=3", override))
        assert not np.array_equal(params.flat, changed.flat)


class TestRunOutputs:
    def test_files_and_roundtrip(self, tmp_path):
        cfg = _quick_config()
        record, backbone, params, buffer = train(cfg)
        write_run_outputs(record, cfg, tmp_path, backbone=backbone,
                          params=params, buffer=buffer)

        header = (tmp_path / "curve.csv").read_text().splitlines()
        assert header[0] == "episode,score,best,L_r,L_QV,L_s,lambda,alpha,p_u,shaped_count"
        assert len(header) == 1 + 30

        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["summary"]["seed"] == 0
        assert payload["summary"]["config_hash"] == record.config_hash
        assert parse_config(payload["config"]) == cfg

        table = np.load(tmp_path / "backbone_q.npy")
        np.testing.assert_array_equal(table, backbone.table)
        loaded = load_params(tmp_path / "params_final.txt")
        np.testing.assert_array_equal(loaded.flat, params.flat)
        buf = load_buffer(tmp_path / "buffer_final.bin")
        assert len(buf) == len(buffer)

    def test_run_json_is_byte_stable(self, tmp_path):
        cfg = _quick_config("episodes=5")
        for name in ("a", "b"):
            record, *_ = train(cfg)
            write_run_outputs(record, cfg, tmp_path / name)
        assert ((tmp_path / "a" / "run.json").read_bytes()
                == (tmp_path / "b" / "run.json").read_bytes())


# sha256 over curve.csv, backbone_q.npy, params_final.txt and buffer_final.bin
# of a 40-episode seed-0 run of the default config with these overrides.
# Together they cover the smooth (training) and hard (logging) loss passes,
# train-time dropout, the cutout and smooth strong views and the run without
# the head-ordering term.
_GOLDEN_RUNS = {
    "default": ((), "de4678460ff9617f2b16dc826c0620115018b709d40e389931f861a3f9f4b736"),
    "dropout": (("train_dropout=on",),
                "8e8fc26f984a8a09433a0f78bdcf42165c9d1ceabd1decc59106c0e07187e1cc"),
    "ssrs_c": (("augment.pairing=ssrs_c",),
               "e1724f8f5c22065dce259bd1cf332d556cca37d83f339ab1c607c4edf3be7bd4"),
    "ssrs_m": (("augment.pairing=ssrs_m",),
               "3318dba299a3b7118cd06ef957e6b62d32f865334e5525b34177fc03408c0c68"),
    "no_ordering": (("monotonicity=off",),
                    "e78bde10812b6308d714940bd7d062ab61645bb7550fe1646d7066f4e30b8336"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_run_outputs_match_golden_hashes(tmp_path, name):
    overrides, digest = _GOLDEN_RUNS[name]
    config = apply_overrides(RunConfig(), ["episodes=40", "seed=0", *overrides])
    record, backbone, params, buffer = train(config)
    write_run_outputs(record, config, tmp_path, backbone, params, buffer)
    sha = hashlib.sha256()
    for artifact in ("curve.csv", "backbone_q.npy", "params_final.txt",
                     "buffer_final.bin"):
        sha.update((tmp_path / artifact).read_bytes())
    assert sha.hexdigest() == digest
