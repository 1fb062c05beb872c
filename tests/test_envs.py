"""Environment dynamics, observation encoding, termination rules."""

import numpy as np
import pytest

from ssrs.envs import EnvSpec, KeyDoorGrid, SparseChain, make_env


class TestSparseChain:
    def test_initial_observation(self):
        env = SparseChain(length=20, max_steps=100)
        obs = env.reset()
        assert obs.shape == (env.obs_width,)
        assert env.obs_width == 24  # 20 + 4 extras, padded to a multiple of 8
        assert obs[0] == 255.0
        assert np.all(obs[1:20] == 0.0)
        assert obs[20] == 0.0        # scaled position
        assert obs[23] == 255.0      # constant marker
        assert env.state_id == 0

    def test_reaching_goal(self):
        env = SparseChain(length=5, max_steps=50)
        env.reset()
        rewards = []
        for _ in range(4):
            obs, r, done = env.step(1)
            rewards.append(r)
        assert rewards == [0.0, 0.0, 0.0, 1.0]
        assert done
        assert env.state_id == 4
        assert obs[4] == 255.0
        assert obs[5] == 255.0  # scaled position at the far end

    def test_left_wall_blocks(self):
        env = SparseChain(length=4, max_steps=10)
        env.reset()
        _, r, done = env.step(0)
        assert (r, done, env.state_id) == (0.0, False, 0)

    def test_step_limit_terminates_without_reward(self):
        env = SparseChain(length=10, max_steps=3)
        env.reset()
        outcomes = [env.step(1) for _ in range(3)]
        assert [r for _, r, _ in outcomes] == [0.0, 0.0, 0.0]
        assert [d for _, _, d in outcomes] == [False, False, True]

    def test_goal_on_last_allowed_step_still_rewards(self):
        env = SparseChain(length=4, max_steps=3)
        env.reset()
        env.step(1)
        env.step(1)
        _, r, done = env.step(1)
        assert (r, done) == (1.0, True)

    def test_step_after_done_raises(self):
        env = SparseChain(length=3, max_steps=5)
        env.reset()
        env.step(1)
        env.step(1)
        with pytest.raises(RuntimeError):
            env.step(1)

    def test_bad_action_rejected(self):
        env = SparseChain()
        env.reset()
        with pytest.raises(ValueError):
            env.step(2)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_reset_deterministic(self):
        env = SparseChain(length=8)
        a = env.reset()
        env.step(1)
        env.step(1)
        b = env.reset()
        np.testing.assert_array_equal(a, b)

    def test_state_id_roundtrip(self):
        env = SparseChain(length=6, max_steps=20)
        obs = env.reset()
        assert env.state_id_of(obs) == 0
        for _ in range(3):
            obs, _, _ = env.step(1)
        assert env.state_id_of(obs) == env.state_id == 3

    def test_action_vector_one_hot(self):
        env = SparseChain()
        np.testing.assert_array_equal(env.action_vector(0), [1.0, 0.0])
        np.testing.assert_array_equal(env.action_vector(1), [0.0, 1.0])

    def test_observation_stays_nonnegative_bounded(self):
        env = SparseChain(length=12, max_steps=30)
        obs = env.reset()
        rng = np.random.default_rng(0)
        while True:
            assert np.all(obs >= 0.0) and np.all(obs <= 255.0)
            obs, _, done = env.step(int(rng.integers(0, 2)))
            if done:
                break

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SparseChain(length=1)
        with pytest.raises(ValueError):
            SparseChain(max_steps=0)


class TestKeyDoorGrid:
    def test_initial_observation(self):
        env = KeyDoorGrid(width=5, height=5)
        obs = env.reset()
        assert env.obs_width == 32  # 25 cells + 3 extras, padded
        assert obs[0] == 255.0
        assert obs[25] == 0.0   # key flag
        assert obs[27] == 255.0  # constant marker
        assert env.state_id == 0

    def test_door_without_key_gives_nothing(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(0, 2), door_pos=(2, 0),
                          max_steps=20)
        env.reset()
        _, r, done = env.step(3)
        _, r2, done2 = env.step(3)  # now standing on the door, keyless
        assert (r, r2, done2) == (0.0, 0.0, False)

    def test_key_then_door_rewards(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(2, 0), door_pos=(2, 2),
                          max_steps=20)
        obs = env.reset()
        obs, _, _ = env.step(3)
        obs, _, _ = env.step(3)        # key cell
        assert obs[9] == 255.0         # key flag set
        obs, _, _ = env.step(1)
        obs, r, done = env.step(1)     # door cell
        assert (r, done) == (1.0, True)

    def test_key_flag_in_state_id(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2))
        obs = env.reset()
        assert env.state_id_of(obs) == 0
        obs, _, _ = env.step(3)  # onto the key
        assert env.state_id == 1 * 2 + 1
        assert env.state_id_of(obs) == env.state_id

    def test_wall_bump_stays_put(self):
        env = KeyDoorGrid(width=4, height=4, key_pos=(3, 0), door_pos=(3, 3))
        env.reset()
        _, _, _ = env.step(0)  # up from the top edge
        assert env.state_id == 0
        _, _, _ = env.step(2)  # left from the left edge
        assert env.state_id == 0

    def test_step_limit(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(2, 0), door_pos=(2, 2),
                          max_steps=2)
        env.reset()
        env.step(0)
        _, r, done = env.step(0)
        assert (r, done) == (0.0, True)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            KeyDoorGrid(width=1)
        with pytest.raises(ValueError):
            KeyDoorGrid(key_pos=(0, 0))
        with pytest.raises(ValueError):
            KeyDoorGrid(key_pos=(2, 2), door_pos=(2, 2))

    def test_reset_clears_key(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2))
        env.reset()
        env.step(3)
        assert env.state_id % 2 == 1
        obs = env.reset()
        assert env.state_id == 0
        assert obs[9] == 0.0


class TestMakeEnv:
    def test_builds_both_kinds(self):
        chain = make_env(EnvSpec("sparse_chain", {"length": 7}))
        assert isinstance(chain, SparseChain) and chain.length == 7
        grid = make_env(EnvSpec("key_door_grid", {"width": 4, "height": 3,
                                                  "key_pos": (3, 0),
                                                  "door_pos": (3, 2)}))
        assert isinstance(grid, KeyDoorGrid) and grid.height == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_env(EnvSpec("mountain_car"))

    def test_obs_width_padded_to_partition_multiple(self):
        for length in (4, 5, 12, 20, 28):
            env = make_env(EnvSpec("sparse_chain", {"length": length}))
            assert env.obs_width % 8 == 0
            assert env.obs_width >= length + 4


def _random_walk(env, rng, episodes):
    """Observations reached by uniform random actions, with the true state
    id of each."""
    observations, ids = [], []
    for _ in range(episodes):
        obs, done = env.reset(), False
        while not done:
            observations.append(obs)
            ids.append(env.state_id)
            obs, _, done = env.step(int(rng.integers(env.n_actions)))
        observations.append(obs)
        ids.append(env.state_id)
    return np.stack(observations), np.array(ids)


@pytest.mark.parametrize("env", [
    SparseChain(length=6, max_steps=30),
    SparseChain(length=20, max_steps=100),
    KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2),
                max_steps=40),
    KeyDoorGrid(),
], ids=["chain6", "chain20", "grid3", "grid5"])
def test_batched_state_ids_match_per_observation(env):
    # every observation of a block of random walks decodes, one at a time,
    # to the true state id
    rows, ids = _random_walk(env, np.random.default_rng(3), episodes=30)
    if isinstance(env, KeyDoorGrid):
        # both settings of the key flag are reached
        assert len(set(ids % 2)) == 2
    decoded = [env.state_id_of(obs) for obs in rows]
    assert all(type(sid) is int for sid in decoded)
    assert decoded == ids.tolist()
