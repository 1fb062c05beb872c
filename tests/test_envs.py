"""Environment dynamics, observation encoding, termination rules."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from ssrs.config import EnvConfig
from ssrs.core import ReplayBuffer
from ssrs.envs import KINDS, KeyDoorGrid, SparseChain, make_env


def _row(env, code):
    """The observation row of one code."""
    return env.observations(np.array([code]))[0]


class TestSparseChain:
    def test_initial_observation(self):
        env = SparseChain(length=20, max_steps=100)
        obs = _row(env, env.reset())
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
            code, r, done = env.step(1)
            rewards.append(r)
        assert rewards == [0.0, 0.0, 0.0, 1.0]
        assert done
        assert env.state_id == 4
        obs = _row(env, code)
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
        a = _row(env, env.reset())
        env.step(1)
        env.step(1)
        b = _row(env, env.reset())
        np.testing.assert_array_equal(a, b)

    def test_state_id_roundtrip(self):
        env = SparseChain(length=6, max_steps=20)
        assert env.state_id_of(_row(env, env.reset())) == 0
        for _ in range(3):
            code, _, _ = env.step(1)
        assert env.state_id_of(_row(env, code)) == env.state_id == 3

    def test_action_vector_one_hot(self):
        env = SparseChain()
        np.testing.assert_array_equal(env.action_vectors(0), [1.0, 0.0])
        np.testing.assert_array_equal(env.action_vectors(1), [0.0, 1.0])
        np.testing.assert_array_equal(env.action_vectors(np.array([1, 0, 1])),
                                      [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("env", [SparseChain(), KeyDoorGrid()],
                             ids=["chain", "grid"])
    def test_action_vector_is_read_only(self, env):
        # every call indexes one shared identity, so a write into the
        # vector of one action index raises instead of changing the next
        vector = env.action_vectors(0)
        with pytest.raises(ValueError, match="read-only"):
            vector[1] = 1.0
        eye = np.eye(env.n_actions)
        assert env.action_vectors(0).tobytes() == eye[0].tobytes()
        assert (env.action_vectors(np.array([1, 0])).tobytes()
                == eye[[1, 0]].tobytes())

    def test_observation_stays_nonnegative_bounded(self):
        env = SparseChain(length=12, max_steps=30)
        code = env.reset()
        rng = np.random.default_rng(0)
        while True:
            obs = _row(env, code)
            assert np.all(obs >= 0.0) and np.all(obs <= 255.0)
            code, _, done = env.step(int(rng.integers(0, 2)))
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
        obs = _row(env, env.reset())
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
        env.reset()
        env.step(3)
        code, _, _ = env.step(3)       # key cell
        assert _row(env, code)[9] == 255.0  # key flag set
        env.step(1)
        _, r, done = env.step(1)       # door cell
        assert (r, done) == (1.0, True)

    def test_key_flag_in_state_id(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2))
        assert env.state_id_of(_row(env, env.reset())) == 0
        code, _, _ = env.step(3)  # onto the key
        assert env.state_id == 1 * 2 + 1
        assert env.state_id_of(_row(env, code)) == env.state_id

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

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_nonpositive_step_limit_rejected(self, max_steps):
        # a zero limit used to pass and divide by zero at reset
        with pytest.raises(ValueError, match="max_steps"):
            KeyDoorGrid(max_steps=max_steps)

    @pytest.mark.parametrize("key_pos, door_pos, label", [
        ((5, 0), (4, 4), "key position \\(5, 0\\)"),
        ((4, -1), (4, 4), "key position \\(4, -1\\)"),
        ((4, 0), (4, 5), "door position \\(4, 5\\)"),
        ((4, 0), (-1, 4), "door position \\(-1, 4\\)"),
    ])
    def test_key_and_door_inside_the_grid(self, key_pos, door_pos, label):
        with pytest.raises(ValueError, match=f"{label} falls outside the 5x5"):
            KeyDoorGrid(key_pos=key_pos, door_pos=door_pos)

    def test_reset_clears_key(self):
        env = KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2))
        env.reset()
        env.step(3)
        assert env.state_id % 2 == 1
        obs = _row(env, env.reset())
        assert env.state_id == 0
        assert obs[9] == 0.0


class TestMakeEnv:
    def test_builds_both_kinds(self):
        assert KINDS == ("sparse_chain", "key_door_grid")
        chain = make_env(EnvConfig(length=7, max_steps=9))
        assert isinstance(chain, SparseChain)
        assert (chain.length, chain.max_steps) == (7, 9)
        grid = make_env(EnvConfig(kind="key_door_grid", width=4, height=3,
                                  key_x=3, key_y=0, door_x=1, door_y=2,
                                  max_steps=11))
        assert isinstance(grid, KeyDoorGrid)
        assert (grid.width, grid.height, grid.max_steps) == (4, 3, 11)
        assert (grid.key_pos, grid.door_pos) == ((3, 0), (1, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="mountain_car"):
            make_env(EnvConfig(kind="mountain_car"))

    def test_obs_width_padded_to_partition_multiple(self):
        for length in (4, 5, 12, 20, 28):
            env = make_env(EnvConfig(length=length))
            assert env.obs_width % 8 == 0
            assert env.obs_width >= length + 4


def _random_walk(env, rng, episodes):
    """Observations reached by uniform random actions, with the true state
    id of each."""
    observations, ids = [], []
    for _ in range(episodes):
        code, done = env.reset(), False
        while not done:
            observations.append(_row(env, code))
            ids.append(env.state_id)
            code, _, done = env.step(int(rng.integers(env.n_actions)))
        observations.append(_row(env, code))
        ids.append(env.state_id)
    return np.stack(observations), np.array(ids)


@pytest.mark.parametrize("env", [
    SparseChain(length=6, max_steps=30),
    SparseChain(length=20, max_steps=100),
    KeyDoorGrid(width=3, height=3, key_pos=(1, 0), door_pos=(2, 2),
                max_steps=40),
    KeyDoorGrid(),
], ids=["chain6", "chain20", "grid3", "grid5"])
def test_state_id_of_decodes_every_reached_observation(env):
    # every observation of a block of random walks decodes, one at a time,
    # to the true state id
    rows, ids = _random_walk(env, np.random.default_rng(3), episodes=30)
    if isinstance(env, KeyDoorGrid):
        # both settings of the key flag are reached
        assert len(set(ids % 2)) == 2
    decoded = [env.state_id_of(obs) for obs in rows]
    assert all(type(sid) is int for sid in decoded)
    assert decoded == ids.tolist()


# Transition digests of seeded random walks, computed before the two
# environments shared one episode engine, when the step still returned
# rows: every observation's bytes, dtype and shape (now decoded from the
# code the step returns), the repr of each reward and done flag, and the
# error type and message of the refused steps.  They cover geometries and
# error paths that no golden run reaches.
_TRANSITION_CASES = {
    "chain_default": (
        lambda: SparseChain(),
        "172a203cc8cfeba298862e01fb1912da218d00166caca1aa00dac552e449aa8a"),
    "chain_2_limit_1": (
        lambda: SparseChain(length=2, max_steps=1),
        "c9f92b9e09a7551124b0f22c4f7cf97f7ea88bf488f7b280a8da954797ed073b"),
    "grid_default": (
        lambda: KeyDoorGrid(),
        "8201ccac472eb91e6fb6ffdb1bcb763c3865eb29ad1be503972256d9e82c4a42"),
    "grid_2x3_moved": (
        lambda: KeyDoorGrid(width=2, height=3, key_pos=(0, 2), door_pos=(1, 1),
                            max_steps=9),
        "e1049670ad268c78cb79dcc4756386117b06f19f8627bbf5eec4995469d62ddf"),
}


def _error_of(call):
    try:
        call()
    except (RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def _transition_digest(env, steps=3000, seed=11):
    """Digest of ``steps`` uniform random steps (resetting after each end),
    with the events the walk reached."""
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    events = {"goal": 0, "time_out": 0, "bump": 0, "key": 0, "keyless_door": 0}

    def feed(*parts):
        for part in parts:
            digest.update(part if isinstance(part, bytes) else
                          repr(part).encode())

    feed("fresh", _error_of(lambda: env.step(0)))
    obs = _row(env, env.reset())
    feed(obs.tobytes(), obs.dtype.str, obs.shape, env.state_id)
    for _ in range(steps):
        before = env.state_id
        code, reward, done = env.step(int(rng.integers(env.n_actions)))
        obs = _row(env, code)
        feed(obs.tobytes(), obs.dtype.str, obs.shape, reward, done,
             env.state_id)
        events["bump"] += env.state_id == before
        if isinstance(env, KeyDoorGrid):
            cell = (env.state_id // 2 % env.width, env.state_id // 2 // env.width)
            events["key"] += env.state_id % 2 == 1 and before % 2 == 0
            events["keyless_door"] += (cell == env.door_pos
                                       and env.state_id % 2 == 0)
        if done:
            events["goal" if reward > 0.0 else "time_out"] += 1
            feed("ended", _error_of(lambda: env.step(0)))
            feed(_row(env, env.reset()).tobytes(), env.state_id)
    for action in (env.n_actions, -1):
        feed("range", _error_of(lambda: env.step(action)))
    return digest.hexdigest(), events


@pytest.mark.parametrize("name", list(_TRANSITION_CASES))
def test_transitions_match_pinned_digest(name):
    make, pinned = _TRANSITION_CASES[name]
    env = make()
    digest, events = _transition_digest(env)
    assert events["goal"] > 0 and events["time_out"] > 0
    assert events["bump"] > 0
    if isinstance(env, KeyDoorGrid):
        assert events["key"] > 0 and events["keyless_door"] > 0
    assert digest == pinned


# The geometries of the pinned digests, and a chain whose 301 step counts
# quantise to 271 counter levels, so some observations recur at two
# different steps of an episode.
_CODE_CASES = {
    **{name: make for name, (make, _) in _TRANSITION_CASES.items()},
    "chain_limit_300": lambda: SparseChain(max_steps=300),
}


@pytest.mark.parametrize("name", list(_CODE_CASES))
def test_codes_and_observations_are_one_to_one(name):
    # over seeded random walks, two observations share a code exactly when
    # they share their bytes, a code decodes to the same bytes alone and in
    # a batch, and its state id is the walker's
    env = _CODE_CASES[name]()
    rng = np.random.default_rng(5)
    codes, ids, steps = [], [], []
    code, t = env.reset(), 0
    for _ in range(6000):
        codes.append(code)
        ids.append(env.state_id)
        steps.append(t)
        code, _, done = env.step(int(rng.integers(env.n_actions)))
        t += 1
        if done:
            codes.append(code)
            ids.append(env.state_id)
            steps.append(t)
            code, t = env.reset(), 0
    assert all(type(code) is int and 0 <= code < env.n_codes
               for code in codes)
    rows = [_row(env, code) for code in codes]
    data = [row.tobytes() for row in rows]
    assert len(set(codes)) == len(set(data)) == len(set(zip(codes, data)))
    decoded = env.observations(np.array(codes))
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == np.array(rows).tobytes()
    assert [env.state_id_of(row) for row in decoded] == ids
    if name == "chain_limit_300":
        assert env.n_levels == 271
        assert len(set(zip(ids, steps))) > len(set(codes))


def test_a_large_grid_decodes_codes_without_a_table_of_every_code():
    # a 60x60 grid has 7,200 states and 101 counter levels, so a table of
    # every code's 3,608-wide row would take 21 GB; the grid, a buffer over
    # it and a walk decode their rows on demand
    tracemalloc.start()
    try:
        env = KeyDoorGrid(width=60, height=60, key_pos=(59, 0),
                          door_pos=(59, 59))
        buffer = ReplayBuffer(1000, env)
        rng = np.random.default_rng(2)
        slots = np.array([0, 7, 150, 299])
        walk = {}  # the rows of the slots read back
        code = env.reset()
        for slot in range(300):
            action = int(rng.integers(env.n_actions))
            next_code, reward, done = env.step(action)
            buffer.push(code, action, reward, next_code, done)
            if slot in slots:
                walk[slot] = _row(env, code), _row(env, next_code)
            code = env.reset() if done else next_code
        batch = buffer.batch_arrays(slots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert env.n_codes * env.obs_width * 8 > 2e10
    assert peak < 4e6
    for i, slot in enumerate(slots.tolist()):
        assert batch.states[i].tobytes() == walk[slot][0].tobytes()
        assert batch.next_states[i].tobytes() == walk[slot][1].tobytes()
