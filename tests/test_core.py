"""Containers: transitions, trajectory stacks, reward grids, replay ring."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrs.core import (
    BUFFER_FORMAT_VERSION,
    ReplayBuffer,
    RewardSet,
    TrajectoryMatrix,
    Transition,
    load_buffer,
    load_trajectory,
    save_buffer,
    save_trajectory,
    update_reward_set,
)


def _tr(state, reward=0.0, action=(1.0, 0.0), terminal=False, next_state=None):
    state = np.asarray(state, dtype=float)
    if next_state is None:
        next_state = state + 1.0
    return Transition(state=state, action=np.asarray(action, dtype=float),
                      reward=reward, next_state=next_state, terminal=terminal)


# ---------------------------------------------------------------------------
# transitions / trajectories
# ---------------------------------------------------------------------------

def test_transition_validates_shapes():
    with pytest.raises(ValueError):
        Transition(state=np.zeros((2, 2)), action=np.ones(1), reward=0.0,
                   next_state=np.zeros(4), terminal=False)
    with pytest.raises(ValueError):
        _tr([1.0, 2.0], next_state=np.zeros(3))
    with pytest.raises(ValueError):
        _tr([-1.0, 2.0])


def test_trajectory_from_transitions_stacks_rows():
    steps = [_tr([float(i), 0.0], reward=float(i % 2)) for i in range(5)]
    traj = TrajectoryMatrix.from_transitions(steps)
    assert len(traj) == 5
    assert traj.states.shape == (5, 2)
    assert traj.actions.shape == (5, 2)
    np.testing.assert_array_equal(traj.rewards, [0.0, 1.0, 0.0, 1.0, 0.0])


def test_trajectory_rejects_negative_states_and_ragged_rows():
    with pytest.raises(ValueError):
        TrajectoryMatrix(states=-np.ones((2, 3)), actions=np.ones((2, 1)),
                         rewards=np.zeros(2))
    with pytest.raises(ValueError):
        TrajectoryMatrix(states=np.ones((2, 3)), actions=np.ones((3, 1)),
                         rewards=np.zeros(2))


# ---------------------------------------------------------------------------
# reward candidate grid
# ---------------------------------------------------------------------------

def test_reward_set_equal_spacing():
    z = RewardSet.initial(5)
    z = update_reward_set(z, 1.0)
    z = update_reward_set(z, 9.0)
    np.testing.assert_allclose(z.values, [1.0, 3.0, 5.0, 7.0, 9.0])
    assert z.observed == (1.0, 9.0)


def test_reward_set_single_value_anchors_at_zero():
    z = update_reward_set(RewardSet.initial(3), 4.0)
    np.testing.assert_allclose(z.values, [0.0, 2.0, 4.0])
    z = update_reward_set(RewardSet.initial(3), -4.0)
    np.testing.assert_allclose(z.values, [-4.0, -2.0, 0.0])


def test_reward_set_binary_endpoints():
    z = RewardSet.initial(2)
    z = update_reward_set(z, -1.0)
    z = update_reward_set(z, 0.0)
    np.testing.assert_allclose(z.values, [-1.0, 0.0])


def test_reward_set_zero_only_keeps_distinct_grid():
    z = update_reward_set(RewardSet.initial(4), 0.0)
    assert np.all(np.diff(z.values) > 0)


def test_reward_set_repeated_value_is_noop():
    z = update_reward_set(RewardSet.initial(4), 3.0)
    assert update_reward_set(z, 3.0) is z


def test_reward_set_values_strictly_increasing_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = RewardSet.initial(int(rng.integers(2, 12)))
        for r in rng.normal(scale=5.0, size=6):
            z = update_reward_set(z, float(r))
            assert np.all(np.diff(z.values) > 0)
            if z.observed:
                assert z.values[0] <= min(z.observed)
                assert z.values[-1] >= max(z.observed)


def test_reward_set_rejects_degenerate_grids():
    with pytest.raises(ValueError):
        RewardSet(values=np.array([1.0]), observed=())
    with pytest.raises(ValueError):
        RewardSet(values=np.array([1.0, 1.0]), observed=())


# ---------------------------------------------------------------------------
# replay ring
# ---------------------------------------------------------------------------

def test_push_and_fraction():
    buf = ReplayBuffer(2)
    buf.push(_tr([1.0, 0.0], reward=1.0))
    assert len(buf) == 1
    assert buf.nonzero_reward_fraction == 1.0

    buf = ReplayBuffer(2)
    buf.push(_tr([1.0, 0.0], reward=0.0))
    assert buf.nonzero_reward_fraction == 0.0


def test_ring_drops_oldest():
    buf = ReplayBuffer(2)
    for i in range(3):
        buf.push(_tr([float(i), 0.0]))
    assert len(buf) == 2
    kept = [buf.transition_at(s).state[0] for s in buf.slots()]
    assert kept == [1.0, 2.0]


def test_nonzero_fraction_quarter():
    buf = ReplayBuffer(4)
    for r in (0.0, 0.0, 5.0, 0.0):
        buf.push(_tr([1.0, 1.0], reward=r))
    assert buf.nonzero_reward_fraction == 0.25
    assert buf.nonzero_reward_count == 1
    assert len(buf.zero_reward_slots()) == 3


def test_eviction_updates_nonzero_cache():
    buf = ReplayBuffer(2)
    buf.push(_tr([1.0], action=[1.0], reward=3.0))
    buf.push(_tr([2.0], action=[1.0], reward=0.0))
    buf.push(_tr([3.0], action=[1.0], reward=0.0))  # evicts the reward-3 entry
    assert buf.nonzero_reward_count == 0


def test_set_reward_shaping_bookkeeping():
    buf = ReplayBuffer(4)
    slot = buf.push(_tr([1.0, 2.0], reward=0.0))
    buf.set_reward(slot, 2.5, shaped=True)
    assert buf.transition_at(slot).reward == 2.5
    assert buf.original_reward_at(slot) == 0.0
    assert buf.is_shaped(slot)
    # reverting restores the unshaped invariant
    buf.set_reward(slot, 0.0, shaped=False)
    assert not buf.is_shaped(slot)
    with pytest.raises(ValueError):
        buf.set_reward(slot, 9.0, shaped=False)


def test_set_reward_batched_is_all_or_nothing():
    buf = ReplayBuffer(4)
    slots = [buf.push(_tr([float(i), 0.0])) for i in range(3)]
    buf.set_reward(np.array(slots), np.array([1.5, 0.0, 2.0]),
                   np.array([True, False, True]))
    assert [buf.transition_at(s).reward for s in slots] == [1.5, 0.0, 2.0]
    assert [buf.is_shaped(s) for s in slots] == [True, False, True]
    with pytest.raises(ValueError):
        buf.set_reward(np.array(slots), np.array([7.0, 3.0, 0.0]),
                       np.array([True, False, False]))
    assert [buf.transition_at(s).reward for s in slots] == [1.5, 0.0, 2.0]


def test_sample_single_entry():
    buf = ReplayBuffer(3)
    slot = buf.push(_tr([5.0, 5.0]))
    slots = buf.sample_slots(3, np.random.default_rng(0))
    np.testing.assert_array_equal(slots, [slot] * 3)
    np.testing.assert_array_equal(buf.transition_at(slots[0]).state, [5.0, 5.0])


def test_sample_bounds_and_determinism():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(_tr([float(i), 0.0]))
    a = buf.sample_slots(64, np.random.default_rng(3))
    b = buf.sample_slots(64, np.random.default_rng(3))
    assert a.shape == (64,)
    assert set(a).issubset(set(buf.slots().tolist()))
    np.testing.assert_array_equal(a, b)


def test_empty_buffer_reads():
    # The arrays are allocated on the first push; reads before it must not
    # reach for them.
    buf = ReplayBuffer(3)
    slots = buf.zero_reward_slots()
    assert slots.shape == (0,) and slots.dtype.kind == "i"
    with pytest.raises(ValueError, match="empty"):
        buf.batch_arrays(np.array([0]))
    with pytest.raises(ValueError, match="empty"):
        buf.set_reward(np.array([0]), np.array([1.0]), np.array([True]))
    with pytest.raises(ValueError, match="empty"):
        buf.sample_slots(2, np.random.default_rng(0))


def test_sample_consumes_one_generator_call():
    # Training interleaves several consumers on named streams, so the
    # draw count per operation is part of the contract.
    buf = ReplayBuffer(8)
    for i in range(5):
        buf.push(_tr([float(i), 1.0]))
    rng = np.random.default_rng(11)
    buf.sample_slots(7, rng)
    mirror = np.random.default_rng(11)
    mirror.integers(0, len(buf), size=7)
    assert rng.random() == mirror.random()


def test_batch_arrays_returns_copies():
    # Bitwise equal to per-slot reads, on a wrapped ring with shaped entries
    # and repeated slots, and sharing no memory with the buffer.
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(6)
    for i in range(9):
        buf.push(_tr(rng.uniform(0.0, 9.0, size=3), reward=float(i % 3 == 0),
                     action=np.eye(2)[i % 2], terminal=i % 4 == 3))
    buf.set_reward(np.array([1, 4]), np.array([0.25, -1.5]),
                   np.array([True, True]))
    slots = np.array([4, 0, 4, 5, 1, 2, 3, 1])
    batch = buf.batch_arrays(slots)
    reads = [buf.transition_at(s) for s in slots]
    expected = {
        "states": np.array([t.state for t in reads]),
        "actions": np.array([t.action for t in reads]),
        "rewards": np.array([t.reward for t in reads]),
        "next_states": np.array([t.next_state for t in reads]),
        "terminals": np.array([t.terminal for t in reads]),
        "originals": np.array([buf.original_reward_at(s) for s in slots]),
    }
    assert batch._fields == tuple(expected)
    for name, want in expected.items():
        got = getattr(batch, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    stored = [a for a in vars(buf).values() if isinstance(a, np.ndarray)]
    assert stored
    for field in batch:
        assert not any(np.shares_memory(field, a) for a in stored)
    batch.rewards[0] = -100.0
    batch.states[0, 0] = -100.0
    assert buf.transition_at(4).reward == -1.5
    assert buf.transition_at(4).state[0] == expected["states"][0, 0]


def test_push_rejects_width_change():
    buf = ReplayBuffer(4)
    buf.push(_tr([1.0, 2.0]))
    with pytest.raises(ValueError):
        buf.push(_tr([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# buffer checkpoints
# ---------------------------------------------------------------------------

def test_buffer_checkpoint_roundtrip(tmp_path):
    buf = ReplayBuffer(5)
    rng = np.random.default_rng(2)
    for i in range(7):  # wraps the ring
        t = _tr(rng.uniform(0, 255, size=3), reward=float(rng.integers(0, 2)),
                action=np.eye(2)[i % 2], terminal=(i == 6))
        buf.push(t)
    buf.set_reward(buf.zero_reward_slots()[0], 4.25, shaped=True)

    path = tmp_path / "buf.bin"
    save_buffer(buf, path)
    back = load_buffer(path)

    assert len(back) == len(buf)
    assert back.capacity == buf.capacity
    assert back.nonzero_reward_count == buf.nonzero_reward_count
    for sa, sb in zip(buf.slots(), back.slots()):
        ta, tb = buf.transition_at(sa), back.transition_at(sb)
        np.testing.assert_array_equal(ta.state, tb.state)
        np.testing.assert_array_equal(ta.action, tb.action)
        np.testing.assert_array_equal(ta.next_state, tb.next_state)
        assert ta.reward == tb.reward
        assert ta.terminal == tb.terminal
        assert buf.original_reward_at(sa) == back.original_reward_at(sb)
        assert buf.is_shaped(sa) == back.is_shaped(sb)


def test_buffer_checkpoint_golden_bytes(tmp_path):
    # Pin the documented byte layout: 5 little-endian uint64 header fields,
    # then one float64 row per entry, oldest first.
    buf = ReplayBuffer(2)
    buf.push(Transition(state=np.array([1.0, 2.0]), action=np.array([1.0]),
                        reward=0.5, next_state=np.array([3.0, 4.0]),
                        terminal=False))
    buf.push(Transition(state=np.array([5.0, 6.0]), action=np.array([0.0]),
                        reward=0.0, next_state=np.array([7.0, 8.0]),
                        terminal=True))
    path = tmp_path / "golden.bin"
    save_buffer(buf, path)

    expected = struct.pack("<5Q", BUFFER_FORMAT_VERSION, 2, 1, 2, 2)
    row0 = [1.0, 2.0, 1.0, 0.5, 3.0, 4.0, 0.0, 0.5, 0.0]
    row1 = [5.0, 6.0, 0.0, 0.0, 7.0, 8.0, 1.0, 0.0, 0.0]
    expected += np.array(row0 + row1, dtype="<f8").tobytes()
    assert path.read_bytes() == expected


def test_buffer_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<5Q", 99, 1, 1, 1, 0))
    with pytest.raises(ValueError):
        load_buffer(path)


def test_empty_buffer_roundtrip(tmp_path):
    path = tmp_path / "empty.bin"
    save_buffer(ReplayBuffer(3), path)
    back = load_buffer(path)
    assert len(back) == 0
    assert back.capacity == 3


def _checkpoint_bytes(rows, m1=1, m2=1, capacity=4):
    rows = np.asarray(rows, dtype="<f8")
    return (struct.pack("<5Q", BUFFER_FORMAT_VERSION, m1, m2, capacity,
                        rows.shape[0]) + rows.tobytes())


# one entry per row: [state | action | reward | next state | terminal |
# original | shaped]
_GOOD_ROW = [1.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0]


def test_load_buffer_rejects_count_above_capacity(tmp_path):
    path = tmp_path / "over.bin"
    path.write_bytes(_checkpoint_bytes([_GOOD_ROW] * 3, capacity=2))
    with pytest.raises(ValueError, match="over.bin"):
        load_buffer(path)


@pytest.mark.parametrize("column, value", [(4, np.nan), (4, 0.5), (6, np.nan),
                                           (6, 2.0)])
def test_load_buffer_rejects_bad_flags(tmp_path, column, value):
    row = list(_GOOD_ROW)
    row[column] = value
    path = tmp_path / "flags.bin"
    path.write_bytes(_checkpoint_bytes([_GOOD_ROW, row]))
    with pytest.raises(ValueError, match="flags.bin"):
        load_buffer(path)


def test_load_buffer_rejects_unshaped_reward_off_original(tmp_path):
    row = list(_GOOD_ROW)
    row[2] = 3.0  # stored reward 3, original 0, shaped flag 0
    path = tmp_path / "unshaped.bin"
    path.write_bytes(_checkpoint_bytes([row]))
    with pytest.raises(ValueError, match="unshaped.bin"):
        load_buffer(path)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 0.0, 1.0, -2.5]),
                  st.booleans()),
        st.tuples(st.just("shape"), st.integers(0, 2 ** 32 - 1),
                  st.sampled_from([0.0, 3.0, -1.0])),
        st.tuples(st.just("reload"), st.none(), st.none()),
    ),
    max_size=40,
)


def _sorted_zero_slots(buf):
    """Reference definition: occupied slots, sorted, with original reward 0."""
    occupied = np.sort(buf.slots())
    return occupied[[buf.original_reward_at(s) == 0.0 for s in occupied]]


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), ops=_OPS)
def test_buffer_invariants_under_random_operations(tmp_path_factory, capacity,
                                                   ops):
    path = tmp_path_factory.mktemp("prop") / "buf.bin"
    buf = ReplayBuffer(capacity)
    step = 0
    for op, a, b in ops:
        if op == "push":
            step += 1
            buf.push(_tr([float(step), 1.0], reward=a, terminal=b))
        elif op == "shape" and len(buf):
            rng = np.random.default_rng(a)
            slots = rng.permutation(buf.slots())[:rng.integers(1, len(buf) + 1)]
            shaped = rng.random(slots.size) < 0.5
            originals = np.array([buf.original_reward_at(s) for s in slots])
            buf.set_reward(slots, np.where(shaped, b, originals), shaped)
        elif op == "reload":
            save_buffer(buf, path)
            data = path.read_bytes()
            back = load_buffer(path)
            save_buffer(back, path)
            assert path.read_bytes() == data
            for sa, sb in zip(buf.slots(), back.slots()):
                ta, tb = buf.transition_at(sa), back.transition_at(sb)
                assert np.array_equal(ta.state, tb.state)
                assert np.array_equal(ta.next_state, tb.next_state)
                assert ta.reward == tb.reward and ta.terminal == tb.terminal
                assert buf.is_shaped(sa) == back.is_shaped(sb)
            buf = back
        occupied = buf.slots()
        originals = np.array([buf.original_reward_at(s) for s in occupied])
        assert buf.nonzero_reward_count == int(np.count_nonzero(originals))
        for s, original in zip(occupied, originals):
            if not buf.is_shaped(s):
                assert buf.transition_at(s).reward == original
        np.testing.assert_array_equal(buf.zero_reward_slots(),
                                      _sorted_zero_slots(buf))


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def test_trajectory_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    traj = TrajectoryMatrix(states=rng.uniform(0, 255, size=(4, 3)),
                            actions=np.eye(2)[rng.integers(0, 2, size=4)],
                            rewards=rng.normal(size=4))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    text = path.read_text()
    assert text.splitlines()[0] == "s0,s1,s2,a0,a1,r"
    assert "\r" not in text

    back = load_trajectory(path)
    np.testing.assert_array_equal(back.states, traj.states)
    np.testing.assert_array_equal(back.actions, traj.actions)
    np.testing.assert_array_equal(back.rewards, traj.rewards)


def test_trajectory_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1,2\n")
    with pytest.raises(ValueError):
        load_trajectory(path)
    path.write_text("s0,a0,r\n")
    with pytest.raises(ValueError):
        load_trajectory(path)


@pytest.mark.parametrize("text, where", [
    ("s0,s1,a0,r\n1,2,0,1\n1,2,0\n", "line 3"),      # short row
    ("s0,s1,a0,r\n1,2,0,1,5\n", "line 2"),           # long row
    ("s0,s1,a0,r\n1,two,0,1\n", "line 2"),           # non-numeric cell
    ("s0,s1,a0,r\n1,-2,0,1\n", "nonnegative"),        # negative state
    ("s0,a0,s1,r\n1,2,0,1\n", "header"),              # blocks out of order
    ("s0,s1,a0,r\n", "no steps"),
    ("", "empty"),
])
def test_trajectory_file_rejects_bad_rows(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=where) as info:
        load_trajectory(path)
    assert str(path) in str(info.value)


def test_trajectory_file_corruption_named(tmp_path):
    """Flipped bytes and truncations of a saved rollout either still parse
    to a full trajectory or fail with a ValueError naming the file."""
    rng = np.random.default_rng(11)
    traj = TrajectoryMatrix(states=rng.integers(0, 256, size=(6, 4)) / 7.0,
                            actions=np.eye(2)[rng.integers(0, 2, size=6)],
                            rewards=np.where(rng.random(6) < 0.3, 1.0, 0.0))
    good = tmp_path / "good.csv"
    save_trajectory(traj, good)
    data = good.read_bytes()
    path = tmp_path / "corrupt.csv"
    variants = [data[:cut] for cut in range(len(data))]
    for _ in range(300):
        flipped = bytearray(data)
        for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
            flipped[pos] = int(rng.integers(0, 256))
        variants.append(bytes(flipped))
    rejected = 0
    for variant in variants:
        path.write_bytes(variant)
        try:
            back = load_trajectory(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            rejected += 1
            continue
        # whatever parses has every column of the header in every row
        assert back.states.shape[1] == 4 and back.actions.shape[1] == 2
        assert len(back.rewards) == len(back.states)
    assert rejected > len(data) // 2
