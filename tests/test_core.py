"""Containers: trajectory stacks, reward grids, replay ring."""

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
    format_cell,
    format_floats,
    load_buffer,
    load_trajectory,
    save_buffer,
    save_trajectory,
    update_reward_set,
)


def _push(buf, state, reward=0.0, action=(1.0, 0.0), terminal=False,
          next_state=None):
    state = np.asarray(state, dtype=float)
    if next_state is None:
        next_state = state + 1.0
    return buf.push(state, np.asarray(action, dtype=float), reward,
                    next_state, terminal)


def _entry(buf, slot):
    """The entry at one slot, as a one-row Batch."""
    return buf.batch_arrays(np.array([slot]))


def _shaped(buf, slots):
    """Shaped flags of physical slots, read from the checkpoint rows (where
    they are derived: stored reward differs from original)."""
    flags = np.zeros(buf.capacity, dtype=bool)
    flags[buf.slots()] = buf.to_rows()[:, -1] == 1.0
    return flags[np.asarray(slots)].tolist()


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            update_reward_set(RewardSet.initial(3), bad)


# ---------------------------------------------------------------------------
# replay ring
# ---------------------------------------------------------------------------

def test_push_validates_shapes():
    cases = [
        # 2-D state
        (np.zeros((2, 2)), np.ones(1), 0.0, np.zeros(4), "1-D"),
        # 2-D action
        (np.ones(2), np.ones((1, 1)), 0.0, np.ones(2), "1-D"),
        (np.ones(2), np.ones(1), 0.0, np.zeros(3), "lengths differ"),
        (np.zeros(0), np.ones(1), 0.0, np.zeros(0), "dimension mismatch"),
        (np.ones(2), np.zeros(0), 0.0, np.ones(2), "dimension mismatch"),
        (np.array([-1.0, 2.0]), np.ones(1), 0.0, np.ones(2), "nonnegative"),
        (np.ones(2), np.ones(1), 0.0, np.array([1.0, -2.0]), "nonnegative"),
        (np.array([np.nan, 2.0]), np.ones(1), 0.0, np.ones(2), "nonnegative"),
        (np.ones(2), np.ones(1), np.nan, np.ones(2), "finite"),
        (np.ones(2), np.ones(1), -np.inf, np.ones(2), "finite"),
    ]
    for state, action, reward, next_state, match in cases:
        buf = ReplayBuffer(2, 2, 1)
        with pytest.raises(ValueError, match=match):
            buf.push(state, action, reward, next_state, False)
        assert len(buf) == 0 and (buf.state_width, buf.action_width) == (2, 1)
        assert buf.nonzero_reward_count == 0


@pytest.mark.parametrize("args", [(0, 2, 1), (2, 0, 1), (2, 2, 0), (2, -1, 1)])
def test_buffer_needs_positive_capacity_and_widths(args):
    with pytest.raises(ValueError, match="must be positive"):
        ReplayBuffer(*args)


def test_push_and_fraction():
    buf = ReplayBuffer(2, 2, 2)
    _push(buf, [1.0, 0.0], reward=1.0)
    assert len(buf) == 1
    assert buf.nonzero_reward_count / len(buf) == 1.0

    buf = ReplayBuffer(2, 2, 2)
    _push(buf, [1.0, 0.0], reward=0.0)
    assert buf.nonzero_reward_count / len(buf) == 0.0


def test_ring_drops_oldest():
    buf = ReplayBuffer(2, 2, 2)
    for i in range(3):
        _push(buf, [float(i), 0.0])
    assert len(buf) == 2
    kept = buf.batch_arrays(buf.slots()).states[:, 0].tolist()
    assert kept == [1.0, 2.0]


def test_nonzero_fraction_quarter():
    buf = ReplayBuffer(4, 2, 2)
    for r in (0.0, 0.0, 5.0, 0.0):
        _push(buf, [1.0, 1.0], reward=r)
    assert buf.nonzero_reward_count / len(buf) == 0.25
    assert buf.nonzero_reward_count == 1
    assert len(buf.zero_reward_slots()) == 3


def test_eviction_updates_nonzero_cache():
    buf = ReplayBuffer(2, 1, 1)
    _push(buf, [1.0], action=[1.0], reward=3.0)
    _push(buf, [2.0], action=[1.0], reward=0.0)
    _push(buf, [3.0], action=[1.0], reward=0.0)  # evicts the reward-3 entry
    assert buf.nonzero_reward_count == 0


def test_set_reward_shaping_bookkeeping():
    buf = ReplayBuffer(4, 2, 2)
    slot = _push(buf, [1.0, 2.0], reward=0.0)
    buf.set_reward(slot, 2.5)
    assert _entry(buf, slot).rewards[0] == 2.5
    assert _entry(buf, slot).originals[0] == 0.0
    assert _shaped(buf, [slot]) == [True]
    # writing the original back unshapes the entry
    buf.set_reward(slot, 0.0)
    assert _shaped(buf, [slot]) == [False]


def test_set_reward_batched_writes_each_slot():
    # An entry is shaped exactly when its stored reward differs from its
    # original, whatever the original is.
    buf = ReplayBuffer(4, 2, 2)
    slots = [_push(buf, [float(i), 0.0], reward=r)
             for i, r in enumerate((0.0, 0.0, 3.0, 3.0))]
    buf.set_reward(np.array(slots), np.array([1.5, 0.0, 2.0, 3.0]))
    assert (buf.batch_arrays(np.array(slots)).rewards.tolist()
            == [1.5, 0.0, 2.0, 3.0])
    assert _shaped(buf, slots) == [True, False, True, False]


def test_sample_single_entry():
    buf = ReplayBuffer(3, 2, 2)
    slot = _push(buf, [5.0, 5.0])
    slots = buf.sample_slots(3, np.random.default_rng(0))
    np.testing.assert_array_equal(slots, [slot] * 3)
    np.testing.assert_array_equal(_entry(buf, slots[0]).states[0], [5.0, 5.0])


def test_sample_bounds_and_determinism():
    buf = ReplayBuffer(16, 2, 2)
    for i in range(10):
        _push(buf, [float(i), 0.0])
    a = buf.sample_slots(64, np.random.default_rng(3))
    b = buf.sample_slots(64, np.random.default_rng(3))
    assert a.shape == (64,)
    assert set(a).issubset(set(buf.slots().tolist()))
    np.testing.assert_array_equal(a, b)


def test_empty_buffer_reads():
    # An empty buffer has no entry to read, sample or rewrite.
    buf = ReplayBuffer(3, 2, 2)
    slots = buf.zero_reward_slots()
    assert slots.shape == (0,) and slots.dtype.kind == "i"
    assert buf.to_rows().shape == (0, 2 * 2 + 2 + 4)
    with pytest.raises(ValueError, match="empty"):
        buf.batch_arrays(np.array([0]))
    with pytest.raises(ValueError, match="empty"):
        buf.set_reward(np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError, match="empty"):
        buf.sample_slots(2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        buf.rewards_at(np.array([0]))


def test_sample_consumes_one_generator_call():
    # Training interleaves several consumers on named streams, so the
    # draw count per operation is part of the contract.
    buf = ReplayBuffer(8, 2, 2)
    for i in range(5):
        _push(buf, [float(i), 1.0])
    rng = np.random.default_rng(11)
    buf.sample_slots(7, rng)
    mirror = np.random.default_rng(11)
    mirror.integers(0, len(buf), size=7)
    assert rng.random() == mirror.random()


def test_batch_arrays_returns_copies():
    # Bitwise equal to per-slot reads of the checkpoint rows, on a wrapped
    # ring with shaped entries and repeated slots, and sharing no memory with
    # the buffer.
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(6, 3, 2)
    for i in range(9):
        _push(buf, rng.uniform(0.0, 9.0, size=3), reward=float(i % 3 == 0),
              action=np.eye(2)[i % 2], terminal=i % 4 == 3)
    buf.set_reward(np.array([1, 4]), np.array([0.25, -1.5]))
    slots = np.array([4, 0, 4, 5, 1, 2, 3, 1])
    batch = buf.batch_arrays(slots)
    # row layout: [state (3) | action (2) | reward | next state (3) |
    # terminal | original | shaped]
    row_of = dict(zip(buf.slots().tolist(), buf.to_rows()))
    reads = [row_of[s] for s in slots.tolist()]
    expected = {
        "states": np.array([r[0:3] for r in reads]),
        "actions": np.array([r[3:5] for r in reads]),
        "rewards": np.array([r[5] for r in reads]),
        "next_states": np.array([r[6:9] for r in reads]),
        "terminals": np.array([r[9] == 1.0 for r in reads]),
        "originals": np.array([r[10] for r in reads]),
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
    assert _entry(buf, 4).rewards[0] == -1.5
    assert _entry(buf, 4).states[0, 0] == expected["states"][0, 0]
    # the rewards-only read gives the same stored rewards, also a copy
    rewards = buf.rewards_at(slots)
    assert rewards.tobytes() == expected["rewards"].tobytes()
    assert not any(np.shares_memory(rewards, a) for a in stored)


@pytest.mark.parametrize("slots", [1, np.int64(0), np.array([[0, 1]])],
                         ids=["int", "numpy-scalar", "2-D"])
def test_batch_arrays_rejects_non_vector_slots(slots):
    buf = ReplayBuffer(4, 2, 2)
    for i in range(3):
        _push(buf, [float(i), 0.0])
    with pytest.raises(ValueError, match="1-D"):
        buf.batch_arrays(slots)


def test_push_rejects_width_change():
    # The widths are the buffer's from construction, the first push included.
    buf = ReplayBuffer(4, 2, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="dimension mismatch"):
            _push(buf, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            _push(buf, [1.0, 2.0], action=[1.0, 0.0, 0.0])
        _push(buf, [1.0, 2.0])
    assert len(buf) == 2


# ---------------------------------------------------------------------------
# buffer checkpoints
# ---------------------------------------------------------------------------

def test_buffer_checkpoint_roundtrip(tmp_path):
    buf = ReplayBuffer(5, 3, 2)
    rng = np.random.default_rng(2)
    for i in range(7):  # wraps the ring
        _push(buf, rng.uniform(0, 255, size=3),
              reward=float(rng.integers(0, 2)), action=np.eye(2)[i % 2],
              terminal=(i == 6))
    buf.set_reward(buf.zero_reward_slots()[0], 4.25)

    path = tmp_path / "buf.bin"
    save_buffer(buf, path)
    back = load_buffer(path)

    assert len(back) == len(buf)
    assert back.capacity == buf.capacity
    assert back.nonzero_reward_count == buf.nonzero_reward_count
    ours, theirs = buf.batch_arrays(buf.slots()), back.batch_arrays(back.slots())
    for name, a, b in zip(ours._fields, ours, theirs):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert _shaped(buf, buf.slots()) == _shaped(back, back.slots())


def test_buffer_checkpoint_golden_bytes(tmp_path):
    # Pin the documented byte layout: 5 little-endian uint64 header fields,
    # then one float64 row per entry, oldest first.
    buf = ReplayBuffer(2, 2, 1)
    buf.push(np.array([1.0, 2.0]), np.array([1.0]), 0.5, np.array([3.0, 4.0]),
             False)
    buf.push(np.array([5.0, 6.0]), np.array([0.0]), 0.0, np.array([7.0, 8.0]),
             True)
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
    save_buffer(ReplayBuffer(3, 2, 1), path)
    assert path.read_bytes() == struct.pack("<5Q", BUFFER_FORMAT_VERSION, 2,
                                            1, 3, 0)
    back = load_buffer(path)
    assert len(back) == 0
    assert (back.capacity, back.state_width, back.action_width) == (3, 2, 1)


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


def test_load_buffer_rejects_zero_widths(tmp_path):
    # A header with width 0 describes no buffer, even an empty one.
    path = tmp_path / "widthless.bin"
    path.write_bytes(struct.pack("<5Q", BUFFER_FORMAT_VERSION, 0, 0, 3, 0))
    with pytest.raises(ValueError, match="widthless.bin.*widths must be"):
        load_buffer(path)


def test_load_buffer_rejects_shaped_flag_on_original_reward(tmp_path):
    row = list(_GOOD_ROW)
    row[6] = 1.0  # shaped flag 1, stored reward equal to the original
    path = tmp_path / "shaped.bin"
    path.write_bytes(_checkpoint_bytes([_GOOD_ROW, row]))
    with pytest.raises(ValueError, match="shaped.bin.*shaped flag"):
        load_buffer(path)


def test_load_buffer_rejects_unshaped_reward_off_original(tmp_path):
    row = list(_GOOD_ROW)
    row[2] = 3.0  # stored reward 3, original 0, shaped flag 0
    path = tmp_path / "unshaped.bin"
    path.write_bytes(_checkpoint_bytes([row]))
    with pytest.raises(ValueError, match="unshaped.bin"):
        load_buffer(path)


@pytest.mark.parametrize("edits, match", [
    ({0: -1.0}, "nonnegative"), ({3: -2.0}, "nonnegative"),
    ({0: np.nan}, "nonnegative"), ({3: -np.inf}, "nonnegative"),
    # shaped entries, so only the finite check can catch them
    ({2: np.nan, 6: 1.0}, "finite"), ({5: np.inf, 6: 1.0}, "finite"),
], ids=["state", "next-state", "nan-state", "inf-next-state",
        "nan-shaped-reward", "inf-original"])
def test_load_buffer_rejects_negative_states(tmp_path, edits, match):
    # The checks push makes on every step also guard every loaded row, and
    # cover stored and original rewards alike.
    row = list(_GOOD_ROW)
    for column, value in edits.items():
        row[column] = value
    path = tmp_path / "negative.bin"
    path.write_bytes(_checkpoint_bytes([_GOOD_ROW, row]))
    with pytest.raises(ValueError, match=f"negative.bin.*{match}"):
        load_buffer(path)
    with pytest.raises(ValueError, match=match):
        ReplayBuffer.from_rows(4, 1, 1, [_GOOD_ROW, row])


@pytest.mark.parametrize("rows", [[_GOOD_ROW[:-1]], [_GOOD_ROW + [0.0]],
                                  _GOOD_ROW, 5.0, np.zeros((0, 3))],
                         ids=["narrow", "wide", "1-D", "0-D", "empty-narrow"])
def test_from_rows_rejects_other_row_widths(rows):
    with pytest.raises(ValueError, match=r"7 values wide.*shape"):
        ReplayBuffer.from_rows(4, 1, 1, rows)


def test_load_buffer_names_unallocatable_capacity(tmp_path):
    # 2**58 slots of one float64 ask for 2 EiB: the allocation fails.
    capacity = 2 ** 58
    path = tmp_path / "huge.bin"
    path.write_bytes(_checkpoint_bytes([_GOOD_ROW], capacity=capacity))
    with pytest.raises(ValueError, match=f"huge.bin.*capacity {capacity}"):
        load_buffer(path)


def test_load_buffer_bit_flips_load_or_name_the_file(tmp_path):
    """Every single-bit flip of a small checkpoint either loads a buffer
    that push could have built or fails with a ValueError naming the file."""
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(8, 3, 2)
    for i in range(7):
        _push(buf, rng.integers(0, 256, size=3) / 3.0,
              reward=float(i % 3 == 2), action=np.eye(2)[i % 2],
              terminal=i == 3)
    buf.set_reward(buf.zero_reward_slots()[:2], 0.5)
    good = tmp_path / "good.bin"
    save_buffer(buf, good)
    data = good.read_bytes()
    path = tmp_path / "flipped.bin"
    loaded = 0
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            back = load_buffer(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            continue
        loaded += 1
        batch = back.batch_arrays(back.slots())
        assert np.all(batch.states >= 0) and np.all(batch.next_states >= 0)
    # flips of actions and of the rewards of shaped entries still load
    assert 0 < loaded < 8 * len(data)


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


def _originals(buf, slots):
    return buf.batch_arrays(slots).originals if len(buf) else np.zeros(0)


def _sorted_zero_slots(buf):
    """Reference definition: occupied slots, sorted, with original reward 0."""
    occupied = np.sort(buf.slots())
    return occupied[_originals(buf, occupied) == 0.0]


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 6), ops=_OPS)
def test_buffer_invariants_under_random_operations(tmp_path_factory, capacity,
                                                   ops):
    path = tmp_path_factory.mktemp("prop") / "buf.bin"
    buf = ReplayBuffer(capacity, 2, 2)
    step = 0
    for op, a, b in ops:
        if op == "push":
            step += 1
            _push(buf, [float(step), 1.0], reward=a, terminal=b)
        elif op == "shape" and len(buf):
            rng = np.random.default_rng(a)
            slots = rng.permutation(buf.slots())[:rng.integers(1, len(buf) + 1)]
            shaped = rng.random(slots.size) < 0.5
            originals = _originals(buf, slots)
            buf.set_reward(slots, np.where(shaped, b, originals))
        elif op == "reload":
            save_buffer(buf, path)
            data = path.read_bytes()
            back = load_buffer(path)
            save_buffer(back, path)
            assert path.read_bytes() == data
            assert back.to_rows().tobytes() == buf.to_rows().tobytes()
            buf = back
        occupied = buf.slots()
        originals = _originals(buf, occupied)
        assert buf.nonzero_reward_count == int(np.count_nonzero(originals))
        if len(buf):
            unshaped = ~np.array(_shaped(buf, occupied))
            rewards = buf.batch_arrays(occupied).rewards
            assert np.array_equal(rewards[unshaped], originals[unshaped])
        np.testing.assert_array_equal(buf.zero_reward_slots(),
                                      _sorted_zero_slots(buf))


def _flatnonzero_zero_slots(buf):
    """``np.flatnonzero(originals[:len] == 0)`` over the originals read back
    per physical slot: the scan ``zero_reward_slots`` keeps incrementally."""
    originals = np.zeros(len(buf))
    if len(buf):
        originals[buf.slots()] = buf.to_rows()[:, -2]
    return np.flatnonzero(originals == 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_zero_reward_slots_match_flatnonzero_under_random_sequences(seed):
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 40))
    p_nonzero = rng.uniform(0.05, 0.6)
    buf = ReplayBuffer(capacity, 2, 2)
    handed_out = []
    for step in range(400):
        op = rng.random()
        if op < 0.8 or not len(buf):
            reward = float(rng.normal()) if rng.random() < p_nonzero else 0.0
            _push(buf, [float(step), 1.0], reward=reward)
        elif op < 0.9:
            slots = rng.permutation(buf.slots())[:rng.integers(1, len(buf) + 1)]
            shaped = rng.random(slots.size) < 0.5
            originals = buf.batch_arrays(slots).originals
            buf.set_reward(slots, np.where(shaped, rng.normal(size=slots.size),
                                           originals))
        else:
            # reload all entries, or the newest ones into a ring with room
            rows = buf.to_rows()[rng.integers(0, len(buf)):]
            buf = ReplayBuffer.from_rows(capacity, 2, 2, rows)
        slots = buf.zero_reward_slots()
        reference = _flatnonzero_zero_slots(buf)
        assert slots.dtype == reference.dtype
        np.testing.assert_array_equal(slots, reference)
        assert not slots.flags.writeable
        handed_out.append((slots, slots.copy()))
    # later pushes never change an array already handed out
    for slots, copy in handed_out:
        np.testing.assert_array_equal(slots, copy)


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


def test_format_floats_matches_format_cell_per_value():
    values = np.array([-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e308,
                       -1e308, 3.0, -7.0, 1e16, 0.1, 1 / 3, -2.5e-5, np.inf,
                       -np.inf, np.nan])
    expected = " ".join(map(format_cell, values))
    assert format_floats(values) == expected
    assert expected.split()[:4] == ["-0", "0", "4.9406564584124654e-324",
                                    "2.2250738585072009e-308"]
    assert format_floats(np.array([])) == ""
