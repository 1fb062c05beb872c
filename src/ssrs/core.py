"""Shared domain containers: trajectory stacks, reward sets, replay batches,
replay.

The replay buffer is built with its capacity and its state and action
widths.  It keeps both the stored (possibly shaped) reward and the original
environment reward for every entry, so shaping is always reversible; an
entry is shaped exactly when the two differ.  Every entry enters it through
``ReplayBuffer.push``: ``ReplayBuffer.from_rows`` pushes each checkpoint
entry, so there is one check on the way in.  The buffer stores each
distinct observation, action vector and (state, action) pair once, in
tables keyed alike, and each entry as ids into those tables; the tables
keep no second copy of a row, and each holds at most ``4 * capacity`` rows.
Shaping reads the ids (``ReplayBuffer.ids_at``); every other read of several
whole entries at once (losses, analyses, checkpoints) is a ``Batch`` or
checkpoint rows gathered from the tables; a TD update reads only stored
rewards (``ReplayBuffer.rewards_at``).  ``save_buffer`` streams the rows to
the file a fixed-size chunk at a time.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrajectoryMatrix",
    "Batch",
    "RewardSet",
    "update_reward_set",
    "ReplayBuffer",
    "save_buffer",
    "load_buffer",
    "save_trajectory",
    "load_trajectory",
    "format_cell",
    "format_floats",
    "read_csv",
    "write_csv",
    "write_json",
    "BUFFER_FORMAT_VERSION",
]

BUFFER_FORMAT_VERSION = 1

# Checkpoint header: format_version, state width, action width, capacity, count
# as little-endian unsigned 64-bit integers, followed by one float64 row per
# stored entry (see ``save_buffer``).
_HEADER = struct.Struct("<5Q")


def _row_widths(m1: int, m2: int) -> tuple:
    """The checkpoint row layout for state and action widths ``m1``, ``m2``:
    the width of each ``Batch`` field in field order, then the shaped flag."""
    return (m1, m2, 1, m1, 1, 1, 1)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryMatrix:
    """A stacked episode: row t holds (state, action, reward) of step t.

    ``states`` is (N, m1) and nonnegative, ``actions`` is (N, m2), ``rewards``
    is (N,); every value is finite.  Augmentations operate on ``states`` only
    and must leave the other two blocks untouched.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ValueError("states and actions must be 2-D (one row per step)")
        if self.rewards.ndim != 1:
            raise ValueError("rewards must be 1-D (one entry per step)")
        n = self.states.shape[0]
        if self.actions.shape[0] != n or self.rewards.shape[0] != n:
            raise ValueError("states, actions and rewards must have equal row counts")
        for name in ("states", "actions", "rewards"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.states < 0):
            raise ValueError("state rows must be nonnegative")

    def __len__(self) -> int:
        return self.states.shape[0]


class Batch(NamedTuple):
    """Row-aligned arrays of a batch of transitions, one row per entry.

    ``rewards`` are the stored (possibly shaped) rewards and ``originals``
    the environment rewards before any shaping.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray
    originals: np.ndarray

    @classmethod
    def from_arrays(cls, states, actions, rewards, next_states) -> "Batch":
        """Synthetic non-terminal entries, their rewards unshaped."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
        return cls(states, actions, rewards, next_states,
                   np.zeros(states.shape[0], dtype=bool), rewards)

    def __len__(self) -> int:
        return self.states.shape[0]

    def subset(self, mask) -> "Batch":
        return Batch(*(field[mask] for field in self))


# ---------------------------------------------------------------------------
# reward candidate set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardSet:
    """Fixed-size grid of candidate reward values.

    ``values`` always holds exactly ``size`` strictly increasing entries.
    ``observed`` records the distinct true reward values folded in so far;
    whenever it is non-empty, its min and max are members of ``values``.
    """

    values: np.ndarray
    observed: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("candidate grid needs at least two values")
        if np.any(np.diff(values) <= 0):
            raise ValueError("candidate values must be strictly increasing")

    @property
    def size(self) -> int:
        return int(self.values.size)

    @classmethod
    def initial(cls, size: int) -> "RewardSet":
        """Placeholder grid used before any reward has been observed.

        Spans [0, 1] so the grid is well-formed; it is rebuilt from scratch
        on the first recorded reward.
        """
        if size < 2:
            raise ValueError("reward set size must be at least 2")
        return cls(values=np.linspace(0.0, 1.0, size), observed=())


def update_reward_set(zset: RewardSet, r_new: float) -> RewardSet:
    """Fold a newly observed reward value into the candidate grid.

    The grid is rebuilt as ``size`` equally spaced points spanning the
    observed range.  While only a single distinct value v has been seen the
    span is anchored at zero ([min(0, v), max(0, v)]): zero rewards are
    ubiquitous in sparse settings, so the grid should always be able to
    express "no reward".  Repeated values are a no-op; a non-finite value
    is rejected.
    """
    r = float(r_new)
    if not math.isfinite(r):
        raise ValueError(f"observed reward must be finite, got {r}")
    if r in zset.observed:
        return zset
    observed = tuple(sorted((*zset.observed, r)))
    lo, hi = observed[0], observed[-1]
    if lo == hi:
        lo, hi = min(0.0, lo), max(0.0, hi)
    if lo == hi:
        # Only the value 0 has ever been recorded; keep a unit span so the
        # grid entries stay distinct.
        lo, hi = 0.0, 1.0
    return RewardSet(values=np.linspace(lo, hi, zset.size), observed=observed)


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------

# The dict key of a row's bytes in a ``_Table``.  Any function of the bytes
# to an integer will do: every hit is checked against the stored row.
_row_key = hash


class _Table:
    """Distinct 1-D rows of one width and dtype, each stored once in
    ``rows[:count]``, with ids handed out from 0 in order of first appearance.

    A row is keyed by ``_row_key`` of its bytes, and a hit counts only if
    the stored row has the same bytes; on a collision the lookup moves on
    to the next integer key.  So ``0.0`` and ``-0.0`` are different rows,
    no id depends on a hash value, and no copy of a row is kept but the one
    in ``rows``.

    The table holds at most ``limit`` rows, which is ``max(floor, 2 * the
    rows kept by the last keep)``; the owner keeps ``count`` within it.
    ``rows`` grows by doubling up to ``limit`` rows, and a keep that lowers
    the limit shrinks it to fit.
    """

    def __init__(self, width: int, floor: int, dtype):
        self.floor = self.limit = floor
        self.count = 0
        self.rows = np.zeros((min(64, floor), width), dtype=dtype)
        self.ids = {}

    def find(self, row: np.ndarray):
        """(id of the stored row of ``row``'s bytes, or None if there is
        none; the key of that row, or the free key a new one would take)."""
        data = row.tobytes()
        key = _row_key(data)
        while ((rid := self.ids.get(key)) is not None
               and self.rows[rid].tobytes() != data):
            key += 1
        return rid, key

    def intern(self, row: np.ndarray, found=None) -> int:
        """The id of a 1-D row of the table's dtype, stored first if new.

        ``found`` is :meth:`find`'s result for ``row``, passed only if the
        table has not been rebuilt since that call and no row stored since
        took its key."""
        rid, key = self.find(row) if found is None else found
        if rid is not None:
            return rid
        rid = self.ids[key] = self.count
        if rid == len(self.rows):
            grown = np.zeros((min(2 * rid, self.limit), self.rows.shape[1]),
                             dtype=self.rows.dtype)
            grown[:rid] = self.rows
            self.rows = grown
        self.rows[rid] = row
        self.count = rid + 1
        return rid

    def keep(self, live: np.ndarray, kept=None) -> np.ndarray:
        """Keep only the rows of the ascending ids ``live``, renumbered from
        0 in that order and replaced by the rows ``kept`` when given;
        returns the map from old to new ids (-1 where a row was dropped)."""
        remap = np.full(self.count, -1, dtype=np.intp)
        remap[live] = np.arange(live.size)
        self.rows[:live.size] = self.rows[live] if kept is None else kept
        self.limit = max(self.floor, 2 * live.size)
        if len(self.rows) > self.limit:
            self.rows = self.rows[:self.limit].copy()
        self.count = 0
        self.ids = {}
        for row in self.rows[:live.size]:
            self.intern(row)
        return remap


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with shaping bookkeeping.

    Built with its capacity, state width and action width, and holds
    entries of exactly those widths; an entry holds the ``Batch`` fields.
    An entry is shaped exactly when its stored reward differs from its
    original; the shaped flag of a checkpoint row is derived from that.

    Each distinct observation is stored once, in one table shared by states
    and next states, each distinct action vector once, and each distinct
    (state id, action id) pair once; a slot holds the id of its pair and
    of its next state (:meth:`ids_at`).  Ids are bytes-exact and stay fixed
    while ``id_epoch`` does.  Every table is keyed the same way: a row (a
    pair is a row of its two ids) by a hash of its bytes, checked against
    the stored row on a hit.  Each table holds at most ``max(2 *
    capacity, 2 * the rows it kept at the last rebuild)`` rows, so never
    more than ``4 * capacity``: when a push might not fit, the tables are
    rebuilt from the live slots, renumbering the ids, and ``id_epoch``
    advances.  A rebuild costs O(capacity) and comes at most once per
    ``capacity / 2`` pushes, so amortised O(1) per push.

    Slots are physical ring positions; they are returned by :meth:`push` and
    :meth:`sample_slots` and stay valid until the slot is overwritten by
    eviction.  Occupied slots are always ``[0, len(buffer))``: the ring fills
    from slot 0 and never shrinks.

    The ascending list of zero-original slots is kept as entries arrive: a
    push that fills the ring appends its slot (the largest so far), and in
    a full ring the list is rebuilt only when a push flips a slot between
    zero and nonzero original reward.
    """

    def __init__(self, capacity: int, state_width: int, action_width: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if state_width < 1 or action_width < 1:
            raise ValueError(f"state and action widths must be positive, "
                             f"got ({state_width}, {action_width})")
        self.capacity = int(capacity)
        self.state_width = int(state_width)
        self.action_width = int(action_width)
        self.id_epoch = 0
        self._next = 0      # next physical slot to write
        self._size = 0
        try:
            self._pair_ids = np.zeros(capacity, dtype=np.intp)
            self._next_state_ids = np.zeros(capacity, dtype=np.intp)
            self._rewards = np.zeros(capacity)
            self._terminals = np.zeros(capacity, dtype=bool)
            self._originals = np.zeros(capacity)
            self._index_zero_slots()
            floor = 2 * self.capacity
            self._observations = _Table(self.state_width, floor, np.float64)
            self._actions = _Table(self.action_width, floor, np.float64)
            self._pairs = _Table(2, floor, np.intp)
        except (MemoryError, ValueError):  # numpy: "array is too big"
            raise ValueError(
                f"cannot allocate a buffer of capacity {capacity} and widths "
                f"({state_width}, {action_width})") from None

    # -- sizing -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def nonzero_reward_count(self) -> int:
        """Number of stored entries whose *original* reward is nonzero."""
        return self._size - self._zero_count

    def _require_entries(self, what: str):
        if self._size == 0:
            raise ValueError(f"the buffer is empty: {what}")

    def _index_zero_slots(self):
        """Rebuild the zero-original slot list from the stored originals.

        Each rebuild fills a new array with room for every slot, and pushes
        only append past its end, so an array handed out by
        :meth:`zero_reward_slots` never changes.
        """
        found = np.flatnonzero(self._originals[:self._size] == 0.0)
        self._zero_slots = np.empty(self.capacity, dtype=np.intp)
        self._zero_slots[:found.size] = found
        self._zero_count = found.size

    def _rebuild_tables(self, evicted: int | None):
        """Keep only the table rows that the occupied slots but ``evicted``
        refer to, renumbering the ids; a new epoch of ids begins."""
        live = np.ones(self._size, dtype=bool)
        if evicted is not None:
            live[evicted] = False
        pair_ids = self._pair_ids[:self._size]
        next_ids = self._next_state_ids[:self._size]
        live_pairs = np.unique(pair_ids[live])
        states, actions = self._pairs.rows[live_pairs].T
        observation_map = self._observations.keep(
            np.unique(np.concatenate([states, next_ids[live]])))
        action_map = self._actions.keep(np.unique(actions))
        pair_map = self._pairs.keep(live_pairs, np.column_stack(
            [observation_map[states], action_map[actions]]))
        pair_ids[:] = pair_map[pair_ids]
        next_ids[:] = observation_map[next_ids]
        self.id_epoch += 1

    def _check_entry(self, state, action, reward, next_state):
        """Reject an entry that no buffer may hold: the widths must be the
        buffer's, every value finite and states nonnegative (observations
        are RAM-like values in [0, 255]).  Returns the tables' ``find``
        results for the state, the action and the next state."""
        if state.ndim != 1 or next_state.ndim != 1 or action.ndim != 1:
            raise ValueError("states and action must be 1-D vectors")
        if state.shape != next_state.shape:
            raise ValueError(f"state and next_state lengths differ: "
                             f"{state.size} vs {next_state.size}")
        if (state.size, action.size) != (self.state_width, self.action_width):
            raise ValueError(
                f"dimension mismatch: buffer holds ({self.state_width}, "
                f"{self.action_width}) vectors, got ({state.size}, "
                f"{action.size})")
        # A row a table stores passed this check, so only rows new to their
        # table are checked.  NaN fails every comparison.
        state_at = self._observations.find(state)
        next_at = self._observations.find(next_state)
        for vec, (rid, _) in ((state, state_at), (next_state, next_at)):
            if rid is None and not (vec.min() >= 0.0 and vec.max() < math.inf):
                raise ValueError("states must be finite and nonnegative")
        action_at = self._actions.find(action)
        if (action_at[0] is None
                and not -math.inf < action.min() <= action.max() < math.inf):
            raise ValueError("actions must be finite")
        # math.isfinite costs push a fraction of a ufunc call on one float.
        if not math.isfinite(reward):
            raise ValueError("rewards must be finite")
        return state_at, action_at, next_at

    # -- writing ------------------------------------------------------------

    def push(self, state, action, reward, next_state, terminal) -> int:
        """Append one environment step, evicting the oldest entry when full.

        ``action`` is vector-encoded (one-hot for discrete action spaces).
        Returns the physical slot the step was written to.
        """
        state = np.asarray(state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        next_state = np.asarray(next_state, dtype=np.float64)
        state_at, action_at, next_at = self._check_entry(
            state, action, reward, next_state)
        slot = self._next
        full = self._size == self.capacity
        flips = full and (self._originals[slot] == 0.0) != (reward == 0.0)
        observations = self._observations
        # A push adds at most two rows to a table.
        if (observations.count + 2 > observations.limit
                or self._actions.count + 2 > self._actions.limit
                or self._pairs.count + 2 > self._pairs.limit):
            self._rebuild_tables(slot if full else None)
            # The rebuild renumbered every id: look each row up again.
            state_at = action_at = next_at = None
        elif state_at[0] is None and next_at == state_at:
            # The new state takes the free key the next state's miss found.
            next_at = None
        self._pair_ids[slot] = self._pairs.intern(np.array(
            (observations.intern(state, state_at),
             self._actions.intern(action, action_at)), dtype=np.intp))
        self._next_state_ids[slot] = observations.intern(next_state, next_at)
        self._rewards[slot] = reward
        self._terminals[slot] = terminal
        self._originals[slot] = reward
        if flips:
            self._index_zero_slots()
        elif not full and reward == 0.0:
            self._zero_slots[self._zero_count] = slot
            self._zero_count += 1
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return slot

    def set_reward(self, slots, values):
        """Overwrite the stored rewards of distinct slots (shaping write-back).

        ``slots`` and ``values`` are scalars or equal-length arrays.  An
        entry written with a value other than its original is shaped; writing
        the original back unshapes it.
        """
        self._require_entries("no reward to set")
        self._rewards[slots] = values

    # -- reading ------------------------------------------------------------

    def _ring(self, ages: np.ndarray) -> np.ndarray:
        """Physical slots of entries by age rank, 0 being the oldest."""
        start = (self._next - self._size) % self.capacity
        return (start + ages) % self.capacity

    def slots(self) -> np.ndarray:
        """Physical slots of all stored entries, oldest first."""
        return self._ring(np.arange(self._size))

    def zero_reward_slots(self) -> np.ndarray:
        """Slots whose original reward is zero, in ascending slot order, as
        a read-only array that later pushes leave unchanged."""
        slots = self._zero_slots[:self._zero_count]
        slots.flags.writeable = False
        return slots

    def rewards_at(self, slots: np.ndarray) -> np.ndarray:
        """The stored (possibly shaped) rewards at an array of slots, as a
        copy; the one field a TD update reads from the buffer."""
        self._require_entries("no reward to read")
        return self._rewards[slots]

    def ids_at(self, slots: np.ndarray):
        """(pair ids, next-state ids) of the entries at an array of slots,
        as copies.  A pair id names one distinct (state, action) and a
        next-state id one distinct observation, bytes-exact;
        :meth:`state_actions` and :meth:`observations` read them."""
        return self._pair_ids[slots], self._next_state_ids[slots]

    def observations(self, ids: np.ndarray) -> np.ndarray:
        """The observations (states and next states) of an array of ids,
        one row each, as a copy."""
        return self._observations.rows[ids]

    def state_actions(self, pair_ids: np.ndarray):
        """(states, action vectors) of an array of pair ids, one row each,
        as copies."""
        states, actions = self._pairs.rows[pair_ids].T
        return self._observations.rows[states], self._actions.rows[actions]

    def batch_arrays(self, slots: np.ndarray) -> Batch:
        """The entries at a 1-D array of slots, as a Batch of copies."""
        self._require_entries("nothing to gather")
        slots = np.asarray(slots)
        if slots.ndim != 1:
            raise ValueError(f"slots must be a 1-D array, got {slots.ndim}-D")
        return self._gather(slots)

    def _gather(self, slots: np.ndarray) -> Batch:
        """The entries at an array of slots, as a Batch of copies."""
        pairs, next_states = self.ids_at(slots)
        return Batch(*self.state_actions(pairs), self._rewards[slots],
                     self.observations(next_states), self._terminals[slots],
                     self._originals[slots])

    # -- sampling -----------------------------------------------------------

    def sample_slots(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``batch_size`` slots uniformly with replacement.

        Consumes exactly one generator call, so identical generator state
        yields identical slot sequences.
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self._require_entries("cannot sample")
        ages = rng.integers(0, self._size, size=batch_size)
        # Until the ring first fills, it starts at slot 0: an age is a slot.
        return ages if self._size < self.capacity else self._ring(ages)

    # -- checkpoint rows ----------------------------------------------------

    def to_rows(self) -> np.ndarray:
        """Stored entries as checkpoint rows, oldest first (layout at
        :func:`save_buffer`); the shaped flag is ``rewards != originals``."""
        return self._rows(self.slots())

    def _rows(self, slots: np.ndarray) -> np.ndarray:
        """Checkpoint rows of the entries at an array of slots."""
        batch = self._gather(slots)
        return np.column_stack([*batch, batch.rewards != batch.originals])

    @classmethod
    def from_rows(cls, capacity: int, m1: int, m2: int, rows) -> "ReplayBuffer":
        """Inverse of :meth:`to_rows`: a buffer of capacity ``capacity`` and
        widths ``(m1, m2)`` holding the rows' entries, oldest first, in slots
        ``[0, len(rows))``.

        Rejects anything but a 2-D array of rows as wide as ``_row_widths``
        lays them out, more rows than the capacity, flags other than exactly
        0.0 or 1.0, a shaped flag that disagrees with "stored reward differs
        from original", and stored rewards that are not finite.  Each entry
        then goes in through :meth:`push` with its original reward, so it
        passes the check a step does, and gets its stored reward after.
        """
        rows = np.asarray(rows, dtype=np.float64)
        widths = _row_widths(m1, m2)
        if rows.ndim != 2 or rows.shape[1] != sum(widths):
            raise ValueError(f"rows must be {sum(widths)} values wide for "
                             f"widths ({m1}, {m2}), got shape {rows.shape}")
        count = rows.shape[0]
        if count > capacity:
            raise ValueError(f"{count} entries exceed the capacity {capacity}")
        buffer = cls(capacity, m1, m2)
        (states, actions, rewards, next_states, terminals, originals,
         shaped) = np.split(rows, np.cumsum(widths[:-1]), axis=1)
        flags = np.hstack([terminals, shaped])
        if not np.all((flags == 0.0) | (flags == 1.0)):
            raise ValueError("terminal and shaped flags must be 0.0 or 1.0")
        if np.any((shaped == 1.0) != (rewards != originals)):
            raise ValueError("an entry's shaped flag must be 1.0 exactly when "
                             "its stored reward differs from its original")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        # At most 2 * count <= 2 * capacity rows per table, within every
        # table's ceiling: no rebuild.
        for entry in zip(states, actions, originals[:, 0].tolist(),
                         next_states, (terminals[:, 0] == 1.0).tolist()):
            buffer.push(*entry)
        buffer._rewards[:count] = rewards[:, 0]
        return buffer


# ---------------------------------------------------------------------------
# buffer checkpoints
# ---------------------------------------------------------------------------
#
# Binary layout (documented for external readers; ``_row_widths`` in code):
#   bytes 0..39   header: five little-endian uint64 fields
#                 (format_version, m1, m2, capacity, count)
#   bytes 40..    count rows of (2*m1 + m2 + 4) little-endian float64 values,
#                 oldest entry first, each row laid out as
#                 [state (m1) | action (m2) | stored reward | next state (m1)
#                  | terminal (0.0/1.0) | original reward | shaped (0.0/1.0)]
#                 where shaped is 1.0 exactly when the stored reward differs
#                 from the original reward.

# Rows are built and written this many bytes at a time, so a checkpoint
# write holds a bounded slice of the payload, not a full copy of it.
_CHUNK_BYTES = 1 << 17


def save_buffer(buffer: ReplayBuffer, path):
    """Write a replay buffer checkpoint (see module comment for the layout),
    streaming its rows to the file in fixed-size chunks."""
    header = _HEADER.pack(BUFFER_FORMAT_VERSION, buffer.state_width,
                          buffer.action_width, buffer.capacity, len(buffer))
    order = buffer.slots()
    row_bytes = 8 * sum(_row_widths(buffer.state_width, buffer.action_width))
    step = max(1, _CHUNK_BYTES // row_bytes)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, order.size, step):
            rows = buffer._rows(order[start:start + step])
            fh.write(rows.astype("<f8", copy=False).data)


def load_buffer(path) -> ReplayBuffer:
    """Read a checkpoint written by :func:`save_buffer` (bit-exact round trip).

    Malformed input raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated buffer checkpoint")
    version, m1, m2, capacity, count = _HEADER.unpack_from(raw)
    if version != BUFFER_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported buffer format version {version}")
    row_width = sum(_row_widths(m1, m2))
    expected = _HEADER.size + 8 * row_width * count
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload size mismatch (expected {expected} bytes, "
            f"got {len(raw)})"
        )
    rows = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    try:
        return ReplayBuffer.from_rows(capacity, m1, m2,
                                      rows.reshape(count, row_width))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# text files: every CSV and JSON file the package writes, trajectory files
# ---------------------------------------------------------------------------

# 17 significant digits: lossless for float64.
_FLOAT_FORMAT = "%.17g"


def format_cell(value) -> str:
    """Strings as is, integers as integers, else 17-significant-digit float."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT_FORMAT % float(value)


def format_floats(values) -> str:
    """The float cells of a 1-D array, space-separated: the string
    ``" ".join(map(format_cell, values))`` gives, built in one formatting
    operation."""
    values = np.asarray(values, dtype=np.float64).tolist()
    return " ".join([_FLOAT_FORMAT] * len(values)) % tuple(values)


def write_csv(path, header, rows):
    """RFC-4180 CSV with "\n" line endings; cells go through format_cell."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(format_cell, row) for row in rows)


def read_csv(path):
    """(header, float rows) of a numeric CSV file; bad content raises a
    ValueError naming the file (and the line)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file")
            rows = []
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"line {reader.line_num} has {len(row)} "
                                     f"cells, the header names {len(header)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None
    return header, np.array(rows, dtype=np.float64).reshape(-1, len(header))


def write_json(path, payload):
    """Sorted, two-space-indented JSON with a trailing newline."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trajectory_header(m1: int, m2: int) -> list:
    """A trajectory file's header; one row per step follows it."""
    return [f"s{i}" for i in range(m1)] + [f"a{i}" for i in range(m2)] + ["r"]


def save_trajectory(traj: TrajectoryMatrix, path):
    header = _trajectory_header(traj.states.shape[1], traj.actions.shape[1])
    write_csv(path, header,
              np.column_stack([traj.states, traj.actions, traj.rewards]))


def load_trajectory(path) -> TrajectoryMatrix:
    header, data = read_csv(path)
    m1 = sum(1 for name in header if name.startswith("s"))
    m2 = sum(1 for name in header if name.startswith("a"))
    if m1 == 0 or header != _trajectory_header(m1, m2):
        raise ValueError(f"{path}: malformed trajectory header")
    if not len(data):
        raise ValueError(f"{path}: trajectory holds no steps")
    try:
        return TrajectoryMatrix(states=data[:, :m1],
                                actions=data[:, m1:m1 + m2],
                                rewards=data[:, -1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
