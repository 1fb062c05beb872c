"""Shared domain containers: trajectory stacks, reward sets, replay batches,
replay.

The replay buffer is built with its capacity and a row source, the
environment, which names each observation by a code and decodes codes to
rows.  A slot holds its entry as codes (state, action index, next state)
next to its stored reward, original reward and terminal flag; it keeps both
rewards, so shaping is always reversible, and an entry is shaped exactly
when the two differ.  Every step enters through ``ReplayBuffer.push``,
which takes codes.  Shaping reads the codes (``ReplayBuffer.codes_at``);
every other read of several whole entries at once (losses, checkpoints) is
a ``Batch`` or checkpoint rows decoded from them; a TD update reads only
stored rewards (``ReplayBuffer.rewards_at``).  ``save_buffer`` streams the
rows to the file a fixed-size chunk at a time, and ``load_buffer`` reads
them back as the ``Batch`` of the stored entries, which is what the
analyses read.
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
        if not len(states) == len(actions) == rewards.size == len(next_states):
            raise ValueError("states, actions, rewards and next states must "
                             "have equal row counts")
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

class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with shaping bookkeeping.

    Built with its capacity and a row source (the environment) that names
    each observation by a code.  A slot holds the codes of its state and
    next state and its action index, and the source decodes them to the
    entry's rows.  An entry holds the ``Batch`` fields, and is shaped
    exactly when its stored reward differs from its original; the shaped
    flag of a checkpoint row is derived from that.

    Slots are physical ring positions; they are returned by :meth:`push` and
    :meth:`sample_slots` and stay valid until the slot is overwritten by
    eviction.  Occupied slots are always ``[0, len(buffer))``: the ring fills
    from slot 0 and never shrinks.

    The ascending list of zero-original slots is kept as entries arrive: a
    push that fills the ring appends its slot (the largest so far), and in
    a full ring the list is rebuilt only when a push flips a slot between
    zero and nonzero original reward.
    """

    def __init__(self, capacity: int, rows):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.rows = rows
        self.state_width, self.action_width = rows.obs_width, rows.action_width
        if self.state_width < 1 or self.action_width < 1:
            raise ValueError(f"state and action widths must be positive, "
                             f"got ({self.state_width}, {self.action_width})")
        self._next = 0      # next physical slot to write
        self._size = 0
        self._states = np.zeros(capacity, dtype=np.intp)
        self._actions = np.zeros(capacity, dtype=np.intp)
        self._next_states = np.zeros(capacity, dtype=np.intp)
        self._rewards = np.zeros(capacity)
        self._terminals = np.zeros(capacity, dtype=bool)
        self._originals = np.zeros(capacity)
        self._index_zero_slots()

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

    # -- writing ------------------------------------------------------------

    def push(self, state, action, reward, next_state, terminal) -> int:
        """Append one environment step, evicting the oldest entry when full.

        ``state`` and ``next_state`` are integer observation codes of the
        row source and ``action`` an action index.  Returns the physical
        slot the step was written to.
        """
        rows = self.rows
        if not (0 <= state < rows.n_codes and 0 <= next_state < rows.n_codes
                and 0 <= action < rows.n_actions):
            raise ValueError(f"codes ({state}, {action}, {next_state}) "
                             f"outside the row source")
        # math.isfinite costs push a fraction of a ufunc call on one float.
        if not math.isfinite(reward):
            raise ValueError("rewards must be finite")
        slot = self._next
        full = self._size == self.capacity
        flips = full and (self._originals[slot] == 0.0) != (reward == 0.0)
        self._states[slot] = state
        self._actions[slot] = action
        self._next_states[slot] = next_state
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

    def codes_at(self, slots: np.ndarray):
        """(state codes, action indices, next-state codes) of the entries at
        an array of slots, as copies; the row source decodes them."""
        return self._states[slots], self._actions[slots], self._next_states[slots]

    def batch_arrays(self, slots: np.ndarray) -> Batch:
        """The entries at a 1-D array of slots, as a Batch of copies."""
        self._require_entries("nothing to gather")
        slots = np.asarray(slots)
        if slots.ndim != 1:
            raise ValueError(f"slots must be a 1-D array, got {slots.ndim}-D")
        return self._gather(slots)

    def _gather(self, slots: np.ndarray) -> Batch:
        """The entries at an array of slots, as a Batch of copies."""
        states, actions, next_states = self.codes_at(slots)
        rows = self.rows
        return Batch(rows.observations(states), rows.action_vectors(actions),
                     self._rewards[slots], rows.observations(next_states),
                     self._terminals[slots], self._originals[slots])

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

    def _rows(self, slots: np.ndarray) -> np.ndarray:
        """Checkpoint rows of the entries at an array of slots."""
        batch = self._gather(slots)
        return np.column_stack([*batch, batch.rewards != batch.originals])


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


def load_buffer(path) -> Batch:
    """The entries of a checkpoint written by :func:`save_buffer`, oldest
    first, as a Batch: every field holds the stored values bit-exactly and
    the terminal flags are booleans.  Nothing is allocated for the capacity
    the header names.

    Malformed input raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _checkpoint_entries(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checkpoint_entries(raw: bytes) -> Batch:
    """The entries of a checkpoint's bytes (see :func:`load_buffer`)."""
    if len(raw) < _HEADER.size:
        raise ValueError("truncated buffer checkpoint")
    version, m1, m2, capacity, count = _HEADER.unpack_from(raw)
    if version != BUFFER_FORMAT_VERSION:
        raise ValueError(f"unsupported buffer format version {version}")
    if m1 < 1 or m2 < 1:
        raise ValueError(f"state and action widths must be positive, "
                         f"got ({m1}, {m2})")
    if capacity < 1:
        raise ValueError("capacity must be positive")
    if count > capacity:
        raise ValueError(f"{count} entries exceed the capacity {capacity}")
    widths = _row_widths(m1, m2)
    expected = _HEADER.size + 8 * sum(widths) * count
    if len(raw) != expected:
        raise ValueError(f"payload size mismatch (expected {expected} bytes, "
                         f"got {len(raw)})")
    rows = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    (states, actions, rewards, next_states, terminals, originals,
     shaped) = np.split(rows.reshape(count, sum(widths)).astype(np.float64),
                        np.cumsum(widths[:-1]), axis=1)
    flags = np.hstack([terminals, shaped])
    if not np.all((flags == 0.0) | (flags == 1.0)):
        raise ValueError("terminal and shaped flags must be 0.0 or 1.0")
    if np.any((shaped == 1.0) != (rewards != originals)):
        raise ValueError("an entry's shaped flag must be 1.0 exactly when "
                         "its stored reward differs from its original")
    if not np.all(np.isfinite(np.hstack([rewards, originals]))):
        raise ValueError("rewards must be finite")
    # NaN fails every comparison.
    observations = np.hstack([states, next_states])
    if not np.all((observations >= 0.0) & (observations < math.inf)):
        raise ValueError("states must be finite and nonnegative")
    if not np.isfinite(actions).all():
        raise ValueError("actions must be finite")
    return Batch(states, actions, rewards[:, 0], next_states,
                 terminals[:, 0] == 1.0, originals[:, 0])


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
