"""Shared domain containers: trajectory stacks, reward sets, replay batches,
replay.

The replay buffer keeps both the stored (possibly shaped) reward and the
original environment reward for every entry, so shaping is always reversible
and the shaped/unshaped populations can be told apart exactly.  Environment
steps enter it through ``ReplayBuffer.push`` and checkpoints through
``ReplayBuffer.from_rows``; both apply one entry check.  Every read of
several whole entries at once (shaping, losses, analyses) is a ``Batch``; a
TD update reads only stored rewards (``ReplayBuffer.rewards_at``).
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


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryMatrix:
    """A stacked episode: row t holds (state, action, reward) of step t.

    ``states`` is (N, m1) and nonnegative, ``actions`` is (N, m2), ``rewards``
    is (N,).  Augmentations operate on ``states`` only and must leave the
    other two blocks untouched.
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
    def from_arrays(cls, states, actions, rewards, next_states,
                    originals=None) -> "Batch":
        """Synthetic non-terminal entries; originals default to rewards."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
        originals = (rewards if originals is None
                     else np.asarray(originals, dtype=np.float64).ravel())
        return cls(states, actions, rewards, next_states,
                   np.zeros(states.shape[0], dtype=bool), originals)

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

def _check_entries(states, actions, rewards, next_states, m1, m2):
    """Reject entries that no buffer may hold; the one check on the way in.

    ``states``, ``actions`` and ``next_states`` hold one entry per row and
    ``rewards`` is an iterable of their rewards.  The state and action widths
    must be ``m1`` and ``m2`` (any, when None), states nonnegative
    (observations are RAM-like values in [0, 255]) and rewards finite.
    """
    if states.ndim != 2 or next_states.ndim != 2:
        raise ValueError("states must be 1-D vectors")
    if actions.ndim != 2:
        raise ValueError("action must be a 1-D vector")
    if states.shape != next_states.shape:
        raise ValueError(
            f"state and next_state lengths differ: "
            f"{states.shape[1]} vs {next_states.shape[1]}"
        )
    if states.shape[1] == 0 or actions.shape[1] == 0:
        raise ValueError("state and action must be non-empty")
    if m1 is not None and (states.shape[1], actions.shape[1]) != (m1, m2):
        raise ValueError(
            f"dimension mismatch: buffer holds ({m1}, {m2}) vectors, "
            f"got ({states.shape[1]}, {actions.shape[1]})"
        )
    # Counting the entries >= 0 fails NaN too, and costs push less than a
    # reduction such as all().
    if (np.count_nonzero(states >= 0) != states.size
            or np.count_nonzero(next_states >= 0) != next_states.size):
        raise ValueError("state components must be nonnegative")
    # math.isfinite costs push a fraction of a ufunc call on one float.
    if not all(map(math.isfinite, rewards)):
        raise ValueError("rewards must be finite")


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions with shaping bookkeeping.

    Entry layout per slot: state, action, stored reward (possibly shaped),
    next state, terminal flag, original environment reward, shaped flag.
    ``shaped[i] == False`` always implies ``rewards[i] == originals[i]``.

    Slots are physical ring positions; they are returned by :meth:`push` and
    :meth:`sample_slots` and stay valid until the slot is overwritten by
    eviction.  Occupied slots are always ``[0, len(buffer))``: the ring fills
    from slot 0 and never shrinks.

    The ascending list of zero-original slots is kept as entries arrive: a
    push that fills the ring appends its slot (the largest so far), and in
    a full ring the list is rebuilt only when a push flips a slot between
    zero and nonzero original reward.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._m1 = None
        self._m2 = None
        self._next = 0      # next physical slot to write
        self._size = 0
        self._zero_count = 0  # entries with original reward 0

    # -- sizing -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def state_width(self):
        return self._m1

    @property
    def action_width(self):
        return self._m2

    @property
    def nonzero_reward_count(self) -> int:
        """Number of stored entries whose *original* reward is nonzero."""
        return self._size - self._zero_count

    def _require_entries(self, what: str):
        if self._size == 0:
            raise ValueError(f"the buffer is empty: {what}")

    def _allocate(self, m1: int, m2: int):
        cap = self.capacity
        try:
            self._states = np.zeros((cap, m1))
            self._actions = np.zeros((cap, m2))
            self._rewards = np.zeros(cap)
            self._next_states = np.zeros((cap, m1))
            self._terminals = np.zeros(cap, dtype=bool)
            self._originals = np.zeros(cap)
            self._shaped = np.zeros(cap, dtype=bool)
            self._index_zero_slots()
        except (MemoryError, ValueError):  # numpy: "array is too big"
            raise ValueError(f"cannot allocate a buffer of capacity {cap}"
                             ) from None
        self._m1, self._m2 = m1, m2

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

        ``action`` is vector-encoded (one-hot for discrete action spaces).
        Returns the physical slot the step was written to.
        """
        state = np.asarray(state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        next_state = np.asarray(next_state, dtype=np.float64)
        _check_entries(state[None], action[None], (reward,), next_state[None],
                       self._m1, self._m2)
        if self._m1 is None:
            self._allocate(state.size, action.size)
        slot = self._next
        full = self._size == self.capacity
        flips = full and (self._originals[slot] == 0.0) != (reward == 0.0)
        self._states[slot] = state
        self._actions[slot] = action
        self._rewards[slot] = reward
        self._next_states[slot] = next_state
        self._terminals[slot] = terminal
        self._originals[slot] = reward
        self._shaped[slot] = False
        if flips:
            self._index_zero_slots()
        elif not full and reward == 0.0:
            self._zero_slots[self._zero_count] = slot
            self._zero_count += 1
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return slot

    def set_reward(self, slots, values, shaped):
        """Overwrite the stored rewards of distinct slots (shaping write-back).

        ``slots``, ``values`` and ``shaped`` are scalars or equal-length
        arrays.  An unshaped entry must carry its original reward; callers
        reverting a shaped entry pass the original value with
        ``shaped=False``.  Nothing is written when any entry breaks that.
        """
        self._require_entries("no reward to set")
        values = np.asarray(values, dtype=np.float64)
        shaped = np.asarray(shaped, dtype=bool)
        if np.any(~shaped & (values != self._originals[slots])):
            raise ValueError("unshaped entries must keep their original reward")
        self._rewards[slots] = values
        self._shaped[slots] = shaped

    # -- reading ------------------------------------------------------------

    def slots(self) -> np.ndarray:
        """Physical slots of all stored entries, oldest first."""
        start = (self._next - self._size) % self.capacity
        return (start + np.arange(self._size)) % self.capacity

    def zero_reward_slots(self) -> np.ndarray:
        """Slots whose original reward is zero, in ascending slot order
        (none on an empty buffer), as a read-only array that later pushes
        leave unchanged."""
        if self._size == 0:
            return np.zeros(0, dtype=np.intp)
        slots = self._zero_slots[:self._zero_count]
        slots.flags.writeable = False
        return slots

    def rewards_at(self, slots: np.ndarray) -> np.ndarray:
        """The stored (possibly shaped) rewards at an array of slots, as a
        copy; the one field a TD update reads from the buffer."""
        self._require_entries("no reward to read")
        return self._rewards[slots]

    def batch_arrays(self, slots: np.ndarray) -> Batch:
        """The entries at a 1-D array of slots, as a Batch of copies."""
        self._require_entries("nothing to gather")
        slots = np.asarray(slots)
        if slots.ndim != 1:
            raise ValueError(f"slots must be a 1-D array, got {slots.ndim}-D")
        return Batch(self._states[slots], self._actions[slots],
                     self._rewards[slots], self._next_states[slots],
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
        logical = rng.integers(0, self._size, size=batch_size)
        start = (self._next - self._size) % self.capacity
        return (start + logical) % self.capacity

    # -- checkpoint rows ----------------------------------------------------

    def to_rows(self) -> np.ndarray:
        """Stored entries as checkpoint rows, oldest first (layout at
        :func:`save_buffer`); an empty buffer gives no rows."""
        if self._m1 is None:
            return np.zeros((0, 0))
        order = self.slots()
        return np.hstack([
            self._states[order],
            self._actions[order],
            self._rewards[order, None],
            self._next_states[order],
            self._terminals[order, None].astype(np.float64),
            self._originals[order, None],
            self._shaped[order, None].astype(np.float64),
        ])

    @classmethod
    def from_rows(cls, capacity: int, m1: int, m2: int, rows) -> "ReplayBuffer":
        """Inverse of :meth:`to_rows`: a buffer holding the rows' entries,
        oldest first, in slots ``[0, len(rows))``.

        Rejects rows of another width than ``2*m1 + m2 + 4``, more rows than
        the capacity, entries that :meth:`push` would reject (stored and
        original rewards alike), flags other than exactly 0.0 or 1.0, and
        unshaped entries whose reward differs from the original.
        """
        buffer = cls(capacity)
        rows = np.asarray(rows, dtype=np.float64)
        count = rows.shape[0]
        if count == 0:
            return buffer
        width = 2 * m1 + m2 + 4
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows must be {width} values wide "
                             f"(2*m1 + m2 + 4), got shape {rows.shape}")
        if count > buffer.capacity:
            raise ValueError(f"{count} entries exceed the capacity {capacity}")
        bounds = np.cumsum([m1, m2, 1, m1, 1, 1])
        (states, actions, rewards, next_states, terminals, originals,
         shaped) = np.split(rows, bounds, axis=1)
        _check_entries(states, actions,
                       np.hstack([rewards, originals]).ravel().tolist(),
                       next_states, m1, m2)
        flags = np.hstack([terminals, shaped])
        if not np.all((flags == 0.0) | (flags == 1.0)):
            raise ValueError("terminal and shaped flags must be 0.0 or 1.0")
        if np.any((shaped == 0.0) & (rewards != originals)):
            raise ValueError("unshaped entries must keep their original reward")
        buffer._allocate(m1, m2)
        buffer._states[:count] = states
        buffer._actions[:count] = actions
        buffer._rewards[:count] = rewards[:, 0]
        buffer._next_states[:count] = next_states
        buffer._terminals[:count] = terminals[:, 0] == 1.0
        buffer._originals[:count] = originals[:, 0]
        buffer._shaped[:count] = shaped[:, 0] == 1.0
        buffer._size = count
        buffer._next = count % buffer.capacity
        buffer._index_zero_slots()
        return buffer


# ---------------------------------------------------------------------------
# buffer checkpoints
# ---------------------------------------------------------------------------
#
# Binary layout (documented for external readers):
#   bytes 0..39   header: five little-endian uint64 fields
#                 (format_version, m1, m2, capacity, count)
#   bytes 40..    count rows of (2*m1 + m2 + 4) little-endian float64 values,
#                 oldest entry first, each row laid out as
#                 [state (m1) | action (m2) | stored reward | next state (m1)
#                  | terminal (0.0/1.0) | original reward | shaped (0.0/1.0)]

def save_buffer(buffer: ReplayBuffer, path):
    """Write a replay buffer checkpoint (see module comment for the layout)."""
    header = _HEADER.pack(
        BUFFER_FORMAT_VERSION, buffer.state_width or 0,
        buffer.action_width or 0, buffer.capacity, len(buffer)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(buffer.to_rows().astype("<f8").tobytes())


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
    row_width = 2 * m1 + m2 + 4
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
