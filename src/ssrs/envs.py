"""Small deterministic sparse-reward environments.

Observations are RAM-like: nonnegative integer-valued vectors scaled to
[0, 255], padded so the state width is a multiple of the default
augmentation partition count.  An observation is a function of the
walker's state id (the row the tabular backbone indexes) and the quantised
step counters, so the environment names it by a code built from exactly
those, ``state id * n_levels + level``: codes and observations are
one-to-one.  ``reset`` and ``step`` return the code and set ``state_id``;
they build no row.  A row is laid out in one place, ``observations``,
which decodes an array of codes.  The episode rules both environments
share (checks, step count, goal-or-time-out end and reward) live once, in
``_Episode``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["KINDS", "SparseChain", "KeyDoorGrid", "make_env"]

_PAD_MULTIPLE = 8


class _Episode:
    """The episode both environments share: sparse reward 1.0 only upon
    reaching the goal, and an end at the goal or after ``max_steps`` steps.

    A subclass checks its geometry, places the walker (``_start``), moves it
    (``_move``, which returns whether the goal was reached), names its state
    (``_state_id``), quantises the step count (``_counters``) and lays out
    observations (``_fields``: (column, value) pairs of ``raw_width``
    values, zero-padded to the partition multiple).
    """

    def __init__(self, max_steps: int, n_actions: int, raw_width: int):
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        self.max_steps = int(max_steps)
        # actions are one-hot vectors, the rows of one read-only identity
        self.n_actions = self.action_width = n_actions
        self._one_hot = np.eye(n_actions)
        self._one_hot.flags.writeable = False
        self.obs_width = math.ceil(raw_width / _PAD_MULTIPLE) * _PAD_MULTIPLE
        # A counter is 255 * steps // max_steps or 255 * (max_steps - steps)
        # // max_steps, so a counter tuple first shows at the step where the
        # first counter reaches some k (ceil(k * max_steps / 255)) or at the
        # step after it: these at most 512 steps meet every tuple.  Levels
        # number the tuples in step order.
        firsts = (-(-k * self.max_steps // 255) for k in range(256))
        steps = sorted({min(s + d, self.max_steps) for s in firsts
                        for d in (0, 1)})
        tuples = dict.fromkeys(self._counters(s) for s in steps)
        self._level_of = {c: level for level, c in enumerate(tuples)}
        self._level_counters = np.array(list(tuples))
        self.n_levels = len(tuples)
        self.n_codes = self.n_states * self.n_levels
        self._done = True  # no episode runs until the first reset

    def reset(self) -> int:
        """Start an episode; returns the start observation's code."""
        self._start()
        self._steps = 0
        self._done = False
        return self._observe()

    def action_vectors(self, actions) -> np.ndarray:
        """The one-hot vector of an action index (a read-only view), or one
        row per index of an array of them."""
        return self._one_hot[actions]

    def step(self, action: int):
        """Take one action; returns (next observation's code, reward, done)."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset first")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside [0, {self.n_actions})")
        goal = self._move(action)
        self._steps += 1
        self._done = goal or self._steps >= self.max_steps
        return self._observe(), 1.0 if goal else 0.0, self._done

    def _observe(self) -> int:
        """Set ``state_id`` and return the current observation's code."""
        self.state_id = sid = self._state_id()
        return sid * self.n_levels + self._level_of[self._counters(self._steps)]

    def observations(self, codes) -> np.ndarray:
        """The observation rows of a 1-D array of codes this environment
        gave, one row per code, written field by field; no table of every
        code is kept."""
        sids, levels = np.divmod(np.asarray(codes), self.n_levels)
        rows = np.zeros((sids.size, self.obs_width))
        index = np.arange(sids.size)
        for column, value in self._fields(sids, self._level_counters[levels].T):
            rows[index, column] = value
        return rows


class SparseChain(_Episode):
    """Corridor of ``length`` cells; reward 1.0 only upon reaching the far end.

    Actions: 0 steps left, 1 steps right; bumping the left wall stays put.
    The episode ends at the goal or after ``max_steps`` steps.
    """

    def __init__(self, length: int = 20, max_steps: int = 100):
        if length < 2:
            raise ValueError("chain length must be at least 2")
        self.length = int(length)
        self.n_states = self.length
        # one-hot position, scaled position, step counter, remaining steps,
        # constant marker; zero-padded to the partition multiple
        super().__init__(max_steps, n_actions=2, raw_width=self.length + 4)

    def _start(self):
        self._pos = 0

    def _move(self, action: int) -> bool:
        if action == 0:
            self._pos = max(0, self._pos - 1)
        else:
            self._pos = min(self.length - 1, self._pos + 1)
        return self._pos == self.length - 1

    def _state_id(self) -> int:
        return self._pos

    def _counters(self, steps):
        return (255 * steps // self.max_steps,
                255 * (self.max_steps - steps) // self.max_steps)

    def _fields(self, pos, counters):
        base = self.length
        elapsed, remaining = counters
        scaled = np.rint(255.0 * pos / (self.length - 1))
        return ((pos, 255.0), (base, scaled), (base + 1, elapsed),
                (base + 2, remaining), (base + 3, 255.0))

    def state_id_of(self, obs) -> int:
        """State id of an observation: the hot cell of its one-hot position."""
        return int(np.asarray(obs)[: self.length].argmax())


class KeyDoorGrid(_Episode):
    """Grid world: pick up the key, then unlock the door for reward 1.0.

    Actions: 0 up, 1 down, 2 left, 3 right; moves into walls stay put.
    Walking onto the key cell (silently) grants the key; the door cell
    terminates with reward only while holding the key.  The episode also
    ends after ``max_steps`` steps.  A state id is the cell index doubled,
    plus one while the key is held.
    """

    def __init__(self, width: int = 5, height: int = 5,
                 key_pos=(4, 0), door_pos=(4, 4), max_steps: int = 100):
        if width < 2 or height < 2:
            raise ValueError("grid must be at least 2x2")
        self.width, self.height = int(width), int(height)
        self.n_states = self.width * self.height * 2
        # one-hot cell, key flag, step counter, constant marker; padded
        super().__init__(max_steps, n_actions=4,
                         raw_width=self.width * self.height + 3)
        self.key_pos = tuple(key_pos)
        self.door_pos = tuple(door_pos)
        for label, (x, y) in (("key", self.key_pos), ("door", self.door_pos)):
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"{label} position ({x}, {y}) falls outside "
                                 f"the {self.width}x{self.height} grid")
        if self.key_pos == (0, 0) or self.door_pos == (0, 0):
            raise ValueError("key and door must not sit on the start cell")
        if self.key_pos == self.door_pos:
            raise ValueError("key and door must occupy different cells")

    def _start(self):
        self._x = self._y = 0
        self._has_key = False

    def _move(self, action: int) -> bool:
        dx, dy = ((0, -1), (0, 1), (-1, 0), (1, 0))[action]
        self._x = min(max(self._x + dx, 0), self.width - 1)
        self._y = min(max(self._y + dy, 0), self.height - 1)
        if (self._x, self._y) == self.key_pos:
            self._has_key = True
        return (self._x, self._y) == self.door_pos and self._has_key

    def _state_id(self) -> int:
        return (self._y * self.width + self._x) * 2 + int(self._has_key)

    def _counters(self, steps):
        return (255 * steps // self.max_steps,)

    def _fields(self, sid, counters):
        cells = self.width * self.height
        return ((sid // 2, 255.0), (cells, 255.0 * (sid % 2)),
                (cells + 1, counters[0]), (cells + 2, 255.0))

    def state_id_of(self, obs) -> int:
        """State id of an observation: the cell index doubled, plus one while
        the key flag is set."""
        obs = np.asarray(obs)
        cells = self.width * self.height
        return int(obs[:cells].argmax()) * 2 + int(obs[cells] > 0.0)


_CONSTRUCTORS = {
    "sparse_chain": lambda e: SparseChain(e.length, e.max_steps),
    "key_door_grid": lambda e: KeyDoorGrid(e.width, e.height,
                                           (e.key_x, e.key_y),
                                           (e.door_x, e.door_y), e.max_steps),
}
KINDS = tuple(_CONSTRUCTORS)


def make_env(env):
    """The environment an ``EnvConfig`` (``RunConfig.env``) describes; its
    constructor rejects a geometry it cannot run with a ``ValueError``."""
    if env.kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown environment kind: {env.kind!r}")
    return _CONSTRUCTORS[env.kind](env)
