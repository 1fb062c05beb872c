"""Small deterministic sparse-reward environments.

Observations are RAM-like: nonnegative integer-valued vectors scaled to
[0, 255], padded so the state width is a multiple of the default
augmentation partition count.  Both environments also decode an
observation to the compact discrete state id the tabular backbone indexes
(``state_id_of``); ``training.run_episode`` decodes each observation once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EnvSpec", "SparseChain", "KeyDoorGrid", "make_env"]

_PAD_MULTIPLE = 8


def _padded_width(raw: int, multiple: int = _PAD_MULTIPLE) -> int:
    return math.ceil(raw / multiple) * multiple


@dataclass(frozen=True)
class EnvSpec:
    """Named environment plus constructor parameters."""

    kind: str
    params: dict = field(default_factory=dict)


class SparseChain:
    """Corridor of ``length`` cells; reward 1.0 only upon reaching the far end.

    Actions: 0 steps left, 1 steps right; bumping the left wall stays put.
    The episode ends at the goal or after ``max_steps`` steps.
    """

    def __init__(self, length: int = 20, max_steps: int = 100):
        if length < 2:
            raise ValueError("chain length must be at least 2")
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        self.length = int(length)
        self.max_steps = int(max_steps)
        self.n_actions = 2
        self.n_states = self.length
        # one-hot position, scaled position, step counter, remaining steps,
        # constant marker; zero-padded to the partition multiple
        self._raw_width = self.length + 4
        self.obs_width = _padded_width(self._raw_width)
        self._pos = 0
        self._steps = 0
        self._done = True

    def reset(self, seed=None) -> np.ndarray:
        del seed  # layout is fixed; the signature mirrors seeded environments
        self._pos = 0
        self._steps = 0
        self._done = False
        return self._obs()

    def _obs(self) -> np.ndarray:
        obs = np.zeros(self.obs_width)
        obs[self._pos] = 255.0
        base = self.length
        obs[base] = float(round(255.0 * self._pos / (self.length - 1)))
        obs[base + 1] = float(255 * self._steps // self.max_steps)
        obs[base + 2] = float(255 * (self.max_steps - self._steps) // self.max_steps)
        obs[base + 3] = 255.0
        return obs

    @property
    def state_id(self) -> int:
        """Id of the current state, read from the walker's position rather
        than decoded; the independent reference for ``state_id_of``."""
        return self._pos

    def state_id_of(self, obs) -> int:
        """State id of an observation: the hot cell of its one-hot position."""
        return int(np.asarray(obs)[: self.length].argmax())

    def action_vector(self, action: int) -> np.ndarray:
        vec = np.zeros(self.n_actions)
        vec[action] = 1.0
        return vec

    def step(self, action: int):
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset first")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside [0, {self.n_actions})")
        if action == 0:
            self._pos = max(0, self._pos - 1)
        else:
            self._pos = min(self.length - 1, self._pos + 1)
        self._steps += 1
        reward = 0.0
        if self._pos == self.length - 1:
            reward = 1.0
            self._done = True
        elif self._steps >= self.max_steps:
            self._done = True
        return self._obs(), reward, self._done


class KeyDoorGrid:
    """Grid world: pick up the key, then unlock the door for reward 1.0.

    Actions: 0 up, 1 down, 2 left, 3 right; moves into walls stay put.
    Walking onto the key cell (silently) grants the key; the door cell
    terminates with reward only while holding the key.  The episode also
    ends after ``max_steps`` steps.
    """

    def __init__(self, width: int = 5, height: int = 5,
                 key_pos=(4, 0), door_pos=(4, 4), max_steps: int = 100):
        if width < 2 or height < 2:
            raise ValueError("grid must be at least 2x2")
        self.width, self.height = int(width), int(height)
        self.key_pos = tuple(key_pos)
        self.door_pos = tuple(door_pos)
        if self.key_pos == (0, 0) or self.door_pos == (0, 0):
            raise ValueError("key and door must not sit on the start cell")
        if self.key_pos == self.door_pos:
            raise ValueError("key and door must occupy different cells")
        self.max_steps = int(max_steps)
        self.n_actions = 4
        self.n_states = self.width * self.height * 2
        # one-hot cell, key flag, step counter, constant marker; padded
        self._raw_width = self.width * self.height + 3
        self.obs_width = _padded_width(self._raw_width)
        self._x = self._y = 0
        self._has_key = False
        self._steps = 0
        self._done = True

    def reset(self, seed=None) -> np.ndarray:
        del seed
        self._x = self._y = 0
        self._has_key = False
        self._steps = 0
        self._done = False
        return self._obs()

    def _cell(self) -> int:
        return self._y * self.width + self._x

    def _obs(self) -> np.ndarray:
        obs = np.zeros(self.obs_width)
        obs[self._cell()] = 255.0
        base = self.width * self.height
        obs[base] = 255.0 if self._has_key else 0.0
        obs[base + 1] = float(255 * self._steps // self.max_steps)
        obs[base + 2] = 255.0
        return obs

    @property
    def state_id(self) -> int:
        """Id of the current state, read from the walker's cell and key flag
        rather than decoded; the independent reference for ``state_id_of``."""
        return self._cell() * 2 + int(self._has_key)

    def state_id_of(self, obs) -> int:
        """State id of an observation: the cell index doubled, plus one while
        the key flag is set."""
        obs = np.asarray(obs)
        cells = self.width * self.height
        return int(obs[:cells].argmax()) * 2 + int(obs[cells] > 0.0)

    def action_vector(self, action: int) -> np.ndarray:
        vec = np.zeros(self.n_actions)
        vec[action] = 1.0
        return vec

    def step(self, action: int):
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset first")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside [0, {self.n_actions})")
        dx, dy = ((0, -1), (0, 1), (-1, 0), (1, 0))[action]
        self._x = min(max(self._x + dx, 0), self.width - 1)
        self._y = min(max(self._y + dy, 0), self.height - 1)
        self._steps += 1
        if (self._x, self._y) == self.key_pos:
            self._has_key = True
        reward = 0.0
        if (self._x, self._y) == self.door_pos and self._has_key:
            reward = 1.0
            self._done = True
        elif self._steps >= self.max_steps:
            self._done = True
        return self._obs(), reward, self._done


def make_env(spec: EnvSpec):
    """Instantiate an environment from its spec."""
    if spec.kind == "sparse_chain":
        return SparseChain(**spec.params)
    if spec.kind == "key_door_grid":
        return KeyDoorGrid(**spec.params)
    raise ValueError(f"unknown environment kind: {spec.kind!r}")
