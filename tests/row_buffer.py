"""Row sources for replay buffers built without an environment, and a
replay buffer that takes rows, for tests written in rows.

``ReplayBuffer.push`` takes observation codes and action indices.
``FixedRows`` names the rows of two given tables by their indices.
``RowBuffer`` codes each row it is handed through ``GrowingRows``, which
names each distinct row by the next code, told apart by its bytes (so 0.0
and -0.0 are different rows), and then pushes the codes.
"""

import numpy as np

from ssrs.core import ReplayBuffer


def checkpoint_rows(buffer) -> np.ndarray:
    """The rows ``save_buffer`` writes for a buffer's entries, oldest first:
    the ``Batch`` fields, then the shaped flag."""
    return buffer._rows(buffer.slots())


def batch_rows(batch) -> np.ndarray:
    """A ``Batch`` laid out as checkpoint rows: its fields, then the shaped
    flag (stored reward differs from original)."""
    return np.column_stack([*batch, batch.rewards != batch.originals])


class FixedRows:
    """A row source over fixed tables: observation code ``i`` names
    ``states[i]`` and action index ``a`` names ``actions[a]``."""

    def __init__(self, states, actions):
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.float64)
        self.n_codes, self.obs_width = self.states.shape
        self.n_actions, self.action_width = self.actions.shape

    def observations(self, codes) -> np.ndarray:
        return self.states[codes]

    def action_vectors(self, actions) -> np.ndarray:
        return self.actions[actions]


class GrowingRows:
    """A row source that grows by one code per distinct row it is handed."""

    def __init__(self, obs_width: int, action_width: int):
        self.obs_width, self.action_width = obs_width, action_width
        self._rows = {"state": [], "action": []}
        self._codes = {"state": {}, "action": {}}

    def _code(self, kind: str, row) -> int:
        row = np.array(row, dtype=np.float64)
        codes, rows = self._codes[kind], self._rows[kind]
        key = (row.shape, row.tobytes())
        if key not in codes:
            codes[key] = len(rows)
            rows.append(row)
        return codes[key]

    def code(self, state) -> int:
        return self._code("state", state)

    def action(self, action) -> int:
        return self._code("action", action)

    @property
    def n_codes(self) -> int:
        return len(self._rows["state"])

    @property
    def n_actions(self) -> int:
        return len(self._rows["action"])

    def observations(self, codes) -> np.ndarray:
        rows = np.array(self._rows["state"]).reshape(-1, self.obs_width)
        return rows[codes]

    def action_vectors(self, actions) -> np.ndarray:
        rows = np.array(self._rows["action"]).reshape(-1, self.action_width)
        return rows[actions]


class RowBuffer(ReplayBuffer):
    """A ``ReplayBuffer`` over a ``GrowingRows`` whose push takes rows."""

    def __init__(self, capacity: int, state_width: int, action_width: int):
        super().__init__(capacity, GrowingRows(state_width, action_width))

    def push(self, state, action, reward, next_state, terminal) -> int:
        rows = self.rows
        return super().push(rows.code(state), rows.action(action), reward,
                            rows.code(next_state), terminal)
